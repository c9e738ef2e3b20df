"""Span tracer for one klx CLI command, run in a process of its own.

    python3 benchmarks/tracer.py SPANS_JSON TRACE_ID -- <klx arguments>

Wraps the public functions of the klx modules (plus ``_kahan`` and the
``numpy.linalg.eigh`` that ``klx.nystrom`` calls) at every module-level name a
caller looks them up by, runs ``klx.cli.main(argv)`` once, keeps every span in
memory and writes them to SPANS_JSON when the command ends.  The exit code is
the command's.  Nothing under ``src/`` is changed: the wrappers are installed
from here, around the calls into each layer.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types

LAYERS = ("cli", "reports", "quadrature", "kernels", "nystrom", "eigen", "mercer", "series",
          "simulate")

#: Names a caller looks a wrapped function up by.  A span that silently goes
#: missing would read as a free layer, so the tracer refuses to run unless
#: each of these resolves to a wrapper.
REQUIRED_NAMES = (
    "klx.cli.main",
    "klx.cli.render",
    "klx.cli.compare_eigenpairs",
    "klx.cli.proof_report",
    "klx.cli.sample_paths",
    "klx.cli.covariance_test",
    "klx.cli.write_ensemble_csv",
    "klx.cli.write_ensemble_klx1",
    "klx.simulate.sample_paths",
    "klx.simulate.empirical_covariance",
    "klx.simulate.truncated_covariance",
    "klx.simulate.eigenfunction_matrix",
    "klx.nystrom.gram",
    "klx.nystrom.gauss_legendre_01",
    "klx.nystrom.nystrom_solve",
    "klx.nystrom.eigenfunction_matrix",
    "klx.mercer._kahan",
    "klx.mercer.basel_estimate",
    "klx.mercer.truncated_covariance",
    "klx.mercer.eigenfunction_matrix",
    "klx.eigen.bessel_roots",
    "klx.eigen.eigenfunction_matrix",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and trace id."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name, fn, args, kwargs, before=None, after=None):
        """Run fn as one span; before/after return counts recorded on the span."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = {"id": len(self.spans), "parent": stack[-1]["id"] if stack else None,
                    "trace": self.trace_id, "name": name, "start": 0.0, "end": 0.0}
            self.spans.append(span)
        if before is not None:
            span.update(before(args, kwargs))
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if after is not None:
            span.update(after(args, kwargs, result))
        return result

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        traced.__wrapped_by_tracer__ = True
        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _ModuleView:
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Replace each traced function at every klx module name that holds it."""
    import numpy as np

    import klx.cli  # noqa: F401  (imports every layer module)

    mods = {name: sys.modules[f"klx.{name}"] for name in LAYERS}
    legendre = mods["quadrature"].gauss_legendre_01
    eigen = mods["eigen"]

    def sized(key):
        return lambda a, k, r: {key: int(r.size)}

    def simulation_size(args, kwargs):
        config = _arg(args, kwargs, 0, "config")
        return {"normals": config.n_paths * config.truncation,
                "values_bytes": config.n_paths * config.grid.size * 8}

    def output_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}

    def roots_solved(args, kwargs):
        n_max = _arg(args, kwargs, 0, "n_max")
        return {"solved": n_max if n_max > eigen._roots_cache.size else 0}

    counts = {
        "reports.render": {"after": lambda a, k, r: {"bytes": len(r.encode())}},
        "quadrature.gauss_legendre_01": {
            "before": lambda a, k: {"hits0": legendre.cache_info().hits},
            "after": lambda a, k, r: {"hits1": legendre.cache_info().hits},
        },
        "kernels.gram": {"after": lambda a, k, r: {"entries": int(r.entries.size)}},
        "kernels.kernel_matrix": {"after": sized("entries")},
        "nystrom.nystrom_solve": {"before": lambda a, k: {"kept": _arg(a, k, 2, "n_eigs")}},
        "eigen.bessel_roots": {"before": roots_solved},
        "eigen.eigenfunction_matrix": {"after": sized("entries")},
        "eigen.eigenvalues": {"after": sized("entries")},
        "mercer.basel_estimate": {"before": lambda a, k: {"route": _arg(a, k, 0, "proof")}},
        "simulate.sample_paths": {"before": simulation_size},
        "simulate.write_ensemble_csv": {"after": output_bytes},
        "simulate.write_ensemble_klx1": {"after": output_bytes},
    }

    replacements = {}
    for layer, module in mods.items():
        for name, obj in vars(module).items():
            public = not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            if public and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                span = f"{layer}.{name}"
                replacements[id(obj)] = (obj, tracer.wrap(span, obj, **counts.get(span, {})))

    kahan = mods["series"]._kahan

    def counted_kahan(terms):
        # A generator is drawn inside the span, where the untraced sum draws it.
        terms = terms if hasattr(terms, "__len__") else list(terms)
        return kahan(terms), len(terms)

    def traced_kahan(terms):
        return tracer.call("series.kahan", counted_kahan, (terms,), {},
                           after=lambda a, k, r: {"terms": r[1]})[0]

    traced_kahan.__wrapped_by_tracer__ = True
    replacements[id(kahan)] = (kahan, traced_kahan)

    for module_name, module in list(sys.modules.items()):
        if module_name == "klx" or module_name.startswith("klx."):
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    setattr(module, name, replacements[id(obj)][1])

    eigh = tracer.wrap("nystrom.eigensolve", np.linalg.eigh,
                       after=lambda a, k, r: {"computed": int(r[0].size)})
    mods["nystrom"].np = _ModuleView(np, linalg=_ModuleView(np.linalg, eigh=eigh))

    missing = [name for name in REQUIRED_NAMES
               if not getattr(_resolve(name), "__wrapped_by_tracer__", False)]
    if missing:
        raise RuntimeError(f"tracer could not wrap: {', '.join(missing)}")


def _resolve(dotted: str):
    module_name, _, name = dotted.rpartition(".")
    return getattr(sys.modules[module_name], name)


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time of its child spans (children run in sequence)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    self_time = _self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        if key is None:
            return sum(s["end"] - s["start"] for s in group)
        if key == "self":
            return sum(self_time[s["id"]] for s in group)
        return sum(s[key] for s in group)

    def calls(name):
        return len(by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    gl = by_name.get("quadrature.gauss_legendre_01", [])
    hits = sum(s["hits1"] - s["hits0"] for s in gl)
    writes = by_name.get("simulate.write_ensemble_csv", []) + by_name.get(
        "simulate.write_ensemble_klx1", [])
    write_s = sum(s["end"] - s["start"] for s in writes)
    write_bytes = sum(s["bytes"] for s in writes)
    sample_s = total("simulate.sample_paths")
    normals = total("simulate.sample_paths", "normals")
    routes = {r: sum(s["end"] - s["start"] for s in by_name.get("mercer.basel_estimate", [])
                     if s["route"] == r) for r in (1, 2, 3)}
    kept = total("nystrom.nystrom_solve", "kept")
    computed = total("nystrom.eigensolve", "computed")

    return {
        "cli.main.s": (total("cli.main"), "s"),
        "cli.main.self_s": (total("cli.main", "self"), "s"),
        "quadrature.gauss_legendre_01.s": (total("quadrature.gauss_legendre_01"), "s"),
        "quadrature.gauss_legendre_01.calls": (len(gl), "count"),
        "quadrature.gauss_legendre_01.hit_ratio": (ratio(hits, len(gl)), "ratio"),
        "kernels.gram.s": (total("kernels.gram"), "s"),
        "kernels.gram.entries": (total("kernels.gram", "entries"), "count"),
        "kernels.kernel_matrix.s": (total("kernels.kernel_matrix"), "s"),
        "nystrom.nystrom_solve.self_s": (total("nystrom.nystrom_solve", "self"), "s"),
        "nystrom.eigensolve.s": (total("nystrom.eigensolve"), "s"),
        "nystrom.eigensolve.computed": (computed, "count"),
        "nystrom.eigensolve.useful_ratio": (ratio(kept, computed), "ratio"),
        "nystrom.compare_eigenpairs.self_s": (total("nystrom.compare_eigenpairs", "self"), "s"),
        "eigen.bessel_roots.s": (total("eigen.bessel_roots"), "s"),
        "eigen.bessel_roots.solved": (total("eigen.bessel_roots", "solved"), "count"),
        "eigen.eigenfunction_matrix.s": (total("eigen.eigenfunction_matrix"), "s"),
        "eigen.eigenfunction_matrix.entries": (
            total("eigen.eigenfunction_matrix", "entries"), "count"),
        "eigen.eigenvalues.s": (total("eigen.eigenvalues"), "s"),
        "mercer.basel_estimate.route1.s": (routes[1], "s"),
        "mercer.basel_estimate.route2.s": (routes[2], "s"),
        "mercer.basel_estimate.route3.s": (routes[3], "s"),
        "mercer.truncated_covariance.s": (total("mercer.truncated_covariance"), "s"),
        "mercer.truncated_covariance.calls": (calls("mercer.truncated_covariance"), "count"),
        "series.kahan.s": (total("series.kahan"), "s"),
        "series.kahan.terms": (total("series.kahan", "terms"), "count"),
        "simulate.sample_paths.calls": (calls("simulate.sample_paths"), "count"),
        "simulate.sample_paths.self_s": (total("simulate.sample_paths", "self"), "s"),
        "simulate.normals_drawn": (normals, "count"),
        "simulate.normals_per_s": (ratio(normals, sample_s), "1/s"),
        "simulate.covariance_test.self_s": (total("simulate.covariance_test", "self"), "s"),
        "simulate.empirical_covariance.s": (total("simulate.empirical_covariance"), "s"),
        "simulate.write.s": (write_s, "s"),
        "simulate.write.bytes": (write_bytes, "bytes"),
        "simulate.write.mb_per_s": (ratio(write_bytes / 1e6, write_s), "MB/s"),
        "simulate.values_mb": (
            max((s["values_bytes"] for s in by_name.get("simulate.sample_paths", [])), default=0)
            / 1e6, "MB"),
        "reports.render.s": (total("reports.render"), "s"),
        "reports.render.bytes": (total("reports.render", "bytes"), "bytes"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write("usage: tracer.py SPANS_JSON TRACE_ID -- <klx arguments>\n")
        return 2
    spans_path, trace_id, klx_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(trace_id)
    install(tracer)
    import klx.cli

    code = 0
    try:
        code = klx.cli.main(klx_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
