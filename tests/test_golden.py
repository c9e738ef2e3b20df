"""Golden output digests: stdout and every written file of a fixed command
list must keep the bytes recorded in tests/golden.json (see scripts/golden.py)."""

import importlib.util
import json
import pathlib

import pytest

from klx import reports

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def found():
    return golden.digests()


def test_every_output_keeps_its_golden_bytes(stored, found):
    assert sorted(found) == sorted(stored["digests"])
    problems = golden.mismatches(stored, found)
    assert not problems, "\n".join(problems)


def test_a_flipped_stored_digest_fails(stored, found):
    flipped = json.loads(json.dumps(stored))
    entry = flipped["digests"]["verify csv"]
    entry["stdout"] = entry["stdout"][::-1]
    assert golden.mismatches(flipped, found) == [
        f"verify csv: expected {entry}, got {found['verify csv']}"]


def test_another_host_fails_with_how_to_regenerate(stored, found):
    moved = dict(stored, fingerprint=dict(stored["fingerprint"], machine="elsewhere"))
    [problem] = golden.mismatches(moved, found)
    assert "fingerprint" in problem and golden.REGENERATE in problem


def sixteen_digits(x, row_end):
    return "".join("%.16g%s" % (v, "\n" if end else ",")
                   for v, end in zip(x.tolist(), row_end.tolist())).encode()


def test_a_16_digit_writer_fails(stored, monkeypatch):
    monkeypatch.setattr(reports, "_g17_text", sixteen_digits)
    names = ["verify csv", "eigen detrended json", "series zeta from-1 pretty",
             "simulate long seed 1 csv"]
    problems = golden.mismatches(stored, golden.digests(names))
    assert [problem.split(":")[0] for problem in problems] == names
