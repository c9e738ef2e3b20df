"""Tabular output: CSV, JSON and aligned plain text.

Every machine-format float, in a table, an ``extra`` value or an ensemble
CSV, is printed by one writer, ``_g17_text``, with the bytes of
``"%.17g" % x``, so values round-trip exactly through text.  It formats
numpy blocks by exact integer arithmetic, and values outside [1e-4, 1e6) by
``%`` into the same template; the bytes do not depend on the blocks.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

#: Values per writer call, CSV values or the rows of one table column.
_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class Table:
    """Named columns of equal length.  A float column is a float64 array (a
    sequence whose first item is a float is converted to one); a label or
    integer column is a sequence of str or int."""

    names: tuple[str, ...]
    columns: tuple[Sequence, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.names) or len({len(c) for c in self.columns}) != 1:
            raise ValueError("a table needs one column per name, all of one length")
        object.__setattr__(self, "columns", tuple(
            np.asarray(c, dtype=np.float64) if len(c) and isinstance(c[0], (float, np.floating))
            else c for c in self.columns))


# The %.17g writer.  A value x with |x| in [1e-4, 1e6), or +-0, prints in
# fixed notation.  Its decimal exponent E, in -4..5, comes from one lookup,
# where |x| falls among the powers of ten 1e-4 ... 1e6; the 17 significant
# digits are those of N = round-half-even(|x| * 10**(16 - E)), in
# [10**16, 10**17), computed exactly from the significand m < 2**53 as
# m * 5**(16 - E) in two 64-bit limbs, shifted right.  The digits of N go
# into a 32-byte template of four little-endian words, "-0.000d." "d.d.d.d."
# "d.dddddd" "ddddds..", where s is the separator; the bytes to keep depend
# only on the sign, E and the index of the last nonzero digit, and come from
# one row of the keep table.  Outside the window the template holds the
# "%.17g" text and separator, <= 25 bytes.
_U64 = np.uint64
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)
_TEN16 = _U64(10**16)
# Each 1ek here is >= 10**k, and the double just below it prints with
# exponent k - 1, so every |x| in [1ek, 1e(k+1)) prints with exponent k.
_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-4, 7)])
#: The separator, "," or "\n", as byte 5 of the fourth template word.
_SEP = np.array([ord(","), ord("\n")], dtype=np.uint64) << _U64(40)


def _keep_table() -> np.ndarray:
    """Bytes to keep of the template, by row (sign * 10 + E + 4) * 17 + last
    nonzero digit; then 33 prefix rows, the L-th keeping the first L bytes."""
    pos = np.arange(32)
    digit, dot = np.full(32, 99), np.full(32, 99)
    digit[[6, 8, 10, 12, 14, 16, *range(18, 29)]] = np.arange(17)
    dot[[7, 9, 11, 13, 15, 17]] = np.arange(6)
    sign = np.arange(2)[:, None, None, None]
    exp = np.arange(-4, 6)[:, None, None]
    last = np.arange(17)[:, None]
    keep = (((pos == 0) & (sign == 1)) | (pos == 29) | ((exp < 0) & (pos >= 1) & (pos < 2 - exp))
            | (digit <= np.maximum(exp, last)) | ((dot == exp) & (last > exp)))
    return np.vstack([keep.reshape(-1, 32), pos < np.arange(33)[:, None]])


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The formatter's tables, built on first use so that importing klx does
    not pay for them: the words "-0.000d." by lead digit; per 4-digit group
    0000..9999 the words "d.d.d.d.", "d.ddd" and "dddd", NUL-padded; per
    group 0-3 of N and group value, the index in 1..16 of its last nonzero
    digit (0 if none); the keep table and its row lengths."""
    digits = np.stack([np.tile(np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8),
                                         10 ** (3 - i)), 10**i) for i in range(4)], axis=1)

    def words(layout: str) -> np.ndarray:
        # Byte i is the group's digit layout[i] where that is 0-3, NUL where
        # it is _, else that character.
        table = np.zeros((10**4, 8), dtype=np.uint8)
        for i, c in enumerate(layout):
            table[:, i] = digits[:, int(c)] if c.isdigit() else 0 if c == "_" else ord(c)
        return table.view("<u8").ravel()

    last = (np.arange(1, 5, dtype=np.int8) * (digits != ord("0"))).max(axis=1)
    keep = _keep_table()
    return (words("-0.0003.")[:10], words("0.1.2.3."), words("0.123___"), words("0123____"),
            (last + 4 * np.arange(4, dtype=np.int8)[:, None]) * (last > 0), keep, keep.sum(axis=1))


def _scaled(m: np.ndarray, e: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """round-half-even(m * 2**e * 10**(16 - exp)) for m < 2**53 and 16 - exp
    in 11..20, with the product shifted right by 1..63 bits."""
    k = 16 - exp
    p = _POW5[k]
    mh, ml = m >> _U64(32), m & _U64(2**32 - 1)
    ph, pl = p >> _U64(32), p & _U64(2**32 - 1)
    lo = ml * pl
    mid = mh * pl + ml * ph
    low = lo + (mid << _U64(32))
    high = mh * ph + (mid >> _U64(32)) + (low < lo)
    shift = (-(k + e)).astype(np.uint64)
    n = (high << (_U64(64) - shift)) | (low >> shift)
    rest = low & ((_U64(1) << shift) - _U64(1))
    return n + (rest + (n & _U64(1)) > _U64(1) << (shift - _U64(1)))


def _g17_slots(x: np.ndarray, row_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's 32-byte template, as four words, and its keep-table row."""
    lead_words, dotted, d5dot, plain, last_digit, keep, _ = _g17_tables()
    a = np.abs(x)
    exp = np.searchsorted(_POWERS_OF_TEN, a, side="right") - 5
    fast = ((exp >= -4) & (exp <= 5)) | (a == 0.0)
    a[~fast] = 0.0
    exp[a == 0.0] = 0
    frac, e = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    e = e.astype(np.int64) - 53
    n = _scaled(m, e, exp)
    lead = n // _TEN16
    rest = n - lead * _TEN16
    high = rest // _U64(10**8)
    groups = (*np.divmod(high, _U64(10**4)), *np.divmod(rest - high * _U64(10**8), _U64(10**4)))
    words = np.empty((x.size, 4), dtype="<u8")
    words[:, 0] = lead_words[lead]
    words[:, 1] = dotted[groups[0]]
    third = plain[groups[2]]
    words[:, 2] = d5dot[groups[1]] | (third << _U64(40))
    words[:, 3] = ((third >> _U64(24)) | (plain[groups[3]] << _U64(8))
                   | _SEP[row_end.view(np.uint8)])
    last = np.maximum(np.maximum(last_digit[0][groups[0]], last_digit[1][groups[1]]),
                      np.maximum(last_digit[2][groups[2]], last_digit[3][groups[3]]))
    row = (np.signbit(x) * 10 + exp + 4) * 17 + last
    slow = np.flatnonzero(~fast)
    text = np.array(["%.17g%s" % (v, "\n" if end else ",")
                     for v, end in zip(x[slow].tolist(), row_end[slow].tolist())], dtype="S32")
    words[slow] = text.view("<u8").reshape(-1, 4)
    row[slow] = keep.shape[0] - 33 + np.char.str_len(text)
    return words, row


def _g17_text(x: np.ndarray, row_end: np.ndarray) -> bytes:
    """Bytes of ``"%.17g" % v`` for each v in x, each followed by "\\n" where
    row_end is true and by "," elsewhere."""
    words, row = _g17_slots(x, row_end)
    keep = _g17_tables()[5].take(row, axis=0)
    return np.compress(keep.ravel(), words.view(np.uint8).ravel()).tobytes()


def _width(block: Sequence) -> int:
    """Length of the longest cell of block, a float's from its keep-table row."""
    if not (isinstance(block, np.ndarray) and block.dtype == np.float64):
        return max(map(len, map(str, block)))
    row = _g17_slots(block, np.ones(block.size, dtype=bool))[1]
    return int(_g17_tables()[6].take(row).max()) - 1


def _csv_blocks(values: np.ndarray, start: int, stop: int):
    """Encoded CSV rows start..stop, formatted _BLOCK_VALUES values at a time."""
    width = values.shape[1]
    flat = np.asarray(values[start:stop], dtype=np.float64).reshape(-1)
    for i in range(0, flat.size, _BLOCK_VALUES):
        block = flat[i:i + _BLOCK_VALUES]
        yield _g17_text(block, np.arange(i + 1, i + 1 + block.size) % width == 0)


def _cells(column: Sequence, start: int, as_json: bool) -> list[str]:
    """Text of the cells column[start:start + _BLOCK_VALUES]; JSON has "null"
    for inf and nan, quoted labels and booleans true and false."""
    block = column[start:start + _BLOCK_VALUES]
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        cells = _g17_text(block, np.ones(block.size, dtype=bool))[:-1].decode("ascii").split("\n")
        if as_json:
            for i in np.flatnonzero(~np.isfinite(block)).tolist():
                cells[i] = "null"
        return cells
    if as_json and isinstance(block[0], (str, bool)):
        quoted = {v: json.dumps(v) for v in set(block)}
        return [quoted[v] for v in block]
    return list(map(str, block))


def _blocks(table: Table, template: str, sep: str, as_json: bool) -> Iterator[str]:
    """Each block of rows, every row through the % template, joined by sep."""
    for start in range(0, len(table.columns[0]), _BLOCK_VALUES):
        rows = zip(*(_cells(column, start, as_json) for column in table.columns))
        yield sep.join(map(template.__mod__, rows))


def _json_fields(names: Sequence[str]) -> str:
    return ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in names)


def to_csv_text(table: Table) -> str:
    template = ",".join(["%s"] * len(table.names))
    return "\n".join([",".join(table.names), *_blocks(table, template, "\n", False), ""])


def to_json_text(table: Table, extra: dict | None = None) -> str:
    """One JSON object with a "rows" array, then the keys of extra if any."""
    rows = ", ".join(_blocks(table, "{" + _json_fields(table.names) + "}", ", ", True))
    fields = ""
    if extra:
        values = Table(tuple(extra), tuple([value] for value in extra.values()))
        fields = ", " + next(_blocks(values, _json_fields(values.names), "", True))
    return "".join(['{"rows": [', rows, "]", fields, "}\n"])


def to_pretty_text(table: Table) -> str:
    """A header, a rule and the rows, each column padded to its widest cell."""
    starts = range(0, len(table.columns[0]), _BLOCK_VALUES)
    widths = [max([len(name), *(_width(column[i:i + _BLOCK_VALUES]) for i in starts)])
              for name, column in zip(table.names, table.columns)]
    template = "  ".join(f"%-{width}s" for width in widths)
    rule = "  ".join("-" * width for width in widths)
    return "\n".join([template % table.names, rule, *_blocks(table, template, "\n", False), ""])


def render(table: Table, fmt: str, extra: dict | None = None) -> str:
    if fmt == "csv":
        return to_csv_text(table)
    if fmt == "json":
        return to_json_text(table, extra)
    if fmt == "pretty":
        return to_pretty_text(table)
    raise ValueError(f"unknown output format: {fmt!r}")
