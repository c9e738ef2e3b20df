"""Tabular output: CSV, JSON and aligned plain text.

Every machine-format float, in a table, an ``extra`` value or an ensemble
CSV, is printed by one writer, ``_g17_text``, with the bytes of
``"%.17g" % x``, so values round-trip exactly through text.  It formats a
numpy block by exact integer arithmetic into one NUL-padded template per
value, values outside [1e-4, 1e6) by ``%`` into the same template, and drops
the NULs of the whole block in one pass; the bytes do not depend on the
blocks.  A pretty table's widths come from the same pass, stopped before the
templates.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Values per writer call, CSV values or the rows of one table column.
_BLOCK_VALUES = 2**14


def _column(c: Sequence) -> Sequence:
    """c as a float64 array if numpy reads it as floating, else as it is.  Only
    a column led by a number, not a bool, is read: labels and a range stay
    unread."""
    first = c[0] if len(c) and not isinstance(c, range) else None
    if isinstance(first, bool) or not isinstance(first, (int, float, np.number)):
        return c
    a = np.asarray(c)
    return a.astype(np.float64, copy=False) if a.dtype.kind == "f" else c


@dataclass(frozen=True)
class Table:
    """Named columns of equal length.  A float column is a float64 array (a
    sequence of numbers that numpy reads as floating is converted to one); a
    label or integer column is a sequence of str or int."""

    names: tuple[str, ...]
    columns: tuple[Sequence, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.names) or len({len(c) for c in self.columns}) != 1:
            raise ValueError("a table needs one column per name, all of one length")
        object.__setattr__(self, "columns", tuple(map(_column, self.columns)))


# The %.17g writer.  A value x with |x| in [1e-4, 1e6), or +-0, prints in
# fixed notation.  Its class holds its sign and decimal exponent E, in -4..5.
# The top 12 bits of x, sign and biased exponent b, pick its binade, whose
# table entry is the class of the binade's smallest values; at most one power
# of ten 1ek lies in a binade, and values from it up are one class higher.  The
# 17 significant digits are those of N = round-half-even(|x| * 10**(16 - E)),
# in [10**16, 10**17).  With the significand m < 2**53, x = m * 2**(b - 1075)
# and N = m * 5**k / 2**s for k = 16 - E and s = 1059 + E - b in 22..46.  The
# float product |x| * 10**k, truncated, is within 13 of N, so m * 5**k mod
# 2**64 minus it times 2**s is the exact remainder, below 2**51 in magnitude:
# its high bits correct the estimate and its low bits round it.  The digits of
# N go into a 32-byte template of four little-endian words, "-0.000d."
# "d.d.d.d." "d.dddddd" "ddddds..", where s is the separator; the bytes to keep
# depend only on the class and the index of the last nonzero digit, and one
# row of the mask table zeroes the others, so deleting every NUL byte leaves
# the text.  A value outside the window (or subnormal, inf or nan) gets its
# "%.17g" text, at most 24 bytes, in the template instead, NUL-padded up to
# the separator, and a row that keeps everything.
_U64 = np.uint64
#: The separator, "," or "\n", as byte 5 of the fourth template word.
_SEP = np.array([ord(","), ord("\n")], dtype=np.uint64) << _U64(40)
#: Classes per sign, j = 0..13: j = E + 5 for E = -5..6, of which "%" formats
#: j = 0 and 11; zero is j = 12, and every other binade, inf and nan j = 13.
_CLASSES = 14
#: The 34 binades that meet the window, 2**-14 ... 2**19, by biased exponent.
_WINDOW = range(1009, 1043)


class _Tables(NamedTuple):
    """The writer's lookup tables, k and s as in the comment above."""

    lead: np.ndarray  # "-0.000d." by lead digit
    dotted: np.ndarray  # "d.d.d.d." by 4-digit group
    d5dot: np.ndarray  # "d.ddd"
    plain: np.ndarray  # "dddd"
    last: np.ndarray  # per group 0-3 and value: index in 1..16 of its last nonzero digit, or 0
    classes: np.ndarray  # by sign and biased exponent: the class of the binade's smallest values
    powers: np.ndarray  # the bits of the power of ten inside the binade, else 2**64 - 1
    slow: np.ndarray  # by class: "%" formats it
    scale: np.ndarray  # 10.0**k
    pow5: np.ndarray  # 5**k, 0 where N = 0
    shift: np.ndarray  # s plus the binade index
    half: np.ndarray  # by s: 2**(s - 1) - 1
    masks: np.ndarray  # by row: 0xff for each byte to keep
    widths: np.ndarray  # by row: characters kept, 0 for a class "%" formats


def _keep_table(exp: np.ndarray, slow: np.ndarray) -> np.ndarray:
    """Bytes to keep of the template, by row class * 17 + last nonzero digit."""
    pos = np.arange(32)
    digit, dot = np.full(32, 99), np.full(32, 99)
    digit[[6, 8, 10, 12, 14, 16, *range(18, 29)]] = np.arange(17)
    dot[[7, 9, 11, 13, 15, 17]] = np.arange(6)
    sign = (np.arange(exp.size) // _CLASSES)[:, None, None]
    exp, slow = exp[:, None, None], slow[:, None, None]
    last = np.arange(17)[:, None]
    keep = (slow | ((pos == 0) & (sign == 1)) | (pos == 29)
            | ((exp < 0) & (pos >= 1) & (pos < 2 - exp))
            | (digit <= np.maximum(exp, last)) | ((dot == exp) & (last > exp)))
    return keep.reshape(-1, 32)


@functools.cache
def _g17_tables() -> _Tables:
    """The formatter's tables, built on first use so that importing klx does
    not pay for them."""
    digits = np.stack([np.tile(np.repeat(np.arange(ord("0"), ord("9") + 1, dtype=np.uint8),
                                         10 ** (3 - i)), 10**i) for i in range(4)], axis=1)

    def words(layout: str) -> np.ndarray:
        # Byte i is the group's digit layout[i] where that is 0-3, NUL where
        # it is _, else that character.
        table = np.zeros((10**4, 8), dtype=np.uint8)
        for i, c in enumerate(layout):
            table[:, i] = digits[:, int(c)] if c.isdigit() else 0 if c == "_" else ord(c)
        return table.view("<u8").ravel()

    last = (np.arange(1, 5, dtype=np.int16) * (digits != ord("0"))).max(axis=1)
    # Each 1ek is >= 10**k, and the double just below it prints with exponent
    # k - 1, so every |x| in [1ek, 1e(k+1)) prints with exponent k.
    powers = np.array([float(f"1e{k}") for k in range(-5, 7)])
    low = np.ldexp(1.0, np.arange(_WINDOW.start - 1023, _WINDOW.stop - 1023))
    below = np.searchsorted(powers, low) - 1
    inside = powers[below + 1] < 2 * low
    classes = np.full((2, 2048), _CLASSES - 1, dtype=np.int16)
    bits = np.full((2, 2048), 2**64 - 1, dtype=np.uint64)
    classes[:, _WINDOW] = below + np.arange(2)[:, None] * _CLASSES
    bits[:, _WINDOW] = np.where(inside, powers[below + 1].view(np.uint64), bits[:, _WINDOW])
    classes[:, 0] = 12 + np.arange(2) * _CLASSES
    bits[:, 0] = 1  # zero, then subnormals one class up
    sign, j = np.divmod(np.arange(2 * _CLASSES), _CLASSES)
    slow = (j == 0) | (j == 11) | (j == 13)
    exp = np.where(j < 12, j - 5, 0)  # zero prints as E = 0
    k = 16 - exp
    number = ~slow & (j != 12)
    pow5 = np.array([5 ** int(i) for i in k], dtype=np.uint64) * number
    # The binade index adds 2048 to b for a negative x.  Zero gets N = 0 with
    # s = 40, and so does a value "%" formats, once its binade is set to 0.
    shift = np.where(number, 1059 + exp, 40) + 2048 * sign * ~slow
    keep = _keep_table(exp, slow)
    return _Tables(
        words("-0.0003.")[:10], words("0.1.2.3."), words("0.123___"), words("0123____"),
        ((last + 4 * np.arange(4, dtype=np.int16)[:, None]) * (last > 0)).astype(np.int16),
        classes.ravel(), bits.ravel(), slow, 10.0**k, pow5, shift.astype(np.uint64),
        np.array([2 ** max(s - 1, 0) - 1 for s in range(64)], dtype=np.uint64),
        (keep * np.uint8(0xFF)).view("<u8"),
        np.where(slow.repeat(17), 0, keep.sum(axis=1) - 1).astype(np.int16))


def _g17_rows(x: np.ndarray) -> tuple:
    """Each value's keep-table row, the lead digit and four 4-digit groups of
    N (0 for a value "%" formats), and the indices and "%.17g" text of those
    values."""
    t = _g17_tables()
    bits = x.view(np.uint64)
    binade = bits >> _U64(52)
    a = np.abs(x)
    cls = t.classes.take(binade)
    cls += a.view(np.uint64) >= t.powers.take(binade)
    slow = np.flatnonzero(t.slow.take(cls))
    if slow.size:
        a[slow] = 0.0
        binade[slow] = 0
    a *= t.scale.take(cls)
    n = a.astype(np.uint64)  # within 13 of N
    low = bits & _U64(2**52 - 1)
    low |= _U64(2**52)
    low *= t.pow5.take(cls)  # m * 5**k mod 2**64
    s = t.shift.take(cls)
    s -= binade
    r = n << s
    np.subtract(low, r, out=r)  # m * 5**k - n * 2**s, exact as a signed word
    r += t.half.take(s)
    low >>= s
    low &= _U64(1)
    r += low  # half to even: adds 2**(s - 1) - 1, plus 1 if m * 5**k // 2**s is odd
    n, r = n.view(np.int64), r.view(np.int64)
    r >>= s.view(np.int64)
    n += r
    high = n // 10**8
    n -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    g0, g2 = high // 10**4, n // 10**4
    high -= g0 * 10**4
    n -= g2 * 10**4
    groups = (g0, high, g2, n)
    last = t.last[0].take(g0)
    for i in range(1, 4):
        np.maximum(last, t.last[i].take(groups[i]), out=last)
    text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S32")
    return cls * 17 + last, lead, groups, slow, text


def _g17_words(row: np.ndarray, lead: np.ndarray, groups: tuple, slow: np.ndarray,
               text: np.ndarray, row_end: np.ndarray) -> np.ndarray:
    """Each value's masked template, as four words: NUL where no byte prints."""
    t = _g17_tables()
    words = np.empty((row.size, 4), dtype="<u8")
    words[:, 0] = t.lead.take(lead)
    words[:, 1] = t.dotted.take(groups[0])
    third = t.plain.take(groups[2])
    np.bitwise_or(t.d5dot.take(groups[1]), third << _U64(40), out=words[:, 2])
    seps = _SEP.take(row_end.view(np.uint8))
    third >>= _U64(24)
    third |= t.plain.take(groups[3]) << _U64(8)
    third |= seps
    words[:, 3] = third
    words[slow] = text.view("<u8").reshape(-1, 4)
    words[slow, 3] |= seps[slow]
    words &= t.masks.take(row, axis=0)
    return words


def _g17_text(x: np.ndarray, row_end: np.ndarray) -> bytes:
    """Bytes of ``"%.17g" % v`` for each v in x, each followed by "\\n" where
    row_end is true and by "," elsewhere."""
    return _g17_words(*_g17_rows(x), row_end).tobytes().translate(None, b"\0")


def _width(block: Sequence) -> int:
    """Length of the longest cell of block, a float's from its keep-table row
    or its "%" text."""
    if not (isinstance(block, np.ndarray) and block.dtype == np.float64):
        return max(map(len, map(str, block)))
    row, *_, text = _g17_rows(block)
    return max([int(_g17_tables().widths.take(row).max()), *np.char.str_len(text).tolist()])


def _csv_blocks(values: np.ndarray) -> Iterator[bytes]:
    """Encoded CSV rows of a matrix, formatted _BLOCK_VALUES values at a time."""
    width = values.shape[1]
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    row_end = np.arange(1, _BLOCK_VALUES + width + 1) % width == 0
    for i in range(0, flat.size, _BLOCK_VALUES):
        block = flat[i:i + _BLOCK_VALUES]
        yield _g17_text(block, row_end[i % width:i % width + block.size])


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
    if as_json and isinstance(block[0], (str, bool, np.bool_)):
        # json.dumps raises on a numpy bool, so those go through bool.
        quoted = {v: json.dumps(bool(v) if isinstance(v, np.bool_) else v) for v in set(block)}
        return [quoted[v] for v in block]
    return list(map(str, block))


def _blocks(table: Table, template: str, sep: str, as_json: bool) -> Iterator[str]:
    """Each block of rows, every row through the % template, joined by sep."""
    for start in range(0, len(table.columns[0]), _BLOCK_VALUES):
        rows = zip(*(_cells(column, start, as_json) for column in table.columns))
        yield sep.join(map(template.__mod__, rows))


def _json_fields(names: Sequence[str]) -> str:
    return ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in names)


def render(table: Table, fmt: str, extra: dict | None = None) -> str:
    """The table as text.  csv: a header and the rows.  json: one object with
    a "rows" array, then the keys of extra if any.  pretty: a header, a rule
    and the rows, each column padded to its widest cell.  Only json prints
    extra."""
    if fmt == "csv":
        template = ",".join(["%s"] * len(table.names))
        return "\n".join([",".join(table.names), *_blocks(table, template, "\n", False), ""])
    if fmt == "json":
        rows = ", ".join(_blocks(table, "{" + _json_fields(table.names) + "}", ", ", True))
        fields = ""
        if extra:
            values = Table(tuple(extra), tuple([value] for value in extra.values()))
            fields = ", " + next(_blocks(values, _json_fields(values.names), "", True))
        return "".join(['{"rows": [', rows, "]", fields, "}\n"])
    if fmt == "pretty":
        starts = range(0, len(table.columns[0]), _BLOCK_VALUES)
        widths = [max([len(name), *(_width(column[i:i + _BLOCK_VALUES]) for i in starts)])
                  for name, column in zip(table.names, table.columns)]
        template = "  ".join(f"%-{width}s" for width in widths)
        rule = "  ".join("-" * width for width in widths)
        return "\n".join([template % table.names, rule, *_blocks(table, template, "\n", False), ""])
    raise ValueError(f"unknown output format: {fmt!r}")
