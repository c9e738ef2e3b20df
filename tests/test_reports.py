"""Tests for table rendering: round-trip digits, CSV, JSON and pretty shapes,
and the %.17g block writer behind every machine-format float."""

import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klx import reports
from klx.reports import Table, render


@pytest.fixture
def table():
    return Table(
        names=("name", "n", "value"),
        columns=(["alpha", "beta"], [3, 10], np.array([1.0 / 3.0, math.pi])),
    )


def test_csv_round_trips_doubles(table):
    text = render(table, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "name,n,value"
    assert float(lines[1].split(",")[2]) == 1.0 / 3.0
    assert float(lines[2].split(",")[2]) == math.pi


def test_csv_uses_17_significant_digits(table):
    text = render(table, "csv")
    assert "0.33333333333333331" in text


def test_json_is_valid_and_round_trips(table):
    text = render(table, "json", extra={"passed": True})
    doc = json.loads(text)
    assert doc["passed"] is True
    assert doc["rows"][0] == {"name": "alpha", "n": 3, "value": 1.0 / 3.0}
    assert doc["rows"][1]["value"] == math.pi


def test_pretty_renders_all_rows(table):
    text = render(table, "pretty")
    lines = text.splitlines()
    assert lines[0].split() == ["name", "n", "value"]
    assert len(lines) == 4


def test_render_dispatch(table):
    assert render(table, "csv").startswith("name,n,value\n")
    assert render(table, "pretty").splitlines()[1] == "-----  --  -------------------"
    with pytest.raises(ValueError):
        render(table, "yaml")


SPECIAL = Table(("label", "x"), (["a", "b", "c", "d", "e"],
                                 np.array([math.nan, math.inf, -math.inf, -0.0, 1e6])))


def test_non_finite_floats_are_null_in_json_only():
    assert render(SPECIAL, "csv") == "label,x\na,nan\nb,inf\nc,-inf\nd,-0\ne,1000000\n"
    assert json.loads(render(SPECIAL, "json"))["rows"] == [
        {"label": "a", "x": None}, {"label": "b", "x": None}, {"label": "c", "x": None},
        {"label": "d", "x": -0.0}, {"label": "e", "x": 1e6}]
    assert render(SPECIAL, "json").count("null") == 3
    assert render(SPECIAL, "pretty").splitlines() == [
        "label  x      ", "-----  -------", "a      nan    ", "b      inf    ",
        "c      -inf   ", "d      -0     ", "e      1000000"]


def test_fallback_edge_and_negative_zero_match_per_value_format():
    # 1e6 is the first value past the fast window; its neighbours sit on both sides.
    x = np.array([-0.0, 0.0, np.nextafter(1e6, 0.0), 1e6, np.nextafter(1e6, 2e6), 1e-4,
                  np.nextafter(1e-4, 0.0)])
    text = render(Table(("x",), (x,)), "csv")
    assert text == "x\n" + "".join(f"{v:.17g}\n" for v in x.tolist())
    assert text.splitlines()[1:5] == ["-0", "0", "999999.99999999988", "1000000"]


def test_labels_are_json_quoted():
    label = 'say "hi" \\ bye'
    text = render(Table(("label", "j"), ([label], [1])), "json")
    assert json.loads(text)["rows"] == [{"label": label, "j": 1}]
    assert '"say \\"hi\\" \\\\ bye"' in text


def test_extra_values_go_through_the_writer():
    text = render(Table(("j",), ([1],)), "json", extra={"passed": False, "target": 0.1,
                                                        "bad": math.nan, "count": 3})
    assert text == ('{"rows": [{"j": 1}], "passed": false, "target": 0.10000000000000001, '
                    '"bad": null, "count": 3}\n')


def test_zero_row_table():
    empty = Table(("s", "truncated_target"), ([], []))
    assert render(empty, "csv") == "s,truncated_target\n"
    assert render(empty, "json", extra={"skipped": True}) == '{"rows": [], "skipped": true}\n'
    assert render(empty, "pretty") == "s  truncated_target\n-  ----------------\n"


def test_a_sequence_of_floats_becomes_a_float_column():
    table = Table(("x", "n"), ([0.1, 2.0], (1, 2)))
    assert table.columns[0].dtype == np.float64
    assert render(table, "csv") == "x,n\n0.10000000000000001,1\n2,2\n"


def test_a_list_numpy_reads_as_floating_is_a_float_column_whatever_its_first_item():
    assert render(Table(("x",), ([1, 0.1],)), "csv") == "x\n1\n0.10000000000000001\n"
    assert render(Table(("x",), ([1, math.nan],)), "json") == '{"rows": [{"x": 1}, {"x": null}]}\n'
    # Ints stay ints, and a column led by a bool (an int too) stays a flag column.
    assert render(Table(("n", "ok"), ([1, 2], [True, 0.5])), "json") == (
        '{"rows": [{"n": 1, "ok": true}, {"n": 2, "ok": 0.5}]}\n')


def test_columns_must_match_the_names():
    with pytest.raises(ValueError, match="one column per name"):
        Table(("a", "b"), ([1, 2], [1]))
    with pytest.raises(ValueError, match="one column per name"):
        Table(("a", "b"), ([1, 2],))


@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
def test_rows_across_block_edges_match_per_value_format(fmt):
    n = 2 * reports._BLOCK_VALUES + 3
    x = np.random.default_rng(n).standard_normal(n) * 10.0 ** (np.arange(n) % 13 - 6)
    x[::7] = 1e-7
    table = Table(("j", "x"), (range(n), x))
    text = render(table, fmt)
    cells = [f"{v:.17g}" for v in x.tolist()]
    if fmt == "csv":
        assert text.splitlines()[1:] == [f"{j},{c}" for j, c in enumerate(cells)]
    elif fmt == "json":
        assert [row["x"] for row in json.loads(text)["rows"]] == x.tolist()
        assert text.count(cells[-1]) == 1
    else:
        width = max(map(len, cells))
        assert text.splitlines()[2:] == [f"{j:<5}  {c:<{width}}" for j, c in enumerate(cells)]


def test_pretty_formats_each_float_once(monkeypatch):
    # The width pass stops at the keep-table rows: the template words of each
    # float block are built once, for its text.
    formatted, templated = [], []
    writer, words = reports._g17_text, reports._g17_words

    def counting_writer(x, row_end):
        formatted.append(x.size)
        return writer(x, row_end)

    def counting_words(row, *args):
        templated.append(row.size)
        return words(row, *args)

    monkeypatch.setattr(reports, "_g17_text", counting_writer)
    monkeypatch.setattr(reports, "_g17_words", counting_words)
    n = reports._BLOCK_VALUES + 5
    x, y = np.linspace(-1.0, 1.0, n), np.geomspace(1e-9, 1e9, n)
    render(Table(("j", "x", "y"), (range(n), x, y)), "pretty")
    assert sum(formatted) == 2 * n
    assert sorted(templated) == [5, 5, reports._BLOCK_VALUES, reports._BLOCK_VALUES]


def g17_reference(values, row_end):
    """Test-only reference: ``"%.17g" % v`` per value, then "\\n" or ","."""
    return "".join("%.17g%s" % (v, "\n" if end else ",")
                   for v, end in zip(np.asarray(values, dtype=float).tolist(),
                                     np.asarray(row_end).tolist())).encode()


def assert_g17(values):
    """The block formatter against the reference, with a row end every fifth value."""
    values = np.asarray(values, dtype=float)
    row_end = np.arange(1, values.size + 1) % 5 == 0
    assert reports._g17_text(values, row_end) == g17_reference(values, row_end)


def shown_digits(x):
    """Significant digits of ``"%.17g" % x`` after trailing zeros are stripped."""
    return ("%.16e" % abs(x))[:18].replace(".", "").rstrip("0")


def with_digits(exp, digits):
    """The first double k * 10**(exp + 1 - digits), for a ``digits``-digit k
    not ending in 0, whose %.17g shows exactly ``digits`` significant digits."""
    start = int("123456789123456789"[:digits])
    for k in range(start, 10**digits):
        x = float(f"{k}e{exp + 1 - digits}")
        if k % 10 and len(shown_digits(x)) == digits:
            return x
    raise AssertionError(f"no {digits}-digit double found at exponent {exp}")


class TestG17Formatter:
    """reports._g17_text against ``"%.17g" % x``, byte for byte."""

    EDGES = [0.99999999999999999, 9.9999999999999995e-5, 999999.99999999999, 1e-4, 1e6,
             0.1, 0.5, 1.5, 100000.0, 123456.0, 0.0, 5e-324, 2.2250738585072014e-308,
             np.inf, np.nan, 1e300, 1e16, 1e17, 12345678901234567.0]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        assert_g17(values)

    @given(st.lists(st.floats(min_value=1e-5, max_value=1e7)
                    | st.floats(min_value=-1e7, max_value=-1e-5), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_floats_around_the_fixed_range(self, values):
        assert_g17(values)

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1)))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, bits):
        assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_edge_table(self):
        values = [*self.EDGES]
        for k in range(-5, 8):
            power = float(f"1e{k}")
            values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        values += [-v for v in values]
        assert_g17(values)
        assert_g17([np.nan, -np.nan, np.inf, -np.inf])

    def test_round_half_even_ties(self):
        # Ties to 17 digits in the fixed range: odd m / 2**(17 - E) for E in -4..5.
        ties = [m / 2.0 ** (17 - exp) for exp in range(-4, 6)
                for m in (math.ceil(1.5 * 10.0**exp * 2 ** (17 - exp)) | 1) + 2 * np.arange(8)]
        exact = [Decimal(x).as_tuple().digits for x in ties]
        found = [x for x, d in zip(ties, exact) if len(d) == 18 and d[-1] == 5]
        assert len(found) == 80
        # Half of them keep an even 17th digit, which half-up rounding would raise.
        assert sum(d[16] % 2 == 0 for d in exact) == 40
        assert_g17(found + [-x for x in found])

    @pytest.mark.parametrize("exp", range(-4, 6))
    def test_each_count_of_trailing_zeros(self, exp):
        values = [with_digits(exp, digits) for digits in range(1, 18)]
        assert [math.floor(math.log10(x)) for x in values] == [exp] * 17
        assert_g17(values + [-x for x in values])

    # One of each class the fixed window leaves to "%": subnormals, the
    # smallest normal, the largest double, inf, nan, and 1e6, which
    # 999999.99999999999 also rounds to.
    FALLBACKS = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                 np.inf, -np.inf, np.nan, 999999.99999999999, -1e6]

    @pytest.mark.parametrize("row_end", [False, True])
    @pytest.mark.parametrize("value", FALLBACKS, ids=repr)
    def test_fallback_in_the_first_and_last_slot_of_a_block(self, value, row_end):
        block = np.random.default_rng(1).uniform(-1e6, 1e6, reports._BLOCK_VALUES)
        block[[0, -1]] = value
        ends = np.arange(block.size) % 3 == 0
        ends[[0, -1]] = row_end
        assert reports._g17_text(block, ends) == g17_reference(block, ends)

    def test_fallbacks_side_by_side_and_a_block_of_only_fallbacks(self):
        assert_g17([0.5, 1e-7, -1e300, 0.25, 5e-324, np.nan, 123.5])
        assert_g17(self.FALLBACKS * 3)
        for row_end in (False, True):
            ends = np.full(len(self.FALLBACKS), row_end)
            assert (reports._g17_text(np.array(self.FALLBACKS), ends)
                    == g17_reference(self.FALLBACKS, ends))

    def test_fallback_at_both_ends(self):
        assert_g17([1e-5, 0.5, 0.25, 1e7])
        assert_g17([1e-5])
        assert_g17([np.nan, 1e300, -5e-324])
        assert reports._g17_text(np.empty(0), np.empty(0, dtype=bool)) == b""


# The window's edges and the exponent boundaries inside it, 1e-4 ... 1e6.
POWERS = [10.0**k for k in range(-4, 7)]
#: The biased exponents of the 34 binades that meet the window, 2**-14 ... 2**19.
WINDOW = range(1009, 1043)


def binade_of(value):
    """Index of value's binade in the writer's tables: its sign and biased exponent."""
    return int(np.float64(value).view(np.uint64) >> np.uint64(52))


def table_exponent(value, tables):
    """The decimal exponent the tables give value: the class of its binade, one
    up from the binade's power of ten."""
    b = binade_of(value)
    above = np.float64(abs(value)).view(np.uint64) >= tables.powers[b]
    return int(tables.classes[b] + above) % reports._CLASSES - 5


def binade_edges(b):
    """The smallest and largest double of binade b, with their negatives."""
    low = math.ldexp(1.0, b - 1023)
    high = math.nextafter(2 * low, 0.0)
    return [low, high, -low, -high]


class TestExponentBoundaries:
    """The writer takes E from the binade's table entry and one compare with
    the power of ten inside it; these tests pin why that is exact."""

    @pytest.mark.parametrize("row_end", [False, True])
    def test_every_double_near_each_power(self, row_end):
        ulps = np.arange(-2**12, 2**12 + 1)
        values = np.concatenate([(np.float64(p).view(np.int64) + ulps).view(np.float64)
                                 for p in POWERS])
        values = np.concatenate([values, -values])
        ends = np.full(values.size, row_end)
        assert reports._g17_text(values, ends) == g17_reference(values, ends)

    @pytest.mark.parametrize("k", range(-4, 7))
    def test_each_power_starts_its_decade(self, k):
        power = POWERS[k + 4]
        tables = reports._g17_tables()
        for signed in (power, -power):
            threshold = tables.powers[binade_of(signed)].view(np.float64)
            assert power == float(f"1e{k}") == threshold
        assert Fraction(power) >= Fraction(10) ** k
        assert Decimal("%.17g" % math.nextafter(power, 0.0)).adjusted() == k - 1

    @pytest.mark.parametrize("b", WINDOW)
    def test_binade_edges_get_the_decade_of_e_format(self, b):
        tables = reports._g17_tables()
        for value in binade_edges(b):
            assert table_exponent(value, tables) == int(("%.17e" % value).split("e")[1])
        assert_g17(binade_edges(b))

    @pytest.mark.parametrize("b", [WINDOW[0], 1019, 1023, 1038])
    def test_a_binade_shifted_by_one_fails(self, b, monkeypatch):
        # Negative control: move one binade's entry one class up, to a wrong
        # exponent the writer still formats itself.  2**-14, 0.0625 and 1
        # start binades that hold 1e-4, 0.1 and 1; 32768's holds no power.
        tables = reports._g17_tables()
        classes = tables.classes.copy()
        classes[[b, 2048 + b]] += 1
        monkeypatch.setattr(reports, "_g17_tables", lambda: tables._replace(classes=classes))
        with pytest.raises(AssertionError):
            assert_g17(binade_edges(b))
