import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermevp import csvout
from hermevp.csvout import CsvWriter, float_fields, write_columns, write_csv
from hermevp.errors import DimensionMismatch

SPECIAL_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308,
                  2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e16, 123456789.0,
                  np.float64(2.0) ** 0.5]


def csv_writer_bytes(header, rows):
    """The csv.writer rendering: floats preformatted to 17 significant
    digits, None as an empty field, everything else as str."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([["" if v is None
                       else format(v, ".17g") if isinstance(v, float)
                       else v for v in row] for row in rows])
    return fh.getvalue()


def written(tmp_path, header, kinds, rows, by_columns=False):
    path = tmp_path / "out.csv"
    if by_columns == "fields":
        write_columns(path, header, kinds,
                      [float_fields(c) for c in zip(*rows)])
    elif by_columns:
        write_columns(path, header, kinds, [list(c) for c in zip(*rows)])
    else:
        write_csv(path, header, kinds, rows)
    return path.read_bytes()


class TestWriter:
    def test_mixed_rows_match_csv_writer(self, tmp_path):
        header = ("mode", "kind", "x", "y")
        kinds = (int, str, float, float)
        rows = [(i, "left_layer" if i % 2 else "-", x, SPECIAL_FLOATS[-1 - i])
                for i, x in enumerate(SPECIAL_FLOATS)]
        rows.append((-7, "", None, 1.5))
        rows.append((10**20, "exp", 2.5, None))
        expect = csv_writer_bytes(header, rows).encode()
        assert written(tmp_path, header, kinds, rows) == expect

    def test_shared_preformatted_column_matches_csv_writer(self, tmp_path):
        # the mode files' x column: rendered once, passed as its fields
        rng = np.random.default_rng(0)
        table = np.concatenate([
            np.reshape(SPECIAL_FLOATS[:12], (4, 3)),
            rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300,
                                                                (50, 3)),
        ])
        header = ("x", "u", "du")
        expect = csv_writer_bytes(header, table.tolist()).encode()
        assert written(tmp_path, header, (float,) * 3,
                       table.tolist()) == expect
        assert written(tmp_path, header, (float,) * 3, table.tolist(),
                       "fields") == expect
        x = float_fields(table[:, 0])
        path = tmp_path / "shared.csv"
        for u, du in ((1, 2), (2, 1)):
            write_columns(path, header, (float,) * 3,
                          (x, float_fields(table[:, u]),
                           float_fields(table[:, du])))
            assert path.read_bytes() == csv_writer_bytes(
                header, table[:, [0, u, du]].tolist()).encode()

    def test_streamed_rows_equal_whole_file(self, tmp_path):
        header = ("name", "n", "value")
        kinds = (str, int, float)
        rows = [("exp", 16, 1.25e-7), ("shishkin", 32, -0.0),
                ("uniform", 64, None)]
        fh = io.StringIO(newline="")
        writer = CsvWriter(fh, header, kinds)
        for row in rows:
            writer.writerow(row)
        assert fh.getvalue().encode() == written(tmp_path, header, kinds,
                                                 rows)
        assert fh.getvalue().encode() == csv_writer_bytes(header,
                                                          rows).encode()

    @pytest.mark.parametrize("by_columns", [False, True],
                             ids=["rows", "columns"])
    def test_large_file_matches_csv_writer(self, tmp_path, by_columns):
        # one %-format over the whole batch; every special value in every
        # float column, around 3000 rows of random magnitudes
        rng = np.random.default_rng(1)
        n = 3001
        values = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(
            -320, 309, (n, 2))
        for j in range(2):
            values[j::200, j][:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS
        rows = [(i, "exp" if i % 3 else "left_layer", u, du)
                for i, (u, du) in enumerate(values.tolist())]
        header = ("index", "region", "u", "du")
        expect = csv_writer_bytes(header, rows).encode()
        assert written(tmp_path, header, (int, str, float, float), rows,
                       by_columns) == expect

    @pytest.mark.parametrize("by_columns", [False, True],
                             ids=["rows", "columns"])
    @pytest.mark.parametrize("column", [0, 1, 2], ids=["int", "str", "float"])
    def test_none_gives_empty_field_in_any_column(self, tmp_path, column,
                                                  by_columns):
        header = ("n", "kind", "value")
        kinds = (int, str, float)
        rows = [[16, "exp", 0.25], [32, "shishkin", -1e-300],
                [64, "uniform", 3.5]]
        rows[1][column] = None
        expect = csv_writer_bytes(header, rows).encode()
        got = written(tmp_path, header, kinds, rows, by_columns)
        assert got == expect
        assert got.split(b"\r\n")[2].split(b",")[column] == b""

    @pytest.mark.parametrize("bad", [(1.0,), (1.0, 2.0, 3.0, 4.0),
                                     (None, 2.0), (None, 2.0, 3.0, 4.0)],
                             ids=["short", "long", "short-none",
                                  "long-none"])
    def test_wrong_length_row_raises_before_writing(self, tmp_path, bad):
        # a short row next to a long one must not borrow its fields
        header = ("a", "b", "c")
        kinds = (float,) * 3
        rows = [(0.5, 1.5, 2.5), bad, (7.0,) * (6 - len(bad))]
        fh = io.StringIO(newline="")
        writer = CsvWriter(fh, header, kinds)
        with pytest.raises(DimensionMismatch):
            writer.writerows(rows)
        assert fh.getvalue() == "a,b,c\r\n"
        path = tmp_path / "out.csv"
        with pytest.raises(DimensionMismatch):
            write_csv(path, header, kinds, rows)
        assert path.read_bytes() == b"a,b,c\r\n"

    @pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 4), (3, 3),
                                         (3, 3, 3, 3)])
    def test_wrong_columns_raise_before_writing(self, tmp_path, lengths):
        columns = [[0.5 * i] * n for i, n in enumerate(lengths)]
        fh = io.StringIO(newline="")
        writer = CsvWriter(fh, ("a", "b", "c"), (float,) * 3)
        with pytest.raises(DimensionMismatch):
            writer.writecolumns(columns)
        assert fh.getvalue() == "a,b,c\r\n"

    def test_string_in_float_column_still_raises(self):
        writer = CsvWriter(io.StringIO(newline=""), ("n", "x"), (int, float))
        with pytest.raises(TypeError):
            writer.writecolumns([[1, 2], [0.5, "0.25"]])
        with pytest.raises(TypeError):
            writer.writerows([(1, 0.5), (None, "0.25")])
        # numpy would parse "0.25" as a float: the kernel checks types first
        with pytest.raises(TypeError):
            float_fields(["0.25"])
        writer = CsvWriter(io.StringIO(newline=""), ("x", "y"), (float,) * 2)
        with pytest.raises(TypeError):
            writer.writecolumns([np.array([0.5]), np.array(["0.25"])])

    @pytest.mark.parametrize("chunk", [None, 7], ids=["one-pass", "chunked"])
    def test_float_arrays_match_lists(self, tmp_path, monkeypatch, chunk):
        # the fields path (every column float_fields output) against the %
        # path, in one pass or CHUNK rows at a time
        if chunk:
            monkeypatch.setattr(csvout, "CHUNK", chunk)
        rng = np.random.default_rng(2)
        values = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(
            -30, 30, (500, 3))
        values[:len(SPECIAL_FLOATS), 1] = SPECIAL_FLOATS
        header = ("x", "u", "du")
        rows = values.tolist()
        expect = csv_writer_bytes(header, rows).encode()
        assert written(tmp_path, header, (float,) * 3, rows, True) == expect
        assert written(tmp_path, header, (float,) * 3, rows,
                       "fields") == expect
        # the rows of one float_fields call over all columns, as a solve
        # renders u and u'
        path = tmp_path / "stacked.csv"
        fields = float_fields(values.T).reshape(3, -1)
        write_columns(path, header, (float,) * 3, list(fields))
        assert path.read_bytes() == expect
        # raw float arrays are written by the % path like any column
        write_columns(path, header, (float,) * 3,
                      [values[:, j] for j in range(3)])
        assert path.read_bytes() == expect
        # any text file will do, one without a binary buffer too
        fh = io.StringIO(newline="")
        CsvWriter(fh, header, (float,) * 3).writecolumns(list(fields))
        assert fh.getvalue().encode() == expect


def percent_fields(values):
    return [(csvout.FLOAT_FIELD % v).encode() for v in values]


def assert_kernel_matches(values):
    values = np.asarray(values, dtype=float)
    got = float_fields(values).tolist()
    expect = percent_fields(values.tolist())
    bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, expect)
           if g != e]
    assert not bad, bad[:10]


def exact_ties():
    """(k, v) pairs with v 10^k exactly halfway between two 17-digit
    integers: v = q / 2^(k+1) with 5^k q odd and in [2e16, 2e17)."""
    ties = []
    for k in range(1, 25):
        lo = -(-2 * 10 ** 16 // 5 ** k)
        hi = min(2 * 10 ** 17 // 5 ** k, 2 ** 53)
        for q in {lo, lo + 1, (lo + hi) // 2, hi - 1, hi - 2}:
            if q % 2 and lo <= q < hi:
                ties.append((k, q / 2 ** (k + 1)))
    return ties


class TestFloatKernel:
    """float_fields against Python's '%.17g', byte for byte."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float64(self, values):
        assert_kernel_matches(values)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, patterns):
        assert_kernel_matches(np.array(patterns, np.uint64).view(np.float64))

    def test_million_random_bit_patterns(self):
        rng = np.random.default_rng(3)
        patterns = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64,
                                endpoint=False)
        values = patterns.view(np.float64)
        assert (values < 0).any() and (values > 0).any()
        assert_kernel_matches(values)

    def test_powers_of_ten_and_neighbours(self):
        values = []
        for e in range(-323, 309):
            v = float(f"1e{e}")
            values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        values.append(1e20)
        # at 1e20 the significand sits exactly on 1e16
        assert Fraction(1e20) * 10 ** (16 - 20) == 10 ** 16
        values = np.array(values)
        assert_kernel_matches(np.concatenate([values, -values]))

    def test_exact_ties(self):
        ties = exact_ties()
        assert len(ties) >= 48
        for k, v in ties:
            scaled = Fraction(v) * 10 ** k
            assert scaled.denominator == 2, v
            assert 10 ** 16 <= scaled < 10 ** 17, v
        ties = [v for _, v in ties]
        halves = np.arange(-2000, 2000) + 0.5
        eighths = np.arange(-4000, 4000) / 8.0
        big_eighths = 10.0 ** 14 + np.arange(64) / 8.0
        values = np.concatenate([ties, halves, eighths, big_eighths])
        assert_kernel_matches(np.concatenate([values, -values]))

    def test_notation_switch_and_exponent_width(self):
        mantissas = np.array([1.0, 1.5, 9.999999999999999, 1.2345678901234567,
                              9.9999999999999995])
        exponents = np.array([-6, -5, -4, -3, 15, 16, 17, 18, -100, -99, 99,
                              100, -280, -279, 279, 280, -300, 300])
        values = (mantissas[:, None] * 10.0 ** exponents).ravel()
        edges = np.array([csvout.MIN_MAGNITUDE, csvout.MAX_MAGNITUDE])
        values = np.concatenate([values, edges, np.nextafter(edges, 0.0),
                                 np.nextafter(edges, np.inf)])
        assert_kernel_matches(np.concatenate([values, -values]))

    def test_power_table_is_exact(self):
        hi, lo = csvout._pow10()
        for i, (h, l) in enumerate(zip(hi.tolist(), lo.tolist())):
            exact = Fraction(10) ** (16 - (csvout._X_HI - i))
            assert h == float(exact) and l == float(exact - Fraction(h)), i

    def test_fields_are_padded_bytes(self):
        fields = float_fields([0.5, -1.25e-300, 3])
        assert fields.dtype == csvout.FIELD_DTYPE
        assert fields.tolist() == [b"0.5", b"-1.25e-300", b"3"]
        assert float_fields([]).shape == (0,)
