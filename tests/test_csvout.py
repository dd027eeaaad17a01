import csv
import io

import numpy as np
import pytest

from hermevp.csvout import (CsvWriter, format_floats, write_columns,
                            write_csv)
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
    if by_columns:
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
        # the mode files' x column: formatted once, written as str fields
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
        x_fields = format_floats(table[:, 0].tolist())
        rows = zip(x_fields, table[:, 1].tolist(), table[:, 2].tolist())
        assert written(tmp_path, header, (str, float, float), rows) == expect

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
