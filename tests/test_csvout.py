import csv
import io

import numpy as np

from hermevp.csvout import CsvWriter, format_floats, write_csv

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


def written(tmp_path, header, kinds, rows):
    path = tmp_path / "out.csv"
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
