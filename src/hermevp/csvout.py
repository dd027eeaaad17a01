"""The one CSV format every hermevp output file uses.

A header row, then one row per record; fields are separated by ``,`` and
rows end in ``\\r\\n``.  Floats are written with 17 significant digits
(``%.17g``), enough to round-trip every double, so reruns are byte-for-byte
diffable; ints and strings are written as ``str`` gives them, and ``None``
as an empty field.  Fields are never quoted, so strings must not hold
``,``, ``"`` or line breaks; every string hermevp writes is a fixed name
such as a mesh kind or a region.  The bytes equal those of ``csv.writer``
given the same fields with each float preformatted as ``%.17g``.

A batch of rows is rendered with one ``%`` operation: the row format
repeated once per row, applied to all the fields in one flat list, laid
out column by column with slice assignments.  So every row (or column) is
checked for its length first; one of the wrong length raises
``DimensionMismatch`` before anything is written, instead of shifting
fields into its neighbours.  A column that holds a ``None`` is turned into
text first, its blank cells empty, and rendered as ``%s``.
"""

from __future__ import annotations

from .errors import DimensionMismatch

ROW_END = "\r\n"
FLOAT_FIELD = "%.17g"


def _field(kind) -> str:
    return FLOAT_FIELD if kind is float else "%s"


def format_floats(values) -> list:
    """The field text of each float, for a column several files share:
    written as a str column, it is formatted once instead of per file."""
    return [FLOAT_FIELD % v for v in values]


def _row_format(kinds) -> str:
    """%-format string of one row, one field per column kind; floats as
    %.17g and every other kind as %s."""
    return ",".join(map(_field, kinds)) + ROW_END


class CsvWriter:
    """Writes the header on construction, then rows of the given column
    kinds (float, int or str) to an open text file."""

    def __init__(self, fh, header, kinds):
        self.fh = fh
        self.kinds = tuple(kinds)
        fh.write(",".join(header) + ROW_END)

    def writerows(self, rows) -> None:
        """Rows as sequences of Python values, one per column."""
        rows = list(rows)
        widths = set(map(len, rows)) - {len(self.kinds)}
        if widths:
            raise DimensionMismatch(
                f"CSV rows must have {len(self.kinds)} fields, got rows "
                f"of {sorted(widths)}")
        self.writecolumns(list(zip(*rows)) or [()] * len(self.kinds))

    def writecolumns(self, columns) -> None:
        """Columns as sequences of Python values, one per column kind and
        all of one length; row i holds item i of each."""
        width = len(self.kinds)
        lengths = set(map(len, columns))
        if len(columns) != width or len(lengths) > 1:
            raise DimensionMismatch(
                f"CSV needs {width} columns of one length, got lengths "
                f"{[len(c) for c in columns]}")
        n_rows = lengths.pop()
        kinds = list(self.kinds)
        fields = [None] * (width * n_rows)
        for j, column in enumerate(columns):
            if None in column:
                field, kinds[j] = _field(kinds[j]), str
                column = ["" if v is None else field % v for v in column]
            fields[j::width] = column
        self.fh.write((_row_format(kinds) * n_rows) % tuple(fields))

    def writerow(self, row) -> None:
        self.writerows((row,))


def write_csv(path, header, kinds, rows) -> None:
    """Write a whole CSV file: header, then rows (see CsvWriter)."""
    with open(path, "w", newline="") as fh:
        CsvWriter(fh, header, kinds).writerows(rows)


def write_columns(path, header, kinds, columns) -> None:
    """Write a whole CSV file: header, then one column of values per kind
    (see CsvWriter.writecolumns)."""
    with open(path, "w", newline="") as fh:
        CsvWriter(fh, header, kinds).writecolumns(columns)
