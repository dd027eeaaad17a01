"""The one CSV format every hermevp output file uses.

A header row, then one row per record; fields are separated by ``,`` and
rows end in ``\\r\\n``.  Floats are written with 17 significant digits
(``%.17g``), enough to round-trip every double, so reruns are byte-for-byte
diffable; ints and strings are written as ``str`` gives them, and ``None``
as an empty field.  Fields are never quoted, so strings must not hold
``,``, ``"`` or line breaks; every string hermevp writes is a fixed name
such as a mesh kind or a region.  The bytes equal those of ``csv.writer``
given the same fields with each float preformatted as ``%.17g``.

Two renderers produce these bytes.

Record-sized writes, rows or columns of Python values (the study records,
``eigenvalues.csv``, ``interp.csv``, ``table1.csv``, ``mesh.csv``), are
rendered with one ``%`` operation per batch: the row format repeated once
per row, applied to all the fields in one flat list, laid out column by
column with slice assignments.  A column that holds a ``None`` is turned
into text first, its blank cells empty, and rendered as ``%s``.  A numpy
pass costs about 100 us per call, more than ``%`` spends on a few rows.

Float columns given as numpy arrays (the mode files' ``x``, ``u`` and
``du``) are rendered by ``float_fields``, a vectorized kernel whose bytes
equal ``'%.17g' % v`` for every double:

- the decimal exponent X is ``floor(log10|v|)``;
- the 17-digit significand D = round(|v| 10^k), k = 16 - X, comes from the
  double-double product of |v| with a (hi, lo) table of powers of ten,
  ``|v| * hi`` made exact by Dekker's split (Numer. Math. 18, 1971);
- the digits come from a table of every 4-digit group, and each value's
  layout (sign, fixed or scientific, trailing zeros stripped, a 2- or
  3-digit exponent) is one gather through a table of byte templates.

The computed fraction of |v| 10^k is within 4e-15 of the exact one.  Python
``%`` renders the values the kernel cannot settle: zero, inf and nan, |v|
outside [MIN_MAGNITUDE, MAX_MAGNITUDE), a fraction within TIE_TOL of one
half (exact ties included), and a D not strictly between 1e16 and 1e17,
where the exponent was off or rounding carries into a new digit.  Each
field sits left-aligned and NUL-padded in a SLOT-byte window of its row,
between the separators, and the file body is the row buffer with its NULs
deleted by ``bytes.translate``.  Fields are rendered and written CHUNK
rows at a time, so the temporaries stay bounded whatever the file length;
CHUNK is the fastest of those measured on the benchmark's ``fine_solve``
files (``BENCH_2026-10-19_csv-kernel.json``).

A float file is written this way when every column is passed rendered,
as ``float_fields`` gives it; a raw float array takes the ``%`` path like
any other column.  The mode files' x column joins the grid's fields,
rendered once per process, with those of the mesh nodes, and each mode's
u and u' are rendered in one ``float_fields`` call as its file is
written, so only one file's fields are held at a time.

Every row (or column) is checked for its length first; one of the wrong
length raises ``DimensionMismatch`` before anything is written, instead of
shifting fields into its neighbours.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch

ROW_END = "\r\n"
FLOAT_FIELD = "%.17g"

DIGITS = 17
SLOT = 24               # the longest field, "-1.2345678901234567e-308"
FIELD_DTYPE = np.dtype(f"S{SLOT}")
MIN_MAGNITUDE, MAX_MAGNITUDE = 1e-280, 1e280   # Dekker split stays exact
TIE_TOL = 1e-9
CHUNK = 4096            # values per kernel pass and rows per written block
_GATHER = 512           # values per template gather, whose index is the
                        # largest temporary: SLOT intp per value
_SPLIT = 134217729.0    # 2**27 + 1: Dekker's splitter for 53-bit doubles
_X_LO, _X_HI = -281, 280    # decimal exponents the tables serve
_MODES = 23             # fixed for X = -4..16, scientific e±XX and e±XXX

# Byte offsets in a kernel row of eight 4-byte words: "0000", "000" and
# the 17 digits, NUL . - e, the exponent's sign and three digits.
_DIG, _NUL, _DOT, _MINUS, _E, _EXP, _ROW = 7, 24, 25, 26, 27, 28, 32


def _field(kind) -> str:
    return FLOAT_FIELD if kind is float else "%s"


def _row_format(kinds) -> str:
    """%-format string of one row, one field per column kind; floats as
    %.17g and every other kind as %s."""
    return ",".join(map(_field, kinds)) + ROW_END


def _pow10():
    """10^k as hi + lo doubles for k = 16 - X, X from _X_HI down to _X_LO,
    from exact integers; each half is correctly rounded."""
    hi, lo = [], []
    den = 10 ** (_X_HI - DIGITS + 1)
    while den > 1:                              # k = 16 - _X_HI, ..., -1
        h = 1 / den
        num, pow2 = h.as_integer_ratio()
        hi.append(h)
        lo.append((pow2 - num * den) / den / pow2)  # pow2 scales exactly
        den //= 10
    exact = 1
    for _ in range(DIGITS - _X_LO):             # k = 0, ..., 16 - _X_LO
        hi.append(float(exact))
        lo.append(float(exact - int(hi[-1])))
        exact *= 10
    return np.array(hi), np.array(lo)


def _templates():
    """Source byte of every field byte, one row per layout class
    (sign, mode, significant digits); mode X + 4 is fixed notation for
    -4 <= X <= 16, 21 scientific with a 2-digit and 22 with a 3-digit
    exponent.  A negative class is its positive one after a "-"."""
    mode, nsig = (a.reshape(-1, 1) for a in np.meshgrid(
        range(_MODES), range(1, DIGITS + 1), indexing="ij"))
    x, sci = mode - 4, mode >= _MODES - 2
    head = np.where(sci | (x < 0), 1, x + 1)    # characters before the dot
    head_src = np.where(~sci & (x < 0), 0, _DIG)     # byte 0 is a "0"
    tail = np.maximum(np.where(sci, nsig - 1, nsig - x - 1), 0)
    tail_src = np.where(sci, _DIG + 1, _DIG + 1 + x)
    exp_len = np.where(mode == _MODES - 1, 5, np.where(sci, 4, 0))
    j = np.arange(SLOT)
    dot = head + (tail > 0)
    exp_at = dot + tail
    m = j - exp_at                          # e, sign, [hundreds,] tens, units
    exp_src = np.select([m == 0, m == 1], [_E, _EXP], _EXP + 4 + m - exp_len)
    plus = np.select([j < head, j < dot, j < exp_at, j < exp_at + exp_len],
                     [head_src + j, _DOT, tail_src + j - dot, exp_src], _NUL)
    minus = np.concatenate([np.full((len(plus), 1), _MINUS), plus[:, :-1]],
                           axis=1)
    return np.concatenate([plus, minus]).astype(np.intp)


class _Tables(NamedTuple):
    """The kernel's read-only tables.  Row i of the first six is for the
    decimal exponent X = _X_HI - i: 10^(16-X) as hi + lo, hi's two Dekker
    halves, the exponent's four bytes and the layout class of X with 17
    significant digits.  group4 and zeros4 hold every 4-digit group's
    digits and trailing zeros."""
    hi: np.ndarray
    lo: np.ndarray
    hi_h: np.ndarray
    hi_l: np.ndarray
    exp_word: np.ndarray
    cls_base: np.ndarray
    group4: np.ndarray
    zeros4: np.ndarray
    templates: np.ndarray


@cache
def _tables() -> _Tables:
    """The kernel's tables, built once per process."""
    hi, lo = _pow10()
    c = hi * _SPLIT
    hi_h = c - (c - hi)
    group = np.arange(10000)
    digits = (np.stack([group // 1000, group // 100 % 10, group // 10 % 10,
                        group % 10], axis=1) + ord("0")).astype(np.uint8)
    x = _X_HI - np.arange(len(hi))
    exp = digits[np.abs(x)]
    exp[:, 0] = np.where(x < 0, ord("-"), ord("+"))
    mode = np.where((x >= -4) & (x < DIGITS), x + 4,
                    np.where(np.abs(x) < 100, _MODES - 2, _MODES - 1))
    tables = _Tables(
        hi, lo, hi_h, hi - hi_h, exp.view(np.uint32).ravel(),
        mode * DIGITS + DIGITS - 1, digits.view(np.uint32).ravel(),
        sum(group % 10 ** e == 0 for e in range(1, 5)).astype(np.uint8),
        _templates())
    for table in tables:
        table.setflags(write=False)
    return tables


def _significand(v):
    """Per value: the table row i of its decimal exponent X = _X_HI - i,
    its 17 digits D = round(|v| 10^(16-X)) and whether the kernel settles
    it; an unsettled value gets D = 10^16 + 1."""
    tab = _tables()
    a = np.abs(v)
    ok = (a >= MIN_MAGNITUDE) & (a < MAX_MAGNITUDE)     # no 0, inf or nan
    a = np.where(ok, a, 1.0)
    i = _X_HI - np.floor(np.log10(a)).astype(np.intp)
    c = a * _SPLIT
    a_h = c - (c - a)
    a_l = a - a_h
    th, th_h, th_l = tab.hi[i], tab.hi_h[i], tab.hi_l[i]
    p = a * th
    # a 10^k - p: Dekker's exact error of the rounded product, plus a * lo
    t = (((a_h * th_h - p) + a_h * th_l + a_l * th_h) + a_l * th_l
         + a * tab.lo[i])
    r = np.rint(t)
    d = p.astype(np.int64) + r.astype(np.int64)
    ok &= ((np.abs(np.abs(t - r) - 0.5) > TIE_TOL) & (d > 10 ** 16)
           & (d < 10 ** 17))
    d[~ok] = 10 ** 16 + 1
    return i, d, ok


def _layout_sources(v, i, d):
    """Per value: its kernel row of source bytes and its layout class."""
    tab = _tables()
    top = d // 10 ** 8
    low = d - top * 10 ** 8
    q = top // 10 ** 4
    g0, g3 = q // 10 ** 4, low // 10 ** 4
    groups = (g0, q - g0 * 10 ** 4, top - q * 10 ** 4, g3, low - g3 * 10 ** 4)
    row = np.empty((len(v), _ROW // 4), np.uint32)
    row[:, 0] = tab.group4[0]
    for w, g in enumerate(groups, 1):
        row[:, w] = tab.group4[g]
    row[:, 6] = np.frombuffer(b"\0.-e", np.uint32)[0]
    row[:, 7] = tab.exp_word[i]
    z1, z2, z3, z4 = (tab.zeros4[g] for g in groups[1:])
    trailing = z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))
    return row, np.signbit(v) * (_MODES * DIGITS) + tab.cls_base[i] - trailing


def _render(v, out) -> None:
    """'%.17g' % v of each float64 in v, NUL-padded into the rows of the
    (len(v), SLOT) uint8 array out."""
    i, d, ok = _significand(v)
    row, cls = _layout_sources(v, i, d)
    source = row.view(np.uint8).ravel()
    for start in range(0, len(v), _GATHER):
        index = _tables().templates.take(cls[start:start + _GATHER], axis=0)
        index += (np.arange(start, start + len(index)) * _ROW)[:, None]
        out[start:start + _GATHER] = source.take(index)
    bad = np.flatnonzero(~ok)
    for j, value in zip(bad.tolist(), v[bad].tolist()):
        field = (FLOAT_FIELD % value).encode()
        out[j] = np.frombuffer(field.ljust(SLOT, b"\0"), np.uint8)


def _numbers(values) -> np.ndarray:
    """values as a flat float64 array; they must be numbers, not strings,
    which numpy would parse."""
    v = np.asarray(values)
    if v.dtype.kind not in "biuf":
        raise TypeError(f"float fields need numbers, got dtype {v.dtype}")
    return v.astype(np.float64, copy=False).ravel()


def float_fields(values) -> np.ndarray:
    """'%.17g' % v of every value as FIELD_DTYPE bytes.  A float column
    several files share is rendered once and passed to writecolumns in
    place of its values."""
    v = _numbers(values)
    out = np.empty(len(v), FIELD_DTYPE)
    rows = out.view(np.uint8).reshape(len(v), SLOT)
    for start in range(0, len(v), CHUNK):
        _render(v[start:start + CHUNK], rows[start:start + CHUNK])
    return out


def _is_fields_column(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == FIELD_DTYPE


def _write_fields(fh, columns, n_rows) -> None:
    """Write the rows of float_fields columns CHUNK rows at a time: each
    field copied into its window of a row buffer between the separators,
    then the buffer's NULs deleted."""
    step = SLOT + 1
    columns = [np.ascontiguousarray(c).view(np.uint8).reshape(n_rows, SLOT)
               for c in columns]
    for start in range(0, n_rows, CHUNK):
        stop = min(start + CHUNK, n_rows)
        buf = np.empty((stop - start, len(columns) * step + 1), np.uint8)
        buf[:, step - 1::step] = ord(",")
        buf[:, -2:] = np.frombuffer(ROW_END.encode(), np.uint8)
        for j, column in enumerate(columns):
            buf[:, j * step:j * step + SLOT] = column[start:stop]
        fh.write(buf.tobytes().translate(None, b"\0").decode("ascii"))


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
        """Columns of one length, one per column kind; row i holds item i
        of each.  Columns hold Python values, or, when every kind is
        float, all of them may be float_fields output; then their fields
        are copied into the rows."""
        width = len(self.kinds)
        lengths = set(map(len, columns))
        if len(columns) != width or len(lengths) > 1:
            raise DimensionMismatch(
                f"CSV needs {width} columns of one length, got lengths "
                f"{[len(c) for c in columns]}")
        n_rows = lengths.pop()
        if self.kinds == (float,) * width and all(map(_is_fields_column,
                                                      columns)):
            _write_fields(self.fh, columns, n_rows)
            return
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
