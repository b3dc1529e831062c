"""Ingestion of HMD-style period death rates and CSV persistence of surfaces.

The raw input format is the whitespace-delimited ``Mx_1x1`` layout: a title
line, a column header ``Year Age Female Male Total``, then one row per
(year, age) cell.  Rates are stored internally as natural logs on a
rectangular year-by-age grid.  Zero rates and the ``.`` sentinel both mean
"not observed" and are filled by interpolation along age before any
modelling step.

Text is handled in bulk.  :func:`parse_hmd_rates` rewrites ``.`` tokens as
``nan`` and drops the ``+`` of an open age group, then parses every data
row with one ``np.loadtxt`` call; one ``np.bincount`` over the flat
(year, age) index finds duplicate and missing cells.  Logs are taken with
``math.log``, not ``np.log``, whose result differs in the last bit on some
rates: the surfaces written must not change with the parser.  The CSV
reader parses the rows after the header with one ``np.loadtxt`` call, and
the writer formats one year of rows at a time from a row template.  That
writer is the package's one numeric-table writer: with no year label it
also writes the fit files of :mod:`mortfpca.store` and ``e0.csv``.  When a
parse fails, both readers look for the first bad row again and name it by
its line number in the file.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AllMissingYear,
    EmptyInput,
    IoError,
    MalformedRow,
    NonContiguousYears,
    SchemaMismatch,
)

HMD_COLUMNS = ("Year", "Age", "Female", "Male", "Total")
CSV_HEADER = "year,age,log_rate"
SURFACE_KINDS = ("observed", "smoothed")
#: what a population id, and each label that becomes part of one, must be:
#: it names the population's files and is a field of ``eval.csv``
LABEL_RULE = "printable ASCII with no whitespace, ',', '/' or '\\'"


def is_label(text: str) -> bool:
    """Whether ``text`` follows ``LABEL_RULE``."""
    return all("!" <= c <= "~" and c not in ",/\\" for c in text)


@dataclass(eq=False)
class MortalitySurface:
    """Log central death rates for one population on a year-by-age grid.

    ``log_rates`` has shape (T, J) with rows indexed by ``years`` and columns
    by ``ages``.  NaN entries mark missing observations and are only legal
    before :func:`impute_missing` has run.
    """

    population_id: str
    years: np.ndarray
    ages: np.ndarray
    log_rates: np.ndarray
    kind: str = "observed"

    def __post_init__(self):
        self.years = np.asarray(self.years, dtype=int)
        self.ages = np.asarray(self.ages, dtype=int)
        self.log_rates = np.asarray(self.log_rates, dtype=float)
        if not self.population_id:
            raise ValueError("population_id must be non-empty")
        if not is_label(self.population_id):
            raise ValueError(f"population_id must be {LABEL_RULE}, got {self.population_id!r}")
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"kind must be one of {SURFACE_KINDS}, got {self.kind!r}")
        if self.years.ndim != 1 or self.years.size == 0:
            raise ValueError("years must be a non-empty 1-d array")
        if self.ages.ndim != 1 or self.ages.size == 0:
            raise ValueError("ages must be a non-empty 1-d array")
        if np.any(np.diff(self.years) != 1):
            raise NonContiguousYears(f"years of {self.population_id} are not contiguous")
        if np.any(np.diff(self.ages) != 1):
            raise ValueError(f"ages of {self.population_id} are not contiguous")
        if self.ages[0] < 0 or self.ages[-1] > 100:
            raise ValueError("ages must lie within 0..100")
        if self.log_rates.shape != (self.years.size, self.ages.size):
            raise ValueError(
                f"log_rates shape {self.log_rates.shape} does not match "
                f"{self.years.size} years x {self.ages.size} ages"
            )
        if np.any(np.isinf(self.log_rates)):
            raise ValueError("log_rates must not contain infinities")

    @property
    def n_years(self) -> int:
        return self.years.size

    @property
    def n_ages(self) -> int:
        return self.ages.size


@dataclass(eq=False)
class SurfaceBundle:
    """Several populations observed on one common year and age grid."""

    surfaces: list = field(default_factory=list)

    def __post_init__(self):
        if not self.surfaces:
            raise ValueError("bundle must contain at least one surface")
        ref = self.surfaces[0]
        ids = set()
        for s in self.surfaces:
            if s.population_id in ids:
                raise ValueError(f"duplicate population_id {s.population_id!r}")
            ids.add(s.population_id)
            if not np.array_equal(s.years, ref.years) or not np.array_equal(s.ages, ref.ages):
                raise ValueError("all surfaces in a bundle must share the year and age grid")

    @property
    def years(self) -> np.ndarray:
        return self.surfaces[0].years

    @property
    def ages(self) -> np.ndarray:
        return self.surfaces[0].ages

    @property
    def population_ids(self):
        return [s.population_id for s in self.surfaces]

    @property
    def n_populations(self) -> int:
        return len(self.surfaces)

    def __iter__(self):
        return iter(self.surfaces)

    def __getitem__(self, i):
        return self.surfaces[i]

    def subset_years(self, first: int, last: int) -> "SurfaceBundle":
        """Restrict every surface to the year range [first, last]."""
        years = self.years
        mask = (years >= first) & (years <= last)
        if not mask.any():
            raise ValueError(f"no years in range {first}..{last}")
        return SurfaceBundle(
            [
                replace(s, years=s.years[mask], log_rates=s.log_rates[mask])
                for s in self.surfaces
            ]
        )


# The line ends str.splitlines() honours besides "\n", replaced in this order.
_LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# A lone "." token, HMD's mark for a missing rate, and the "+" that closes an
# open age group such as "110+".  Each pattern starts with its literal, not a
# look-behind, so ``re`` jumps between candidates: 7x and 35x faster on an
# 80-year file.
_DOT_TOKEN = re.compile(r"\.(?!\S)(?<!\S\.)")
_OPEN_AGE = re.compile(r"\+(?!\S)(?<=\d\+)")
_HMD_DTYPE = [("year", "i8"), ("age", "i8"), ("female", "f8"), ("male", "f8"), ("total", "f8")]
_SEXES = ("female", "male", "total")


def _leading_lines(text: str, count: int):
    """The first ``count`` non-blank lines of ``text``, stripped, and the text after them."""
    lines, pos = [], 0
    while len(lines) < count and pos < len(text):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end + 1
        line = text[pos:end].strip()
        if line:
            lines.append(line)
        pos = end
    return lines, text[pos:]


def _drop_open_age_plus(match) -> str:
    """Substitute for one ``_OPEN_AGE`` match: it may only end a row's age token."""
    text, at = match.string, match.start()
    row_start = text.rfind("\n", 0, at) + 1
    if len(text[row_start:at].split()) != 2:
        raise MalformedRow(f"'+' outside the age column: {text[row_start:at + 1].strip()!r}")
    return ""


def _loads(lines, dtype, delimiter) -> bool:
    """Whether ``np.loadtxt`` parses ``lines`` as rows of ``dtype``."""
    try:
        np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError:
        return False
    return True


def _bad_line(lines, first_line: int, dtype, delimiter=None):
    """File line number and reason of the first line of ``lines`` that ``np.loadtxt`` rejects.

    ``lines[0]`` is line ``first_line`` of the file.

    For error messages only, since it parses again: bisection finds the
    first non-blank line that does not parse, in about log2(len(lines))
    calls over the lines before it, then its field count or first bad field
    says why.  numpy's own message counts data rows, not file lines.
    """
    numbered = [(first_line + i, line.strip()) for i, line in enumerate(lines) if line.strip()]
    lo, hi = 0, len(numbered)  # numbered[:lo] parse, numbered[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _loads([line for _, line in numbered[lo:mid]], dtype, delimiter):
            lo = mid
        else:
            hi = mid
    number, line = numbered[lo]
    fields = line.split(delimiter)
    if len(fields) != len(dtype):
        return number, f"expected {len(dtype)} fields, found {len(fields)}"
    for column, value in zip(dtype, fields):
        if not value.strip() or not _loads([value], [column], delimiter):
            return number, f"bad {column[0]} {value.strip()!r}"
    return number, "unparseable row"


def _distinct(values) -> np.ndarray:
    """The sorted distinct values of ``values``, the array ``np.unique`` returns.

    Sort, then keep each value that differs from its predecessor.  Numpy's
    own ``np.unique`` imports ``numpy.ma`` on its first call (numpy 2.4),
    a module no command here otherwise loads.  NaN values are not
    collapsed; no caller passes one.
    """
    ordered = np.sort(np.ravel(values))
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def parse_hmd_rates(raw_text: str, max_age: int = 100, prefix: str = "") -> SurfaceBundle:
    """Parse Mx_1x1 text into female, male and total log-rate surfaces.

    Parameters
    ----------
    raw_text : str
        Full file contents: title line, header line, data rows.  Blank lines
        are ignored.
    max_age : int
        Ages above this are dropped; the open group ``110+`` counts as 110.
    prefix : str
        Optional population-id prefix, e.g. a country code.

    Raises
    ------
    EmptyInput, MalformedRow, NonContiguousYears
    """
    if max_age < 1:
        raise ValueError(f"max_age must be >= 1, got {max_age}")
    text = raw_text
    for brk in _LINE_BREAKS:
        if brk in text:
            text = text.replace(brk, "\n")
    head, body = _leading_lines(text, 2)
    first_body_line = text.count("\n", 0, len(text) - len(body)) + 1
    del text
    if len(head) < 2 or not body or body.isspace():
        raise EmptyInput("expected a title line, a header line and data rows")
    header = head[1].split()
    if header != list(HMD_COLUMNS):
        raise MalformedRow(f"unexpected column header {header!r}, want {list(HMD_COLUMNS)}")

    body = _OPEN_AGE.sub(_drop_open_age_plus, _DOT_TOKEN.sub("nan", body))
    try:
        rows = np.loadtxt(body.splitlines(), dtype=_HMD_DTYPE, comments=None, ndmin=1)
    except ValueError as exc:
        number, reason = _bad_line(body.splitlines(), first_body_line, _HMD_DTYPE)
        line = raw_text.splitlines()[number - 1].strip()
        raise MalformedRow(f"line {number}: {reason}: {line!r}") from exc
    del body  # before the arrays below: it sets the parse's peak memory
    rows = rows[rows["age"] <= max_age]
    if rows.size == 0:
        raise EmptyInput("no data rows at or below max_age")
    rates = np.stack([rows[sex] for sex in _SEXES])
    if np.any(rates < 0):
        raise MalformedRow("negative rate")
    if np.any(np.isinf(rates)):
        raise MalformedRow("infinite rate")

    years, ages = _distinct(rows["year"]), _distinct(rows["age"])
    if np.any(np.diff(years) != 1):
        raise NonContiguousYears(f"years {years[0]}..{years[-1]} have gaps")
    if np.any(np.diff(ages) != 1):
        raise MalformedRow("age coverage has gaps")
    if ages[0] < 0:
        raise MalformedRow(f"negative age {ages[0]}")
    n_cells = years.size * ages.size
    if n_cells > rows.size:
        raise MalformedRow(f"{n_cells - rows.size} or more (year, age) cells absent from the file")
    cell = (rows["year"] - years[0]) * ages.size + (rows["age"] - ages[0])
    counts = np.bincount(cell, minlength=n_cells)
    if counts.max() > 1:
        year, age = divmod(int(counts.argmax()), ages.size)
        raise MalformedRow(f"duplicate row for year {years[year]}, age {ages[age]}")
    # n_cells <= rows and no cell twice: every cell holds exactly one row.
    # math.log, not np.log, for byte-stable surfaces (see the module docstring).
    rates[rates == 0.0] = np.nan
    grids = np.empty((3, n_cells))
    for k, column in enumerate(rates):
        grids[k, cell] = np.fromiter(map(math.log, column.tolist()), float, count=column.size)
    grids = grids.reshape(3, years.size, ages.size)

    surfaces = [
        MortalitySurface(
            population_id=f"{prefix}_{name}" if prefix else name,
            years=years.copy(),
            ages=ages.copy(),
            log_rates=grids[i],
        )
        for i, name in enumerate(_SEXES)
    ]
    return SurfaceBundle(surfaces)


def impute_missing(surface: MortalitySurface) -> MortalitySurface:
    """Fill NaN cells by linear interpolation along age within each year.

    Boundary gaps copy the nearest observed value.  A year with no observed
    age at all raises :class:`AllMissingYear`.
    """
    rates = surface.log_rates.copy()
    x = np.arange(surface.n_ages, dtype=float)
    for t in range(surface.n_years):
        row = rates[t]
        ok = np.isfinite(row)
        if not ok.any():
            raise AllMissingYear(
                f"{surface.population_id}: year {surface.years[t]} has no observed rate"
            )
        if not ok.all():
            rates[t] = np.interp(x, x[ok], row[ok])
    return replace(surface, log_rates=rates)


# ---------------------------------------------------------------------------
# CSV persistence

_GRID_DTYPE = [("year", "i8"), ("age", "i8"), ("value", "f8")]
# np.loadtxt strips these ASCII separators around a number, where int() and float() reject them
_SEPARATOR_CONTROLS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _write_grid(path, head, block_labels, row_labels, columns,
                cell_format: str = "%.17g") -> None:
    """Write ``head`` lines, then one ``block,row,value,...`` line per (block, row).

    A surface's blocks are its years and its rows its ages; with
    ``block_labels=None`` there is one block and its lines start at the row
    label.  ``columns`` holds one array of values per column, one row per
    block (a 1-d array is one block), written with ``cell_format``:
    ``%.17g`` carries enough digits to round-trip any double, and ``%r`` is
    the shortest text that does.  A block's lines are one ``%`` format of a
    template built once per call and one write; the table never exists as text.
    """
    prefixes = [""] if block_labels is None else [
        "%d," % label for label in np.asarray(block_labels).tolist()]
    row_labels = np.asarray(row_labels).tolist()
    columns = [np.atleast_2d(np.asarray(c, dtype=float)) for c in columns]
    for c in columns:
        if c.shape != (len(prefixes), len(row_labels)):
            raise ValueError(f"values shape {c.shape} does not match "
                             f"{len(prefixes)} blocks x {len(row_labels)} rows")
    width = 1 + len(columns)
    values_format = ",".join([cell_format] * len(columns))
    row_format = "".join(f"%s{label},{values_format}\n" for label in row_labels)
    cells = [None] * (width * len(row_labels))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(head) + "\n")
            for t, prefix in enumerate(prefixes):
                cells[0::width] = [prefix] * len(row_labels)
                for k, column in enumerate(columns, 1):
                    cells[k::width] = column[t].tolist()
                fh.write(row_format % tuple(cells))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_surface_csv(surface: MortalitySurface, path) -> None:
    """Write ``year,age,log_rate`` rows, 17 significant digits per value."""
    head = [f"# population_id={surface.population_id} kind={surface.kind}", CSV_HEADER]
    _write_grid(path, head, surface.years, surface.ages, [surface.log_rates])


def _read_grid(path, value_column: str):
    """Parse a ``year,age,<value_column>`` file, optionally led by a ``#`` line.

    Returns ``(comment, years, ages, grid)``.  Every row must hold three
    numbers, and rows must run by year then age over the full grid; any
    other content raises :class:`SchemaMismatch`.  The rows after the
    header are parsed by one ``np.loadtxt`` call.
    """
    header = f"year,age,{value_column}"
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        at = min((i for i in map(data.find, _SEPARATOR_CONTROLS) if i >= 0), default=-1)
        if at >= 0:
            head = data[:at]
            number = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise SchemaMismatch(f"{path}: line {number}: control character {data[at]:#04x}")
        del data
        with open(path, "r", encoding="ascii") as fh:
            lines = filter(str.strip, fh)  # blank lines are skipped anywhere
            comment, line = "", next(lines, "").rstrip("\n")
            if line.startswith("#"):
                comment, line = line, next(lines, "").rstrip("\n")
            if line != header:
                raise SchemaMismatch(f"{path}: expected header {header!r}")
            first = next(lines, None)
            if first is None:
                raise SchemaMismatch(f"{path}: no data rows")
            rows = np.loadtxt(itertools.chain([first], lines), dtype=_GRID_DTYPE,
                              delimiter=",", comments=None, ndmin=1)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{path}: not ASCII text") from exc
    except ValueError as exc:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
        # the data rows follow the header, the comment's or the file's first non-blank line
        heads = [i for i, line in enumerate(lines) if line.strip()][: 2 if comment else 1]
        number, reason = _bad_line(lines[heads[-1] + 1 :], heads[-1] + 2,
                                   _GRID_DTYPE[:2] + [(value_column, "f8")], ",")
        line = lines[number - 1].strip()
        raise SchemaMismatch(f"{path}: line {number}: {reason}: {line!r}") from exc

    years, ages = _distinct(rows["year"]), _distinct(rows["age"])
    contiguous = np.all(np.diff(years) == 1) and np.all(np.diff(ages) == 1)
    if not (contiguous and np.array_equal(rows["year"], np.repeat(years, ages.size))
            and np.array_equal(rows["age"], np.tile(ages, years.size))):
        raise SchemaMismatch(f"{path}: rows must be ordered by year then age with no gaps")
    grid = rows["value"].reshape(years.size, ages.size).copy()
    return comment, years, ages, grid


def read_surface_csv(path) -> MortalitySurface:
    """Inverse of :func:`write_surface_csv`; validates the schema strictly.

    After its leading ``#`` and spaces, the optional comment line holds
    whitespace-separated ``key=value`` items; other items are ignored and a
    later key wins.  ``population_id`` defaults to the file name without its
    extension and ``kind`` to ``observed``; an id that breaks ``LABEL_RULE``
    is a :class:`SchemaMismatch`.
    """
    comment, years, ages, grid = _read_grid(path, "log_rate")
    meta = dict(item.split("=", 1) for item in comment.lstrip("# ").split() if "=" in item)
    try:
        return MortalitySurface(
            population_id=meta.get("population_id",
                                   os.path.splitext(os.path.basename(str(path)))[0]),
            years=years,
            ages=ages,
            log_rates=grid,
            kind=meta.get("kind", "observed"),
        )
    except (ValueError, NonContiguousYears) as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc


def write_matrix_csv(years, ages, values, path, value_column: str) -> None:
    """Persist any year-by-age matrix with the surface layout."""
    _write_grid(path, [f"year,age,{value_column}"], years, ages, [values])


def read_matrix_csv(path, value_column: str):
    """Read a matrix written by :func:`write_matrix_csv`.

    Returns ``(years, ages, values)``; validated like :func:`read_surface_csv`.
    """
    _, years, ages, grid = _read_grid(path, value_column)
    return years, ages, grid
