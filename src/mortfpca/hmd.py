"""Ingestion of HMD-style period death rates and CSV persistence of surfaces.

The raw input format is the whitespace-delimited ``Mx_1x1`` layout: a title
line, a column header ``Year Age Female Male Total``, then one row per
(year, age) cell.  Rates are stored internally as natural logs on a
rectangular year-by-age grid.  Zero rates and the ``.`` sentinel both mean
"not observed" and are filled by interpolation along age before any
modelling step.
"""

from __future__ import annotations

import math
import os
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

    def copy_with(self, **changes) -> "MortalitySurface":
        return replace(self, **changes)


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
                s.copy_with(years=s.years[mask], log_rates=s.log_rates[mask])
                for s in self.surfaces
            ]
        )


def _parse_age(token: str) -> int:
    if token.endswith("+"):
        token = token[:-1]
    try:
        return int(token)
    except ValueError as exc:
        raise MalformedRow(f"unparseable age {token!r}") from exc


def _parse_rate(token: str) -> float:
    """Log rate from one HMD cell; NaN for the '.' sentinel and zero rates."""
    if token == ".":
        return math.nan
    try:
        value = float(token)
    except ValueError as exc:
        raise MalformedRow(f"unparseable rate {token!r}") from exc
    if value < 0:
        raise MalformedRow(f"negative rate {token!r}")
    if value == 0.0:
        return math.nan
    return math.log(value)


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
    lines = [ln.strip() for ln in raw_text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3:
        raise EmptyInput("expected a title line, a header line and data rows")
    header = lines[1].split()
    if header != list(HMD_COLUMNS):
        raise MalformedRow(f"unexpected column header {header!r}, want {list(HMD_COLUMNS)}")

    cells = {}
    for ln in lines[2:]:
        tokens = ln.split()
        if len(tokens) != len(HMD_COLUMNS):
            raise MalformedRow(f"expected {len(HMD_COLUMNS)} columns, got {len(tokens)}: {ln!r}")
        try:
            year = int(tokens[0])
        except ValueError as exc:
            raise MalformedRow(f"unparseable year {tokens[0]!r}") from exc
        age = _parse_age(tokens[1])
        if age > max_age:
            continue
        key = (year, age)
        if key in cells:
            raise MalformedRow(f"duplicate row for year {year}, age {age}")
        cells[key] = tuple(_parse_rate(t) for t in tokens[2:])
    if not cells:
        raise EmptyInput("no data rows at or below max_age")

    years = sorted({k[0] for k in cells})
    ages = sorted({k[1] for k in cells})
    if np.any(np.diff(years) != 1):
        raise NonContiguousYears(f"years {years[0]}..{years[-1]} have gaps")
    if np.any(np.diff(ages) != 1):
        raise MalformedRow("age coverage has gaps")
    missing = len(years) * len(ages) - len(cells)
    if missing:
        raise MalformedRow(f"{missing} (year, age) cells absent from the file")
    grids = np.full((3, len(years), len(ages)), np.nan)
    for (year, age), values in cells.items():
        grids[:, year - years[0], age - ages[0]] = values

    names = ("female", "male", "total")
    surfaces = [
        MortalitySurface(
            population_id=f"{prefix}_{name}" if prefix else name,
            years=np.array(years),
            ages=np.array(ages),
            log_rates=grids[i],
        )
        for i, name in enumerate(names)
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
    return surface.copy_with(log_rates=rates)


# ---------------------------------------------------------------------------
# CSV persistence


def _format_value(v: float) -> str:
    return "%.17g" % v


def write_surface_csv(surface: MortalitySurface, path) -> None:
    """Write ``year,age,log_rate`` rows, 17 significant digits per value."""
    lines = [f"# population_id={surface.population_id} kind={surface.kind}", CSV_HEADER]
    for t, year in enumerate(surface.years):
        for j, age in enumerate(surface.ages):
            lines.append(f"{year},{age},{_format_value(surface.log_rates[t, j])}")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _read_grid(path, value_column: str):
    """Parse a ``year,age,<value_column>`` file, optionally led by a ``#`` line.

    Returns ``(comment, years, ages, grid)``.  Every row must hold three
    numbers, and rows must run by year then age over the full grid; any
    other content raises :class:`SchemaMismatch`.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{path}: not ASCII text") from exc
    comment = ""
    if lines and lines[0].startswith("#"):
        comment, lines = lines[0], lines[1:]
    header = f"year,age,{value_column}"
    if not lines or lines[0] != header:
        raise SchemaMismatch(f"{path}: expected header {header!r}")

    years, ages, values = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise SchemaMismatch(f"{path}: bad row {ln!r}")
        try:
            years.append(int(parts[0]))
            ages.append(int(parts[1]))
            values.append(float(parts[2]))
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: bad row {ln!r}") from exc
    if not years:
        raise SchemaMismatch(f"{path}: no data rows")

    year_list = sorted(set(years))
    age_list = sorted(set(ages))
    expected_years = np.repeat(year_list, len(age_list))
    expected_ages = np.tile(age_list, len(year_list))
    contiguous = np.all(np.diff(year_list) == 1) and np.all(np.diff(age_list) == 1)
    if not (contiguous and np.array_equal(years, expected_years)
            and np.array_equal(ages, expected_ages)):
        raise SchemaMismatch(f"{path}: rows must be ordered by year then age with no gaps")
    grid = np.asarray(values, dtype=float).reshape(len(year_list), len(age_list))
    return comment, np.asarray(year_list), np.asarray(age_list), grid


def read_surface_csv(path) -> MortalitySurface:
    """Inverse of :func:`write_surface_csv`; validates the schema strictly."""
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
    values = np.asarray(values, dtype=float)
    lines = [f"year,age,{value_column}"]
    for t, year in enumerate(years):
        for j, age in enumerate(ages):
            lines.append(f"{year},{age},{_format_value(values[t, j])}")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_matrix_csv(path, value_column: str):
    """Read a matrix written by :func:`write_matrix_csv`.

    Returns ``(years, ages, values)``; validated like :func:`read_surface_csv`.
    """
    _, years, ages, grid = _read_grid(path, value_column)
    return years, ages, grid
