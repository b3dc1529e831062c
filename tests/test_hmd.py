"""Parsing, imputation and CSV persistence of mortality surfaces."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mortfpca.errors import (
    AllMissingYear,
    EmptyInput,
    IoError,
    MalformedRow,
    NonContiguousYears,
    SchemaMismatch,
)
from mortfpca.hmd import (
    CSV_HEADER,
    MortalitySurface,
    SurfaceBundle,
    impute_missing,
    parse_hmd_rates,
    read_matrix_csv,
    read_surface_csv,
    write_matrix_csv,
    write_surface_csv,
)

HEADER = "Year          Age             Female            Male           Total"


def hmd_text(rows, header=HEADER):
    lines = ["Sample, Death rates (period 1x1),\tLast modified: 01 Jan 2020"]
    if header:
        lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


BASIC_ROWS = [
    "2000  0  0.001  0.002  0.0015",
    "2000  1  0.003  0.004  0.0035",
    "2001  0  0.005  0.006  0.0055",
    "2001  1  0.007  0.008  0.0075",
]


def test_parse_basic_grid():
    bundle = parse_hmd_rates(hmd_text(BASIC_ROWS))
    assert bundle.population_ids == ["female", "male", "total"]
    assert list(bundle.years) == [2000, 2001]
    assert list(bundle.ages) == [0, 1]
    female, male, total = bundle
    np.testing.assert_allclose(
        female.log_rates, np.log([[0.001, 0.003], [0.005, 0.007]]), rtol=0, atol=0
    )
    np.testing.assert_allclose(
        male.log_rates, np.log([[0.002, 0.004], [0.006, 0.008]]), rtol=0, atol=0
    )
    np.testing.assert_allclose(
        total.log_rates, np.log([[0.0015, 0.0035], [0.0055, 0.0075]]), rtol=0, atol=0
    )
    assert all(s.kind == "observed" for s in bundle)


def test_parse_prefix_names_populations():
    bundle = parse_hmd_rates(hmd_text(BASIC_ROWS), prefix="JPN")
    assert bundle.population_ids == ["JPN_female", "JPN_male", "JPN_total"]


def test_dot_sentinel_and_zero_become_nan():
    rows = [
        "2000  0  .      0.002  0.0015",
        "2000  1  0.000  0.004  0.0035",
    ]
    bundle = parse_hmd_rates(hmd_text(rows))
    female = bundle[0]
    assert math.isnan(female.log_rates[0, 0])
    assert math.isnan(female.log_rates[0, 1])
    assert np.isfinite(bundle[1].log_rates).all()


def test_open_age_group_parses_and_max_age_truncates():
    rows = [
        "2000  99   0.1  0.1  0.1",
        "2000  100+ 0.4  0.4  0.4",
        "2000  101  0.5  0.5  0.5",
    ]
    bundle = parse_hmd_rates(hmd_text(rows), max_age=100)
    assert list(bundle.ages) == [99, 100]
    np.testing.assert_allclose(bundle[0].log_rates, np.log([[0.1, 0.4]]))


def test_rows_above_max_age_only_is_empty():
    rows = ["2000  50  0.1  0.1  0.1"]
    with pytest.raises(EmptyInput):
        parse_hmd_rates(hmd_text(rows), max_age=10)


@pytest.mark.parametrize(
    "rows",
    [
        ["2000  0  -0.001  0.002  0.0015"],       # negative rate
        ["2000  0  abc     0.002  0.0015"],       # unparseable rate
        ["2000  x  0.001   0.002  0.0015"],       # unparseable age
        ["20xx  0  0.001   0.002  0.0015"],       # unparseable year
        ["2000  0  0.001   0.002"],               # short row
        BASIC_ROWS + ["2000  0  0.9  0.9  0.9"],  # duplicate cell
        BASIC_ROWS[:3],                           # missing cell
        ["2000  0  0.1  0.1  0.1", "2000  2  0.1  0.1  0.1"],  # age gap
    ],
)
def test_malformed_rows_rejected(rows):
    with pytest.raises(MalformedRow):
        parse_hmd_rates(hmd_text(rows))


def test_wrong_column_header_rejected():
    with pytest.raises(MalformedRow):
        parse_hmd_rates(hmd_text(BASIC_ROWS, header="Year Age Male Female Total"))


def test_year_gaps_rejected():
    rows = [
        "2000  0  0.1  0.1  0.1",
        "2002  0  0.1  0.1  0.1",
    ]
    with pytest.raises(NonContiguousYears):
        parse_hmd_rates(hmd_text(rows))


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        parse_hmd_rates("title\nYear Age Female Male Total\n")
    with pytest.raises(EmptyInput):
        parse_hmd_rates("")


# ---------------------------------------------------------------------------
# surface and bundle invariants


def surface(log_rates, years=None, ages=None, **kw):
    log_rates = np.asarray(log_rates, dtype=float)
    t, j = log_rates.shape
    years = np.arange(2000, 2000 + t) if years is None else years
    ages = np.arange(j) if ages is None else ages
    return MortalitySurface("pop", years, ages, log_rates, **kw)


def test_surface_validation():
    with pytest.raises(NonContiguousYears):
        surface(np.zeros((2, 2)), years=[2000, 2002])
    with pytest.raises(ValueError):
        surface(np.zeros((1, 2)), ages=[100, 101])
    with pytest.raises(ValueError):
        surface(np.zeros((2, 3)), ages=[0, 1])
    with pytest.raises(ValueError):
        surface(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        surface(np.zeros((1, 2)), kind="raw")
    with pytest.raises(ValueError):
        MortalitySurface("", [2000], [0, 1], np.zeros((1, 2)))
    # NaN marks a missing observation and is legal
    assert surface(np.array([[np.nan, 0.0]])).n_ages == 2


def test_bundle_validation_and_subset():
    a = surface(np.zeros((3, 2)))
    b = MortalitySurface("other", a.years, a.ages, np.ones((3, 2)))
    with pytest.raises(ValueError):
        SurfaceBundle([a, surface(np.zeros((3, 2)))])  # duplicate id
    with pytest.raises(ValueError):
        SurfaceBundle([a, MortalitySurface("c", [1999, 2000, 2001], a.ages, np.ones((3, 2)))])
    with pytest.raises(ValueError):
        SurfaceBundle([])

    bundle = SurfaceBundle([a, b])
    sub = bundle.subset_years(2001, 2002)
    assert list(sub.years) == [2001, 2002]
    assert sub.population_ids == ["pop", "other"]
    assert sub[1].log_rates.shape == (2, 2)
    with pytest.raises(ValueError):
        bundle.subset_years(1990, 1991)


# ---------------------------------------------------------------------------
# imputation


def test_impute_interpolates_along_age():
    row = [np.nan, 1.0, np.nan, 3.0, np.nan]
    filled = impute_missing(surface([row, [0.0, 1.0, 2.0, 3.0, 4.0]]))
    np.testing.assert_allclose(filled.log_rates[0], [1.0, 1.0, 2.0, 3.0, 3.0])
    np.testing.assert_allclose(filled.log_rates[1], [0.0, 1.0, 2.0, 3.0, 4.0])


def test_impute_rejects_fully_missing_year():
    with pytest.raises(AllMissingYear):
        impute_missing(surface([[np.nan, np.nan], [0.0, 1.0]]))


def test_impute_leaves_input_surface_untouched():
    s = surface([[np.nan, 1.0]])
    impute_missing(s)
    assert math.isnan(s.log_rates[0, 0])


# ---------------------------------------------------------------------------
# CSV persistence


def test_surface_csv_round_trip(tmp_path):
    s = surface(np.array([[-1.25, -2.5], [-3.0, -4.125]]), kind="smoothed")
    path = tmp_path / "pop.csv"
    write_surface_csv(s, path)
    back = read_surface_csv(path)
    assert back.population_id == "pop"
    assert back.kind == "smoothed"
    assert np.array_equal(back.years, s.years)
    assert np.array_equal(back.ages, s.ages)
    assert np.array_equal(back.log_rates, s.log_rates)


def test_surface_csv_id_falls_back_to_filename(tmp_path):
    path = tmp_path / "sweden_male.csv"
    body = [CSV_HEADER, "2000,0,-1.0", "2000,1,-2.0"]
    path.write_text("\n".join(body) + "\n")
    back = read_surface_csv(path)
    assert back.population_id == "sweden_male"
    assert back.kind == "observed"


@pytest.mark.parametrize(
    "body",
    [
        [],
        ["age,year,log_rate", "2000,0,-1.0"],
        [CSV_HEADER],
        [CSV_HEADER, "2000,0,-1.0,extra"],
        [CSV_HEADER, "2000,zero,-1.0"],
        [CSV_HEADER, "2000,1,-1.0", "2000,0,-2.0"],    # out of order
        [CSV_HEADER, "2000,0,-1.0", "2000,0,-2.0"],    # duplicate
        [CSV_HEADER, "2000,0,-1.0", "2001,1,-2.0"],    # ragged grid
        [CSV_HEADER, "2000,0,-1.0", "2002,0,-2.0"],    # year gap
    ],
)
def test_surface_csv_schema_violations(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(body) + "\n" if body else "")
    with pytest.raises(SchemaMismatch):
        read_surface_csv(path)

    matrix_body = [ln.replace("log_rate", "sigma") for ln in body]
    path.write_text("\n".join(matrix_body) + "\n" if body else "")
    with pytest.raises(SchemaMismatch):
        read_matrix_csv(path, "sigma")


def test_non_ascii_csv_is_a_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"year,age,sigma\n2000,0,1.0\xe9\n")
    with pytest.raises(SchemaMismatch):
        read_matrix_csv(path, "sigma")
    with pytest.raises(SchemaMismatch):
        read_surface_csv(path)


def test_io_errors_are_wrapped(tmp_path):
    with pytest.raises(IoError):
        read_surface_csv(tmp_path / "absent.csv")
    with pytest.raises(IoError):
        write_surface_csv(surface(np.zeros((1, 2))), tmp_path)  # path is a directory


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=4,
        max_size=4,
    )
)
def test_log_rates_survive_csv_round_trip_exactly(values):
    import tempfile

    s = surface(np.asarray(values).reshape(2, 2))
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/pop.csv"
        write_surface_csv(s, path)
        back = read_surface_csv(path)
    assert np.array_equal(back.log_rates, s.log_rates)


def test_matrix_csv_round_trip(tmp_path):
    years = np.array([2000, 2001])
    ages = np.array([0, 1, 2])
    grid = np.array([[0.5, 1.5, 2.5], [3.5, 4.5, 5.5]])
    path = tmp_path / "sigma.csv"
    write_matrix_csv(years, ages, grid, path, "sigma")
    back_years, back_ages, back = read_matrix_csv(path, "sigma")
    assert np.array_equal(back_years, years)
    assert np.array_equal(back_ages, ages)
    assert np.array_equal(back, grid)
