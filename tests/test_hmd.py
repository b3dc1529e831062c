"""Parsing, imputation and CSV persistence of mortality surfaces."""

import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortfpca.cli import main
from mortfpca.errors import (
    AllMissingYear,
    EmptyInput,
    IoError,
    MalformedRow,
    MortfpcaError,
    NonContiguousYears,
    SchemaMismatch,
)
from mortfpca.forecasters import ForecastSurface
from mortfpca.hmd import (
    CSV_HEADER,
    HMD_COLUMNS,
    MortalitySurface,
    SurfaceBundle,
    _distinct,
    impute_missing,
    parse_hmd_rates,
    read_matrix_csv,
    read_surface_csv,
    write_matrix_csv,
    write_surface_csv,
)
from mortfpca.smoothing import smooth_surface
from mortfpca.store import save_forecast_surface
from mortfpca.synthetic import hmd_text_from_bundle, synthetic_bundle

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
        ["2000  0  0.001   inf    0.0015"],       # infinite rate
        ["2000  -1  0.1  0.1  0.1", "2000  0  0.1  0.1  0.1"],  # negative age
        ["2000+  0  0.1  0.1  0.1"],              # '+' after the year
        ["2000  0  0.1+  0.1  0.1"],              # '+' after a rate
    ],
)
def test_malformed_rows_rejected(rows):
    with pytest.raises(MalformedRow):
        parse_hmd_rates(hmd_text(rows))


@pytest.mark.parametrize("row, reason", [
    ("2000  1  0.003  0.004", "expected 5 fields, found 4"),
    ("2000  1x  0.003  0.004  0.0035", "bad age '1x'"),
])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_parse_errors_name_the_file_line(row, reason, line_end):
    # title, header, a blank line and a good row come first: the bad row is line 5
    text = hmd_text(["", BASIC_ROWS[0], row] + BASIC_ROWS[2:]).replace("\n", line_end)
    with pytest.raises(MalformedRow) as info:
        parse_hmd_rates(text)
    assert str(info.value) == f"line 5: {reason}: {row!r}"


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


@pytest.mark.parametrize("row, reason", [
    ("2000,1", "expected 3 fields, found 2"),
    ("2000,x,-2.0", "bad age 'x'"),
    ("2000,,-2.0", "bad age ''"),
    ("2000,1,abc", "bad {column} 'abc'"),
])
def test_csv_parse_errors_name_the_file_line(tmp_path, row, reason):
    path = tmp_path / "pop.csv"
    path.write_text(f"# population_id=pop kind=observed\n{CSV_HEADER}\n2000,0,-1.0\n\n{row}\n")
    with pytest.raises(SchemaMismatch) as info:
        read_surface_csv(path)
    assert str(info.value) == f"{path}: line 5: {reason.format(column='log_rate')}: {row!r}"

    path.write_text(f"year,age,sigma\n2000,0,1.0\n{row}\n")
    with pytest.raises(SchemaMismatch) as info:
        read_matrix_csv(path, "sigma")
    assert str(info.value) == f"{path}: line 3: {reason.format(column='sigma')}: {row!r}"


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


@given(st.one_of(
    st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=30).map(
        lambda v: np.array(v, dtype="i8")),
    st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 0.5]), max_size=30).map(
        lambda v: np.array(v, dtype="f8")),
))
def test_distinct_values_equal_np_unique_bitwise(values):
    expected = np.unique(values)
    got = _distinct(values)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


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


def test_csv_writers_format_extreme_values_like_printf(tmp_path):
    values = np.array([
        [-0.0, 5e-324, 1e300, np.finfo(float).max],
        [0.1, 1 / 3, -2.2250738585072014e-308, 123456789.12345678],
    ])
    years, ages = np.array([1999, 2000]), np.array([0, 1, 2, 3])
    expected = [f"{y},{a},{'%.17g' % np.float64(values[t, j])}"
                for t, y in enumerate(years) for j, a in enumerate(ages)]
    write_matrix_csv(years, ages, values, tmp_path / "m.csv", "sigma")
    assert (tmp_path / "m.csv").read_text().splitlines() == ["year,age,sigma"] + expected
    write_surface_csv(surface(values, years=years, ages=ages), tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[1:] == [CSV_HEADER] + expected
    assert read_matrix_csv(tmp_path / "m.csv", "sigma")[2].tobytes() == values.tobytes()

    # forecast files carry repr, the shortest text that round-trips
    grids = [values, np.abs(values), values - 1.0, values + 1.0]
    save_forecast_surface(ForecastSurface("pop", years, *grids), ages, tmp_path / "f.csv")
    expected = [f"{y},{a}," + ",".join(repr(float(g[t, j])) for g in grids)
                for t, y in enumerate(years) for j, a in enumerate(ages)]
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines == ["year,age,mean,variance,lower,upper"] + expected


def test_matrix_csv_rejects_a_grid_of_the_wrong_shape(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_csv([2000], [0, 1], np.zeros((2, 2)), tmp_path / "m.csv", "sigma")


# ---------------------------------------------------------------------------
# bulk readers and writer against the row-by-row code they replaced


def reference_parse(raw_text, max_age=100):
    """The row-by-row ``parse_hmd_rates``, returning ``(years, ages, grids)``."""
    lines = [ln.strip() for ln in raw_text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3 or lines[1].split() != list(HMD_COLUMNS):
        raise ValueError("no title, header and data rows")

    def rate(token):
        if token == ".":
            return math.nan
        value = float(token)
        if value < 0:
            raise ValueError("negative rate")
        return math.nan if value == 0.0 else math.log(value)

    cells = {}
    for ln in lines[2:]:
        tokens = ln.split()
        if len(tokens) != len(HMD_COLUMNS):
            raise ValueError("column count")
        year = int(tokens[0])
        age = int(tokens[1][:-1] if tokens[1].endswith("+") else tokens[1])
        if age > max_age:
            continue
        if (year, age) in cells:
            raise ValueError("duplicate")
        cells[year, age] = tuple(rate(t) for t in tokens[2:])
    if not cells:
        raise ValueError("empty")
    years = sorted({k[0] for k in cells})
    ages = sorted({k[1] for k in cells})
    if np.any(np.diff(years) != 1) or np.any(np.diff(ages) != 1):
        raise ValueError("gaps")
    if len(years) * len(ages) != len(cells):
        raise ValueError("missing cells")
    grids = np.full((3, len(years), len(ages)), np.nan)
    for (year, age), values in cells.items():
        grids[:, year - years[0], age - ages[0]] = values
    return np.array(years), np.array(ages), grids


def reference_read_grid(path, value_column):
    """The row-by-row ``_read_grid``: ``(comment, years, ages, grid)``."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    comment = ""
    if lines and lines[0].startswith("#"):
        comment, lines = lines[0], lines[1:]
    if not lines or lines[0] != f"year,age,{value_column}":
        raise ValueError("header")
    years, ages, values = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError("field count")
        years.append(int(parts[0]))
        ages.append(int(parts[1]))
        values.append(float(parts[2]))
    if not years:
        raise ValueError("no rows")
    year_list, age_list = sorted(set(years)), sorted(set(ages))
    contiguous = np.all(np.diff(year_list) == 1) and np.all(np.diff(age_list) == 1)
    if not (contiguous and np.array_equal(years, np.repeat(year_list, len(age_list)))
            and np.array_equal(ages, np.tile(age_list, len(year_list)))):
        raise ValueError("order")
    grid = np.asarray(values, dtype=float).reshape(len(year_list), len(age_list))
    return comment, np.asarray(year_list), np.asarray(age_list), grid


def reference_write_grid(path, head, years, ages, values):
    """The f-string writer the row template replaced."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(head) + "\n")
        for year, row in zip(np.asarray(years).tolist(), np.asarray(values, dtype=float)):
            fh.write("".join(f"{year},{age},{v:.17g}\n"
                             for age, v in zip(np.asarray(ages).tolist(), row.tolist())))


def reference_surface_meta(comment, file_name):
    """``(population_id, kind)`` of a surface CSV by the rule in ``read_surface_csv``'s docstring."""
    meta = {"population_id": file_name.rsplit(".", 1)[0], "kind": "observed"}
    for item in comment.lstrip("# ").split():
        key, eq, value = item.partition("=")
        if eq:
            meta[key] = value
    return meta["population_id"], meta["kind"]


def surface_may_hold(population_id, kind, ages, grid):
    """Whether a surface CSV whose grid parses may also be read as a surface."""
    return (population_id != ""
            and all(0x21 <= ord(c) <= 0x7E and c not in ",/\\" for c in population_id)
            and kind in ("observed", "smoothed")
            and ages[0] >= 0 and ages[-1] <= 100 and not np.isinf(grid).any())


def reference_accepts(reference, *args):
    try:
        return reference(*args)
    except (ValueError, OverflowError):
        return None


def same_arrays(got, expected):
    return all(
        a.dtype.kind == b.dtype.kind and a.shape == b.shape
        and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        for a, b in zip(got, expected)
    )


#: tokens a mutation may insert: sentinels, signs, non-decimal and odd numerals
TOKENS = (".", "+", "0", "-1", "-0", "1e-3", "2e3", "2000.0", "1_0", "nan", "inf",
          "1e400", "x", "#", ",", "", " ", "\t", "0.5+", "110+", "2001")
#: characters a mutation may insert: sentinels, controls, line separators, non-ASCII
CHARS = (".", "+", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\r", "\x85", "\xa0", "\xe9",
         "\u2028", "\u3000", "\uff11")


def mutate(data, lines, sep):
    """Apply up to four random edits to ``lines``, then join them into one text."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        kind = data.draw(st.sampled_from(
            ("drop", "dup", "swap", "insert", "delete", "blank", "truncate", "char")))
        if not lines:
            break
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind in ("insert", "delete"):
            fields = lines[i].split(sep)
            k = data.draw(st.integers(0, len(fields) - (kind == "delete")))
            if kind == "insert":
                fields.insert(k, data.draw(st.sampled_from(TOKENS)))
            elif fields:
                del fields[k]
            lines[i] = sep.join(fields)
        elif kind == "blank":
            lines.insert(i, data.draw(st.sampled_from(("", "  ", "\t"))))
        elif kind == "truncate":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
            del lines[i + 1:]
        else:
            k = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + data.draw(st.sampled_from(CHARS)) + lines[i][k:]
    return data.draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_matches_the_row_by_row_reference_or_raises(data):
    n_years, n_ages = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    open_age = data.draw(st.booleans())
    rows = []
    for year in range(2000, 2000 + n_years):
        for age in range(n_ages):
            label = f"{age}+" if open_age and age == n_ages - 1 else str(age)
            rates = [data.draw(st.sampled_from((".", "0", "0.0012", "1e-3", "0.5", "2.25")))
                     for _ in range(3)]
            rows.append("  ".join([str(year), label] + rates))
    text = mutate(data, ["Sample, Death rates (period 1x1)", HEADER] + rows, "  ")
    max_age = data.draw(st.sampled_from((1, 2, 100)))

    expected = reference_accepts(reference_parse, text, max_age)
    try:
        bundle = parse_hmd_rates(text, max_age=max_age)
    except MortfpcaError:
        return
    assert expected is not None, f"accepted text the row-by-row parser rejects: {text!r}"
    years, ages, grids = expected
    for i, surface in enumerate(bundle):
        assert same_arrays((surface.years, surface.ages, surface.log_rates),
                           (years, ages, grids[i])), text


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_csv_readers_match_the_row_by_row_reference_or_raise(data):
    n_years, n_ages = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    head = ["# population_id=pop kind=smoothed"] if data.draw(st.booleans()) else []
    rows = [f"{2000 + t},{a},{data.draw(st.sampled_from(('-1.5', '0.25', '-7', '3e-5')))}"
            for t in range(n_years) for a in range(n_ages)]
    text = mutate(data, head + ["year,age,log_rate"] + rows, ",")
    raw = text.encode("utf-8")
    if data.draw(st.booleans()):  # a stray non-ASCII byte
        k = data.draw(st.integers(0, len(raw)))
        raw = raw[:k] + bytes([data.draw(st.integers(0x80, 0xFF))]) + raw[k:]

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/pop.csv"
        with open(path, "wb") as fh:
            fh.write(raw)
        expected = reference_accepts(reference_read_grid, path, "log_rate")
        try:
            got = read_matrix_csv(path, "log_rate")
        except MortfpcaError:
            got = None
        else:
            assert expected is not None, f"accepted a file the reference rejects: {raw!r}"
            assert same_arrays(got, expected[1:]), raw
        try:
            surface = read_surface_csv(path)
        except MortfpcaError:
            surface = None
    if got is not None:
        # the mutations may edit the comment line, so they may edit the id and kind
        pid, kind = reference_surface_meta(expected[0], "pop.csv")
        assert (surface is not None) == surface_may_hold(pid, kind, *expected[2:]), raw
    if surface is None:
        return
    assert got is not None, f"read_surface_csv accepted a file read_matrix_csv rejects: {raw!r}"
    assert same_arrays((surface.years, surface.ages, surface.log_rates), expected[1:])
    assert (surface.population_id, surface.kind) == (pid, kind)


@pytest.mark.parametrize(
    "rows",
    [
        ["2000  0  .  .  0.0015", "2000  1  . .  .", "2001  0  0.1  0.2  0.3",
         "2001  1  0.1  0.2  0.3"],                                     # adjacent sentinels
        ["2000\t0\t0.001\t0.002\t0.0015", "2000\t1\t0.003\t.\t0.0035"],  # tabs
        ["2000  99  0.5  0.6  0.55", "2000  100  0.7  .  0.75",
         "2000  110+  0.9  0.9  0.9"],                                  # open age group
        ["   2000  0  0.001  0.002  0.0015", "\t 2000  1  0.003  0.004  0.0035  "],  # indents
    ],
)
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_parse_layout_variants_match_the_reference(rows, line_end):
    text = hmd_text(rows).replace("\n", line_end)
    years, ages, grids = reference_parse(text)
    bundle = parse_hmd_rates(text)
    for i, surface in enumerate(bundle):
        assert same_arrays((surface.years, surface.ages, surface.log_rates),
                           (years, ages, grids[i]))


def test_header_only_csv_is_a_schema_mismatch_without_warnings(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(f"# population_id=pop kind=observed\n{CSV_HEADER}\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaMismatch):
            read_surface_csv(path)


def blanked_mx_text(seed):
    """Mx_1x1 text of 30 years x ages 0-100 with 0.5% of the rate cells blank."""
    text = hmd_text_from_bundle(synthetic_bundle(seed=seed, n_years=30))
    rng = np.random.default_rng(seed)
    lines = text.splitlines()
    for i in range(2, len(lines)):
        tokens = lines[i].split()
        for k in range(2, 5):
            if rng.random() < 0.005:
                tokens[k] = "."
        lines[i] = "  ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [11, 12])
def test_ingest_and_smooth_write_the_reference_bytes(tmp_path, seed):
    raw = tmp_path / "raw.txt"
    raw.write_text(blanked_mx_text(seed))
    obs, smo, ref = tmp_path / "obs", tmp_path / "smo", tmp_path / "ref"
    assert main(["ingest", "--data", str(raw), "--out", str(obs), "--country", "X"]) == 0
    assert main(["smooth", "--data", str(obs), "--out", str(smo)]) == 0
    ref.mkdir()

    years, ages, grids = reference_parse(raw.read_text())
    assert np.isnan(grids).any()
    for i, sex in enumerate(("female", "male", "total")):
        pid = f"X_{sex}"
        observed = impute_missing(MortalitySurface(pid, years, ages, grids[i]))
        reference_write_grid(ref / f"{pid}.csv", [f"# population_id={pid} kind=observed",
                                                  CSV_HEADER], years, ages, observed.log_rates)
        comment, y, a, grid = reference_read_grid(ref / f"{pid}.csv", "log_rate")
        smoothed, field = smooth_surface(MortalitySurface(pid, y, a, grid))
        reference_write_grid(ref / f"{pid}.smoothed.csv", [f"# population_id={pid} kind=smoothed",
                                                           CSV_HEADER], y, a, smoothed.log_rates)
        reference_write_grid(ref / f"{pid}.sigma.csv", ["year,age,sigma"], y, a, field.sigma)
        assert (obs / f"{pid}.csv").read_bytes() == (ref / f"{pid}.csv").read_bytes()
        assert (smo / f"{pid}.csv").read_bytes() == (ref / f"{pid}.smoothed.csv").read_bytes()
        assert (smo / f"{pid}.sigma.csv").read_bytes() == (ref / f"{pid}.sigma.csv").read_bytes()
