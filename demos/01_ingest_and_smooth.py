"""From raw Mx_1x1 text to smoothed log-mortality surfaces.

The demo builds a synthetic death-rate file in the standard whitespace
layout, parses it into per-population year-by-age grids, fills the missing
cells, and runs the penalized-spline smoother whose roughness penalty is
chosen per year by generalized cross validation.  Old-age rates are kept
monotone by an isotonic pass from age 65 on.
"""

import pathlib

import numpy as np

from mortfpca.hmd import impute_missing, parse_hmd_rates
from mortfpca.smoothing import smooth_surface
from mortfpca.svgplot import line_chart
from mortfpca.synthetic import hmd_text_from_bundle, synthetic_bundle

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# 1. a raw text file in the Mx_1x1 layout: title, header, one row per cell
raw = hmd_text_from_bundle(synthetic_bundle(seed=5, n_years=20, max_age=50))
print("raw file starts with:")
print("\n".join(raw.splitlines()[:4]))

# 2. parse into female, male and total log-rate surfaces and fill gaps
bundle = parse_hmd_rates(raw, max_age=50)
print(f"\nparsed populations: {bundle.population_ids}")
print(f"grid: {bundle.years[0]}..{bundle.years[-1]} x ages 0..{bundle.ages[-1]}")

female = impute_missing(bundle[bundle.population_ids.index("female")])

# 3. smooth each year's curve; the absolute residuals sigma (years x ages)
# feed interval widths later
smoothed, sigma = smooth_surface(female)
scale = np.sqrt(np.mean(sigma**2, axis=0))
print(f"\nmean absolute smoothing residual: {sigma.mean():.4f}")
print(f"residual scale by age (first 5): {np.round(scale[:5], 4)}")

# 4. observed vs smoothed for the last year
year = int(female.years[-1])
line_chart(
    out_dir / "smoothing.svg",
    female.ages,
    [
        (f"observed {year}", female.log_rates[-1]),
        (f"smoothed {year}", smoothed.log_rates[-1]),
    ],
    title="Penalized-spline fit of one period curve",
    y_label="log death rate",
)
print(f"\nwrote {out_dir / 'smoothing.svg'}")

# The command-line equivalent:
#   mortfpca ingest --data SYN.Mx_1x1.txt --out observed/
#   mortfpca smooth --data observed/ --out smoothed/
