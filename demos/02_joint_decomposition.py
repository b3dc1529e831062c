"""Weighted functional principal components, one population and several.

A single population's curves decompose into a mean function plus a few
orthonormal age profiles with uncorrelated score series.  Several
populations decompose jointly: univariate scores are stacked, their
covariance is eigendecomposed, and every population shares one set of
score series.  Geometric year weights tilt both steps toward recent years.
"""

import pathlib

import numpy as np

from mortfpca.mfpca import fit_mfpca
from mortfpca.svgplot import line_chart
from mortfpca.synthetic import synthetic_bundle
from mortfpca.ufpca import ComponentRule, fit_ufpca, geometric_weights, uniform_weights

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

bundle = synthetic_bundle(seed=9, n_years=40, max_age=60)
curves = [s.log_rates for s in bundle]
t_len = bundle.years.size
rule = ComponentRule(threshold=0.99)

# 1. one population, uniform weights: every year counts equally
flat = fit_ufpca(curves[0], uniform_weights(t_len), rule)
print(f"uniform fit: {flat.n_components} components, "
      f"shares {np.round(flat.var_explained, 4)}")

# 2. geometric weights, decay 0.3: the most recent years dominate
recent = fit_ufpca(curves[0], geometric_weights(0.3, t_len), rule)
print(f"kappa=0.3 fit: {recent.n_components} components, "
      f"shares {np.round(recent.var_explained, 4)}")
print(f"newest year's weight / oldest year's weight: "
      f"{recent.weights.weights[-1] / recent.weights.weights[0]:.3g}")

# 3. both populations jointly: one set of score series drives all curves.
#    override pins the count; a 99% threshold here would keep just one
joint = fit_mfpca(curves, geometric_weights(0.3, t_len), ComponentRule(override=3))
print(f"\njoint fit: {joint.n_components} shared components, "
      f"shares {np.round(joint.var_explained, 4)}")

# the defining algebra: orthonormal basis, uncorrelated scores
basis = np.hstack(joint.loadings)
gram = basis @ basis.T
cov = joint.scores.T @ joint.scores / (t_len - 1)
print(f"orthonormality defect: {np.max(np.abs(gram - np.eye(joint.n_components))):.2e}")
if joint.n_components > 1:
    print(f"largest score cross-covariance: "
          f"{np.max(np.abs(cov - np.diag(np.diag(cov)))):.2e}")

line_chart(
    out_dir / "eigenfunctions.svg",
    bundle.ages,
    [("female block, component 1", joint.loadings[0][0]),
     ("male block, component 1", joint.loadings[1][0])],
    title="Leading joint eigenfunction by population",
    y_label="loading",
)
line_chart(
    out_dir / "scores.svg",
    bundle.years,
    [("shared score 1", joint.scores[:, 0])],
    title="Shared score series",
    y_label="score",
)
print(f"\nwrote {out_dir / 'eigenfunctions.svg'} and {out_dir / 'scores.svg'}")
