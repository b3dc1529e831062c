"""Multivariate functional PCA across several populations.

The joint decomposition is assembled from per-population univariate fits:

1. fit each population's weighted FPCA and keep its scores and
   eigenfunctions;
2. stack the score matrices side by side into Xi (T x sum N_i) and form
   Z = Xi' Xi / (T - 1);
3. eigendecompose Z to get block coefficient vectors c_n and joint
   variances nu_n;
4. map each c_n through the univariate eigenfunctions to obtain the
   population-specific pieces psi_n^(i) of the multivariate eigenfunctions,
   and rotate the stacked scores into the shared scores rho.

The result is an :class:`~mortfpca.ufpca.FpcaFit` with one slice per
population: ``means[i]`` and ``loadings[i]`` (the psi_n^(i) as rows) for
population i, and the rho as ``scores``.

The multivariate eigenfunctions are orthonormal under the summed inner
product over populations, and the shared scores reproduce each population's
curves together with its mean when no truncation is applied.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyBundle
from .ufpca import ComponentRule, FpcaFit, WeightScheme, _decompose, fit_ufpca


def _extract_curves(bundle):
    """Accept a SurfaceBundle or a plain sequence of T x J matrices."""
    if hasattr(bundle, "surfaces"):
        return [s.log_rates for s in bundle.surfaces]
    return [np.asarray(c, dtype=float) for c in bundle]


def fit_mfpca(
    bundle,
    weights: WeightScheme,
    rule: ComponentRule | None = None,
    weight_power: float = 1.0,
) -> FpcaFit:
    """Fit the joint decomposition of several populations.

    ``bundle`` may be a :class:`~mortfpca.hmd.SurfaceBundle` or any sequence
    of T x J arrays on a common grid.  The same weights, scaling power and
    truncation rule apply to the univariate fits and to the joint step.
    The result has one slice per population, and its ``parts`` are the
    univariate fits.
    """
    curves_list = _extract_curves(bundle)
    if len(curves_list) == 0:
        raise EmptyBundle("no populations to decompose")
    shapes = {c.shape for c in curves_list}
    if len(shapes) != 1:
        raise ValueError(f"populations disagree in shape: {sorted(shapes)}")

    parts = [fit_ufpca(c, weights, rule, weight_power) for c in curves_list]
    # same thin-factorization route as the univariate fit: singular values of
    # the stacked score matrix give the eigenvalues of Xi'Xi/(T-1) without
    # squaring their dynamic range
    stacked_scores = np.hstack([f.scores for f in parts])
    return _decompose(stacked_scores, stacked_scores, rule, [f.means[0] for f in parts],
                      weights, weight_power, parts)
