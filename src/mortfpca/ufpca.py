"""Weighted functional PCA of one population, and the fit type of every decomposition.

Curves live on a unit-spaced age grid, so every L2 inner product reduces to
a plain dot product.  The decomposition follows the weighted formulation:
the mean is a weighted average of annual curves with geometrically decaying
weights, the centered curves are scaled row-wise by the weights (or their
square root, see ``weight_power``), and the eigenpairs come from the scaled
data's covariance.  Scores are projections of the *unscaled* centered curves
onto the eigenfunctions, which keeps them on the natural scale for
time-series modelling.

``ComponentRule`` and ``select_ncomp`` decide how many components every
decomposition keeps: this univariate one, the joint one of
:mod:`mortfpca.mfpca` and the univariate fits it rotates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientYears, KappaOutOfRange, NonFiniteInput

#: relative singular-value cutoff below which a component counts as numerically zero
EIGENVALUE_RTOL = 1e-12


@dataclass(frozen=True)
class ComponentRule:
    """How many principal components to keep.

    ``threshold`` keeps the smallest leading set whose cumulative share of
    total variance reaches the given proportion.  ``override``, when set,
    wins and requests a fixed count (capped at the number of available
    components).
    """

    threshold: float = 0.9
    override: int | None = None

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")
        if self.override is not None and self.override < 1:
            raise ValueError(f"override must be a positive count, got {self.override}")


#: Keep every component the data supports.
FULL_RANK = ComponentRule(threshold=1.0)


def select_ncomp(eigenvalues, rule: ComponentRule) -> int:
    """Number of components retained under ``rule``.

    Parameters
    ----------
    eigenvalues : array_like
        Non-increasing, non-negative variances, one per component.
    rule : ComponentRule
        Selection rule.

    Returns
    -------
    int
        Smallest N with cumulative share >= ``rule.threshold``, or
        ``rule.override`` capped at ``len(eigenvalues)``.  All-zero input
        yields 0.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    if vals.ndim != 1:
        raise ValueError("eigenvalues must be a 1-d array")
    if vals.size and (np.any(vals < 0) or np.any(np.diff(vals) > 1e-12 * max(vals[0], 1.0))):
        raise ValueError("eigenvalues must be non-increasing and non-negative")
    total = vals.sum()
    if vals.size == 0 or total <= 0.0:
        return 0
    if rule.override is not None:
        return min(rule.override, vals.size)
    if rule.threshold >= 1.0:
        # keep every nonzero component; a share search would drop trailing
        # components whose share rounds below machine precision even though
        # they still carry signal
        return int(np.sum(vals > 0.0))
    shares = np.cumsum(vals) / total
    # tolerate cumsum rounding a hair below an exactly-attained threshold
    n = int(np.searchsorted(shares, rule.threshold - 1e-12)) + 1
    return min(n, vals.size)


@dataclass(eq=False)
class WeightScheme:
    """Observation weights over the T fitting years, summing to one."""

    weights: np.ndarray
    kappa: float | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @property
    def n_years(self) -> int:
        return self.weights.size


def geometric_weights(kappa: float, n_years: int) -> WeightScheme:
    """Geometrically decaying weights w_t proportional to kappa*(1-kappa)^(T-t).

    Normalized to sum to one; the most recent year carries the largest
    weight.  ``kappa`` must lie strictly inside (0, 1).
    """
    if not 0.0 < kappa < 1.0:
        raise KappaOutOfRange(f"kappa must lie in (0, 1), got {kappa}")
    if n_years < 1:
        raise ValueError("n_years must be positive")
    t = np.arange(1, n_years + 1)
    w = kappa * (1.0 - kappa) ** (n_years - t)
    w /= 1.0 - (1.0 - kappa) ** n_years
    return WeightScheme(weights=w, kappa=kappa)


def uniform_weights(n_years: int) -> WeightScheme:
    if n_years < 1:
        raise ValueError("n_years must be positive")
    return WeightScheme(weights=np.full(n_years, 1.0 / n_years), kappa=None)


@dataclass(eq=False)
class FpcaFit:
    """Truncated eigendecomposition of one or more populations' curves.

    Slice i holds one population: ``means[i]`` is its mean curve and
    ``loadings[i]`` (N x J) its piece of the N eigenfunctions; all slices
    share ``scores`` (T x N) and the spectrum.  ``var_explained`` is each
    eigenvalue's share of ``total_variance``, so after truncation it need
    not sum to one.  :func:`fit_ufpca` returns one slice with orthonormal
    loadings; :func:`~mortfpca.mfpca.fit_mfpca` one slice per population,
    orthonormal under the inner product summed over slices, with the
    univariate fits it rotates in ``parts``.
    """

    means: list
    loadings: list
    scores: np.ndarray
    eigenvalues: np.ndarray
    var_explained: np.ndarray
    total_variance: float
    weights: WeightScheme
    weight_power: float = 1.0
    parts: list = field(default_factory=list)

    @property
    def n_components(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self, i: int = 0) -> np.ndarray:
        """In-sample reconstructions of slice ``i`` as a T x J matrix."""
        return self.means[i] + self.scores @ self.loadings[i]


def _orient_rows(vectors: np.ndarray):
    """Flip rows so each one's largest-|entry| coordinate is positive.

    ``np.argmax`` resolves ties toward the lowest index, which pins the
    orientation deterministically.  Returns the signs applied.
    """
    if vectors.size == 0:
        return np.ones(vectors.shape[0])
    idx = np.argmax(np.abs(vectors), axis=1)
    signs = np.where(vectors[np.arange(vectors.shape[0]), idx] < 0, -1.0, 1.0)
    vectors *= signs[:, None]
    return signs


def _decompose(scaled, centered, rule: ComponentRule | None, means: list,
               weights: WeightScheme, weight_power: float, parts=()) -> FpcaFit:
    """Fit of the leading eigenvectors of scaled'scaled/(T-1), scoring ``centered``.

    With ``parts``, the columns are the parts' stacked scores, and each
    part's segment of an eigenvector maps through its loadings to its ages.
    """
    # thin SVD of the scaled data rather than eigh of its covariance: the
    # singular values span the weights' dynamic range unsquared, so low-weight
    # years keep their directions instead of collapsing into rounding noise
    _, svals, vt = np.linalg.svd(scaled, full_matrices=False)
    evals = svals**2 / (scaled.shape[0] - 1)
    total_variance = float(evals.sum())

    # years that all hold one curve centre to rounding noise of about
    # eps * |mean| per cell, not to exact zeros: count that noise as no variance
    level = max([1.0] + [float(np.abs(m).max(initial=0.0)) for m in means])
    if svals.size == 0 or svals[0] <= scaled.size * np.finfo(float).eps * level:
        n_keep = 0
    else:
        n_keep = int(np.sum(svals > EIGENVALUE_RTOL * svals[0]))
    n_comp = min(select_ncomp(evals[:n_keep], rule or ComponentRule()), n_keep)

    vectors = np.ascontiguousarray(vt[:n_comp])
    _orient_rows(vectors)
    loadings = [vectors]
    if parts:
        edges = np.cumsum([0] + [p.n_components for p in parts])
        loadings = [vectors[:, a:b] @ p.loadings[0] for a, b, p in zip(edges, edges[1:], parts)]
    return FpcaFit(
        means=means,
        loadings=loadings,
        scores=centered @ vectors.T,
        eigenvalues=evals[:n_comp].copy(),
        var_explained=(evals[:n_comp] / total_variance if n_comp else np.empty(0)),
        total_variance=total_variance,
        weights=weights,
        weight_power=weight_power,
        parts=list(parts),
    )


def fit_ufpca(
    curves: np.ndarray,
    weights: WeightScheme,
    rule: ComponentRule | None = None,
    weight_power: float = 1.0,
) -> FpcaFit:
    """Fit the weighted functional PCA of a T x J curve matrix.

    Parameters
    ----------
    curves : ndarray
        One finite curve per row.
    weights : WeightScheme
        Length-T weights used for the mean and for row scaling.
    rule : ComponentRule, optional
        Truncation rule applied to the eigenvalue sequence; ``ComponentRule()`` if None.
    weight_power : float
        Exponent on the weights when scaling centered rows; 1.0 scales by
        w_t, 0.5 by sqrt(w_t).

    Notes
    -----
    Zero total variance is legal and produces a fit with zero components;
    reconstructions then collapse to the mean curve.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2:
        raise ValueError("curves must be a T x J matrix")
    n_years, n_ages = curves.shape
    if n_years < 2:
        raise InsufficientYears(f"need at least 2 annual curves, got {n_years}")
    if weights.n_years != n_years:
        raise ValueError("weights length must match the number of curves")
    if not np.all(np.isfinite(curves)):
        raise NonFiniteInput("curves contain non-finite values")
    if weight_power not in (1.0, 0.5):
        raise ValueError(f"weight_power must be 1.0 or 0.5, got {weight_power}")

    w = weights.weights
    mean_fn = w @ curves
    centered = curves - mean_fn
    scaled = (w**weight_power)[:, None] * centered
    return _decompose(scaled, centered, rule, [mean_fn], weights, weight_power)
