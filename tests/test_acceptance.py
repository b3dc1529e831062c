"""Acceptance gates for the package: eight numbered criteria.

Each test appends one ``criterion N: PASS/FAIL/SKIP (...)`` line to the
session report (printed after the run) before asserting, so a failing
criterion still shows its measured numbers.
"""

import os
import time

import numpy as np
import pytest

from mortfpca.cli import main
from mortfpca.evaluation import rolling_rmse
from mortfpca.forecasters import (
    MODELS,
    Block,
    ModelResult,
    fit_model,
    in_sample_reconstruction,
    predict_interval,
)
from mortfpca.hmd import SurfaceBundle, impute_missing, parse_hmd_rates
from mortfpca.mfpca import fit_mfpca
from mortfpca.smoothing import smooth_surface
from mortfpca.synthetic import hmd_text_from_bundle, synthetic_bundle
from mortfpca.tsmodels import fit_auto, fit_spec, forecast, unconditional_mean
from mortfpca.ufpca import FULL_RANK, ComponentRule, fit_ufpca, geometric_weights, uniform_weights


def test_criterion_1_joint_decomposition_matches_bruteforce_oracle(acceptance_report):
    """Two-stage joint decomposition == eigendecomposition of the stacked
    centered-data covariance, on 10 random unweighted full-rank instances."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(2026 + i)
        t = int(rng.integers(5, 13))
        j = int(rng.integers(4, 9))
        curves = [rng.normal(-4.0, 1.0, (t, j)) for _ in range(2)]
        fit = fit_mfpca(curves, uniform_weights(t), FULL_RANK)

        stacked = np.hstack([c - c.mean(axis=0) for c in curves])
        evals, evecs = np.linalg.eigh(stacked.T @ stacked / (t - 1))
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]

        n = fit.n_components
        assert n == min(t - 1, 2 * j)
        worst = max(worst, float(np.max(np.abs(fit.eigenvalues - evals[:n]))))
        for k in range(n):
            pkg = np.concatenate([b[k] for b in fit.loadings])
            ref = evecs[:, k]
            pivot = int(np.argmax(np.abs(pkg)))
            if pkg[pivot] * ref[pivot] < 0:
                ref = -ref
            worst = max(worst, float(np.max(np.abs(pkg - ref))))
            worst = max(worst, float(np.max(np.abs(fit.scores[:, k] - stacked @ ref))))

        oracle_scores = stacked @ evecs[:, :n]
        rebuilt = oracle_scores @ evecs[:, :n].T
        offset = 0
        for p, c in enumerate(curves):
            oracle_recon = c.mean(axis=0) + rebuilt[:, offset:offset + j]
            worst = max(worst, float(np.max(np.abs(fit.reconstruct(p) - oracle_recon))))
            offset += j

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    acceptance_report.append(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(10 instances, max |deviation| {worst:.2e} vs 1e-8, {elapsed:.2f}s vs 5s)"
    )
    assert worst < 1e-8
    assert elapsed < 5.0


def _corpus_fits():
    """Decomposition fits spanning bundles, weight schemes, powers and rules."""
    rng = np.random.default_rng(77)
    corpora = [
        [s.log_rates for s in synthetic_bundle(seed=11, n_years=30, max_age=40)],
        [s.log_rates for s in synthetic_bundle(seed=12, n_years=24, max_age=30, divergent=True)],
        [rng.normal(-4.0, 1.0, (14, 9)) for _ in range(3)],
    ]
    fits = []
    for curves in corpora:
        t = curves[0].shape[0]
        schemes = [
            (uniform_weights(t), 1.0),
            (geometric_weights(0.3, t), 1.0),
            (geometric_weights(0.7, t), 0.5),
        ]
        for weights, power in schemes:
            for rule in (ComponentRule(threshold=0.9), FULL_RANK):
                for c in curves:
                    fits.append(fit_ufpca(c, weights, rule, power))
                fits.append(fit_mfpca(curves, weights, rule, power))
    return fits


def test_criterion_2_orthonormality_and_uncorrelated_scores(acceptance_report):
    t0 = time.perf_counter()
    worst_orth = 0.0
    worst_cross = 0.0  # off-diagonal score covariance relative to max variance
    fits = _corpus_fits()
    for fit in fits:
        if fit.parts:
            basis = np.hstack(fit.loadings)
            scores = fit.scores
            weighted = scores
        else:
            basis = fit.loadings[0]
            scores = fit.scores
            weighted = (fit.weights.weights ** (2.0 * fit.weight_power))[:, None] * scores
        n = basis.shape[0]
        if n == 0:
            continue
        gram = basis @ basis.T
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(n)))))
        cov = scores.T @ weighted / (scores.shape[0] - 1)
        if n > 1:
            off = np.max(np.abs(cov - np.diag(np.diag(cov))))
            worst_cross = max(worst_cross, float(off / np.max(np.diag(cov))))

    elapsed = time.perf_counter() - t0
    ok = worst_orth < 1e-6 and worst_cross < 1e-6 and elapsed < 10.0
    acceptance_report.append(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"({len(fits)} fits, orthonormality defect {worst_orth:.2e} vs 1e-6, "
        f"score cross-covariance {worst_cross:.2e} x max variance vs 1e-6, "
        f"{elapsed:.2f}s vs 10s)"
    )
    assert worst_orth < 1e-6
    assert worst_cross < 1e-6
    assert elapsed < 10.0


def test_criterion_3_full_rank_reconstruction(acceptance_report):
    t0 = time.perf_counter()
    bundle = synthetic_bundle(seed=21, n_years=10, max_age=5)  # noisy, full rank
    worst = 0.0
    for model in MODELS:
        result = fit_model(bundle, model, h=1, kappa=0.5, rule=FULL_RANK)
        for recon, surface in zip(in_sample_reconstruction(result), bundle):
            worst = max(worst, float(np.max(np.abs(recon - surface.log_rates))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6
    acceptance_report.append(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(all four models in-sample, max |error| {worst:.2e} vs 1e-6, {elapsed:.2f}s)"
    )
    assert worst < 1e-6


def _limit_gap(result, model):
    """Forecast gap between populations 0 and 1 as the horizon grows without
    bound: difference of fitted mean curves plus the long-run means of the
    stationary score models mapped through the eigenfunctions."""
    if model == "coherent":
        deviations = result.blocks[1]
        fit = deviations.fit
        gap = fit.means[0] - fit.means[1]
        for l, spec in enumerate(deviations.specs):
            m = unconditional_mean(spec)
            gap = gap + m * (fit.loadings[0][l]
                             - fit.loadings[1][l])
        return gap
    ratios = result.blocks[1:]
    gap = ratios[0].fit.means[0] - ratios[1].fit.means[0]
    for i, sign in ((0, 1.0), (1, -1.0)):
        for l, spec in enumerate(ratios[i].specs):
            gap = gap + sign * unconditional_mean(spec) * ratios[i].fit.loadings[0][l]
    return gap


def test_criterion_4_coherence_property(acceptance_report):
    t0 = time.perf_counter()
    _, trending = synthetic_bundle(seed=31, n_years=50, max_age=60, return_truth=True)
    _, diverging = synthetic_bundle(seed=43, n_years=50, max_age=60,
                                    divergent=True, return_truth=True)

    worst = 0.0
    for bundle in (trending, diverging):
        for model in ("coherent", "product_ratio"):
            result = fit_model(bundle, model, h=500, kappa=0.6)
            surfaces = predict_interval(result, None)
            g500 = surfaces[0].mean[499] - surfaces[1].mean[499]
            dev = float(np.max(np.abs(g500 - _limit_gap(result, model))))
            worst = max(worst, dev)

    result = fit_model(diverging, "independent", h=50)
    surfaces = predict_interval(result, None)
    gap1 = float(np.mean(np.abs(surfaces[0].mean[0] - surfaces[1].mean[0])))
    gap50 = float(np.mean(np.abs(surfaces[0].mean[49] - surfaces[1].mean[49])))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and gap50 > gap1 and elapsed < 30.0
    acceptance_report.append(
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(coherent and product-ratio |gap(500) - mean gap| {worst:.2e} vs 1e-3 "
        f"on trending and diverging data; independent gap grows "
        f"{gap1:.3f} -> {gap50:.3f}; {elapsed:.1f}s vs 30s)"
    )
    assert worst < 1e-3
    assert gap50 > gap1
    assert elapsed < 30.0


def test_criterion_5_time_series_closed_forms_and_white_noise(acceptance_report):
    t0 = time.perf_counter()

    # AR(1) with mean: forecast mean m + phi^h (z_T - m), variance
    # sigma^2 sum phi^(2i), both from the fitted parameters themselves
    rng = np.random.default_rng(500)
    z = np.empty(300)
    z[0] = 2.0
    for i in range(1, 300):
        z[i] = 2.0 + 0.7 * (z[i - 1] - 2.0) + rng.normal(0.0, 0.4)
    spec = fit_spec(z, (1, 0, 0), include_drift=True, mode="stationary")
    mean, variance = forecast(spec, z, 12)
    steps = np.arange(1, 13)
    phi, m = float(spec.ar[0]), spec.drift
    mean_ref = m + phi**steps * (z[-1] - m)
    var_ref = spec.innovation_var * np.cumsum(phi ** (2 * (steps - 1)))
    closed_dev = max(
        float(np.max(np.abs(mean - mean_ref))),
        float(np.max(np.abs(variance - var_ref))),
    )

    # random walk with drift: mean last + h*drift, variance h*sigma^2
    walk = np.cumsum(rng.normal(0.5, 1.0, 200))
    spec = fit_spec(walk, (0, 1, 0), include_drift=True)
    mean, variance = forecast(spec, walk, 12)
    closed_dev = max(
        closed_dev,
        float(np.max(np.abs(mean - (walk[-1] + steps * spec.drift)))),
        float(np.max(np.abs(variance - steps * spec.innovation_var))),
    )

    # BIC order selection on pure white noise
    hits = 0
    for rep in range(100):
        noise = np.random.default_rng(9000 + rep).normal(0.0, 1.0, 200)
        hits += fit_auto(noise, mode="stationary").order == (0, 0, 0)

    elapsed = time.perf_counter() - t0
    ok = closed_dev < 1e-8 and hits >= 95 and elapsed < 60.0
    acceptance_report.append(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(closed-form max |deviation| {closed_dev:.2e} vs 1e-8; white-noise BIC "
        f"picked (0,0,0) on {hits}/100 replications vs required 95; "
        f"{elapsed:.1f}s vs 60s)"
    )
    assert closed_dev < 1e-8
    assert elapsed < 60.0
    # BIC's log(n_eff) penalty per parameter makes order selection consistent,
    # so on pure noise it rarely prefers any of the 17 larger grid cells; AIC's
    # fixed penalty of 2 would keep a constant chance of overfitting and settle
    # near 60 of 100 here, short of the required 95.
    assert hits >= 95, (
        f"white-noise replications selected (0,0,0) {hits}/100 times; "
        "a minimum-BIC grid search should identify white noise 95+ times"
    )


def test_criterion_6_interval_coverage_model_true(acceptance_report):
    t0 = time.perf_counter()
    t_len, n_ages, h = 40, 12, 4
    ages = np.arange(n_ages)
    mu = -5.0 + 0.05 * ages
    phi = 1.0 + 0.1 * ages
    phi = phi / np.linalg.norm(phi)
    sigma_obs = 0.05 * (1.0 + ages / n_ages)
    drift_true, score_sd = -0.8, 0.5
    weights = uniform_weights(t_len)
    sigma = np.tile(sigma_obs, (t_len, 1))

    covered = total = 0
    for rep in range(1000):
        rng = np.random.default_rng(7000 + rep)
        scores = np.cumsum(drift_true + rng.normal(0.0, score_sd, t_len))
        future = scores[-1] + np.cumsum(drift_true + rng.normal(0.0, score_sd, h))
        curves = mu + np.outer(scores, phi) + rng.normal(0.0, 1.0, (t_len, n_ages)) * sigma_obs
        y_future = mu + future[-1] * phi + rng.normal(0.0, 1.0, n_ages) * sigma_obs

        fit = fit_ufpca(curves, weights, ComponentRule(override=1))
        spec = fit_spec(fit.scores[:, 0], (0, 1, 0), include_drift=True)
        mean, variance = forecast(spec, fit.scores[:, 0], h)
        result = ModelResult(
            ["pop"], np.arange(2000, 2000 + t_len), h, weights,
            [Block("pop", [0], fit, "nonstationary", [spec], mean[:, None], variance[:, None])],
        )
        surface = predict_interval(result, [sigma], alpha=0.05)[0]
        hit = (surface.lower[h - 1] <= y_future) & (y_future <= surface.upper[h - 1])
        covered += int(np.count_nonzero(hit))
        total += n_ages

    coverage = covered / total
    elapsed = time.perf_counter() - t0
    ok = 0.90 <= coverage <= 0.99 and elapsed < 120.0
    acceptance_report.append(
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(1000 replications, 95% interval coverage {coverage:.3f} "
        f"vs [0.90, 0.99], {elapsed:.1f}s vs 120s)"
    )
    assert 0.90 <= coverage <= 0.99
    assert elapsed < 120.0


def _japan_file():
    path = os.environ.get("MFPCA_JAPAN_MX")
    if path and os.path.exists(path):
        return path
    data_dir = os.environ.get("MFPCA_DATA_DIR")
    if data_dir:
        candidate = os.path.join(data_dir, "JPN.Mx_1x1.txt")
        if os.path.exists(candidate):
            return candidate
    return None


def test_criterion_7_japan_reproduction_reported(acceptance_report):
    """Reported, not asserted: published-figure reference values alongside
    this package's numbers on the real Japan extract, when one is present."""
    path = _japan_file()
    if path is None:
        acceptance_report.append(
            "criterion 7: SKIP (no Japan Mx_1x1 extract; point MFPCA_JAPAN_MX "
            "or MFPCA_DATA_DIR at one to see the report)"
        )
        pytest.skip("Japan Mx_1x1 extract not supplied")

    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        bundle = parse_hmd_rates(fh.read(), max_age=100)
    both = SurfaceBundle([
        impute_missing(s) for s in bundle if s.population_id in ("female", "male")
    ])
    observed = both.subset_years(1947, 2016)
    smoothed = SurfaceBundle([smooth_surface(s)[0] for s in observed])
    train = smoothed.subset_years(1947, 1996)
    target = {s.population_id: s.log_rates[-1] for s in observed}

    details = []
    references = {
        "coherent": {"female": 0.1460, "male": 0.1821},
        "wmfpca": {"female": 0.2406, "male": 0.2006},
    }
    for model in ("coherent", "wmfpca"):
        result = fit_model(train, model, h=20, kappa=0.5)
        for surface in predict_interval(result, None):
            err = surface.mean[19] - target[surface.population_id]
            rmse = float(np.sqrt(np.mean(err**2)))
            assert np.isfinite(rmse)
            details.append(
                f"{model} {surface.population_id} 2016 RMSE {rmse:.4f} "
                f"(ref {references[model][surface.population_id]:.4f})"
            )
        if model == "coherent":
            shares = result.blocks[0].fit.var_explained[:3]
            details.append(
                "common shares "
                + "/".join(f"{s:.3f}" for s in shares) + " (ref 0.972/0.023/0.002)"
            )
        else:
            shares = result.blocks[0].fit.var_explained[:3]
            details.append(
                "joint shares "
                + "/".join(f"{s:.3f}" for s in shares) + " (ref 0.980/0.017/0.002)"
            )

    table = rolling_rmse(observed, "coherent", 20, windows=10, kappa=0.5)
    details.append(f"rolling h=20 coherent avg RMSE {table.avg_rmse:.4f} (ref 0.2841)")
    acceptance_report.append("criterion 7: PASS (reported, not asserted)")
    for line in details:
        acceptance_report.append(f"    {line}")


def test_criterion_8_determinism(acceptance_report, tmp_path):
    t0 = time.perf_counter()

    # library level: identical arrays from repeated fits
    bundle = synthetic_bundle(seed=91, n_years=12, max_age=34, noise_sd=0.03)
    first = fit_model(bundle, "wmfpca", h=3, kappa=0.5)
    second = fit_model(bundle, "wmfpca", h=3, kappa=0.5)
    arrays_equal = (
        np.array_equal(first.blocks[0].fit.eigenvalues,
                       second.blocks[0].fit.eigenvalues)
        and np.array_equal(first.blocks[0].fit.scores, second.blocks[0].fit.scores)
        and all(
            np.array_equal(a.mean, b.mean) and np.array_equal(a.variance, b.variance)
            for a, b in zip(predict_interval(first, None), predict_interval(second, None))
        )
    )

    # command level: every pipeline command rewrites byte-identical outputs
    raw = tmp_path / "SYN.Mx_1x1.txt"
    raw.write_text(hmd_text_from_bundle(bundle))
    obs = [tmp_path / "obs_a", tmp_path / "obs_b"]
    smo = [tmp_path / "smo_a", tmp_path / "smo_b"]
    commands_equal = True
    for run in range(2):
        assert main(["ingest", "--data", str(raw), "--out", str(obs[run])]) == 0
        assert main(["smooth", "--data", str(obs[run]), "--out", str(smo[run])]) == 0
    pairs = [(obs[0], obs[1]), (smo[0], smo[1])]
    for command, extra in (
        ("forecast", ["--model", "independent", "--h", "2"]),
        ("evaluate", ["--model", "independent", "--h", "1", "--windows", "1",
                      "--country", "SYN"]),
        ("diagnose", ["--model", "independent", "--h", "2"]),
    ):
        outs = [tmp_path / f"{command}_a", tmp_path / f"{command}_b"]
        source = obs if command == "evaluate" else smo
        for run in range(2):
            assert main([command, "--data", str(source[run]), "--out",
                         str(outs[run])] + extra) == 0
        pairs.append((outs[0], outs[1]))
    for left, right in pairs:
        tree_left = {p.name: p.read_bytes() for p in sorted(left.iterdir())}
        tree_right = {p.name: p.read_bytes() for p in sorted(right.iterdir())}
        commands_equal = commands_equal and tree_left == tree_right

    elapsed = time.perf_counter() - t0
    ok = arrays_equal and commands_equal
    acceptance_report.append(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(repeated fits bitwise equal: {arrays_equal}; ingest/smooth/forecast/"
        f"evaluate/diagnose byte-identical on rerun: {commands_equal}; {elapsed:.1f}s)"
    )
    assert arrays_equal
    assert commands_equal
