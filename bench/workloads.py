"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload builds its inputs from the seed during set-up and hands the
program only the files it writes; the noise-free truth and the held-out
years stay in this process.  A pass runs the workload's operations, each
one CLI command or one top-level library call.  Checks and accuracy run
after the pass, outside its wall time.

``prepare``   ingest + smooth of 8 synthetic countries (no ARIMA at all).
``forecast``  4 model forecasts, a coherent fit and a coherent diagnose on
              2 populations x 60 smoothed years x ages 0-100, 2 components
              per decomposition (no smoothing).
``evaluate``  tune_kappa over a 2-value grid, then a rolling evaluation, for
              4 countries of 2 populations x 45 years x ages 0-90 (repeats
              smoothing).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from checks import require

from mortfpca import cli, evaluation, hmd
from mortfpca.hmd import SurfaceBundle
from mortfpca.synthetic import hmd_text_from_bundle, synthetic_bundle

MODELS = ("independent", "wmfpca", "coherent", "product_ratio")
SEXES = ("female", "male")


@dataclass
class Op:
    """One timed operation and the check of what it wrote or returned."""

    label: str
    span: str | None            # span the benchmark opens around it, if any
    run: Callable[[], object]
    check: Callable[[object], None] = lambda result: None


def run_cli(argv) -> int:
    """``mortfpca <argv>`` in this process, its chatter captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"mortfpca {argv[0]} exited {code}: {sink.getvalue().strip()}")
    return code


def cli_op(argv, check=lambda result: None) -> Op:
    return Op(f"cli {argv[0]}", f"cli.{argv[0]}", lambda: run_cli(argv), check)


def input_seeds(seed: int, workload: str, n: int) -> list[int]:
    """``n`` generator seeds derived from the run seed and the workload name."""
    sequence = np.random.SeedSequence([seed, sum(map(ord, workload))])
    return [int(s) for s in sequence.generate_state(n)]


def rmse(errors) -> float:
    flat = np.concatenate([np.ravel(e) for e in errors])
    return float(np.sqrt(np.mean(flat**2)))


# ---------------------------------------------------------------------------


class Prepare:
    """``mortfpca ingest`` then ``mortfpca smooth`` for synthetic countries."""

    name = "prepare"

    def __init__(self, countries=8, n_years=80, max_age=100, blank_share=0.005):
        self.countries, self.n_years, self.max_age = countries, n_years, max_age
        self.blank_share = blank_share

    def setup(self, seed, root):
        os.makedirs(root)
        inputs = []
        for c, sub_seed in enumerate(input_seeds(seed, self.name, self.countries)):
            code = f"c{c:02d}"
            bundle, truth = synthetic_bundle(seed=sub_seed, n_years=self.n_years,
                                             max_age=self.max_age, return_truth=True)
            lines = hmd_text_from_bundle(bundle).splitlines()
            cells = np.array([ln.split() for ln in lines[2:]], dtype=object)
            rng = np.random.default_rng(sub_seed)
            blank = rng.random((cells.shape[0], 3)) < self.blank_share
            rates = cells[:, 2:].astype(float)
            rates[blank] = np.nan
            cells[:, 2:][blank] = "."
            body = ["  ".join(row) for row in cells]
            path = os.path.join(root, f"{code}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines[:2] + body) + "\n")
            shape = (bundle.years.size, bundle.ages.size)
            inputs.append({
                "code": code, "raw": path, "years": bundle.years, "ages": bundle.ages,
                "log_rates": [np.log(rates[:, k]).reshape(shape) for k in range(3)],
                "truth": [truth[i].log_rates for i in range(2)],
            })
        return inputs

    def ops(self, inputs, out):
        ops = []
        for country in inputs:
            code = country["code"]
            observed = os.path.join(out, "observed", code)
            smoothed = os.path.join(out, "smoothed", code)
            ops.append(cli_op(
                ["ingest", "--data", country["raw"], "--out", observed, "--country", code],
                lambda _, c=country, d=observed: self._check_ingest(c, d)))
            ops.append(cli_op(
                ["smooth", "--data", observed, "--out", smoothed],
                lambda _, c=country, d=smoothed: self._check_smooth(c, d)))
        return ops

    @staticmethod
    def _pids(country):
        return [f"{country['code']}_{p}" for p in ("female", "male", "total")]

    def _check_ingest(self, country, path):
        for pid, expected in zip(self._pids(country), country["log_rates"]):
            grid = checks.check_surface(os.path.join(path, f"{pid}.csv"), pid, "observed",
                                        country["years"], country["ages"])
            seen = np.isfinite(expected)
            require(np.allclose(grid[seen], expected[seen], rtol=1e-12, atol=0),
                    f"{path}/{pid}.csv: observed log rates differ from the input")

    def _check_smooth(self, country, path):
        for pid in self._pids(country):
            checks.check_surface(os.path.join(path, f"{pid}.csv"), pid, "smoothed",
                                 country["years"], country["ages"])
            checks.check_sigma(os.path.join(path, f"{pid}.sigma.csv"),
                               country["years"], country["ages"])

    def accuracy(self, inputs, out):
        """Smoothed female and male surfaces against the noise-free truth."""
        errors = []
        for country in inputs:
            for pid, truth in zip(self._pids(country), country["truth"]):
                path = os.path.join(out, "smoothed", country["code"], f"{pid}.csv")
                grid = checks.read_grid(path, "log_rate", country["years"], country["ages"])
                errors.append(grid[:, :, 0] - truth)
        return {"rmse": rmse(errors)}


class Forecast:
    """A forecasting session on smoothed training years, scored on held-out ones.

    Every decomposition keeps ``ncomp`` = 2 components (``--ncomp 2``), so
    each pass makes the same 24 ARIMA order searches (14 nonstationary, 10
    stationary) on every seed.  With the CLI's variance threshold the
    coherent model's common component count flips between 1 and 2 from seed
    to seed, and with three coherent fits per session that made the timed
    work bimodal.
    """

    name = "forecast"

    def __init__(self, n_years=90, train_years=60, max_age=100, h=30, kappa=0.5, ncomp=2):
        self.n_years, self.train_years, self.max_age = n_years, train_years, max_age
        self.h, self.kappa, self.ncomp = h, kappa, ncomp

    def setup(self, seed, root):
        (sub_seed,) = input_seeds(seed, self.name, 1)
        observed, truth = synthetic_bundle(seed=sub_seed, n_years=self.n_years,
                                           max_age=self.max_age, return_truth=True)
        first = int(observed.years[0])
        last_train = first + self.train_years - 1
        raw = os.path.join(root, "observed")
        os.makedirs(raw)
        for surface in observed.subset_years(first, last_train):
            hmd.write_surface_csv(surface, os.path.join(raw, f"{surface.population_id}.csv"))
        smoothed = os.path.join(root, "smoothed")
        run_cli(["smooth", "--data", raw, "--out", smoothed])
        held = slice(self.train_years, self.train_years + self.h)
        return {
            "data": smoothed,
            "train_years": observed.years[: self.train_years],
            "horizon_years": observed.years[held],
            "ages": observed.ages,
            "held_truth": [s.log_rates[held] for s in truth],
            "held_observed": [s.log_rates[held] for s in observed],
        }

    def _args(self, inputs, command, model, out):
        return [command, "--data", inputs["data"], "--out", out, "--model", model,
                "--kappa", self.kappa, "--h", self.h, "--ncomp", self.ncomp]

    def ops(self, inputs, out):
        ops = []
        for model in MODELS:
            target = os.path.join(out, f"forecast_{model}")
            ops.append(cli_op(self._args(inputs, "forecast", model, target),
                              lambda _, d=target: self._forecasts(inputs, d)))
        fit_dir = os.path.join(out, "fit_coherent")
        ops.append(cli_op(self._args(inputs, "fit", "coherent", fit_dir),
                          lambda _: self._check_fit(inputs, fit_dir)))
        diag_dir = os.path.join(out, "diagnose_coherent")
        ops.append(cli_op(self._args(inputs, "diagnose", "coherent", diag_dir),
                          lambda _: self._check_diagnose(inputs, diag_dir)))
        return ops

    def _forecasts(self, inputs, path):
        return [checks.check_forecast(os.path.join(path, f"forecast_{sex}.csv"),
                                      inputs["horizon_years"], inputs["ages"])
                for sex in SEXES]

    def _check_fit(self, inputs, path):
        checks.check_fpca_dir(os.path.join(path, "common"), inputs["train_years"],
                              inputs["ages"])
        checks.check_mfpca_dir(os.path.join(path, "deviations"), inputs["train_years"],
                               inputs["ages"], SEXES)

    def _check_diagnose(self, inputs, path):
        years = np.concatenate([inputs["train_years"], inputs["horizon_years"]])
        checks.check_diagnose(path, years, inputs["ages"])

    def accuracy(self, inputs, out):
        """Forecast means against held-out truth; held-out cells inside the 95% PI."""
        errors, inside = [], []
        for model in MODELS:
            grids = self._forecasts(inputs, os.path.join(out, f"forecast_{model}"))
            for grid, truth, seen in zip(grids, inputs["held_truth"], inputs["held_observed"]):
                errors.append(grid[:, :, 0] - truth)
                inside.append((seen >= grid[:, :, 2]) & (seen <= grid[:, :, 3]))
        share = float(np.mean(np.concatenate([np.ravel(x) for x in inside])))
        return {"rmse": rmse(errors), "pi_coverage_err": abs(share - 0.95)}


class Evaluate:
    """What ``mortfpca evaluate --kappa auto`` does, for several small countries.

    Per country: read and impute the observed surfaces, ``tune_kappa`` on all
    years but the final ``windows`` (each kappa re-smooths the same training
    years), then ``mortfpca evaluate`` with the tuned kappa.
    """

    name = "evaluate"

    def __init__(self, countries=4, n_years=45, max_age=90, h=5, windows=1, grid=(0.2, 0.8),
                 model="wmfpca"):
        self.countries, self.n_years, self.max_age = countries, n_years, max_age
        self.h, self.windows, self.grid, self.model = h, windows, grid, model

    def setup(self, seed, root):
        inputs = []
        for c, sub_seed in enumerate(input_seeds(seed, self.name, self.countries)):
            observed = synthetic_bundle(seed=sub_seed, n_years=self.n_years,
                                        max_age=self.max_age)
            data = os.path.join(root, f"c{c:02d}")
            os.makedirs(data)
            for surface in observed:
                hmd.write_surface_csv(surface,
                                      os.path.join(data, f"{surface.population_id}.csv"))
            inputs.append({"code": f"c{c:02d}", "data": data, "years": observed.years,
                           "ages": observed.ages})
        return inputs

    def ops(self, inputs, out):
        ops = []
        for country in inputs:
            ops += self._country_ops(country, os.path.join(out, country["code"]))
        return ops

    def _country_ops(self, country, out):
        state = {}
        ops = []
        for sex in SEXES:
            path = os.path.join(country["data"], f"{sex}.csv")
            ops.append(Op(f"read {sex}", None,
                          lambda p=path, s=sex: state.__setitem__(s, hmd.read_surface_csv(p)),
                          lambda _, s=sex: self._check_surface(state[s], s, country)))
        for sex in SEXES:
            ops.append(Op(f"impute {sex}", None,
                          lambda s=sex: state.__setitem__(s, hmd.impute_missing(state[s])),
                          lambda _, s=sex: self._check_surface(state[s], s, country)))

        def tune():
            bundle = SurfaceBundle([state[s] for s in SEXES])
            last = int(bundle.years[-1]) - self.windows
            training = bundle.subset_years(int(bundle.years[0]), last)
            state["kappa"] = evaluation.tune_kappa(training, self.model, self.h,
                                                   grid=self.grid, windows=self.windows)

        ops.append(Op("tune_kappa", None, tune, lambda _: require(
            state["kappa"] in self.grid, f"tuned kappa {state['kappa']} is not in the grid")))
        ops.append(Op(
            "cli evaluate", "cli.evaluate",
            lambda: run_cli(["evaluate", "--data", country["data"], "--out", out,
                             "--model", self.model, "--h", self.h,
                             "--windows", self.windows, "--kappa", state["kappa"],
                             "--country", country["code"]]),
            lambda _: checks.check_eval(os.path.join(out, "eval.csv"), SEXES, self.model,
                                        self.h, self.windows, state["kappa"])))
        return ops

    @staticmethod
    def _check_surface(surface, sex, country):
        require(surface.population_id == sex, f"read {surface.population_id}, want {sex}")
        require(np.array_equal(surface.years, country["years"])
                and np.array_equal(surface.ages, country["ages"]),
                f"{country['code']}/{sex}: years or ages do not match the input")
        require(np.all(np.isfinite(surface.log_rates)),
                f"{country['code']}/{sex}: non-finite log rate")

    def accuracy(self, inputs, out):
        """Mean over countries of the ``avg_rmse`` written to ``eval.csv``."""
        values = []
        for country in inputs:
            rows, _ = checks.read_rows(os.path.join(out, country["code"], "eval.csv"),
                                       "country,model,h,pop,rmse,avg_rmse,windows,kappa")
            values.append(float(rows[0][5]))
        return {"rmse": float(np.mean(values))}


WORKLOADS = {w.name: w for w in (Prepare, Forecast, Evaluate)}
