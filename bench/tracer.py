"""Span tracing around the public functions of each mortfpca layer.

The tracer replaces a layer function at every ``mortfpca.*`` module
attribute bound to it (``fit_auto`` as seen by ``forecasters``,
``smooth_surface`` as seen by ``cli`` and ``evaluation``, and so on) with a
wrapper that records a span: name, start, end, parent span and run id.
Spans stay in memory; :func:`layer_metrics` and :func:`layer_table` turn
them into the per-layer numbers after the run.  ``uninstall`` puts every
original back, so untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODELS = ("independent", "wmfpca", "coherent", "product_ratio")
CLI_COMMANDS = ("ingest", "smooth", "fit", "forecast", "evaluate", "diagnose")
HMD_FUNCS = ("parse_hmd_rates", "impute_missing", "read_surface_csv",
             "write_surface_csv", "read_matrix_csv", "write_matrix_csv")
STORE_FUNCS = ("save_forecast_surface", "save_fpca_fit", "save_mfpca_fit",
               "append_eval_report")
FIT_AUTO_MODES = ("nonstationary", "stationary")
#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "run_id", "excluded")

    def __init__(self, sid, parent, name, start, run_id):
        self.sid, self.parent, self.name = sid, parent, name
        self.start, self.end, self.run_id = start, None, run_id
        self.excluded = 0.0

    @property
    def duration(self) -> float:
        """Seconds inside the span, less any excluded pauses."""
        return self.end - self.start - self.excluded

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "excluded": self.excluded,
                "run": self.run_id}


class Tracer:
    """Collects spans and layer counters for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []
        self.counters = defaultdict(float)
        self._smooth_inputs: set[str] = set()

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def exclude(self, pauses) -> None:
        """Take pauses, such as speed samples, out of every span.

        Each pause is a tuple that starts with its start time and seconds.
        """
        for span in self.spans:
            for start, seconds, *_ in pauses:
                overlap = min(span.end, start + seconds) - max(span.start, start)
                if overlap > 0:
                    span.excluded += overlap

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, original, namer, after):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(namer(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapped")
        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every mortfpca attribute bound to it."""
        for module_name, func_name, namer, after in self._targets():
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, namer, after)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "mortfpca" and not mod_name.startswith("mortfpca."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _targets(self):
        fixed = lambda name: (lambda a, k: name)  # noqa: E731
        targets = []
        for func in HMD_FUNCS:
            targets.append(("mortfpca.hmd", func, fixed(f"hmd.{func}"), self._after_hmd))
        targets += [
            ("mortfpca.smoothing", "smooth_surface", self._smooth_name, None),
            ("mortfpca.ufpca", "fit_ufpca", fixed("ufpca.fit_ufpca"), self._after_decomp),
            ("mortfpca.mfpca", "fit_mfpca", fixed("mfpca.fit_mfpca"), self._after_decomp),
            ("mortfpca.tsmodels", "fit_auto",
             lambda a, k: "tsmodels.fit_auto." + _arg(a, k, 1, "mode", "nonstationary"),
             self._after_fit_auto),
            ("mortfpca.tsmodels", "forecast", fixed("tsmodels.forecast"), None),
            ("mortfpca.forecasters", "fit_model",
             lambda a, k: "forecasters.fit_model." + str(_arg(a, k, 1, "model")), None),
            ("mortfpca.forecasters", "predict_interval",
             fixed("forecasters.predict_interval"), None),
            ("mortfpca.evaluation", "tune_kappa", fixed("evaluation.tune_kappa"), None),
            ("mortfpca.evaluation", "rolling_rmse", fixed("evaluation.rolling_rmse"), None),
            ("mortfpca.demographics", "life_expectancy",
             fixed("demographics.life_expectancy"), None),
            ("mortfpca.demographics", "sex_ratio", fixed("demographics.sex_ratio"), None),
        ]
        for func in STORE_FUNCS:
            targets.append(("mortfpca.store", func, fixed(f"store.{func}"), None))
        return targets

    # -- counters ----------------------------------------------------------
    def _smooth_name(self, args, kwargs):
        """Span name for ``smooth_surface``; counts curves and repeated inputs."""
        surface = _arg(args, kwargs, 0, "surface")
        config = _arg(args, kwargs, 1, "config")
        digest = hashlib.sha1(surface.log_rates.tobytes())
        digest.update(np.asarray(surface.ages).tobytes())
        if config is not None:
            digest.update(repr(config).encode())
        key = digest.hexdigest()
        if key in self._smooth_inputs:
            self.counters["smoothing.repeats"] += 1
        self._smooth_inputs.add(key)
        self.counters["smoothing.curves"] += surface.log_rates.shape[0]
        return "smoothing.smooth_surface"

    def _after_hmd(self, span, args, kwargs, result):
        name = span.name.split(".", 1)[1]
        if name == "parse_hmd_rates":
            self.counters["hmd.bytes_in"] += len(_arg(args, kwargs, 0, "raw_text"))
        elif name.startswith("read_"):
            self.counters["hmd.bytes_in"] += _file_size(_arg(args, kwargs, 0, "path"))
        elif name == "write_surface_csv":
            self.counters["hmd.bytes_out"] += _file_size(_arg(args, kwargs, 1, "path"))
        elif name == "write_matrix_csv":
            self.counters["hmd.bytes_out"] += _file_size(_arg(args, kwargs, 3, "path"))

    def _after_decomp(self, span, args, kwargs, result):
        parent = self.spans[span.parent].name if span.parent is not None else ""
        if parent != "mfpca.fit_mfpca":  # univariate fits inside a joint fit
            self.counters["decomp.components"] += result.n_components

    def _after_fit_auto(self, span, args, kwargs, result):
        if result.fallback:
            self.counters["tsmodels.fallbacks"] += 1


# ---------------------------------------------------------------------------
# summaries


def layer_totals(spans):
    """Per span name: calls, total seconds, self seconds."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["s"] += span.duration
        row["self_s"] += span.duration - child_time[span.sid]
    return dict(table)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def layer_metrics(tracer: Tracer, pass_wall_s: float) -> dict:
    """The per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    totals = layer_totals(tracer.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    get = lambda name: totals.get(name, zero)  # noqa: E731
    out = {}

    def calls_s(name, with_self=False):
        row = get(name)
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        if with_self:
            out[f"{name}.self_s"] = (row["self_s"], "s")

    for cmd in CLI_COMMANDS:
        calls_s(f"cli.{cmd}", with_self=True)
    for func in HMD_FUNCS:
        calls_s(f"hmd.{func}")
    out["hmd.bytes_in"] = (tracer.counters["hmd.bytes_in"], "bytes")
    out["hmd.bytes_out"] = (tracer.counters["hmd.bytes_out"], "bytes")

    calls_s("smoothing.smooth_surface")
    smooth = get("smoothing.smooth_surface")
    curves = tracer.counters["smoothing.curves"]
    out["smoothing.curves"] = (curves, "count")
    out["smoothing.curves_per_s"] = (curves / smooth["s"] if smooth["s"] else 0.0, "1/s")
    out["smoothing.repeat_ratio"] = (
        tracer.counters["smoothing.repeats"] / smooth["calls"] if smooth["calls"] else 0.0,
        "ratio",
    )

    calls_s("ufpca.fit_ufpca")
    calls_s("mfpca.fit_mfpca")
    out["decomp.components"] = (tracer.counters["decomp.components"], "count")

    for mode in FIT_AUTO_MODES:
        name = f"tsmodels.fit_auto.{mode}"
        calls_s(name)
        samples = np.array([s.duration * 1e3 for s in tracer.spans if s.name == name])
        pct = tail_percentile(samples.size)
        out[f"{name}.p50_ms"] = (float(np.median(samples)) if samples.size else 0.0, "ms")
        out[f"{name}.ptail_ms"] = (
            float(np.percentile(samples, pct)) if samples.size else 0.0, "ms")
        out[f"{name}.ptail_pct"] = (pct, "percentile")
    out["tsmodels.fallbacks"] = (tracer.counters["tsmodels.fallbacks"], "count")
    calls_s("tsmodels.forecast")

    fit_self = 0.0
    for model in MODELS:
        calls_s(f"forecasters.fit_model.{model}")
        fit_self += get(f"forecasters.fit_model.{model}")["self_s"]
    out["forecasters.fit_model.self_s"] = (fit_self, "s")
    calls_s("forecasters.predict_interval")

    calls_s("evaluation.tune_kappa", with_self=True)
    calls_s("evaluation.rolling_rmse", with_self=True)
    for func in STORE_FUNCS:
        calls_s(f"store.{func}")
    calls_s("demographics.life_expectancy")
    calls_s("demographics.sex_ratio")

    roots = sum(s.duration for s in tracer.spans if s.parent is None)
    out["trace.coverage"] = (roots / pass_wall_s if pass_wall_s else 0.0, "ratio")
    return out


def layer_table(spans) -> str:
    """Plain-text table of calls, s and self_s per span name, by self time."""
    totals = layer_totals(spans)
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    width = max([len(name) for name in totals] + [5])
    lines = [f"{'layer':<{width}}  {'calls':>7}  {'s':>10}  {'self_s':>10}"]
    for name, row in rows:
        lines.append(f"{name:<{width}}  {row['calls']:>7}  {row['s']:>10.4f}  "
                     f"{row['self_s']:>10.4f}")
    return "\n".join(lines) + "\n"
