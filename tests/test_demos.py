"""The demo scripts run to completion and draw their charts."""

import pathlib
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

CHARTS = {
    "01_ingest_and_smooth.py": {"smoothing.svg"},
    "02_joint_decomposition.py": {"eigenfunctions.svg", "scores.svg"},
    "03_forecasting_models.py": {"gap_by_horizon.svg", "fan_age40.svg"},
    "04_rolling_evaluation.py": set(),
    "05_life_expectancy.py": {"e0_paths.svg", "sex_ratio.svg"},
}


@pytest.mark.parametrize("demo", sorted(CHARTS))
def test_demo_runs_and_writes_its_charts(demo, tmp_path):
    # a copy writes its charts under tmp_path/out, not under the tracked demos/out
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    runpy.run_path(str(script), run_name="__main__")
    out = tmp_path / "out"
    charts = {p.name for p in out.iterdir()} if out.exists() else set()
    assert charts == CHARTS[demo]
    for name in charts:
        assert (out / name).read_text().startswith("<svg")
