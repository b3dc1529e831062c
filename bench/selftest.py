"""Self-test of the benchmark's output checks and transparency check.

Runs small versions of the ``forecast`` and ``prepare`` workloads, once
untraced and once traced, and requires identical output digests and clean
checks.  Then it corrupts one output file at a time and requires that a
check rejects it and that the output digest changes.  Run from the
repository root::

    python3 bench/selftest.py

Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _rewrite(path, edit):
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _set_field(row, column, value):
    def edit(lines):
        parts = lines[row].split(",")
        parts[column] = value
        lines[row] = ",".join(parts)
        return lines
    return edit


def _swap_bounds(lines):
    year, age, mean, var, lower, upper = lines[1].split(",")
    lines[1] = ",".join((year, age, mean, var, upper, lower))
    return lines


def _drop_last(lines):
    return lines[:-1]


def _fall_after_65(lines):
    # rows start after the tag and header lines; this is age 70 of the first year
    parts = lines[2 + 70].split(",")
    parts[2] = repr(float(parts[2]) - 5.0)
    lines[2 + 70] = ",".join(parts)
    return lines


def corruptions(out):
    """(description, file, edit) triples; each must be caught by a check."""
    fc = os.path.join(out, "forecast_coherent", "forecast_female.csv")
    diag = os.path.join(out, "diagnose_coherent")
    return [
        ("lower above upper", fc, _swap_bounds),
        ("non-finite mean", fc, _set_field(3, 2, "nan")),
        ("truncated file", fc, _drop_last),
        ("unparseable value", fc, _set_field(2, 3, "x")),
        ("variance falls with horizon", fc, _set_field(-1, 3, "0.0")),
        ("wrong year", fc, _set_field(1, 0, "1800")),
        ("e0 of 130", os.path.join(diag, "e0.csv"), _set_field(1, 1, "130.0")),
        ("negative sex ratio", os.path.join(diag, "sexratio.csv"), _set_field(1, 2, "-1.0")),
        ("missing scores", os.path.join(out, "fit_coherent", "common", "scores.csv"), None),
    ]


def caught(ops) -> bool:
    for op in ops:
        try:
            op.check(None)
        except Exception:  # any failed check counts as caught
            return True
    return False


def main() -> int:
    sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]
    import checks
    from run import check_results, run_ops
    from tracer import Tracer
    from workloads import Forecast, Prepare

    base = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    problems = []

    small = {
        "forecast": Forecast(n_years=25, train_years=20, h=5, ncomp=1),
        "prepare": Prepare(countries=1, n_years=20, max_age=80),
    }
    outputs = {}
    for name, workload in small.items():
        inputs = workload.setup(7, os.path.join(base, name, "setup"))
        plain = os.path.join(base, name, "plain")
        errors = check_results(run_ops(workload.ops(inputs, plain))["results"])
        tracer = Tracer(run_id="selftest")
        tracer.install()
        try:
            traced = run_ops(workload.ops(inputs, os.path.join(base, name, "traced")), tracer)
        finally:
            tracer.uninstall()
        bad = [e for e in errors + check_results(traced["results"]) if e[1]]
        if bad:
            problems.append(f"{name}: clean outputs failed checks: {bad}")
        if checks.dir_digest(plain) != checks.dir_digest(os.path.join(base, name, "traced")):
            problems.append(f"{name}: traced outputs differ from untraced outputs")
        outputs[name] = (workload, inputs, plain)

    workload, inputs, out = outputs["forecast"]
    cases = corruptions(out)
    prepare, prep_inputs, prep_out = outputs["prepare"]
    smoothed = os.path.join(prep_out, "smoothed", "c00", "c00_male.csv")
    cases.append(("smoothed curve falls after 65", smoothed, _fall_after_65))
    cases.append(("negative sigma", smoothed[:-4] + ".sigma.csv", _set_field(5, 2, "-0.5")))
    for description, path, edit in cases:
        owner, owner_inputs, owner_out = (
            (prepare, prep_inputs, prep_out) if path.startswith(prep_out)
            else (workload, inputs, out))
        ops = owner.ops(owner_inputs, owner_out)
        before = checks.dir_digest(owner_out)
        backup = os.path.join(base, "backup")
        shutil.copyfile(path, backup)
        if edit is None:
            os.remove(path)
        else:
            _rewrite(path, edit)
        found = caught(ops)
        changed = checks.dir_digest(owner_out) != before
        shutil.move(backup, path)
        status = "caught" if found and changed else "MISSED"
        print(f"{status:>6}  {description}")
        if status == "MISSED":
            problems.append(f"corruption not caught: {description}")

    shutil.rmtree(base, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
