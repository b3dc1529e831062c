"""Benchmark of the mortfpca pipeline: prepare, forecast and evaluate workloads.

Usage, from the repository root::

    python3 bench/run.py --workload forecast --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--seconds`` is the time budget of the timed phase; ``BENCHMARK.json``'s
``run_seconds`` is the value the benchmark is defined with.

A run of one workload is one fresh process.  It builds the inputs from
``--seed`` (set-up, repeated ``SETUP_REPS`` times), then starts a second
fresh process, the pass process, which runs timed passes of the workload
until one more pass would overrun ``--seconds`` (at least one pass).  The
pass process reads its peak RSS right after the passes, before any output
check or accuracy read, so ``peak_rss_mb`` is the program's own.  With
``--trace 1`` the pass process then runs one more pass with every layer
function wrapped in spans (see ``tracer.py``); its outputs must hash equal
to the untraced ones.  Last, it checks every pass's outputs.  ``--workload
all`` runs the three workloads one after another, each in its own process.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Run records, span files and per-layer tables go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("prepare", "forecast", "evaluate")
SETUP_REPS = 3
#: repetitions in one reference-kernel timing (about 5 ms on a 2 GHz core)
KERNEL_REPS = 40
#: the reference kernel's usual time on the reference host (see BASELINE.md);
#: set-up seconds are scaled to this speed
REFERENCE_KERNEL_S = 0.004
#: seconds between reference-kernel samples during an operation
SAMPLE_PERIOD_S = 0.2
#: an operation whose program CPU time exceeds its wall time by this factor
#: ran on more than one core (see :func:`run_ops`)
MULTI_CORE_RATIO = 1.05
#: every run of one workload, set-up and passes included, must end within this
RUN_TIMEOUT_S = 170
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(min(THREAD_CAP, nproc()))
    for var in THREAD_VARS:
        env[var] = cap
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def work_dir(name: str, seed: int, trace: bool) -> str:
    return os.path.join(OUT_ROOT, f"{name}-seed{seed}-trace{int(trace)}")


def environment_record() -> dict:
    import hashlib

    import numpy as np
    import scipy

    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    package = os.path.join(SRC, "mortfpca")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas": blas,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# timing


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the program's kinds of work.

    Interpreter loops with small-array arithmetic (as in the ARIMA search),
    small dense linear algebra (as in smoothing) and float formatting and
    parsing (as in CSV I/O).  Its speed tracks the machine's current speed,
    which on a shared host drifts by tens of percent over tens of seconds.
    Sampled during every operation (:class:`SpeedSampler`), it turns each
    operation's wall time into kernel units (``wall_norm``).
    """
    import numpy as np

    z = np.linspace(-1.0, 1.0, 64)
    a = np.eye(24) * 2.0 + 0.01
    b = np.cos(np.outer(np.arange(101), np.arange(30)) * 0.01)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(KERNEL_REPS):
        rhs = z[3:].copy()
        for lag, phi in enumerate((0.3, -0.2, 0.1), start=1):
            rhs -= phi * z[3 - lag : z.size - lag]
        acc += float(rhs @ rhs) + float(np.linalg.solve(a, z[:24]).sum())
        acc += float((b.T @ b).trace())
        text = ",".join("%.17g" % (v * acc % 3.0) for v in z[:20])
        acc += sum(float(t) for t in text.split(",")) * 1e-9
    return time.perf_counter() - start


class SpeedSampler:
    """Times the reference kernel every ``period`` seconds while active.

    The SIGALRM handler runs in the main thread between the program's
    bytecodes, so a single-threaded program is paused while the kernel
    runs.  Samples are ``(start, seconds)`` pairs; :meth:`measure` excludes
    their time from an operation and weights each stretch between samples
    by the speed read at its two ends.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._sampling = False
        self._previous_handler = None

    def sample(self, signum=None, frame=None) -> None:
        """Time the kernel once, now.  An alarm during a sample is dropped.

        A slow sample can outlast the alarm period, and Python runs a
        signal handler between any two bytecodes, the handler's own too.
        """
        if self._sampling:
            return
        self._sampling = True
        try:
            start, cpu = time.perf_counter(), time.thread_time()
            seconds = reference_kernel()
            self.samples.append((start, seconds, time.thread_time() - cpu))
        finally:
            self._sampling = False

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def measure(self, start: float, end: float) -> tuple[float, float, float, float]:
        """Program time in ``[start, end]`` of a single-threaded program.

        Returns ``(wall, norm, edge_kernel, kernel_cpu)``: seconds and
        kernel units with the samples' time left out, the mean kernel time
        of the two samples around the interval, and the CPU seconds of the
        samples inside it.  Needs one sample taken before ``start`` and one
        after ``end``.
        """
        samples = sorted(self.samples)
        before = [s for s in samples if s[0] < start][-1]
        inside = [s for s in samples if start <= s[0] < end]
        after = [s for s in samples if s[0] >= end][0]
        wall = norm = 0.0
        seg_start, kernel_prev = start, before[1]
        for t, kernel, _ in inside + [after]:
            seg = min(t, end) - seg_start
            wall += seg
            norm += seg / (0.5 * (kernel_prev + kernel))
            seg_start, kernel_prev = t + kernel, kernel
        return wall, norm, 0.5 * (before[1] + after[1]), sum(s[2] for s in inside)


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its waited-for children."""
    import resource

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started, in MB.

    Read from ``VmHWM``: Linux carries ``ru_maxrss`` over ``exec`` from the
    parent that started this process, so that would report the parent's
    peak when it is higher.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(ops, tracer=None) -> dict:
    """Run ``ops`` in order under a :class:`SpeedSampler`; check nothing.

    The kernel samples inside an operation pause a single-threaded program
    only.  An operation whose program CPU time exceeds its program wall time
    by ``MULTI_CORE_RATIO`` ran on more cores, and went on running during
    its samples, which it slowed.  Its whole span counts as program time,
    in kernel units from the two samples taken around it, when none of the
    program runs.  Returns the program time in seconds, in kernel units,
    its CPU seconds, the number of such operations, the samples, and
    ``(op, value, error or None)`` per operation.
    """
    results, wall, norm, cpu, multi_core = [], 0.0, 0.0, 0.0, 0
    with SpeedSampler() as sampler:
        sampler.sample()
        for op in ops:
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            try:
                if tracer is not None and op.span is not None:
                    value = tracer.call(op.span, op.run)
                else:
                    value = op.run()
                results.append((op, value, None))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((op, None, f"{type(exc).__name__}: {exc}"))
            end = time.perf_counter()
            op_cpu = cpu_seconds() - cpu_start
            sampler.sample()
            op_wall, op_norm, edge_kernel, kernel_cpu = sampler.measure(start, end)
            op_cpu -= kernel_cpu
            if op_cpu > MULTI_CORE_RATIO * op_wall:
                # the program ran on through the samples: all of it is program time
                op_wall = end - start
                op_norm = op_wall / edge_kernel
                multi_core += 1
            wall += op_wall
            norm += op_norm
            cpu += op_cpu
    return {"wall": wall, "norm": norm, "cpu": cpu, "multi_core_ops": multi_core,
            "samples": sampler.samples, "results": results}


def check_results(results) -> list[tuple[str, str | None]]:
    """``(label, error or None)`` per operation, after its output check."""
    errors = []
    for op, value, error in results:
        if error is None:
            try:
                op.check(value)
            except Exception as exc:  # CheckFailed, or a parse error in a check
                error = f"check: {type(exc).__name__}: {exc}"
        errors.append((op.label, error))
    return errors


# ---------------------------------------------------------------------------
# pass process: the timed passes of one workload, in a fresh process


def pass_main(args) -> int:
    import checks
    import tracer as tracing
    from workloads import WORKLOADS

    work = work_dir(args.workload, args.seed, bool(args.trace))
    workload = WORKLOADS[args.workload]()
    with open(os.path.join(work, "inputs.pkl"), "rb") as fh:
        inputs = pickle.load(fh)
    rss_start = peak_rss_mb()

    passes = []
    timed_start = time.perf_counter()
    while True:
        out = os.path.join(work, f"pass{len(passes)}")
        passes.append(dict(run_ops(workload.ops(inputs, out)), out=out))
        elapsed = time.perf_counter() - timed_start
        if elapsed + statistics.median(p["wall"] for p in passes) > args.seconds:
            break
    rss_peak = peak_rss_mb()

    traced = None
    if args.trace:
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        out = os.path.join(work, "traced")
        tracer.install()
        try:
            traced = dict(run_ops(workload.ops(inputs, out), tracer), out=out)
        finally:
            tracer.uninstall()
        tracer.exclude(traced["samples"])
        traced["layers"] = tracing.layer_metrics(tracer, traced["wall"])
        with open(os.path.join(work, "spans.json"), "w", encoding="ascii") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
        with open(os.path.join(work, "layers.txt"), "w", encoding="ascii") as fh:
            fh.write(tracing.layer_table(tracer.spans))

    # checks, digests and accuracy, all after the timed passes
    accuracy, first_digest = {}, None
    for timed in passes + ([traced] if traced else []):
        errors = check_results(timed.pop("results"))
        timed["digest"] = checks.dir_digest(timed["out"])
        first_digest = first_digest or timed["digest"]
        if timed["digest"] != first_digest:
            errors = [(label, error or "outputs differ from the first untraced pass")
                      for label, error in errors]
        if timed is passes[0] and not any(error for _, error in errors):
            try:
                accuracy = workload.accuracy(inputs, timed["out"])
            except Exception as exc:
                errors.append(("accuracy", f"{type(exc).__name__}: {exc}"))
        timed["errors"] = errors
        del timed["samples"]
        shutil.rmtree(timed.pop("out"), ignore_errors=True)

    with open(os.path.join(work, "passes.json"), "w", encoding="ascii") as fh:
        json.dump({"passes": passes, "traced": traced, "accuracy": accuracy,
                   "rss_start_mb": rss_start, "rss_peak_mb": rss_peak}, fh)
    return 0


# ---------------------------------------------------------------------------
# workload process: set-up, then the pass process


def time_import() -> None:
    """A fresh interpreter importing the CLI: the start-up cost a user pays."""
    subprocess.run([sys.executable, "-c", "import mortfpca.cli"], env=child_env(),
                   check=True, timeout=60)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    work = work_dir(name, seed, trace)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    attempted, failures = 0, []

    def account(errors):
        nonlocal attempted
        attempted += len(errors)
        failures.extend(f"{label}: {error}" for label, error in errors if error)

    # set-up, repeated; every repetition must write the same inputs.  The
    # reference kernel is sampled all through it, and its seconds are
    # scaled to the reference speed by the median sample.
    setup_wall, setup_digests, inputs = [], [], None
    with SpeedSampler() as sampler:
        for rep in range(SETUP_REPS):
            root = os.path.join(work, f"setup{rep}")
            sampler.sample()
            start = time.perf_counter()
            try:
                time_import()
                inputs = workload.setup(seed, root)
                error = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            setup_wall.append(time.perf_counter() - start)
            if error is None:
                setup_digests.append(checks.dir_digest(root))
                if setup_digests[-1] != setup_digests[0]:
                    error = "set-up inputs differ from the first repetition"
            account([(f"set-up {rep}", error)])
            if rep < SETUP_REPS - 1:
                shutil.rmtree(root, ignore_errors=True)
        sampler.sample()
    setup_kernel = statistics.median(kernel for _, kernel, _ in sampler.samples)
    setup_s = [wall * REFERENCE_KERNEL_S / setup_kernel for wall in setup_wall]
    if inputs is None:
        raise RuntimeError("every set-up repetition failed: " + "; ".join(failures))
    with open(os.path.join(work, "inputs.pkl"), "wb") as fh:
        pickle.dump(inputs, fh)

    cmd = [sys.executable, os.path.abspath(__file__), "--pass-process", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    subprocess.run(cmd, env=child_env(), check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(os.path.join(work, "passes.json"), encoding="ascii") as fh:
        timed = json.load(fh)
    passes, traced, accuracy = timed["passes"], timed["traced"], timed["accuracy"]
    for p in passes + ([traced] if traced else []):
        account(p["errors"])
    walls = [p["wall"] for p in passes]
    norms = [p["norm"] for p in passes]

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment_record(),
        "setup_s": setup_s, "setup_wall_s": setup_wall, "setup_kernel_s": setup_kernel,
        "setup_digest": setup_digests[0] if setup_digests else None,
        "pass_wall_s": walls, "pass_wall_norm": norms,
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_multi_core_ops": [p["multi_core_ops"] for p in passes],
        "output_digests": [p["digest"] for p in passes],
        "pass_process_rss_start_mb": timed["rss_start_mb"],
    }
    # measured and printed in every run, gated by no bound (see BASELINE.md)
    reported = {
        "wall_s": (statistics.median(walls), "s"),
        "accuracy.rmse": (accuracy.get("rmse", 0.0), "log_rate"),
        "accuracy.pi_coverage_err": (accuracy.get("pi_coverage_err", 0.0), "ratio"),
    }
    if not trace:
        metrics = {
            "wall_norm": (statistics.median(norms), "kernel"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (timed["rss_peak_mb"], "MB"),
        }
    else:
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["process.wall_s"] = reported.pop("wall_s")
        metrics["process.cpu_s"] = (traced["cpu"], "s")
        metrics["trace.overhead_ratio"] = (traced["norm"] / statistics.median(norms) - 1.0,
                                           "ratio")
        metrics.update(reported)
        reported = {}
        record.update(traced_wall_s=traced["wall"], traced_digest=traced["digest"],
                      traced_multi_core_ops=traced["multi_core_ops"])
    shutil.rmtree(os.path.join(work, f"setup{SETUP_REPS - 1}"), ignore_errors=True)

    record.update(
        attempted=attempted, failed=len(failures), failures=failures,
        metrics={k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        reported={k: {"value": float(v), "unit": u} for k, (v, u) in reported.items()},
    )
    with open(os.path.join(work, "result.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def declared_metrics(trace: bool) -> set[str]:
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}


def workload_main(args) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.environ.update({k: v for k, v in child_env().items() if k in THREAD_VARS})
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    if set(record["metrics"]) != declared_metrics(record["trace"]):
        print("error: measured metrics differ from those BENCHMARK.json declares: "
              f"{sorted(set(record['metrics']) ^ declared_metrics(record['trace']))}",
              file=sys.stderr)
        return 1
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{len(record['pass_wall_s'])} passes, outputs {record['output_digests'][0][:16]}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, metric in {**record["metrics"], **record["reported"]}.items():
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<44} {record['failed'] / record['attempted']:>14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} operations)")
    if any(record["pass_multi_core_ops"]):
        print(f"  note: {sum(record['pass_multi_core_ops'])} operations ran on more than one "
              "core; their kernel units come from the samples around them")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


# ---------------------------------------------------------------------------
# all workloads: one fresh process each


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not finish in time", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mortfpca", "cli.py")):
        print(f"error: no mortfpca sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [BENCH_DIR, SRC]
    if args.pass_process:
        return pass_main(args)
    return workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
