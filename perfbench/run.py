"""Run one seeded workload of the axial benchmark and print its metrics.

    python3 perfbench/run.py --workload idem-random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and the resultant oracle from ``tests/oracles.py``.  Each workload
is a closed loop, one process and one thread running its job list pass
after pass, until `--seconds` have passed and at least 150 jobs are timed.
Every answer is checked outside the timed region.

With ``--trace 0`` the end-to-end metrics are printed; set-up time is the
median over several fresh processes.  Every time is divided by the
machine's slowdown, sampled between jobs, and the raw medians go to the
context line.  With ``--trace 1`` the run alternates
untraced and traced cycles (set-up plus one pass) and prints the per-layer
metrics of the traced cycles together with the tracing overhead.  The last
stdout line is the JSON result; the line before it records the run's
context (kernel backend, Python version, processor count, seed, commit).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
# At least 15 samples lie beyond the 90th percentile, and on matsuo it sits
# mid-way through the block of S5 derivations and S4 automorphisms.
MIN_TIMED_JOBS = 150
# The run stops starting jobs this long after the process started, so even a
# badly regressed program ends well inside the three minutes a run may take.
DEADLINE_S = 140.0
RUN_LIMIT_S = 170.0
SETUP_PROBES = 3
SETUP_CALIBRATIONS = 10
# The shared VM the benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11)
# changes speed by up to half over tens of seconds, and the jobs slow down in
# proportion with calibrate(), which sums 1/i for i below CALIBRATION_TERMS.
# Each job time is divided by its slowdown: the mean of the calibration
# samples within CALIBRATION_WINDOW jobs of it over the reference, the
# slice's time on that VM.  Times so read as seconds at that speed; changing
# the slice or the reference rescales every number.
CALIBRATION_TERMS = 400
CALIBRATION_REFERENCE_S = 0.0015
CALIBRATION_WINDOW = 8


class JobTimeout(BaseException):
    """Raised by the alarm when a job overruns its limit.

    A BaseException, so that handlers inside the program cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_program():
    """Put the checkout's sources first on the path, or exit with code 1."""
    src = ROOT / "src"
    for needed in (src / "axial" / "__init__.py", ROOT / "tests" / "oracles.py", ROOT / "fixtures"):
        if not needed.exists():
            raise SystemExit(f"error: {needed} is missing; run from a full source checkout")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import axial

    if Path(axial.__file__).resolve().parent != src / "axial":
        raise SystemExit(f"error: imported axial from {axial.__file__}, not from {src}")
    return axial


def trace_targets():
    """The traced public functions, named as in the per-layer metrics."""
    from tracer import Target

    def rows_times_cols(args, _result):
        rows = args[0]
        return len(rows) * len(rows[0]) if rows else 0

    simple = [
        ("groebner.buchberger", "axial.groebner", "buchberger"),
        ("groebner.s_polynomial", "axial.groebner", "s_polynomial"),
        ("groebner.enumerate_points", "axial.groebner", "enumerate_points"),
        ("univariate.irreducible_factors", "axial.univariate", "irreducible_factors"),
        ("mpoly.mul", "axial.mpoly", "MPoly.__mul__"),
        ("mpoly.substitute", "axial.mpoly", "MPoly.substitute"),
        ("search.naive_idempotents", "axial.search", "naive_idempotents"),
        ("linalg.kernel", "axial.linalg", "kernel"),
        ("linalg.eigenspace", "axial.linalg", "eigenspace"),
        ("linalg.solve", "axial.linalg", "solve"),
        ("linalg.mat_vec", "axial.linalg", "mat_vec"),
        ("linalg.mat_mul", "axial.linalg", "mat_mul"),
        ("algebra.product", "axial.algebra", "Algebra.product"),
        ("algebra.ad_matrix", "axial.algebra", "Algebra.ad_matrix"),
        ("fusion.check_axis", "axial.fusion", "check_axis"),
        ("fusion.derivation_space", "axial.fusion", "derivation_space"),
        ("fusion.is_automorphism", "axial.fusion", "is_automorphism"),
        ("axet.close_axet", "axial.axet", "close_axet"),
        ("axet.miyamoto_group", "axial.axet", "miyamoto_group"),
        ("decomp.decompose_joint", "axial.decomp", "decompose_joint"),
        ("decomp.extension_space", "axial.decomp", "extension_space"),
        ("decomp.sign_kernel", "axial.decomp", "sign_kernel"),
        ("matsuo.from_generators", "axial.matsuo", "ThreeTranspositionData.from_generators"),
        ("matsuo.matsuo_algebra", "axial.matsuo", "matsuo_algebra"),
        ("io.parse_algebra", "axial.io", "parse_algebra"),
        ("cli.main", "axial.cli", "main"),
    ]
    return [
        Target("kernels.normal_form", "axial._backend", "kernels.normal_form", lambda a, r: 0 if r else 1),
        Target("kernels.rref", "axial._backend", "kernels.rref", rows_times_cols),
        Target(
            "axet.aut_from_axis_permutations",
            "axial.axet",
            "aut_from_axis_permutations",
            lambda a, r: r.order,
        ),
    ] + [Target(*spec) for spec in simple]


def calibrate() -> float:
    """Time one fixed slice of pure-Python exact arithmetic that uses no
    axial code; its time tracks the machine's speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def run_pass(jobs, deadline):
    """Run the jobs back to back, calibrating after each one.

    Returns one (job, seconds or None, result or error, calibration seconds)
    per job.
    """
    outcomes = []
    for job in jobs:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            outcomes.append((job, None, "run deadline reached before the job started", calibrate()))
            continue
        try:
            signal.setitimer(signal.ITIMER_REAL, min(job.limit_s, remaining))
            try:
                start = time.perf_counter()
                result = job.run()
                elapsed = time.perf_counter() - start
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            elapsed, result = None, f"time limit {job.limit_s} s exceeded"
        except Exception as exc:  # a job that raises is a counted failure, not a crash
            elapsed, result = None, f"raised {type(exc).__name__}: {exc}"
        outcomes.append((job, elapsed, result, calibrate()))
    return outcomes


def check_pass(outcomes):
    """Check every answer; return whether each outcome passed."""
    passed = []
    for job, elapsed, result, _ in outcomes:
        try:
            reason = result if elapsed is None else job.check(result)
        except Exception as exc:  # an answer of the wrong shape fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            print(f"FAILED {job.name}: {reason}", file=sys.stderr)
        passed.append(not reason)
    return passed


def slowdowns(calibration):
    """Per job, the mean of the calibration samples within CALIBRATION_WINDOW
    jobs of it, over the reference time."""
    w = CALIBRATION_WINDOW
    return [
        statistics.fmean(calibration[max(i - w, 0) : i + w]) / CALIBRATION_REFERENCE_S
        for i in range(len(calibration))
    ]


def nearest_rank(samples, q):
    """The q-quantile by nearest rank, 0 for no samples.

    Every pass repeats one job list, so the sorted times come in blocks of
    one job each; nearest rank stays inside the same block whatever the
    number of passes, where interpolation would drift between blocks.
    """
    if not samples:
        return 0.0
    return sorted(samples)[max(math.ceil(q * len(samples)) - 1, 0)]


def measure(workload_cls, seed, seconds):
    """End-to-end metrics; every job time is divided by its slowdown."""
    workload = workload_cls(seed, ROOT)
    expected = workload.expected_answers()
    start = time.perf_counter()
    deadline = PROCESS_START + DEADLINE_S
    records, calibration = [], []  # records: (pass, elapsed or None, passed)
    k = 0
    while True:
        jobs = workload.jobs(k, expected)
        outcomes = run_pass(jobs, deadline)
        for (_, elapsed, _, cal), ok in zip(outcomes, check_pass(outcomes)):
            records.append((k, elapsed, ok))
            calibration.append(cal)
        k += 1
        timed = sum(1 for _, elapsed, ok in records if ok)
        now = time.perf_counter()
        if now >= deadline or (now - start >= seconds and timed >= MIN_TIMED_JOBS):
            break
    slow = slowdowns(calibration)
    walls, raw_walls = [0.0] * k, [0.0] * k
    job_times, raw_times = [], []
    for (p, elapsed, ok), factor in zip(records, slow):
        if elapsed is None:
            continue
        walls[p] += elapsed / factor
        raw_walls[p] += elapsed
        if ok:
            job_times.append(elapsed / factor)
            raw_times.append(elapsed)
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": nearest_rank(job_times, 0.5),
        "job_p90_s": nearest_rank(job_times, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context = {
        "passes": k,
        "jobs_per_pass": len(jobs),
        "job_samples": len(job_times),
        "raw_pass_s": raw_walls,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_job_p50_s": nearest_rank(raw_times, 0.5),
        "raw_job_p90_s": nearest_rank(raw_times, 0.9),
    }
    failed = sum(1 for _, _, ok in records if not ok)
    return len(records), failed, metrics, context


def measure_trace(workload_cls, seed, seconds):
    """Alternate untraced and traced cycles of set-up plus pass 0.

    An untraced warm-up cycle comes first, so that lazy initialisation in the
    program and its libraries lands in neither side of the overhead ratio.
    Each cycle's time is divided by the mean slowdown of its calibrations.
    """
    from tracer import Tracer

    tracer = Tracer(trace_targets())
    workload = workload_cls(seed, ROOT)
    expected = workload.expected_answers()
    deadline = PROCESS_START + DEADLINE_S
    jobs = workload.jobs(0, expected)
    passed = check_pass(run_pass(jobs, deadline))
    start = time.perf_counter()
    walls = {False: [], True: []}
    layer_runs = []
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                begin = time.perf_counter()
                workload = workload_cls(seed, ROOT)
                jobs = workload.jobs(0, expected)
                setup_s = time.perf_counter() - begin
                outcomes = run_pass(jobs, deadline)
            finally:
                tracer.uninstall()
            if traced:
                layer_runs.append(tracer.collect())
            passed += check_pass(outcomes)
            cycle_s = setup_s + sum(elapsed for _, elapsed, _, _ in outcomes if elapsed is not None)
            slowdown = statistics.fmean(cal for *_, cal in outcomes) / CALIBRATION_REFERENCE_S
            walls[traced].append(cycle_s / slowdown)
        now = time.perf_counter()
        if now >= deadline or now - start >= seconds:
            break
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    metrics = layer_metrics(layer_runs)
    metrics["trace.overhead_frac"] = overhead
    return len(passed), passed.count(False), metrics, {"cycles": len(layer_runs)}


def layer_metrics(layer_runs):
    """Per-layer metric values: counts from one cycle, times as medians."""
    from metrics import PER_LAYER

    def median_of(name, field):
        return statistics.median(getattr(run[name], field) for run in layer_runs)

    def count_of(name, field="calls"):
        return statistics.median_low(getattr(run[name], field) for run in layer_runs)

    out = {}
    for metric in PER_LAYER:
        layer, field = metric.name.rsplit(".", 1)
        if field == "calls":
            out[metric.name] = count_of(layer)
        elif field == "self_s":
            out[metric.name] = median_of(layer, "self_s")
        elif field == "cells":
            out[metric.name] = int(count_of(layer, "tally"))
        elif field == "zero_frac":
            calls = count_of(layer)
            out[metric.name] = count_of(layer, "tally") / calls if calls else 0.0
        elif metric.name == "axet.aut.useful_ratio":
            checks = count_of("fusion.is_automorphism")
            accepted = count_of("axet.aut_from_axis_permutations", "tally")
            out[metric.name] = accepted / checks if checks else 0.0
    return out


def probe_setup(workload, seed):
    """Median time from starting a fresh process until its first job can run.

    The probe prints the CLOCK_MONOTONIC time at which its set-up finished;
    that clock is shared by all processes, so the difference to the spawn
    time excludes the probe's exit.  Each time is divided by the slowdown
    sampled just before and after the probe.  Returns the normalised and the
    raw median.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        before = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        timeout = max(PROCESS_START + RUN_LIMIT_S - time.perf_counter(), 1.0)
        start = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
        elapsed = float(out.stdout.split()[-1]) - start
        after = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        slowdown = statistics.fmean(before + after) / CALIBRATION_REFERENCE_S
        times.append(elapsed / slowdown)
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("idem-random", "idem-fixtures", "matsuo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    axial = load_program()
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(args.seed, ROOT)
        print(time.monotonic(), flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        attempted, failed, values, context = measure_trace(workload_cls, args.seed, args.seconds)
        specs = PER_LAYER
    else:
        attempted, failed, values, context = measure(workload_cls, args.seed, args.seconds)
        values["setup_s"], context["raw_setup_s"] = probe_setup(args.workload, args.seed)
        specs = END_TO_END
    context.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        kernel_backend=axial.kernel_backend(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        commit=commit_of(ROOT),
    )
    print(json.dumps({"context": context}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
