"""End-to-end and per-layer benchmark of the eigb CLI.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Run from the repository root.  The benchmark imports `eigb` from `src/` next
to this directory, generates its inputs from `--seed`, and drives
`eigb.cli.main(argv)` in-process as a closed loop with one client: whole
rounds over a fixed list of operations until `--seconds` have passed.  Every
operation's output is checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (ops_per_s, op_p50_s,
op_tail_s, setup_s).  With `--trace 1` rounds alternate between untraced and
traced, and the metrics are per-layer numbers from the traced rounds plus the
tracing overhead.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Pin BLAS threads before numpy loads its BLAS; set-up children inherit it.
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_NAMES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
PROBE_STREAM = 100
# A run also stops once wall time reaches this multiple of --seconds.
WALL_CAP = 4
# Fresh interpreters started to time set-up (after one discarded warm-up).
SETUP_REPEATS = 9
# op_tail_s is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Sample(NamedTuple):
    label: str
    seconds: float
    error: str | None
    ref_s: float  # local reference time around the operation

    @property
    def scaled(self) -> float:
        return self.seconds * calibrate.REFERENCE_S / self.ref_s


def _run_op(cli, op, tracer=None, op_id=-1, sampler=None):
    """One CLI call; returns (seconds, error or None).

    With a sampler, the reference bursts it takes during the call are
    subtracted from the call's time.
    """
    out = io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
    taken = len(sampler.points) if sampler else 0
    if sampler:
        sampler.op_started()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
        error = None
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if sampler:
        sampler.op_finished()
        elapsed -= sum(seconds for _, seconds in sampler.points[taken:])
    return elapsed, error or op.gate(rc, out.getvalue())


def _measure(cli, ops, seconds, tracer=None):
    """Run whole rounds over `ops` for about `seconds` of scaled time.

    A reference sample is taken before the first operation and after each
    one, and during operations longer than calibrate.LONG_OP_S.  The first
    round's scaled time fixes the number of rounds, `seconds` divided by it
    and rounded to the nearest whole number, so the sample count does not
    depend on how busy the machine is (a run also stops once wall time
    reaches WALL_CAP times `seconds`).  Without a tracer every round is plain.
    With one, rounds alternate plain, traced, plain, ... and the count is
    even, so both kinds run the same inputs equally often.  Returns (plain
    samples, traced samples, per traced round call counts).
    """
    plain, traced, round_calls = [], [], []
    points = [(time.perf_counter(), calibrate.sample())]
    rounds = 0
    planned = None
    op_id = 0
    scaled = 0.0
    start = time.perf_counter()
    with calibrate.InOpSampler() as sampler:
        while True:
            tracing = tracer is not None and rounds % 2 == 1
            timed = traced if tracing else plain
            if tracing:
                before = tuple(tracer.calls)
                tracer.install()
            try:
                for op in ops:
                    taken = len(sampler.points)
                    op_start = time.perf_counter()
                    elapsed, error = _run_op(cli, op, tracer if tracing else None, op_id, sampler)
                    timed.append((op.label, elapsed, error, op_start))
                    points.append((time.perf_counter(), calibrate.sample()))
                    around = [points[-2][1], points[-1][1]] + [r for _, r in sampler.points[taken:]]
                    scaled += elapsed * calibrate.REFERENCE_S / statistics.median(around)
                    op_id += tracing
            finally:
                if tracing:
                    tracer.uninstall()
            if tracing:
                round_calls.append(tuple(a - b for a, b in zip(tuple(tracer.calls), before)))
            rounds += 1
            if planned is None:
                planned = max(1, round(seconds / scaled))
                if tracer is not None:
                    planned = 2 * max(1, round(planned / 2))
            over = time.perf_counter() - start >= WALL_CAP * seconds
            if rounds >= planned or (over and (tracer is None or rounds % 2 == 0)):
                break
    points = sorted(points + sampler.points)

    def samples(rows):
        return [Sample(label, elapsed, error,
                       calibrate.local_reference(points, op_start, op_start + elapsed))
                for label, elapsed, error, op_start in rows]

    return samples(plain), samples(traced), round_calls


def _latency_summary(samples, scaled=True):
    """ops_per_s, p50, tail and a note saying what the tail rests on.

    Failed operations count in the time but not in the completed count, and
    are left out of the latency percentiles.
    """
    def value(s):
        return s.scaled if scaled else s.seconds

    ok = sorted(value(s) for s in samples if s.error is None)
    ops_per_s = len(ok) / sum(value(s) for s in samples)
    lat = ok or sorted(value(s) for s in samples)
    count = len(lat)
    if count > TAIL_BEYOND:
        tail = lat[count - TAIL_BEYOND - 1]
        pct = 100.0 * (count - TAIL_BEYOND) / count
        note = f"p{pct:.1f} of {count} successful operations ({TAIL_BEYOND} slower)"
    else:
        tail = lat[-1]
        note = f"maximum of {count} operations (too few for {TAIL_BEYOND} beyond a percentile)"
    if not ok:
        note += "; no operation succeeded, so latencies include failed ones"
    return ops_per_s, statistics.median(lat), tail, note


def _measure_setup():
    """Median time of a fresh interpreter from start until eigb.cli is imported.

    Returns (scaled median, wall-clock median); each start is scaled by the
    reference samples taken right before and after it.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eigb.cli; "
            "print(eigb.cli.__file__, flush=True)")
    times, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        ref_before = calibrate.sample()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line.strip().startswith(str(SRC)):
            raise RuntimeError(f"set-up child failed (exit {proc.returncode}): {line!r}")
        ref_s = (ref_before + calibrate.sample()) / 2
        if i:
            times.append(elapsed)
            scaled.append(elapsed * calibrate.REFERENCE_S / ref_s)
    return statistics.median(scaled), statistics.median(times)


def _environment():
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def _pin_cpu():
    """Pin this process (and the set-up children it starts) to one CPU, so
    operations and reference samples share one CPU's speed.  Returns the CPU,
    or None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, traced, overhead, probe_wrong):
    per_op = len(traced)
    index = {name: i for i, name in enumerate(LAYER_NAMES)}
    metrics = {}
    for i, name in enumerate(LAYER_NAMES):
        metrics[f"{name}.calls"] = _metric(tracer.calls[i] / per_op, "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_s[i] / per_op, "s")
    eig = index["linalg.hermitian_eig"]
    for n in sorted(set(workloads.SOLVE_SIZES)):
        calls, self_s = tracer.by_size.get((eig, n), (0, 0.0))
        metrics[f"linalg.hermitian_eig.self_s.n{n}"] = _metric(self_s / calls if calls else 0.0, "s")
    instances = tracer.calls[index["harness.instance_spectra"]]
    for name in ("bounds.gap_bound", "bounds.ostrowski_ratios"):
        calls = tracer.calls[index[name]]
        metrics[f"{name}.calls_per_instance"] = _metric(calls / instances if instances else 0.0, "count")
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    metrics["probe.extreme_scale_wrong"] = _metric(probe_wrong, "count")
    return metrics


def _report_failures(samples, limit=5):
    failures = [(s.label, s.error) for s in samples if s.error is not None]
    for label, err in failures[:limit]:
        print(f"FAILED {label}: {err}")
    if len(failures) > limit:
        print(f"... and {len(failures) - limit} more failed operations")
    return len(failures)


def _run(args, cli, workdir):
    env = _environment()
    env["pinned_cpu"] = _pin_cpu()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    stream = WORKLOAD_NAMES.index(args.workload)
    seed = args.seed % 2**64
    t0 = time.perf_counter()
    ops = workloads.WORKLOADS[args.workload](np.random.default_rng([seed, stream]), workdir)
    probe = []
    if args.workload == "solve_large":
        probe = workloads.scale_probe(np.random.default_rng([seed, PROBE_STREAM]), workdir)
    print(f"inputs: {len(ops)} operations per round, generated in {time.perf_counter() - t0:.2f} s")

    tracer = Tracer() if args.trace else None
    plain, traced, round_calls = _measure(cli, ops, args.seconds, tracer)
    samples = plain + traced
    failed = _report_failures(samples)
    print(f"rounds: {len(plain) // len(ops)} plain, {len(traced) // len(ops)} traced; "
          f"time in operations {sum(s.seconds for s in samples):.1f} s wall, "
          f"{sum(s.scaled for s in samples):.1f} s scaled")
    print(f"failed_ratio {failed}/{len(samples)} = {failed / len(samples):.4g} "
          "(failed operations are excluded from latency percentiles)")

    probe_wrong = 0
    for op in probe:
        _, error = _run_op(cli, op)
        probe_wrong += error is not None
        print(f"extreme-scale probe {op.label}: {'WRONG ' + error if error else 'ok'}")
    if probe:
        print(f"extreme-scale probe: {probe_wrong}/{len(probe)} wrong; run outside the timed loop "
              f"and not counted in failed_ratio")

    if args.trace:
        if tracer.missing:
            print("layers not found (reported as 0): " + ", ".join(sorted(tracer.missing)))
        eig = LAYER_NAMES.index("linalg.hermitian_eig")
        print("hermitian_eig self time per call: " + ", ".join(
            f"n{n} {own / calls * 1e3:.2f} ms ({calls} calls)"
            for (i, n), (calls, own) in sorted(tracer.by_size.items()) if i == eig))
        same = all(counts == round_calls[0] for counts in round_calls)
        print(f"calls per traced round identical across {len(round_calls)} rounds: {same}")
        overhead = (sum(s.scaled for s in traced) / len(traced)) / (
            sum(s.scaled for s in plain) / len(plain))
        print(f"tracing overhead: traced/untraced scaled time per operation = {overhead:.3f} "
              f"({tracer.span_count} spans)")
        metrics = _layer_metrics(tracer, traced, overhead, probe_wrong)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        ops_per_s, p50, tail, note = _latency_summary(plain)
        raw_ops_per_s, raw_p50, raw_tail, _ = _latency_summary(plain, scaled=False)
        setup_s, raw_setup_s = _measure_setup()
        refs = sorted(s.ref_s for s in plain)
        print(f"reference sample: median {statistics.median(refs) * 1e3:.3f} ms, "
              f"range {refs[0] * 1e3:.3f}-{refs[-1] * 1e3:.3f} ms, nominal "
              f"{calibrate.REFERENCE_S * 1e3:.3f} ms")
        print(f"wall clock, unscaled: ops_per_s {raw_ops_per_s:.6g} 1/s, op_p50_s {raw_p50:.6g} s, "
              f"op_tail_s {raw_tail:.6g} s, setup_s {raw_setup_s:.6g} s")
        print(f"op_tail_s is the {note}")
        metrics = {
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "op_p50_s": _metric(p50, "s"),
            "op_tail_s": _metric(tail, "s"),
            "setup_s": _metric(setup_s, "s"),
        }
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "eigb" / "cli.py").is_file():
        print(f"error: eigb sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eigb.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "eigb").resolve():
        print(f"error: eigb imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        result = _run(args, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
