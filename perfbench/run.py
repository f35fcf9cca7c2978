"""Benchmark of the ringrc command line tool.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

The benchmark calls `ringrc.cli.main(argv)` from this one process, in a
closed loop with one client: a call starts when the previous one and its
output check are done. Only the call is timed; checks run outside the timed
region and a failed check counts the call as failed. Passes repeat while
another one is expected to end within `--seconds`. The program is imported from `src/` next to this
directory, never from an installed copy.

Workloads (inputs are generated from `--seed` into a scratch directory):

    oracle       `validate` (2 geometries, 3 lump modes, 50-segment ratio)
                 and a single-lump `simulate` with CSV and SVG per geometry
                 and mode; time goes to the simulator.
    binning-lot  `binning` per geometry on one file of 4000 dies x 2
                 geometries x 6 records; time goes to the CLI's per-die
                 grouping, parsing, extraction and the binning emitters.
    die-reports  short `report` / `extract` calls on single-die files, all
                 three formats; fixed per-call costs dominate.

Gated end-to-end metrics (with `--trace 0`, on every workload):

    pass_s       time of one pass's calls
    call_ms      latency of the workload's main call (oracle: `validate`,
                 binning-lot: `binning`, die-reports: a request)
    setup_s      median time a fresh interpreter takes to import ringrc.cli
                 and parse the workload's config
    peak_rss_mb  peak resident memory of this process

Both are medians over the run, except on die-reports, where they are 90th
percentiles: there each sample lasts milliseconds and lands in a fast or a
slow phase of the machine, so the median swings with the share of fast
phases in a run (see workloads.DieReports).

Each workload also prints its own figures (validate_s, waveform_p50_ms,
binning_dies_per_s, report_p50_ms, report_p90_ms, ops_failed_frac and the
ungated input generation time) with unit and sample count.

With `--trace 1` each pass runs twice, plain and then traced, and the
result holds per-layer metrics per traced pass (see tracing.py) plus the
tracing overhead, traced pass time minus plain pass time. Spans are
written to perfbench/.work/spans-<workload>.jsonl.

BLAS is pinned to one thread before numpy is imported; `--blas-threads
default` leaves the environment's threading alone. Seeds 1-10 were used
while building the benchmark; seed 7919 is held out, and a later claim of
a gain must also hold on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("oracle", "binning-lot", "die-reports")
#: The end-to-end metrics BENCHMARK.json gates, in its order.
GATED = ("pass_s", "call_ms", "setup_s", "peak_rss_mb")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters timed for setup_s before the passes and again after
#: them, so the median spans two moments of a machine whose speed drifts.
#: One untimed warm-up first leaves the bytecode cache written.
SETUP_PROCESSES = 4

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ringrc.cli, ringrc.files
ringrc.files.read_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the ringrc CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads",
        default="1",
        help="BLAS threads to pin, or 'default' to leave the environment as is",
    )
    return parser.parse_args(argv)


def environment_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var, "default") for var in BLAS_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def at_quantile(values: list[float], q: float) -> float:
    """The median for q = 0.5, else the q-quantile (q a multiple of 0.1)."""
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[round(q * 10) - 1]


def measure_setup(config: Path, processes: int) -> list[float]:
    times = []
    for _ in range(processes):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(done.stdout))
    return times


def execute(cli, op, tracer, op_id: int, verified: set) -> tuple[float, str | None]:
    """Run one call; return its latency and an error message if it failed."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    out, err = io.StringIO(), io.StringIO()
    recording = tracer.operation(op_id) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), recording:
        start = time.perf_counter()
        try:
            status = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # the call failed; keep running
            status = exc
        latency = time.perf_counter() - start
    if status != 0:
        return latency, f"{op.argv[0]}: exit {status!r}: {err.getvalue()[-400:]}"
    files = {}
    for path in op.outputs:
        try:
            files[path] = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            return latency, f"missing output: {exc}"
    stdout = out.getvalue()
    digest = hashlib.sha256("\0".join([stdout, *files.values()]).encode()).digest()
    if (op.key, digest) not in verified:
        try:
            op.check(stdout, files)
        except Exception as exc:  # a malformed output fails its check
            return latency, f"{op.key}: {type(exc).__name__}: {exc}"
        verified.add((op.key, digest))
    return latency, None


def run_passes(workload, seconds: float, trace: bool):
    """Closed loop over passes for about `seconds`."""
    import ringrc.cli as cli

    tracer = tracing.Tracer() if trace else None
    latencies: dict[str, list[float]] = defaultdict(list)
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    attempted = 0
    failures: list[str] = []
    verified: set = set()
    start = time.perf_counter()
    pass_index = 0
    # Start a pass only if one more is expected to end within `seconds`.
    while pass_index == 0 or (
        time.perf_counter() - start + (time.perf_counter() - start) / pass_index
        <= seconds
    ):
        ops = workload.ops(pass_index)
        for traced in (False, True) if trace else (False,):
            patch = tracing.patched(tracer) if traced else contextlib.nullcontext()
            total = 0.0
            with patch:
                for op in ops:
                    attempted += 1
                    latency, error = execute(
                        cli, op, tracer if traced else None, attempted, verified
                    )
                    total += latency
                    if error:
                        failures.append(error)
                    if not traced:
                        latencies[op.kind].append(latency)
            pass_times[traced].append(total)
        pass_index += 1
    return latencies, pass_times, attempted, failures, tracer


def run_workload(args: argparse.Namespace) -> int:
    import ringrc
    import workloads

    if Path(ringrc.__file__).resolve().parent != (SRC / "ringrc").resolve():
        print(f"error: ringrc imported from {ringrc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        begin = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        generate_s = time.perf_counter() - begin
        setup = measure_setup(workload.config_path, SETUP_PROCESSES + 1)[1:]
        latencies, pass_times, attempted, failures, tracer = run_passes(
            workload, args.seconds, bool(args.trace)
        )
        setup += measure_setup(workload.config_path, SETUP_PROCESSES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(failures)
    plain = pass_times[False]
    calls = latencies[workload.primary]
    gated = {
        "pass_s": (at_quantile(plain, workload.quantile), "s", len(plain)),
        "call_ms": (at_quantile(calls, workload.quantile) * 1e3, "ms", len(calls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    shown = dict(gated)
    for name, value, unit, count in workload.summary(latencies):
        shown[name] = (value, unit, count)
    shown["ops_failed_frac"] = (failed / attempted, "ratio", attempted)
    shown["input_generation_s"] = (generate_s, "s", 1)

    if args.trace:
        spans = tracer.spans
        metrics = tracing.layer_metrics(spans, len(pass_times[True]))
        metrics[tracing.OVERHEAD_METRIC] = statistics.median(
            pass_times[True]
        ) - statistics.median(plain)
        units = {name: tracing.metric_unit(name) for name in metrics}
        tracing.write_spans(spans, str(WORK / f"spans-{args.workload}.jsonl"))
    else:
        metrics = {name: value for name, (value, _, _) in gated.items()}
        units = {name: unit for name, (_, unit, _) in gated.items()}

    env = environment_record()
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} (closed loop, 1 client, 1 process)"
    )
    for name, (value, unit, count) in shown.items():
        print(f"  {name:<20} {value:>14.6g} {unit:<7} n={count}")
    if args.trace:
        print(
            f"  tracing overhead per pass: {metrics[tracing.OVERHEAD_METRIC]:.4g} s "
            f"over {len(pass_times[True])} traced passes"
        )
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--blas-threads", args.blas_threads],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringrc" / "__init__.py").is_file():
        print(f"error: no ringrc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.blas_threads != "default":
        for var in BLAS_VARS:  # must happen before numpy is first imported
            os.environ[var] = args.blas_threads
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
