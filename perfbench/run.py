"""boundedpd benchmark.

One workload, one process:

    python3 perfbench/run.py --workload ftpd_long --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets up the workload several times (import,
compile, input generation) and reports the median as ``setup_s``, then runs
a closed loop of ops for ``--seconds``, finishing the block it is in, and
reports the end-to-end metrics. With ``--trace 1`` it times one block of ops
(every input stratum once) untraced, then with the span recorder installed,
then untraced again, and reports the per-layer metrics and the tracing
overhead; a fixed block makes the counts repeat exactly between runs. Every
op's output is checked after it is timed, in both modes. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The end-to-end timings are given at a fixed host speed. The speed of a
shared host swings by a factor of up to two within seconds, and by as much
between runs, for every workload alike. So a fixed slice of pure-Python work,
the reference loop, is timed in every gap between two set-ups or two ops, and
each duration is scaled by ``REFERENCE_S`` over the median of the reference
times in the two gaps on either side of it: the duration it would have had on
a host on which the reference loop takes ``REFERENCE_S``. A change to the
package leaves the reference loop alone, so it moves the scaled timings as
much as the raw ones. The raw values are printed beside the scaled ones.

All workloads, each in its own process, untraced and traced:

    python3 perfbench/run.py [--seed 1] [--seconds S]

prints every end-to-end metric by name and unit, the per-layer table and the
tracing overhead, and as its last line a JSON summary (the form of
``perfbench/baseline.json``). ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.

The package is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MODULES = ("game", "vm", "dsl", "library", "match", "population", "analysis", "cli")

#: Set-ups per untraced run; setup_s is their median. The count is fixed,
#: not timed, because every set-up leaves memory behind in peak_rss_mb.
SETUP_REPS = 7
#: Iterations of the reference loop; about 3-5 ms of work.
REFERENCE_UNITS = 20000
#: Seconds the reference loop takes on the host whose speed the end-to-end
#: timings are given at.
REFERENCE_S = 0.003
#: Problems printed to stderr per run before the rest are only counted.
MAX_REPORTED = 5

sys.path.insert(0, str(HERE))
from tracer import PACKAGE, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(RuntimeError):
    pass


def import_package() -> SimpleNamespace:
    """Import the package from scratch, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})
    if Path(pkg.game.__file__).resolve().parent != SRC / PACKAGE:
        raise SetupError(f"{PACKAGE} was imported from {pkg.game.__file__}, not from {SRC}")
    return pkg


def reference_loop() -> int:
    """A fixed slice of pure-Python work: integer arithmetic and dict stores,
    nothing the garbage collector tracks, so the package's heap does not
    slow it."""
    acc = 0
    table = {}
    for i in range(REFERENCE_UNITS):
        key = i & 255
        table[key] = i * 3 % 7
        acc += table[key]
    return acc


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def at_reference_speed(durations: list[float], gaps: list[float]) -> list[float]:
    """Scale each duration to the reference host's speed.

    ``durations[i]`` ran between the reference timings ``gaps[i]`` and
    ``gaps[i + 1]``; it is scaled by the median of the four reference
    timings nearest to it, two on either side, so that a single disturbed
    reference timing does not count.
    """
    return [d * REFERENCE_S / statistics.median(gaps[max(0, i - 1):i + 3])
            for i, d in enumerate(durations)]


def setup(workload, seed: int, workdir: Path):
    """Import, compile and generate inputs; returns (seconds, pkg, ops)."""
    start = perf_counter()
    pkg = import_package()
    ops = workload.setup(pkg, seed, workdir)
    return perf_counter() - start, pkg, ops


def closed_loop(pkg, workload, ops, refs, keep_going, recorder=None):
    """Run ops one after another while ``keep_going(done, elapsed)``.

    Returns per-op latencies, the reference timings of the gaps before,
    between and after the ops, ticks answered and the number of failed ops.
    Only the call into the package is timed (and traced); the output check
    follows it.
    """
    latencies, ticks, failed = [], 0, 0
    gaps = [time_reference()]
    start = perf_counter()
    while keep_going(len(latencies), perf_counter() - start):
        op = ops[len(latencies) % len(ops)]
        ref = refs[op.key]
        error = None
        if recorder is not None:
            recorder.on = True
            span = recorder.open(recorder.name_id("op"))
        t0 = perf_counter()
        try:
            output = workload.run(pkg, op)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        latencies.append(perf_counter() - t0)
        if recorder is not None:
            recorder.close(span)
            recorder.on = False
        if error is None:
            try:
                problems = workload.check(pkg, op, output, ref)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failed += 1
            if failed <= MAX_REPORTED:
                print(f"op {op.key} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            ticks += workload.ticks(op, ref)
        gaps.append(time_reference())
    return latencies, gaps, ticks, failed


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(workload, seed: int, seconds: float, refs, workdir: Path):
    times, setup_gaps = [], [time_reference()]
    for _ in range(SETUP_REPS):
        gc.collect()
        elapsed, pkg, ops = setup(workload, seed, workdir)
        times.append(elapsed)
        setup_gaps.append(time_reference())
    gc.collect()
    block = len(workload.strata())
    raw, gaps, ticks, failed = closed_loop(
        pkg, workload, ops, refs, lambda done, elapsed: elapsed < seconds or done % block)
    latencies = at_reference_speed(raw, gaps)
    tail_s, pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(at_reference_speed(times, setup_gaps)),
        "game_ticks_per_s": ticks / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    n = len(latencies)
    raw_tail_s, _ = tail(raw)
    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups; raw {statistics.median(times):.4f} s",
        "game_ticks_per_s": f"raw {ticks / sum(raw):.1f} 1/s",
        "op_p50_ms": f"raw {statistics.median(raw) * 1e3:.3f} ms",
        "op_tail_ms": f"p{pct:.1f}, {10 if n > 10 else 0} of {n} ops beyond; "
                      f"raw {raw_tail_s * 1e3:.3f} ms",
    }
    speed = REFERENCE_S / statistics.median(gaps + setup_gaps)
    return metrics, notes, n, failed, speed


def measure_traced(workload, seed: int, refs, workdir: Path):
    """One block untraced, the same block traced, and untraced again; the
    untraced time is the mean of the passes around the traced one, so that
    warm-up and drift do not count as tracing overhead."""
    _, pkg, ops = setup(workload, seed, workdir)
    block = len(workload.strata())

    def one_block(ops, recorder=None):
        gc.collect()
        latencies, _, _, failed = closed_loop(
            pkg, workload, ops, refs, lambda done, elapsed: done < block, recorder)
        return sum(latencies), failed

    before, failed_before = one_block(ops)
    with Recorder() as recorder:
        recorder.on = True
        with recorder.span("setup"):
            traced_ops = workload.setup(pkg, seed, workdir)
        recorder.on = False
        traced, failed_traced = one_block(traced_ops, recorder)
    after, failed_after = one_block(ops)
    recorder.write(WORK / "spans" / f"{workload.name}.spans")
    untraced = (before + after) / 2
    metrics = recorder.metrics()
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    notes = {"trace.overhead_s": f"{traced / untraced:.2f}x over {block} ops"}
    return metrics, notes, 3 * block, failed_before + failed_traced + failed_after, None


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_one(args) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    if not (SRC / PACKAGE).is_dir():
        print(f"perfbench: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    refs = load_json(HERE / "reference.json")[workload.name]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            metrics, notes, attempted, failed, speed = measure_traced(
                workload, args.seed, refs, workdir)
        else:
            metrics, notes, attempted, failed, speed = measure(
                workload, args.seed, args.seconds, refs, workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "both computed and declared in BENCHMARK.json")
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}")
    if speed is not None:
        print(f"# timings at reference speed; this host ran at {speed:.3f} of it")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]} {units[name]}{note}")
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    spec = load_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    summary = {"seed": args.seed, "seconds": seconds, "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)), "workloads": {}}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        row = summary["workloads"][name] = {"why": entry["why"]}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            status |= not result["correct"]
            key = "per_layer" if trace else "end_to_end"
            row[key] = {m: v["value"] for m, v in result["metrics"].items()}
            row.setdefault("fail_frac", {})[key] = result["failed"] / result["attempted"]

    names = list(summary["workloads"])
    print()
    print(f"{'metric':44s}" + "".join(f"{n:>16s}" for n in names))
    rows = [(f"fail_frac ({section})", [w.get("fail_frac", {}).get(section)
                                        for w in summary["workloads"].values()])
            for section in ("end_to_end", "per_layer")]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            rows.append((f"{metric['name']} [{metric['unit']}]",
                         [w.get(section, {}).get(metric["name"])
                          for w in summary["workloads"].values()]))
    for label, cells in rows:
        print(f"{label:44s}" + "".join(
            f"{'-' if v is None else format(v, '.6g'):>16s}" for v in cells))
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload; without it, run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
