"""Tests of the benchmark's span recorder and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import run
from tracer import Recorder
from workloads import WORKLOADS

REFS = run.load_json(run.HERE / "reference.json")


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def traced(fn):
    """Call ``fn`` with the recorder on; returns (result, metrics)."""
    with Recorder() as recorder:
        recorder.on = True
        result = fn()
    return result, recorder.metrics()


def traced_counts(pkg, workload, ops_wanted, workdir):
    refs = REFS[workload.name]
    with Recorder() as recorder:
        recorder.on = True
        with recorder.span("setup"):
            ops = workload.setup(pkg, 7, workdir)
        recorder.on = False
        _, _, _, failed = run.closed_loop(
            pkg, workload, ops, refs, lambda done, elapsed: done < ops_wanted, recorder)
    assert failed == 0
    return {name: value for name, value in recorder.metrics().items()
            if not name.endswith("_s")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_give_identical_counts(pkg, name, tmp_path):
    workload = WORKLOADS[name]
    first = traced_counts(pkg, workload, 2, tmp_path / "a")
    second = traced_counts(pkg, workload, 2, tmp_path / "b")
    assert first == second
    assert first["trace.spans"] > 0


def test_grim_pays_two_xor_units_per_seat_and_tick(pkg):
    n = 300
    config = pkg.game.GameConfig(N=n, k=2)
    grim = pkg.library.get("GRIM", config)
    trace, metrics = traced(
        lambda: pkg.match.run_match(grim, grim, config, pkg.game.INTRO_TABLE))
    assert trace.totals == (n, n)
    assert metrics["vm.tick.calls"] == 2 * n
    assert metrics["vm.tick.xor_units"] == 2 * (2 * n)
    assert metrics["vm.tick.suspensions"] == 0
    assert metrics["vm.tick.faults"] == 0
    assert metrics["match.match_step.calls"] == n


def test_counting_defector_suspends_once(pkg):
    config = pkg.game.GameConfig(N=2000, k=2)
    defector = pkg.library.get("CountingDefector", config)
    grim = pkg.library.get("GRIM", config)
    _, metrics = traced(
        lambda: pkg.match.run_match(defector, grim, config, pkg.game.INTRO_TABLE))
    assert metrics["vm.tick.suspensions"] == 1


def test_search_sources_equal_estimate_search_size(pkg):
    config = pkg.game.GameConfig(N=5, k=2)
    expected = pkg.analysis.estimate_search_size(config, 5)
    grim = pkg.library.get("GRIM", config)
    result, metrics = traced(lambda: pkg.analysis.best_response(
        grim, config, pkg.game.INTRO_TABLE, size_bound=5))
    assert metrics["analysis.search.sources"] == expected
    assert metrics["analysis.enumerate_candidates.yielded"] == result.searched
    assert metrics["analysis.search.yield_ratio"] == result.searched / expected


def test_wrappers_leave_population_csv_bytes_unchanged(pkg, tmp_path):
    workload = WORKLOADS["opd_population"]
    op = workload.setup(pkg, 3, tmp_path)[0]
    out = op.args[1]

    def csv_bytes():
        assert workload.run(pkg, op) == 0
        return {name: (out / name).read_bytes() for name in ("population.csv", "summary.csv")}

    plain = csv_bytes()
    traced_bytes, metrics = traced(csv_bytes)
    assert traced_bytes == plain
    assert metrics["cli.main.calls"] == 1
    assert metrics["population.csv_bytes"] > 0
    assert workload.digests(out) == REFS["opd_population"][op.key]


def test_uninstall_restores_every_binding(pkg):
    originals = (pkg.vm.tick, pkg.match.tick, pkg.population.tick,
                 pkg.analysis.DrawModel.run_trial, pkg.cli.main)
    with Recorder():
        assert pkg.match.tick is pkg.vm.tick is pkg.population.tick
        assert pkg.match.tick is not originals[0]
    assert (pkg.vm.tick, pkg.match.tick, pkg.population.tick,
            pkg.analysis.DrawModel.run_trial, pkg.cli.main) == originals


def test_declared_per_layer_metrics_are_the_computed_ones():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    computed = set(Recorder().metrics()) | {
        "trace.untraced_s", "trace.traced_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == computed


@pytest.mark.parametrize("value, exact, passes", [
    (196, True, True),     # OFT's exact value N-4 at q=1/2, N=200
    (197, True, False),    # an exact evaluator that is off by one
    (194, True, False),
    (194, False, True),    # the same miss is within Monte-Carlo error
])
def test_draw_check_accepts_exact_value_and_rejects_wrong_one(pkg, value, exact, passes):
    workload = WORKLOADS["opd_draw"]
    op = next(op for op in workload.setup(pkg, 0, None) if op.key == "OFT@q=1/2,N=200")
    row = SimpleNamespace(exact=exact, trials=1 if exact else workload.TRIALS)
    result = SimpleNamespace(value=value, rows=(row,))
    problems = workload.check(pkg, op, result, REFS["opd_draw"][op.key])
    assert (problems == []) is passes


def test_reference_speed_scaling_cancels_a_uniformly_slower_host():
    durations, gaps = [0.05, 0.2, 0.1], [0.002, 0.003, 0.0025, 0.002]
    fast = run.at_reference_speed(durations, gaps)
    slow = run.at_reference_speed([2 * d for d in durations], [2 * g for g in gaps])
    assert slow == pytest.approx(fast)
    # One disturbed reference timing beside an op does not move it much.
    spiked = run.at_reference_speed(durations, [0.002, 0.003, 0.0025, 0.02])
    assert spiked[0] == fast[0]
