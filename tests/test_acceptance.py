"""Acceptance suite: one test per shipping criterion.

Each test prints a single [criterion N] PASS/FAIL line (run with ``-s`` or
``-v`` to see them). Tolerances are pinned here, not configurable:
exact equality for the deterministic criteria, the stated statistical
margins for the sampled ones.
"""

import random as random_module
import time
from fractions import Fraction

import pytest

from boundedpd.analysis import (
    DrawModel,
    best_response,
    competitive_ratio,
    oft_constant,
)
from boundedpd.cli import main as cli_main
from boundedpd.dsl import DslError, parse, print_source
from boundedpd.game import (
    Action,
    GameConfig,
    INTRO_TABLE,
    Mode,
    PayoffTable,
    cb_bound_bits,
    dominance_check,
    is_dominated,
    validate_config,
    validate_table,
)
from boundedpd.library import BUILTIN_NAMES, get, source_text
from boundedpd.match import run_match
from boundedpd.vm import reset, tick

from test_vm import random_observation, random_program


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_grim_mutual_cooperation():
    start = time.monotonic()
    results = []
    for n in (10, 100, 1000):
        config = GameConfig(N=n, k=2)
        grim = get("GRIM", config)
        trace = run_match(grim, grim, config, INTRO_TABLE)
        results.append(trace.totals == (n * INTRO_TABLE.R, n * INTRO_TABLE.R))
    elapsed = time.monotonic() - start
    report(1, all(results) and elapsed < 1.0,
           f"GRIM vs GRIM pays exactly N*R at N=10,100,1000 in {elapsed:.2f}s")


def test_criterion_2_counting_defector_bound():
    ok = True
    details = []
    for n in (8, 16, 32):
        k = cb_bound_bits(n)  # ceil(log2 N)... the budget is one below it
        config = GameConfig(N=n, k=k - 1 if k - 1 >= 2 else 2)
        assert config.k == cb_bound_bits(n) - 1
        trace = run_match(get("CountingDefector", config), get("GRIM", config),
                          config, INTRO_TABLE)
        expected = (n - 2) * INTRO_TABLE.R + INTRO_TABLE.P
        ok &= trace.total1 == expected and expected < n * INTRO_TABLE.R
        details.append(f"N={n}: {trace.total1}")
    report(2, ok, "counting defector scores exactly (N-2)R + P, below N*R "
                  f"({'; '.join(details)})")


def test_criterion_3_equilibrium_brute_force():
    # The cooperation theorem's premise is the complexity bound
    # k < ceil(log2 N); with k=2 that holds for N=5 alone among N <= 5.
    # Below the bound a player can time a defection with an affordable
    # compare (or an unrolled chain), so those horizons are excluded by
    # the theorem itself, not by this implementation.
    k = 2
    checked = []
    skipped = []
    ok = True
    start = time.monotonic()
    for n in range(1, 6):
        config = GameConfig(N=n, k=k)
        if validate_config(config):
            skipped.append(n)
            continue
        result = best_response(get("GRIM", config), config, INTRO_TABLE, size_bound=8)
        ok &= result.payoff <= n * INTRO_TABLE.R
        checked.append((n, result.payoff, result.searched))
    elapsed = time.monotonic() - start
    ok &= checked != []
    detail = (
        f"no program beats N*R against GRIM at N={[c[0] for c in checked]} "
        f"(searched {sum(c[2] for c in checked)} programs in {elapsed:.0f}s); "
        f"N={skipped} fall outside the complexity bound k < ceil(log2 N) and "
        "are excluded with the theorem's premise"
    )
    report(3, ok, detail)


def test_criterion_4_dominance_reduction():
    rng = random_module.Random(20240819)
    ok = True
    for _ in range(100):
        while True:
            s = rng.randint(-20, -1)
            p = rng.randint(1, 10)
            r = rng.randint(p + 1, p + 15)
            t = rng.randint(r + 1, 2 * r - s - 1)
            h = rng.randint(-10, -1)
            table = PayoffTable(T=t, R=r, P=p, S=s, H=h)
            if not validate_table(table) and table.P > 0 > table.H:
                break
        records = dominance_check(table)
        ok &= is_dominated(records, Action.W, by=Action.D, strict=True)
    report(4, ok, "W strictly dominated by D on 100 random tables with P > 0 > H")


def test_criterion_5_oft_security_level():
    start = time.monotonic()
    ok = True
    details = []
    n = 500
    for q in (Fraction(1, 4), Fraction(1, 2)):
        config = GameConfig(N=n, mode=Mode.OPD, t=1, K=1, k=2,
                            instantaneous_rematch=True, seed=0)
        oft = get("OFT", config)
        est = DrawModel(q=q).evaluate(oft, config, INTRO_TABLE, trials=1000, seed=11)
        bound = float(n * INTRO_TABLE.R - oft_constant(q, 0, INTRO_TABLE))
        passed = float(est.mean) >= bound - 3 * est.se
        ok &= passed
        details.append(f"q={q}: mean {float(est.mean):.2f} vs bound {bound:.0f} "
                       f"(se {est.se:.2f})")
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    report(5, ok, f"OFT mean >= N*R - (1/q)(R - S) - 3se at N=500 "
                  f"({'; '.join(details)}; {elapsed:.0f}s)")


def test_criterion_6_competitive_ratio_approaches_one():
    ratios = []
    for n in (50, 100, 200, 400):
        config = GameConfig(N=n, mode=Mode.OPD, t=1, K=1, k=2,
                            instantaneous_rematch=True, seed=0)
        oft = get("OFT", config)
        rep = competitive_ratio(oft, [DrawModel(q=Fraction(1, 2))], config,
                                INTRO_TABLE, trials=300, size_bound=6, seed=9)
        assert rep.competitive_ratio is not None
        ratios.append(rep.competitive_ratio)
    nondecreasing = all(a <= b for a, b in zip(ratios, ratios[1:]))
    ok = nondecreasing and ratios[-1] >= 0.9
    report(6, ok, "CR nondecreasing toward 1 over N=50..400: "
                  + ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_7_cooperative_partner_worth():
    config = GameConfig(N=200, mode=Mode.OPD, t=1, K=1, k=2,
                        instantaneous_rematch=True, seed=0)
    oft = get("OFT", config)
    q = Fraction(1, 2)
    known = DrawModel(q=q, first_draw="GRIM")
    blind = DrawModel(q=q)
    trials = 1000
    diffs = []
    for i in range(trials):
        seed = 1000 + i
        a = known.run_trial(oft, config, INTRO_TABLE, seed)
        b = blind.run_trial(oft, config, INTRO_TABLE, seed)
        diffs.append(float(a - b))
    mean = sum(diffs) / trials
    var = sum((d - mean) ** 2 for d in diffs) / (trials - 1)
    se = (var / trials) ** 0.5
    # One-sided 95% lower confidence bound on the paired difference.
    ok = mean - 1.645 * se >= 0
    report(7, ok, f"cooperative first partner worth {mean:.2f} more "
                  f"(paired, se {se:.3f}, lower bound {mean - 1.645 * se:.2f})")


def test_criterion_8_budget_law():
    rng = random_module.Random(77001)
    ok = True
    checked = 0
    for _ in range(400):
        program = random_program(rng)
        k = rng.randint(2, 8)
        state = reset(program)
        for _ in range(30):
            state, action = tick(state, program, *random_observation(rng), k)
            checked += 1
            if state.tick_cost > k:
                ok = False
            if state.suspended and action is not Action.W:
                ok = False
    report(8, ok, f"per-tick cost <= k and unfinished compares wait, "
                  f"over {checked} random ticks")


def test_criterion_9_dsl_roundtrip_and_fuzz():
    config = GameConfig(N=16, k=2)
    ok = True
    for name in BUILTIN_NAMES:
        src = parse(source_text(name, config))
        printed = print_source(src)
        ok &= parse(printed) == src and print_source(parse(printed)) == printed
    rng = random_module.Random(424242)
    crashes = 0
    for _ in range(10_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))
        try:
            parse(blob.decode("utf-8", errors="replace"))
        except DslError:
            pass
        except Exception:
            crashes += 1
    ok &= crashes == 0
    report(9, ok, f"print/parse fixpoint on {len(BUILTIN_NAMES)} builtins; "
                  f"{crashes} crashes in 10000 fuzz inputs")


def test_criterion_10_population_determinism(tmp_path, capsys):
    spec = tmp_path / "pop.txt"
    spec.write_text("2 x OFT\n2 x AllD\n1 x GRIM\n1 x TFT\n")
    blobs = []
    for i in range(5):
        out_dir = tmp_path / f"run{i}"
        code = cli_main([
            "population", str(spec), "--N", "40", "--t", "2", "--seed", "31337",
            "--out", str(out_dir),
        ])
        assert code == 0
        blobs.append((out_dir / "population.csv").read_bytes()
                     + (out_dir / "summary.csv").read_bytes())
    capsys.readouterr()  # swallow the per-player summary prints
    ok = all(blob == blobs[0] for blob in blobs)
    report(10, ok, "five identical-seed population runs emit byte-identical CSVs")
