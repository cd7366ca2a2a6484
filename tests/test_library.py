"""Catalog integrity: every builtin compiles and costs what it claims."""

import random as random_module

import pytest

from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode
from boundedpd.library import (
    BUILTIN_NAMES,
    UnknownStrategyError,
    catalog,
    counting_defector_source,
    get,
)
from boundedpd.match import run_match
from boundedpd.population import run_population
from boundedpd.vm import reset, tick

from test_vm import random_program

C, D, W, O = Action.C, Action.D, Action.W, Action.O
CFG = GameConfig(N=16, k=4)


def measured_worst_cost(name: str, config: GameConfig) -> int:
    """Worst observed per-tick cost across matches with assorted partners."""
    program = get(name, config)
    worst = 0
    partners = [get(n, config) for n in ("AllC", "AllD", "AllW", "TFT")]
    for partner in partners:
        mine, theirs = reset(program), reset(partner)
        my_last = their_last = None
        for _ in range(config.N):
            mine, my_action = tick(mine, program, their_last, my_last, config.k)
            theirs, their_action = tick(theirs, partner, my_last, their_last, config.k)
            my_last, their_last = my_action, their_action
            worst = max(worst, mine.tick_cost)
    return worst


class TestCatalog:
    def test_every_entry_compiles(self):
        entries = catalog(CFG)
        assert set(entries) == set(BUILTIN_NAMES)
        for entry in entries.values():
            assert len(entry.program.instructions) > 0

    @pytest.mark.parametrize("name", list(BUILTIN_NAMES))
    def test_documented_cost_matches_compiler_and_measurement(self, name):
        entry = catalog(CFG)[name]
        assert entry.program.worst_tick_cost == entry.documented_cost
        assert measured_worst_cost(name, CFG) <= entry.documented_cost
        if name in ("GRIM", "OFT", "TFT"):
            # The single action compare is actually exercised.
            assert measured_worst_cost(name, CFG) == 2

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownStrategyError):
            get("Sneaky", CFG)

    def test_counting_defector_horizon_cost(self):
        config = GameConfig(N=1000, k=2)
        assert get("CountingDefector", config).worst_tick_cost == 10

    def test_counting_defector_needs_room(self):
        with pytest.raises(ValueError):
            counting_defector_source(2)

    def test_counting_defector_source_shape(self):
        text = counting_defector_source(8)
        assert text.count("always play C inc n") == 6
        assert "if n >= N-2 then play D" in text


class TestBehaviorContracts:
    def test_grim_is_cooperative_at_every_tested_horizon(self):
        for n in (2, 5, 17, 64):
            config = GameConfig(N=n, k=2)
            grim = get("GRIM", config)
            trace = run_match(grim, grim, config, INTRO_TABLE)
            assert trace.totals == (n * INTRO_TABLE.R, n * INTRO_TABLE.R)

    def test_tft_against_itself_cooperates(self):
        for n in (3, 10, 40):
            config = GameConfig(N=n, k=2)
            tft = get("TFT", config)
            trace = run_match(tft, tft, config, INTRO_TABLE)
            assert all(r.a1 is C and r.a2 is C for r in trace.records)

    def test_oft_never_defects(self):
        # Against builtins and random machines alike, OFT only ever plays
        # C or O.
        rng = random_module.Random(77)
        config = GameConfig(N=15, mode=Mode.OPD, t=1, k=2, seed=1)
        oft = get("OFT", config)
        opponents = [get(n, config) for n in BUILTIN_NAMES if n != "CountingDefector"]
        opponents += [random_program(rng) for _ in range(20)]
        for opponent in opponents:
            trace = run_population([("OFT", oft), ("opp", opponent)], config,
                                   INTRO_TABLE, initial_pairing=[(0, 1)])
            from boundedpd.population import PlayEvent
            actions = {e.action for e in trace.events
                       if isinstance(e, PlayEvent) and e.pid == 0}
            assert D not in actions

    def test_counting_defector_realizes_its_trace(self):
        for n, k in ((8, 2), (16, 3), (32, 4)):
            config = GameConfig(N=n, k=k)
            trace = run_match(get("CountingDefector", config), get("GRIM", config),
                              config, INTRO_TABLE)
            actions = "".join(r.a1.value for r in trace.records)
            assert actions == "C" * (n - 2) + "WD"
