"""Opting-out population engine tests."""

import random as random_module
from fractions import Fraction

import pytest

from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode
from boundedpd.library import get
from boundedpd.match import Seat
from boundedpd.population import (
    PlayEvent,
    RematchEvent,
    expected_rematch_delay,
    parse_population_spec,
    play_pair_tick,
    rematch,
    run_population,
    summary_to_csv,
    trace_to_csv,
)

C, D, W, O = Action.C, Action.D, Action.W, Action.O


def opd_config(n: int, t: int = 1, k: int = 2, seed: int = 0,
               instantaneous: bool = False, pairs: int = 1) -> GameConfig:
    return GameConfig(N=n, mode=Mode.OPD, t=t, K=pairs, k=k,
                      instantaneous_rematch=instantaneous, seed=seed)


def roster(config, *names):
    return [(name, get(name, config)) for name in names]


class TestRunPopulation:
    def test_two_grims_cooperate_throughout(self):
        config = opd_config(10)
        trace = run_population(roster(config, "GRIM", "GRIM"), config, INTRO_TABLE)
        assert trace.totals() == (10, 10)
        assert all(s.opt_outs == 0 for s in trace.summaries)

    def test_oft_leaves_defectors_on_the_second_tick(self):
        # OFT observes the defection from tick 1 and opts out on tick 2.
        config = opd_config(10, seed=3, pairs=2)
        players = roster(config, "OFT", "OFT", "AllD", "AllD")
        trace = run_population(players, config, INTRO_TABLE,
                               initial_pairing=[(0, 2), (1, 3)])
        splits = [e for e in trace.events if isinstance(e, PlayEvent) and e.split]
        assert splits and all(e.tick == 2 for e in splits if e.tick <= 2)
        oft_splits = [e for e in splits if e.pid in (0, 1) and e.tick == 2]
        assert {e.action for e in oft_splits} == {O}

    def test_oft_never_leaves_a_cooperator(self):
        config = opd_config(30)
        trace = run_population(roster(config, "OFT", "AllC"), config, INTRO_TABLE,
                               initial_pairing=[(0, 1)])
        assert trace.summaries[0].opt_outs == 0
        assert trace.totals() == (30, 30)

    def test_roster_must_be_even(self):
        config = opd_config(5)
        with pytest.raises(ValueError):
            run_population(roster(config, "OFT", "OFT", "AllD"), config, INTRO_TABLE)

    def test_wrong_mode_rejected(self):
        config = GameConfig(N=5, mode=Mode.FTPD)
        with pytest.raises(ValueError):
            run_population(roster(config, "AllC", "AllC"), config, INTRO_TABLE)

    def test_rule3_split_pays_q_and_pools_the_pair(self):
        # Every split tick pays Q to both members, and neither member plays
        # again before a rematch event re-pairs them.
        config = opd_config(12, t=3, seed=5, pairs=2)
        players = roster(config, "OFT", "OFT", "AllD", "AllD")
        trace = run_population(players, config, INTRO_TABLE,
                               initial_pairing=[(0, 2), (1, 3)])
        by_tick: dict[int, list[PlayEvent]] = {}
        for event in trace.events:
            if isinstance(event, PlayEvent):
                by_tick.setdefault(event.tick, []).append(event)
        for event in trace.events:
            if isinstance(event, PlayEvent) and event.split:
                mate = next(e for e in by_tick[event.tick] if e.pid == event.partner)
                assert event.pay == INTRO_TABLE.Q and mate.pay == INTRO_TABLE.Q
                next_plays = [
                    e.tick for e in trace.events
                    if isinstance(e, PlayEvent) and e.pid == event.pid and e.tick > event.tick
                ]
                rematches = [
                    e.tick for e in trace.events
                    if isinstance(e, RematchEvent) and e.tick >= event.tick
                    and any(event.pid in pair for pair in e.pairings)
                ]
                if next_plays:
                    assert rematches and rematches[0] < next_plays[0]

    def test_conservation_of_payoffs(self):
        config = opd_config(20, t=2, seed=9, pairs=3)
        players = roster(config, "OFT", "OFT", "AllD", "GRIM", "TFT", "AllC")
        trace = run_population(players, config, INTRO_TABLE)
        paid = sum(
            (e.pay for e in trace.events if isinstance(e, PlayEvent)), Fraction(0)
        )
        assert paid == sum(trace.totals())

    def test_unpaired_qhat_switch(self):
        table = INTRO_TABLE.__class__(T=2, R=1, P=-1, S=-2, Q=0, Q_hat=Fraction(-1, 2))
        config = opd_config(6, t=6, seed=1, pairs=2)
        players = roster(config, "OFT", "OFT", "AllD", "AllD")
        base = run_population(players, config, table, initial_pairing=[(0, 2), (1, 3)])
        charged = run_population(players, config, table, initial_pairing=[(0, 2), (1, 3)],
                                 unpaired_pay_qhat=True)
        idle = [s.unpaired_ticks for s in charged.summaries]
        for before, after, ticks in zip(base.summaries, charged.summaries, idle):
            assert after.total == before.total + Fraction(-1, 2) * ticks
        assert any(idle)


class TestRematch:
    def test_pool_of_two_pairs_uniquely(self):
        pairs, leftover = rematch([4, 9], random_module.Random(0))
        assert pairs == ((4, 9),) and leftover is None

    def test_pool_of_four_is_reproducible(self):
        a = rematch([0, 1, 2, 3], random_module.Random(42))
        b = rematch([0, 1, 2, 3], random_module.Random(42))
        assert a == b
        all_pairs = {frozenset(p) for p in a[0]}
        options = [{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}]
        assert all_pairs <= {frozenset(x) for x in options}

    def test_odd_pool_leaves_one_over(self):
        pairs, leftover = rematch([1, 2, 3], random_module.Random(7))
        assert len(pairs) == 1 and leftover is not None
        assert leftover not in pairs[0]

    def test_matchings_cover_all_three_options(self):
        seen = set()
        for seed in range(60):
            pairs, _ = rematch([0, 1, 2, 3], random_module.Random(seed))
            seen.add(tuple(sorted(pairs)))
        assert len(seen) == 3


class TestRematchDelay:
    def test_every_tick_schedule_has_no_wait(self):
        assert expected_rematch_delay(opd_config(10, t=1)) == 0

    def test_period_five_waits_two_on_average(self):
        assert expected_rematch_delay(opd_config(10, t=5)) == 2

    def test_instantaneous_mode_has_no_wait(self):
        assert expected_rematch_delay(opd_config(10, t=5, instantaneous=True)) == 0

    def test_engine_mean_wait_over_all_phases_matches_formula(self):
        # Oracle for the uniform-phase claim: force one split at every
        # phase of the period and average the engine's observed waits.
        # An opponent that defects at tick j makes OFT opt at tick j+1.
        t = 5
        waits = []
        for j in range(1, t + 1):
            lines = ["strategy DefectLate"]
            for i in range(1, j):
                target = f"c{i + 1}" if i < j - 1 else "go"
                lines.append(f"c{i}: always play C goto {target}")
            lines.append("go: always play D")
            from boundedpd import dsl
            config = opd_config(3 * t, t=t, seed=j)
            defector = dsl.compile(dsl.parse("\n".join(lines)), config)
            players = [("OFT", get("OFT", config)), ("DefectLate", defector)]
            trace = run_population(players, config, INTRO_TABLE,
                                   initial_pairing=[(0, 1)])
            split_tick = min(e.tick for e in trace.events
                             if isinstance(e, PlayEvent) and e.split)
            assert split_tick == j + 1
            rematch_tick = min(e.tick for e in trace.events
                               if isinstance(e, RematchEvent) and e.tick >= split_tick)
            waits.append(rematch_tick - split_tick)
        assert Fraction(sum(waits), len(waits)) == Fraction(t - 1, 2)
        assert Fraction(t - 1, 2) == expected_rematch_delay(opd_config(10, t=t))


class TestInstantaneousMode:
    def test_same_round_reaction_to_a_waiting_partner(self):
        # With the same-round allowance, OFT leaves a waiter on tick 1;
        # without it, only on tick 2.
        base = roster(opd_config(6), "OFT", "AllW")
        slow = run_population(base, opd_config(6), INTRO_TABLE, initial_pairing=[(0, 1)])
        fast_config = opd_config(6, instantaneous=True)
        fast = run_population(roster(fast_config, "OFT", "AllW"), fast_config,
                              INTRO_TABLE, initial_pairing=[(0, 1)])
        first_split = lambda tr: min(
            e.tick for e in tr.events if isinstance(e, PlayEvent) and e.split
        )
        assert first_split(slow) == 2
        assert first_split(fast) == 1

    def test_peek_does_not_advance_non_opting_programs(self):
        # GRIM facing a waiter must behave identically with and without the
        # allowance: the peek commits only when it produces an O.
        for instantaneous in (False, True):
            config = opd_config(6, instantaneous=instantaneous)
            trace = run_population(roster(config, "GRIM", "AllW"), config,
                                   INTRO_TABLE, initial_pairing=[(0, 1)])
            actions = "".join(
                e.action.value for e in trace.events
                if isinstance(e, PlayEvent) and e.pid == 0
            )
            assert actions == "CDDDDD"

    def test_opting_pays_off_against_waiters_when_cooperators_exist(self):
        # A population holding cooperative partners rewards leaving a
        # waiter; the stay-put variant of the same strategy earns nothing.
        total_oft, total_stay = Fraction(0), Fraction(0)
        for seed in range(40):
            config = opd_config(30, seed=seed, instantaneous=True, pairs=2)
            players = roster(config, "OFT", "AllW", "OFT", "AllD")
            trace = run_population(players, config, INTRO_TABLE,
                                   initial_pairing=[(0, 1), (2, 3)])
            total_oft += trace.summaries[0].total
            stay_players = roster(config, "AllC", "AllW", "OFT", "AllD")
            stay_trace = run_population(stay_players, config, INTRO_TABLE,
                                        initial_pairing=[(0, 1), (2, 3)])
            total_stay += stay_trace.summaries[0].total
        assert total_oft > total_stay

    def test_the_second_seat_peeks_too(self):
        config = opd_config(6, instantaneous=True)
        trace = run_population(roster(config, "AllW", "OFT"), config, INTRO_TABLE,
                               initial_pairing=[(0, 1)])
        first = next(e for e in trace.events if isinstance(e, PlayEvent) and e.pid == 1)
        assert (first.tick, first.action, first.split) == (1, O, True)

    def test_no_peek_outside_opd(self):
        # FTPD has no O to react with: OFT keeps its C on tick 1, and its
        # opt-out on tick 2 is a fault.
        config = GameConfig(N=3, instantaneous_rematch=True)
        oft, waiter = Seat.fresh(get("OFT", config)), Seat.fresh(get("AllW", config))
        outcomes = [play_pair_tick(oft, waiter, config, INTRO_TABLE) for _ in range(3)]
        assert [o.a1 for o in outcomes] == [C, W, W]
        assert not any(o.split for o in outcomes)
        assert oft.vm.fault_reason == "played O outside OPD mode"

    def test_double_wait_pairs_do_not_peek(self):
        config = opd_config(5, instantaneous=True)
        trace = run_population(roster(config, "AllW", "AllW"), config, INTRO_TABLE,
                               initial_pairing=[(0, 1)])
        assert all(
            e.action is W for e in trace.events if isinstance(e, PlayEvent)
        )
        assert trace.totals() == (0, 0)  # H = 0 on the example table


class TestDeterminismAndSpec:
    def test_same_seed_reproduces_the_trace_bytes(self):
        config = opd_config(25, t=2, seed=77, pairs=3)
        players = roster(config, "OFT", "OFT", "AllD", "GRIM", "TFT", "AllC")
        a = trace_to_csv(run_population(players, config, INTRO_TABLE), config, INTRO_TABLE)
        b = trace_to_csv(run_population(players, config, INTRO_TABLE), config, INTRO_TABLE)
        assert a == b

    def test_population_spec_parsing(self, tmp_path):
        config = opd_config(10)
        strat = tmp_path / "mine.pdstrat"
        strat.write_text("strategy Mine\nalways play C\n")
        text = "2 x GRIM\n1 x OFT  # comment\n1 x mine.pdstrat\n"
        players = parse_population_spec(text, config, base_dir=tmp_path)
        assert [label for label, _ in players] == ["GRIM", "GRIM", "OFT", "Mine"]

    def test_population_spec_errors(self, tmp_path):
        config = opd_config(10)
        for bad in ("2 GRIM", "0 x GRIM", "two x GRIM", "1 x NoSuchFile"):
            with pytest.raises(ValueError):
                parse_population_spec(bad, config, base_dir=tmp_path)

    def test_summary_csv_shape(self):
        config = opd_config(4)
        trace = run_population(roster(config, "GRIM", "GRIM"), config, INTRO_TABLE)
        lines = summary_to_csv(trace).splitlines()
        assert lines[0] == "player,strategy,payoff,opt_outs,unpaired_ticks"
        assert lines[1] == "0,GRIM,4,0,0"
