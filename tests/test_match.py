"""Fixed-horizon match engine tests."""

import random as random_module
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd.analysis import unprovoked_defection_tick
from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode, PayoffTable, payoff
from boundedpd.library import get
from boundedpd.match import TickRecord, deviation_gain, run_match, trace_to_csv
from boundedpd.vm import (
    CmpOp, Observation, Operand, StrategyProgram, compare, emit, halt, jump, reset, tick,
)

from test_vm import random_program

C, D, W = Action.C, Action.D, Action.W


def cfg(n: int, k: int = 2) -> GameConfig:
    return GameConfig(N=n, k=k)


class TestRunMatch:
    def test_mutual_grim_cooperates_fully(self):
        config = cfg(10)
        grim = get("GRIM", config)
        trace = run_match(grim, grim, config, INTRO_TABLE)
        assert trace.totals == (10, 10)
        assert all(r.a1 is C and r.a2 is C for r in trace.records)

    def test_counting_defector_loses_the_endgame(self):
        config = cfg(10)
        trace = run_match(get("CountingDefector", config), get("GRIM", config),
                          config, INTRO_TABLE)
        assert trace.totals == (7, 7)
        assert "".join(r.a1.value for r in trace.records) == "CCCCCCCCWD"
        assert "".join(r.a2.value for r in trace.records) == "CCCCCCCCCD"

    def test_unconditional_actions_fold_plainly(self):
        config = cfg(5)
        trace = run_match(get("AllD", config), get("AllC", config), config, INTRO_TABLE)
        assert trace.totals == (10, -10)

    def test_wrong_mode_rejected(self):
        config = GameConfig(N=10, mode=Mode.OPD)
        grim = get("GRIM", config)
        with pytest.raises(ValueError):
            run_match(grim, grim, config, INTRO_TABLE)

    def test_invalid_table_rejected(self):
        config = cfg(5)
        grim = get("GRIM", config)
        with pytest.raises(ValueError) as err:
            run_match(grim, grim, config, PayoffTable(T=1, R=1, P=-1, S=-2))
        assert "T > R" in str(err.value)

    def test_opting_out_in_ftpd_is_a_fault(self):
        config = cfg(4)
        opter = StrategyProgram("opts", (emit(Action.O), halt(), jump(0)))
        trace = run_match(opter, get("AllC", config), config, INTRO_TABLE)
        assert all(r.a1 is W for r in trace.records)
        assert trace.fault1 is not None and "OPD" in trace.fault1

    def test_trace_costs_follow_the_vm(self):
        config = cfg(6)
        trace = run_match(get("GRIM", config), get("AllC", config), config, INTRO_TABLE)
        assert all(r.cost1 == 2 and r.cost2 == 0 for r in trace.records)


def reference_match(p1, p2, config, table):
    """The match semantics written out plainly against ``vm.tick``: each
    player sees the previous tick's actions and its own payoff, both tick,
    and an O (never legal in FTPD) faults the player into a waiter."""
    programs, vms = (p1, p2), [reset(p1), reset(p2)]
    last = None  # (a1, a2, pay1, pay2) of the previous tick
    records, totals = [], [Fraction(0), Fraction(0)]
    for index in range(1, config.N + 1):
        actions = []
        for me in (0, 1):
            if last is None:
                obs = Observation(horizon_N=config.N)
            else:
                obs = Observation(opponent_last_action=last[1 - me], own_last_action=last[me],
                                  last_payoff=last[2 + me], horizon_N=config.N)
            vm, action = tick(vms[me], programs[me], obs, config.k)
            if action is Action.O:
                vm = replace(vm, faulted=True, fault_reason="played O outside OPD mode")
                action = W
            vms[me] = vm
            actions.append(action)
        pay1, pay2 = payoff(actions[0], actions[1], table).pair()
        totals[0] += pay1
        totals[1] += pay2
        records.append(TickRecord(index, actions[0], actions[1], pay1, pay2,
                                  vms[0].tick_cost, vms[1].tick_cost))
        last = (actions[0], actions[1], pay1, pay2)
    return tuple(records), tuple(totals), (vms[0].fault_reason, vms[1].fault_reason)


def pay_reader() -> StrategyProgram:
    """Cooperate after a tick that paid at least zero, else defect: the
    seats' payoff observations steer this program. Its 16-bit compare
    finishes within one tick only when k >= 16."""
    return StrategyProgram("PayReader", (
        compare(Operand.obs("pay"), CmpOp.GE, Operand.const(0), 4),
        emit(C), halt(), jump(0),
        emit(D), halt(), jump(0),
    ))


class TestAgainstTheReference:
    @staticmethod
    def assert_same_as_reference(p1, p2, config):
        trace = run_match(p1, p2, config, INTRO_TABLE)
        records, totals, faults = reference_match(p1, p2, config, INTRO_TABLE)
        assert trace.records == records
        assert trace.totals == totals
        assert (trace.fault1, trace.fault2) == faults

    @given(st.integers(0, 10**9), st.integers(1, 40), st.integers(2, 20), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_program_pairs_match_the_plain_loop(self, seed, n, k, instantaneous):
        # Instantaneous rematch belongs to the opting-out game: a match
        # must not peek even when the flag is set. Reactive partners make
        # the observations matter; random programs alone mostly ignore them.
        rng = random_module.Random(seed)
        config = GameConfig(N=n, k=k, instantaneous_rematch=instantaneous)
        partners = [get("TFT", config), get("GRIM", config), pay_reader()]
        pick = lambda: random_program(rng) if rng.randrange(3) else rng.choice(partners)
        self.assert_same_as_reference(pick(), pick(), config)

    @pytest.mark.parametrize("name", ["TFT", "GRIM", "AllC", "AllD"])
    def test_payoff_observations_match_the_plain_loop(self, name):
        config = GameConfig(N=12, k=16)
        self.assert_same_as_reference(pay_reader(), get(name, config), config)
        self.assert_same_as_reference(get(name, config), pay_reader(), config)


class TestDeviationGain:
    def test_counting_defector_loses_against_grim(self):
        config = cfg(10)
        grim = get("GRIM", config)
        counting = get("CountingDefector", config)
        assert deviation_gain(grim, counting, grim, config, INTRO_TABLE) == -3

    def test_candidate_equal_to_baseline_gains_nothing(self):
        config = cfg(10)
        grim = get("GRIM", config)
        assert deviation_gain(grim, grim, grim, config, INTRO_TABLE) == 0

    def test_unconditional_defection_is_punished(self):
        config = cfg(10)
        grim = get("GRIM", config)
        alld = get("AllD", config)
        assert deviation_gain(grim, alld, grim, config, INTRO_TABLE) == -17


class TestConservation:
    @given(st.integers(0, 10**9), st.integers(2, 20))
    @settings(max_examples=60, deadline=None)
    def test_totals_equal_the_fold_of_per_tick_payoffs(self, seed, n):
        rng = random_module.Random(seed)
        config = cfg(n, k=rng.choice([2, 3, 4]))
        names = ["GRIM", "TFT", "AllC", "AllD", "AllW"]
        p1 = get(rng.choice(names), config)
        p2 = get(rng.choice(names), config)
        trace = run_match(p1, p2, config, INTRO_TABLE)
        fold1 = sum((r.pay1 for r in trace.records), Fraction(0))
        fold2 = sum((r.pay2 for r in trace.records), Fraction(0))
        assert (fold1, fold2) == trace.totals
        recomputed = [payoff(r.a1, r.a2, INTRO_TABLE).pair() for r in trace.records]
        assert fold1 == sum((p[0] for p in recomputed), Fraction(0))
        assert fold2 == sum((p[1] for p in recomputed), Fraction(0))


class TestCooperativeTracePredicate:
    @pytest.mark.parametrize("name", ["GRIM", "TFT", "AllC"])
    def test_builtin_cooperators_never_move_first(self, name):
        # Against random opponents, W or D appears only after the opponent
        # has already played something other than C.
        rng = random_module.Random(20240817)
        config = cfg(12)
        focal = get(name, config)
        for _ in range(25):
            opponent = random_program(rng)
            trace = run_match(focal, opponent, config, INTRO_TABLE)
            assert unprovoked_defection_tick(trace, player=1) is None

    def test_predicate_flags_first_strikes(self):
        config = cfg(6)
        trace = run_match(get("AllD", config), get("AllC", config), config, INTRO_TABLE)
        assert unprovoked_defection_tick(trace, player=1) == 1
        assert unprovoked_defection_tick(trace, player=2) is None


class TestCsv:
    def test_header_names_hash_and_seed(self):
        config = GameConfig(N=3, k=2, seed=99)
        grim = get("GRIM", config)
        text = trace_to_csv(run_match(grim, grim, config, INTRO_TABLE), config, INTRO_TABLE)
        first, second = text.splitlines()[:2]
        assert first.startswith("# config_sha256=") and first.endswith("seed=99")
        assert second == "tick,a1,a2,pay1,pay2,cost1,cost2"
        assert text.splitlines()[2] == "1,C,C,1,1,2,2"
