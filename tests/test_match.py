"""Fixed-horizon match engine tests."""

import dataclasses
import gc
import random as random_module
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd.analysis import unprovoked_defection_tick
from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode, PayoffTable, payoff
from boundedpd.library import BUILTIN_NAMES, get
from boundedpd import match
from boundedpd.match import match_step, run_match, seat_move, trace_to_csv
from boundedpd.vm import (
    CmpOp, Operand, StrategyProgram, compare, emit, halt, jump, reset, tick,
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
        assert trace.a1 == trace.a2 == [C] * 10

    def test_counting_defector_loses_the_endgame(self):
        config = cfg(10)
        trace = run_match(get("CountingDefector", config), get("GRIM", config),
                          config, INTRO_TABLE)
        assert trace.totals == (7, 7)
        assert "".join(a.value for a in trace.a1) == "CCCCCCCCWD"
        assert "".join(a.value for a in trace.a2) == "CCCCCCCCCD"

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
        assert trace.a1 == [W] * 4
        assert trace.fault1 is not None and "OPD" in trace.fault1

    def test_trace_costs_follow_the_vm(self):
        config = cfg(6)
        trace = run_match(get("GRIM", config), get("AllC", config), config, INTRO_TABLE)
        assert (trace.cost1, trace.cost2) == ([2] * 6, [0] * 6)


def reference_match(p1, p2, config, table):
    """The match semantics written out plainly against ``vm.tick``: each
    player sees the previous tick's actions, both tick, and an O (never
    legal in FTPD) faults the player into a waiter. Returns the columns
    ``(a1, a2, cost1, cost2)``, the totals and the faults."""
    programs, vms = (p1, p2), [reset(p1), reset(p2)]
    last = None  # (a1, a2) of the previous tick
    played, totals = ([], [], [], []), [Fraction(0), Fraction(0)]
    for _ in range(config.N):
        actions = []
        for me in (0, 1):
            opp, own = (None, None) if last is None else (last[1 - me], last[me])
            vm, action = tick(vms[me], programs[me], opp, own, config.k)
            if action is Action.O:
                vm = vm._replace(fault_reason="played O outside OPD mode")
                action = W
            vms[me] = vm
            actions.append(action)
        pay1, pay2, _split = payoff(actions[0], actions[1], table)
        totals[0] += pay1
        totals[1] += pay2
        for column, value in zip(played, (*actions, vms[0].tick_cost, vms[1].tick_cost)):
            column.append(value)
        last = (actions[0], actions[1])
    return played, tuple(totals), (vms[0].fault_reason, vms[1].fault_reason)


def columns(trace):
    return trace.a1, trace.a2, trace.cost1, trace.cost2


def retaliator() -> StrategyProgram:
    """Defect on the tick after being exploited (own C, partner not C),
    else cooperate. It reads both observations unevenly, so swapping a
    seat's own and opp changes its play. Its two compares fit in one tick
    only when k >= 4."""
    return StrategyProgram("Retaliator", (
        compare(Operand.obs("own"), CmpOp.EQ, Operand.action(C), 5),
        compare(Operand.obs("opp"), CmpOp.NE, Operand.action(C), 5),
        emit(D), halt(), jump(0),
        emit(C), halt(), jump(0),
    ))


class TestAgainstTheReference:
    @staticmethod
    def assert_same_as_reference(p1, p2, config):
        trace = run_match(p1, p2, config, INTRO_TABLE)
        played, totals, faults = reference_match(p1, p2, config, INTRO_TABLE)
        assert columns(trace) == played
        assert trace.totals == totals
        assert (trace.fault1, trace.fault2) == faults

    @given(st.integers(0, 10**9), st.integers(1, 40), st.integers(2, 20), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_program_pairs_match_the_plain_loop(self, seed, n, k, instantaneous):
        # Instantaneous rematch belongs to the opting-out game: a match
        # must not peek even when the flag is set. A third of the seats go
        # to reactive partners whose play depends on what they see.
        rng = random_module.Random(seed)
        config = GameConfig(N=n, k=k, instantaneous_rematch=instantaneous)
        partners = [get("TFT", config), get("GRIM", config), retaliator()]
        pick = lambda: random_program(rng) if rng.randrange(3) else rng.choice(partners)
        self.assert_same_as_reference(pick(), pick(), config)

    @pytest.mark.parametrize("name", ["TFT", "GRIM", "AllC", "AllD"])
    def test_both_observations_match_the_plain_loop(self, name):
        for k in (2, 4):
            config = GameConfig(N=12, k=k)
            self.assert_same_as_reference(retaliator(), get(name, config), config)
            self.assert_same_as_reference(get(name, config), retaliator(), config)


def o_emitters() -> list[StrategyProgram]:
    """Players that play O, an opt-out in OPD and a fault in FTPD: one on
    every tick, one on its second tick only."""
    return [
        StrategyProgram("opts", (emit(Action.O), halt(), jump(0))),
        StrategyProgram("opts-second", (
            emit(C), halt(), emit(Action.O), halt(), emit(D), halt(), jump(4),
        )),
    ]


class TestMatchStep:
    """``match_step`` ticks both machines itself and applies the mode rule
    once, after both moves; ``seat_move`` is the one-seat form."""

    def test_both_seats_fault_on_the_same_tick(self):
        config = cfg(3)
        opter1, opter2 = (o_emitters()[0] for _ in range(2))
        vm1, a1, vm2, a2 = match_step(opter1, reset(opter1), None,
                                      opter2, reset(opter2), None, config)
        assert (a1, a2) == (W, W)
        assert vm1.fault_reason == vm2.fault_reason == "played O outside OPD mode"
        trace = run_match(opter1, opter2, config, INTRO_TABLE)
        assert trace.a1 == trace.a2 == [W] * 3
        assert trace.fault1 == trace.fault2 == "played O outside OPD mode"
        assert trace.totals == (0, 0)

    @given(st.integers(0, 10**9), st.sampled_from([Mode.FTPD, Mode.OPD]), st.integers(2, 8),
           st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_match_step_is_two_seat_moves(self, seed, mode, k, ticks):
        # The last moves are drawn afresh each tick, None included, rather
        # than taken from the tick before, so any pair of observations
        # meets any machine state the programs reach.
        rng = random_module.Random(seed)
        config = GameConfig(N=ticks, mode=mode, k=k)
        emitters = o_emitters()
        pick = lambda: random_program(rng) if rng.randrange(3) else rng.choice(emitters)
        program1, program2 = pick(), pick()
        vm1, vm2 = reset(program1), reset(program2)
        last = lambda: rng.choice((None, C, D, W, Action.O))
        for _ in range(ticks):
            last1, last2 = last(), last()
            stepped = match_step(program1, vm1, last1, program2, vm2, last2, config)
            seated = (*seat_move(vm1, program1, last2, last1, config),
                      *seat_move(vm2, program2, last1, last2, config))
            assert stepped == seated
            vm1, _, vm2, _ = stepped


class TestCallCounts:
    """A match tick is one ``match_step`` and one ``vm.tick`` per seat: a
    kernel that drops or adds a call changes these counts."""

    @staticmethod
    def counted_match(monkeypatch, p1, p2, config):
        calls = Counter()
        for name in ("tick", "match_step"):
            def counted(*args, name=name, original=getattr(match, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(match, name, counted)
        return run_match(p1, p2, config, INTRO_TABLE), calls

    def test_grim_pair_ticks_each_seat_once_per_tick(self, monkeypatch):
        config = cfg(300)
        grim = get("GRIM", config)
        trace, calls = self.counted_match(monkeypatch, grim, grim, config)
        assert trace.totals == (300, 300)
        assert calls == {"tick": 600, "match_step": 300}

    def test_counting_defector_ticks_each_seat_once_per_tick(self, monkeypatch):
        config = cfg(50)
        trace, calls = self.counted_match(
            monkeypatch, get("CountingDefector", config), get("GRIM", config), config)
        assert len(trace.a1) == 50
        assert calls == {"tick": 100, "match_step": 50}


#: Payoffs over four denominators (2, 3, 6, 4): totals are added over 12.
FRACTIONAL_TABLE = PayoffTable(T=Fraction(5, 2), R=Fraction(4, 3),
                               P=Fraction(-1, 6), S=Fraction(-7, 4))


def faulting_programs() -> list[StrategyProgram]:
    """A player that opts out (a fault in FTPD) on its third tick, and one
    whose compare reads a register it lacks on its second."""
    opter = StrategyProgram("late-opter", (
        emit(C), halt(), emit(C), halt(), emit(Action.O), halt(), jump(0),
    ))
    bad_register = StrategyProgram("bad-register", (
        emit(D), halt(),
        compare(Operand.reg(1), CmpOp.EQ, Operand.const(1), 2), emit(C), halt(), jump(2),
    ), reg_widths=(3,))
    return [opter, bad_register]


def tracked_objects() -> int:
    """The objects the garbage collector tracks, once collections settle:
    a collection untracks a tuple of untracked items, and a nested tuple
    only after its items, so one collection may leave some behind."""
    count = None
    while True:
        gc.collect()
        settled, count = count, len(gc.get_objects())
        if settled == count:
            return count


def tracked_objects_kept(make) -> int:
    """How many objects the garbage collector tracks for a live ``make()``.

    ``make`` runs once first, so that what it leaves behind for good (the
    programs' transition tables) is not counted."""
    make()
    before = tracked_objects()
    kept = make()  # alive while the objects are counted
    return tracked_objects() - before


class TestColumns:
    @pytest.mark.parametrize("names", [("GRIM", "GRIM"), ("TFT", "AllD")])
    def test_a_trace_keeps_no_object_per_tick(self, names):
        def kept(n):
            config = cfg(n)
            p1, p2 = (get(name, config) for name in names)
            return tracked_objects_kept(lambda: run_match(p1, p2, config, INTRO_TABLE))

        assert kept(2000) == kept(20_000)


class TestTransitionTable:
    """Each program owns the table ``vm.tick`` plays through."""

    def test_an_equal_but_distinct_program_starts_empty(self):
        config = cfg(50)
        grim = get("GRIM", config)
        run_match(grim, grim, config, INTRO_TABLE)
        copy = dataclasses.replace(grim)
        assert copy == grim and grim.transitions
        assert copy.transitions == {}

    def test_grim_pair_table_does_not_grow_per_tick(self):
        config = cfg(10**4)
        grim = get("GRIM", config)
        trace = run_match(grim, grim, config, INTRO_TABLE)
        assert trace.totals == (10**4, 10**4)
        assert len(grim.transitions) <= 4

    def test_a_played_table_takes_no_part_in_equality_hash_or_repr(self):
        config = cfg(50)
        played, fresh = get("GRIM", config), get("GRIM", config)
        run_match(played, played, config, INTRO_TABLE)
        assert played is not fresh and played.transitions and fresh.transitions == {}
        assert played == fresh and hash(played) == hash(fresh)
        assert repr(played) == repr(fresh) and "transitions" not in repr(played)
        assert dataclasses.replace(played).transitions == {}


class TestFractionalTotals:
    @pytest.mark.parametrize("n", [12, 200])
    def test_catalog_pairs_match_the_plain_loop(self, n):
        config = cfg(n)
        programs = [get(name, config) for name in BUILTIN_NAMES] + faulting_programs()
        for p1 in programs:
            for p2 in programs:
                trace = run_match(p1, p2, config, FRACTIONAL_TABLE)
                played, totals, faults = reference_match(p1, p2, config, FRACTIONAL_TABLE)
                assert columns(trace) == played, (p1.name, p2.name)
                assert trace.totals == totals, (p1.name, p2.name)
                assert all(type(total) is Fraction for total in trace.totals)
                assert (trace.fault1, trace.fault2) == faults, (p1.name, p2.name)

    def test_counting_defector_against_grim(self):
        config = cfg(12)
        trace = run_match(get("CountingDefector", config), get("GRIM", config),
                          config, FRACTIONAL_TABLE)
        # Ten ticks of R, a wait (0 to both), then one of P: 40/3 - 1/6.
        assert trace.totals == (Fraction(79, 6), Fraction(79, 6))

    def test_faulting_programs_fault_on_their_tick(self):
        config = cfg(6)
        opter, bad_register = faulting_programs()
        trace = run_match(opter, bad_register, config, FRACTIONAL_TABLE)
        assert "".join(a.value for a in trace.a1) == "CCWWWW"
        assert "".join(a.value for a in trace.a2) == "DWWWWW"
        assert trace.fault1 == "played O outside OPD mode"
        assert trace.fault2 == "bad compare operand at 2"
        assert trace.totals == (FRACTIONAL_TABLE.S, FRACTIONAL_TABLE.T)

    def test_long_catalog_totals_match_the_plain_loop(self):
        # A match totals by counting action pairs; the plain loop adds
        # every tick's Fraction payoff.
        config = cfg(5000)
        programs = [get(name, config) for name in BUILTIN_NAMES]
        for p1 in programs:
            for p2 in programs:
                totals = run_match(p1, p2, config, FRACTIONAL_TABLE).totals
                assert totals == reference_match(p1, p2, config, FRACTIONAL_TABLE)[1], (
                    p1.name, p2.name)
                assert all(type(total) is Fraction for total in totals)


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
        pays = [payoff(a1, a2, INTRO_TABLE) for a1, a2 in zip(trace.a1, trace.a2)]
        fold1 = sum((pay[0] for pay in pays), Fraction(0))
        fold2 = sum((pay[1] for pay in pays), Fraction(0))
        assert (fold1, fold2) == trace.totals


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

    def test_pay_columns_follow_the_plain_loop(self):
        # The CSV reads each tick's pay from the table's rows by the action
        # pair; the plain loop's columns carry no pay, so it is paid here.
        config = cfg(50)
        programs = [get(name, config) for name in BUILTIN_NAMES] + faulting_programs()
        for p1 in programs:
            for p2 in programs:
                trace = run_match(p1, p2, config, FRACTIONAL_TABLE)
                body = trace_to_csv(trace, config, FRACTIONAL_TABLE).splitlines()[2:]
                expected = []
                played = reference_match(p1, p2, config, FRACTIONAL_TABLE)[0]
                for tick_no, (a1, a2, cost1, cost2) in enumerate(zip(*played), 1):
                    pay1, pay2, _ = payoff(a1, a2, FRACTIONAL_TABLE)
                    expected.append(f"{tick_no},{a1.value},{a2.value},{pay1},{pay2},{cost1},{cost2}")
                assert body == expected, (p1.name, p2.name)
