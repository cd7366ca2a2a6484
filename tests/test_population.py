"""Opting-out population engine tests."""

import random as random_module
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd import population
from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode, PayoffTable, payoff
from boundedpd.library import get
from boundedpd.population import (
    JointStates,
    OpdTrace,
    PopulationState,
    PlayerSummary,
    RematchEvent,
    expected_rematch_delay,
    parse_population_spec,
    play_pair_tick,
    rematch,
    run_population,
    summary_to_csv,
    trace_to_csv,
)
from boundedpd.vm import reset, tick
from test_match import tracked_objects_kept
from test_vm import random_program

C, D, W, O = Action.C, Action.D, Action.W, Action.O


def opd_config(n: int, t: int = 1, k: int = 2, seed: int = 0,
               instantaneous: bool = False, pairs: int = 1) -> GameConfig:
    return GameConfig(N=n, mode=Mode.OPD, t=t, K=pairs, k=k,
                      instantaneous_rematch=instantaneous, seed=seed)


def roster(config, *names):
    return [(name, get(name, config)) for name in names]


def columns(trace):
    return trace.tick, trace.first, trace.second, trace.a1, trace.a2


def split_ticks(trace):
    """The ticks of the rows on which a pair split, in order."""
    return [tick for tick, a1, a2 in zip(trace.tick, trace.a1, trace.a2)
            if trace.rows[a1, a2][2]]


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
        assert split_ticks(trace) and all(tick == 2 for tick in split_ticks(trace) if tick <= 2)
        # Both OFTs are the first seats of the pairs they split on tick 2.
        assert {a1 for tick, first, _, a1, _ in zip(*columns(trace))
                if tick == 2 and first in (0, 1)} == {O}

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

    @pytest.mark.parametrize("pairing", [[(0, 1, 2, 3)], [(0,), (1,), (2, 3)]])
    def test_an_initial_pairing_entry_must_be_a_pair(self, pairing):
        # Both cover every player once, but not in pairs.
        config = opd_config(5, pairs=2)
        with pytest.raises(ValueError, match="^initial pairing must cover every player exactly once$"):
            run_population(roster(config, "OFT", "OFT", "AllD", "AllD"), config, INTRO_TABLE,
                           initial_pairing=pairing)

    @pytest.mark.parametrize("oft_seat", [0, 1])
    def test_asymmetric_split_pays_the_abandoned_partner_q_hat(self, oft_seat):
        # OFT is exploited on tick 1 and opts out on tick 2: the opter is
        # paid Q and the abandoned defector Q_hat, whichever seat each holds.
        config = opd_config(2)
        table = replace(INTRO_TABLE, Q_hat=Fraction(-1, 2))
        names = ["AllD", "AllD"]
        names[oft_seat] = "OFT"
        trace = run_population(roster(config, *names), config, table,
                               initial_pairing=[(0, 1)], asymmetric_split=True)
        assert split_ticks(trace) == [2] and trace.tick == [1, 2]
        actions = (trace.a1[1], trace.a2[1])
        pays = payoff(*actions, table, Mode.OPD, asymmetric_split=True)
        assert (actions[oft_seat], pays[oft_seat]) == (O, table.Q)
        assert (actions[1 - oft_seat], pays[1 - oft_seat]) == (D, table.Q_hat)
        totals = trace.totals()
        assert totals[oft_seat] == table.S + table.Q
        assert totals[1 - oft_seat] == table.T + table.Q_hat

    def test_rule3_split_pays_q_and_pools_the_pair(self):
        # Every split tick pays Q to both members, and neither member plays
        # again before a rematch event re-pairs them.
        config = opd_config(12, t=3, seed=5, pairs=2)
        players = roster(config, "OFT", "OFT", "AllD", "AllD")
        trace = run_population(players, config, INTRO_TABLE,
                               initial_pairing=[(0, 2), (1, 3)])
        rows = list(zip(*columns(trace)))
        for split_tick, first, second, a1, a2 in rows:
            pay1, pay2, split = payoff(a1, a2, INTRO_TABLE, Mode.OPD)
            if not split:
                continue
            assert pay1 == pay2 == INTRO_TABLE.Q
            for pid in (first, second):
                next_plays = [tick for tick, *seats, _, _ in rows
                              if pid in seats and tick > split_tick]
                rematches = [
                    e.tick for _, e in trace.rematches
                    if e.tick >= split_tick and any(pid in pair for pair in e.pairings)
                ]
                if next_plays:
                    assert rematches and rematches[0] < next_plays[0]

    def test_conservation_of_payoffs(self):
        config = opd_config(20, t=2, seed=9, pairs=3)
        players = roster(config, "OFT", "OFT", "AllD", "GRIM", "TFT", "AllC")
        trace = run_population(players, config, INTRO_TABLE)
        paid = sum((sum(payoff(a1, a2, INTRO_TABLE, Mode.OPD)[:2])
                    for a1, a2 in zip(trace.a1, trace.a2)), Fraction(0))
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
        assert rematch([4, 9], random_module.Random(0)) == ((4, 9),)

    def test_pool_of_four_is_reproducible(self):
        a = rematch([0, 1, 2, 3], random_module.Random(42))
        b = rematch([0, 1, 2, 3], random_module.Random(42))
        assert a == b
        all_pairs = {frozenset(p) for p in a}
        options = [{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}]
        assert all_pairs <= {frozenset(x) for x in options}

    def test_matchings_cover_all_three_options(self):
        seen = set()
        for seed in range(60):
            pairs = rematch([0, 1, 2, 3], random_module.Random(seed))
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
            split_tick = split_ticks(trace)[0]
            assert split_tick == j + 1
            rematch_tick = min(e.tick for _, e in trace.rematches if e.tick >= split_tick)
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
        assert split_ticks(slow)[0] == 2
        assert split_ticks(fast)[0] == 1

    def test_peek_does_not_advance_non_opting_programs(self):
        # GRIM facing a waiter must behave identically with and without the
        # allowance: the peek commits only when it produces an O.
        for instantaneous in (False, True):
            config = opd_config(6, instantaneous=instantaneous)
            trace = run_population(roster(config, "GRIM", "AllW"), config,
                                   INTRO_TABLE, initial_pairing=[(0, 1)])
            assert "".join(a.value for a in trace.a1) == "CDDDDD"  # player 0's

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
        assert (trace.tick[0], trace.a2[0]) == (1, O) and split_ticks(trace)[0] == 1

    def test_no_peek_outside_opd(self):
        # FTPD has no O to react with: OFT keeps its C on tick 1, and its
        # opt-out on tick 2 is a fault.
        config = GameConfig(N=3, instantaneous_rematch=True)
        oft, waiter = get("OFT", config), get("AllW", config)
        vm1, a1, vm2, a2 = reset(oft), None, reset(waiter), None
        pairs = []
        for _ in range(3):
            vm1, a1, vm2, a2 = play_pair_tick(oft, vm1, a1, waiter, vm2, a2, config)
            pairs.append((a1, a2))
        assert [a1 for a1, _ in pairs] == [C, W, W]
        assert not any(payoff(a1, a2, INTRO_TABLE)[2] for a1, a2 in pairs)
        assert vm1.fault_reason == "played O outside OPD mode"

    def test_double_wait_pairs_do_not_peek(self):
        config = opd_config(5, instantaneous=True)
        trace = run_population(roster(config, "AllW", "AllW"), config, INTRO_TABLE,
                               initial_pairing=[(0, 1)])
        assert trace.a1 == trace.a2 == [W] * 5
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

    def test_a_broken_strategy_file_is_reported_at_its_own_position(self, tmp_path):
        bad = tmp_path / "bad.pdstrat"
        bad.write_text("strategy Bad\nalways play C\nif opp == D then play Z\n")
        with pytest.raises(ValueError) as err:
            parse_population_spec("1 x GRIM\n1 x bad.pdstrat\n", opd_config(10),
                                  base_dir=tmp_path)
        assert str(err.value) == f"line 2: {bad}:3:23: expected action, got 'Z'"

    def test_summary_csv_shape(self):
        config = opd_config(4)
        trace = run_population(roster(config, "GRIM", "GRIM"), config, INTRO_TABLE)
        lines = summary_to_csv(trace).splitlines()
        assert lines[0] == "player,strategy,payoff,opt_outs,unpaired_ticks"
        assert lines[1] == "0,GRIM,4,0,0"


class TestColumns:
    def test_a_trace_keeps_no_object_per_tick(self):
        # Nobody here opts out, so the only rematch event is the first division.
        def kept(n):
            config = opd_config(n, pairs=4)
            players = roster(config, "GRIM", "TFT", "AllD", "AllC", "GRIM", "AllD", "TFT", "AllW")
            return tracked_objects_kept(lambda: run_population(players, config, INTRO_TABLE))

        assert kept(50) == kept(500)

    def test_csv_lines_follow_the_plain_loop(self):
        config = opd_config(60, t=3, seed=5, pairs=4)
        players = roster(config, "OFT", "OFT", "OFT", "OFT", "AllD", "AllD", "AllW", "GRIM")
        trace = run_population(players, config, SPLIT_TABLE)
        expected = reference_population(players, config, SPLIT_TABLE, False, False)[2]
        kinds = {line.split(",")[1] for line in expected}
        assert kinds == {"play", "split", "rematch"}
        assert trace_to_csv(trace, config, SPLIT_TABLE).splitlines()[2:] == expected


class TestJointStates:
    def test_each_joint_state_is_played_once(self, monkeypatch):
        # Two GRIM pairs sharing one program, as a spec's ``4 x GRIM`` does,
        # repeat a few joint states for 1 000 ticks: the pair tick runs once
        # for each, not 2 000 times.
        play, played = population.play_pair_tick, []

        def counted(program1, vm1, last1, program2, vm2, last2, config):
            played.append((id(program1), vm1, last1, id(program2), vm2, last2))
            return play(program1, vm1, last1, program2, vm2, last2, config)

        config = opd_config(1000, pairs=2)
        players = [("GRIM", get("GRIM", config))] * 4
        monkeypatch.setattr(population, "play_pair_tick", counted)
        trace = run_population(players, config, INTRO_TABLE)
        assert trace.totals() == (1000,) * 4
        assert len(played) == len(set(played)) <= 4

    def test_two_grims_play_at_most_three_joint_states(self, monkeypatch):
        # One pairing of two GRIMs: its first tick, its second, and from
        # then on one joint state that leads to itself.
        play, calls = population.play_pair_tick, []

        def counted(*joint_state_and_config):
            calls.append(None)
            return play(*joint_state_and_config)

        config = opd_config(1000)
        monkeypatch.setattr(population, "play_pair_tick", counted)
        trace = run_population(roster(config, "GRIM", "GRIM"), config, INTRO_TABLE)
        assert trace.totals() == (1000, 1000)
        assert len(calls) <= 3

    def test_a_table_numbers_each_state_once_and_plays_it_once(self, monkeypatch):
        # OFT meets AllD: C against D, then OFT opts out. Equal states share
        # a number, each move is played once, and the split's next state
        # holds both machines, which the players get back.
        play, calls = population.play_pair_tick, []

        def counted(*joint_state_and_config):
            calls.append(None)
            return play(*joint_state_and_config)

        monkeypatch.setattr(population, "play_pair_tick", counted)
        config = opd_config(10, t=5)
        oft, alld = get("OFT", config), get("AllD", config)
        rows = INTRO_TABLE.outcomes[Mode.OPD, False]
        joint_states = JointStates([oft, alld], config, rows)
        start = joint_states.number((0, reset(oft), None, 1, reset(alld), None))
        assert joint_states.number((0, reset(oft), None, 1, reset(alld), None)) == start
        assert joint_states.number((1, reset(alld), None, 0, reset(oft), None)) != start
        assert joint_states.moves[start] is None
        move = joint_states.play(start)
        assert joint_states.moves[start] == move and move[1:] == (C, D, False)
        assert len(calls) == 1

        state = PopulationState(joint_states, [0, 1], [reset(oft), reset(alld)],
                                random_module.Random(0))
        state.pair(0, 1)
        assert state.joint == [start]
        trace = OpdTrace(rows=rows)
        population.population_step(state, config, trace)
        assert len(calls) == 1 and state.joint == [move[0]]
        population.population_step(state, config, trace)
        assert len(calls) == 2
        after, a1, a2, split = joint_states.moves[move[0]]
        assert (a1, a2, split) == (O, D, True)
        assert (trace.a1, trace.a2) == ([C, O], [D, D])
        assert state.joint == [] and state.pool == [0, 1]
        program1, vm1, last1, program2, vm2, last2 = joint_states.states[after]
        assert (program1, last1, program2, last2) == (0, O, 1, D)
        assert state.vms == [vm1, vm2] and vm1 != reset(oft)

    @pytest.mark.parametrize("seed", range(4))
    def test_programs_with_equal_machines_are_told_apart(self, seed):
        # AllC and AllD pass through equal VmStates and see equal views, so
        # only the program tells apart the joint states of their pairings.
        config = opd_config(8, t=2, seed=seed, pairs=3)
        allc, alld = get("AllC", config), get("AllD", config)
        players = [("AllC", allc), ("AllD", alld)] * 3
        trace = run_population(players, config, SPLIT_TABLE)
        played, rematches, _, summaries = reference_population(
            players, config, SPLIT_TABLE, False, False)
        assert columns(trace) == played
        assert trace.rematches == rematches
        assert trace.summaries == summaries


#: A table where every pair the opting-out game can play pays something
#: distinct: nonzero H, Q and Q_hat, with denominators 2, 3 and 4.
SPLIT_TABLE = PayoffTable(T=3, R=2, P=1, S=-1, H=Fraction(-1, 3), Q=Fraction(1, 2),
                          Q_hat=Fraction(-3, 4))


def reference_population(programs, config, table, asymmetric_split, unpaired_pay_qhat,
                         initial_pairing=None):
    """The population semantics written out plainly against ``vm.tick``.

    Each pair keeps one view, the ``(a1, a2)`` it played on its last tick.
    Both members tick against that view; in instantaneous mode a member
    that completed C or D while its partner waited ticks once more against
    ``(W, own)`` and keeps the result only if it is O. Pairs play in the
    order of their smaller id, and a rematch event pairs the sorted pool.
    A given initial pairing replaces the first rematch: its event lists the
    pairs in the order given, each lower id first.

    Returns what was played, as the columns ``(tick, first, second, a1,
    a2)``; the rematch events, each with the number of rows before it; the
    population CSV's lines after its two header lines, written as the loop
    goes; and the players' summaries.
    """
    n = len(programs)
    rng = random_module.Random(config.seed)
    vms = [reset(program) for _, program in programs]
    partner: list[int | None] = [None] * n
    view: dict[tuple[int, int], tuple[Action, Action] | None] = {}
    totals, opt_outs, unpaired = [Fraction(0)] * n, [0] * n, [0] * n
    played, rematches, lines = ([], [], [], [], []), [], []

    def record_rematch(now, pairs):
        rematches.append((len(played[0]), RematchEvent(now, pairs)))
        lines.extend(f"{now},rematch,{a},{b},," for a, b in pairs)

    def rematch_pool(now):
        pool = sorted(pid for pid in range(n) if partner[pid] is None)
        if len(pool) < 2:
            return
        pairs = rematch(pool, rng)
        for a, b in pairs:
            partner[a], partner[b] = b, a
            view[a, b] = None
        record_rematch(now, pairs)

    def peek(pid, vm, action, other):
        if action in (C, D) and other is W:
            peek_vm, peek_action = tick(vm, programs[pid][1], W, action, config.k)
            if peek_action is O:
                return peek_vm, O
        return vm, action

    if initial_pairing is None:
        rematch_pool(0)
    else:
        pairs = tuple((min(a, b), max(a, b)) for a, b in initial_pairing)
        for a, b in pairs:
            partner[a], partner[b] = b, a
            view[a, b] = None
        record_rematch(0, pairs)
    for now in range(1, config.N + 1):
        for pid in range(n):
            if partner[pid] is None:
                unpaired[pid] += 1
                if unpaired_pay_qhat:
                    totals[pid] += table.Q_hat
        for a, b in [(pid, partner[pid]) for pid in range(n)
                     if partner[pid] is not None and pid < partner[pid]]:
            last = view[a, b] or (None, None)
            vm1, a1 = tick(vms[a], programs[a][1], last[1], last[0], config.k)
            vm2, a2 = tick(vms[b], programs[b][1], last[0], last[1], config.k)
            if config.instantaneous_rematch:
                (vm1, a1), (vm2, a2) = peek(a, vm1, a1, a2), peek(b, vm2, a2, a1)
            vms[a], vms[b] = vm1, vm2
            pay1, pay2, split = payoff(a1, a2, table, Mode.OPD, asymmetric_split)
            totals[a] += pay1
            totals[b] += pay2
            if split:
                opt_outs[a] += a1 is O
                opt_outs[b] += a2 is O
                partner[a] = partner[b] = None
            else:
                view[a, b] = (a1, a2)
            for column, value in zip(played, (now, a, b, a1, a2)):
                column.append(value)
            kind = "split" if split else "play"
            lines += [f"{now},{kind},{a},{b},{a1.value},{pay1}",
                      f"{now},{kind},{b},{a},{a2.value},{pay2}"]
        if config.instantaneous_rematch or now % config.t == 0:
            rematch_pool(now)
    summaries = tuple(PlayerSummary(pid, programs[pid][0], totals[pid], opt_outs[pid],
                                    unpaired[pid]) for pid in range(n))
    return played, rematches, lines, summaries


@given(seed=st.integers(0, 10**9), randoms=st.integers(2, 6), n=st.integers(1, 30),
       t=st.sampled_from([1, 2, 3]), instantaneous=st.booleans(),
       asymmetric_split=st.booleans(), unpaired_pay_qhat=st.booleans(), k=st.integers(2, 4),
       paired=st.booleans())
@settings(max_examples=150, deadline=None)
def test_run_population_is_the_plain_loop(seed, randoms, n, t, instantaneous, asymmetric_split,
                                          unpaired_pay_qhat, k, paired):
    """Random programs (which emit O and W too) among OFT, GRIM and AllW,
    and a second OFT when the count would be odd. When ``paired``, the run
    starts from a drawn pairing, its pairs in shuffled order and some of
    them listed higher id first."""
    rng = random_module.Random(seed)
    names = ["OFT", "GRIM", "AllW"] + ["OFT"] * (randoms % 2 == 0)
    config = GameConfig(N=n, mode=Mode.OPD, t=t, K=(randoms + len(names)) // 2, k=k,
                        instantaneous_rematch=instantaneous, seed=seed)
    players = roster(config, *names) + [
        (f"fuzz{i}", random_program(rng)) for i in range(randoms)]
    rng.shuffle(players)
    initial_pairing = None
    if paired:
        ids = list(range(len(players)))
        rng.shuffle(ids)
        initial_pairing = [(ids[i], ids[i + 1]) if rng.random() < 0.5 else (ids[i + 1], ids[i])
                           for i in range(0, len(ids), 2)]
    trace = run_population(players, config, SPLIT_TABLE, initial_pairing=initial_pairing,
                           asymmetric_split=asymmetric_split, unpaired_pay_qhat=unpaired_pay_qhat)
    played, rematches, lines, summaries = reference_population(
        players, config, SPLIT_TABLE, asymmetric_split, unpaired_pay_qhat, initial_pairing)
    assert columns(trace) == played
    assert trace.rematches == rematches
    assert trace.summaries == summaries
    assert trace_to_csv(trace, config, SPLIT_TABLE).splitlines()[2:] == lines


def test_a_bad_count_is_quoted_in_its_message():
    with pytest.raises(population.PopulationSpecError, match=r"^line 2: bad count 'two'$"):
        parse_population_spec("1 x GRIM\ntwo x GRIM\n", opd_config(10))
