"""Security level, best response, equilibrium, and ratio analysis tests."""

import hashlib
import itertools
import math
import random as random_module
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd import analysis, dsl, library, population
from boundedpd.analysis import (
    BoundTooLargeError,
    DrawModel,
    FixedOpponentModel,
    PopulationMixModel,
    best_response,
    competitive_ratio,
    enumerate_candidates,
    equilibrium_check,
    estimate_search_size,
    oft_constant,
    security_level,
    unprovoked_defection_tick,
    _play_focal,
)
from boundedpd.game import (
    Action, GameConfig, INTRO_TABLE, Mode, PayoffTable, STRICT_TABLE, counter_width_for,
    legal_actions, payoff_unit, validate_table,
)
from boundedpd.library import BUILTIN_NAMES, get, resolve
from boundedpd.match import run_match, seat_move
from boundedpd.population import run_population
from boundedpd.vm import StrategyProgram, emit, halt, reset
from boundedpd.vm import Opcode

from test_match import retaliator
from test_vm import random_program

#: A valid table whose split and double-wait payoffs are not zero.
SPLIT_TABLE = PayoffTable(T=3, R=2, P=1, S=-1, H=Fraction(-1, 3), Q=Fraction(1, 2), Q_hat=-1)
#: A valid table whose payoffs have denominators 2, 3, 4 and 5.
FRACTIONAL_TABLE = PayoffTable(T=Fraction(5, 2), R=Fraction(4, 3), P=Fraction(-1, 6),
                               S=Fraction(-7, 4), H=Fraction(-1, 5))


def opd(n, q_seed=0, instantaneous=True, t=1):
    return GameConfig(N=n, mode=Mode.OPD, t=t, K=1, k=2,
                      instantaneous_rematch=instantaneous, seed=q_seed)


class _MoreDraws(Exception):
    pass


def draw_sequence_mean(model, program, config, table):
    """The draw model's mean by brute force: every sequence of partner
    draws is played through ``_play_focal`` and weighted by its probability.
    A game that asks for one draw more than its sequence holds is replayed
    once per way of extending it."""
    partners = {True: resolve(model.cooperative, config), False: resolve(model.hostile, config)}
    weights = {True: Fraction(model.q), False: 1 - Fraction(model.q)}
    total = Fraction(0)
    sequences = [()]
    while sequences:
        sequence = sequences.pop()
        draws = iter(sequence)

        def draw():
            cooperative = next(draws, None)
            if cooperative is None:
                raise _MoreDraws
            return partners[cooperative]

        def next_partner(partner, vm):
            partner = draw()
            return partner, reset(partner)

        try:
            first = draw() if model.first_draw is None else resolve(model.first_draw, config)
            payoff = _play_focal(program, first, next_partner, config, table)
        except _MoreDraws:
            sequences += [sequence + (c,) for c in (True, False) if weights[c]]
            continue
        total += math.prod(weights[c] for c in sequence) * payoff
    return total


class TestOftConstant:
    def test_certain_cooperation_with_no_delay(self):
        assert oft_constant(1, 0, INTRO_TABLE) == 3

    def test_quarter_odds_with_two_tick_delay(self):
        assert oft_constant(Fraction(1, 4), 2, INTRO_TABLE) == 20

    def test_zero_sucker_payoff_reduces_to_reward(self):
        table = PayoffTable(T=3, R=2, P=1, S=0, H=-1)
        assert oft_constant(1, 0, table) == table.R

    def test_zero_q_rejected(self):
        with pytest.raises(ValueError):
            oft_constant(0, 0, INTRO_TABLE)

    def test_q_above_one_rejected(self):
        # q is a probability, as in DrawModel.
        with pytest.raises(ValueError, match="at most 1"):
            oft_constant(Fraction(3, 2), 0, INTRO_TABLE)

    def test_negative_delay_rejected(self):
        # r is an expected wait in ticks, as ``analyze --r`` requires.
        with pytest.raises(ValueError, match="r must be at least 0, got -5"):
            oft_constant(1, -5, INTRO_TABLE)

    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=1),
        st.fractions(min_value=Fraction(1, 100), max_value=1),
        st.integers(0, 20), st.integers(0, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_q_and_r(self, q1, q2, r1, r2):
        lo_q, hi_q = sorted((q1, q2))
        lo_r, hi_r = sorted((r1, r2))
        assert oft_constant(lo_q, lo_r, INTRO_TABLE) >= oft_constant(hi_q, lo_r, INTRO_TABLE)
        assert oft_constant(lo_q, hi_r, INTRO_TABLE) >= oft_constant(lo_q, lo_r, INTRO_TABLE)


class TestSecurityLevel:
    def test_all_defectors_grind_each_other_down_exactly(self):
        config = GameConfig(N=10, k=2)
        result = security_level(get("AllD", config), [FixedOpponentModel("AllD")],
                                config, INTRO_TABLE)
        assert result.value == -10 and result.rows[0].exact

    def test_unconditional_cooperation_takes_the_sucker_payoff(self):
        config = GameConfig(N=10, k=2)
        result = security_level(get("AllC", config), [FixedOpponentModel("AllD")],
                                config, INTRO_TABLE)
        assert result.value == -20

    def test_minimum_over_models(self):
        config = GameConfig(N=10, k=2)
        models = [FixedOpponentModel("AllC"), FixedOpponentModel("AllD")]
        result = security_level(get("AllC", config), models, config, INTRO_TABLE)
        assert result.value == -20 and result.model == "all-AllD"
        # The minimum never exceeds any single row's mean.
        assert all(float(result.value) <= float(row.mean) for row in result.rows)

    def test_empty_model_set_rejected(self):
        config = GameConfig(N=10, k=2)
        with pytest.raises(ValueError):
            security_level(get("AllC", config), [], config, INTRO_TABLE)


class TestBestResponse:
    def test_sheltering_beats_fighting_an_unconditional_defector(self):
        # Against AllD on the example table, waiting (0 per tick) beats
        # mutual punishment (P = -1 per tick): the brute force finds the
        # wait shelter, not defection. Defection only wins when P > 0.
        config = GameConfig(N=3, k=2)
        result = best_response(get("AllD", config), config, INTRO_TABLE, size_bound=8)
        assert result.payoff == 0
        assert "play W" in result.source

    def test_defection_wins_against_defectors_when_p_is_positive(self):
        config = GameConfig(N=3, k=2)
        result = best_response(get("AllD", config), config, STRICT_TABLE, size_bound=8)
        assert result.payoff == 3 * STRICT_TABLE.P

    def test_exploiting_an_unconditional_cooperator(self):
        config = GameConfig(N=3, k=2)
        result = best_response(get("AllC", config), config, INTRO_TABLE, size_bound=8)
        assert result.payoff == 6
        assert result.source.splitlines()[1] == "always play D"

    def test_nothing_beats_cooperating_with_grim(self):
        config = GameConfig(N=4, k=2)
        result = best_response(get("GRIM", config), config, INTRO_TABLE, size_bound=8)
        assert result.payoff == 4

    def test_argmax_dominates_the_catalog(self):
        config = GameConfig(N=4, k=2)
        opponent = get("TFT", config)
        result = best_response(opponent, config, INTRO_TABLE, size_bound=8)
        for name in BUILTIN_NAMES:
            if name == "OFT":
                continue  # plays O, which faults in FTPD
            rival = run_match(get(name, config), opponent, config, INTRO_TABLE).total1
            assert result.payoff >= rival

    def test_oversized_bound_is_refused_with_an_estimate(self):
        config = GameConfig(N=4, k=2)
        with pytest.raises(BoundTooLargeError) as err:
            best_response(get("GRIM", config), config, INTRO_TABLE, size_bound=13)
        assert err.value.estimate == 18_707_323
        # The smallest horizon is over the limit too, so no bound above 12 runs.
        assert estimate_search_size(GameConfig(N=1, k=2), 13) == 4_468_735
        assert estimate_search_size(GameConfig(N=1, mode=Mode.OPD, k=2), 13) == 12_699_457

    @pytest.mark.parametrize("size_bound, trials, name", [(0, 100, "size_bound"),
                                                          (6, 0, "trials")])
    def test_counts_below_one_are_refused_by_name(self, size_bound, trials, name):
        config = opd(5)
        for opponent in (get("GRIM", config), DrawModel(q=Fraction(1, 2))):
            with pytest.raises(ValueError, match=name):
                best_response(opponent, config, INTRO_TABLE, size_bound=size_bound,
                              trials=trials)

    def test_a_bound_below_the_smallest_program_is_refused(self):
        # The smallest candidate, "always play C", compiles to 3 instructions.
        config = opd(8)
        assert estimate_search_size(config, 2) == 0 < estimate_search_size(config, 3)
        for opponent in (get("GRIM", config), DrawModel(q=Fraction(1, 2))):
            with pytest.raises(ValueError, match="size_bound 2 admits no candidate program"):
                best_response(opponent, config, INTRO_TABLE, size_bound=2)

    def test_estimate_matches_enumeration(self):
        config = GameConfig(N=3, k=2)
        count = sum(1 for _ in enumerate_candidates(config, 7))
        assert estimate_search_size(config, 7) == count

    @pytest.mark.parametrize("mode", [Mode.FTPD, Mode.OPD])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 12])
    def test_enumeration_needs_no_filter(self, n, mode):
        # Every generated source is distinct and compiles within the bound,
        # so the enumeration neither deduplicates nor re-checks sizes. Each
        # bound's sources are the next bound's cut at the compiled size, in
        # order, so the enumeration's sizes miss no program that fits.
        config = GameConfig(N=n, mode=mode, k=2)
        previous: list[str] = []
        for bound in list(range(1, 7)) + ([7] if n in (3, 9) else []):
            sized = [(program.source, len(program))
                     for program in enumerate_candidates(config, bound)]
            assert [text for text, size in sized if size > bound] == []
            texts = [text for text, _ in sized]
            assert len(set(texts)) == len(texts) == estimate_search_size(config, bound)
            assert [text for text, size in sized if size < bound] == previous
            previous = texts

    def test_search_space_is_pinned(self):
        # sha256 over every printed source, in enumeration order, on a grid
        # of horizons, modes and bounds: a change to how the space is built
        # must yield the same programs in the same order.
        digest = hashlib.sha256()
        count = 0
        for n in (3, 5, 9):
            for mode in (Mode.FTPD, Mode.OPD):
                config = GameConfig(N=n, mode=mode, k=2)
                for bound in range(3, 8):
                    for program in enumerate_candidates(config, bound):
                        digest.update(program.source.encode())
                        count += 1
        assert count == 85_050
        assert digest.hexdigest() == (
            "072852a61b83592b235d39fa2fa049d3e309f3d56198b7176aa3341013dbca09"
        )

    @pytest.mark.parametrize("config", [GameConfig(N=16, k=5),
                                        GameConfig(N=9, mode=Mode.OPD, t=1, K=1, k=4)],
                             ids=["FTPD-16", "OPD-9"])
    def test_thinned_thresholds_lose_no_payoff(self, config, monkeypatch):
        # Above N=8 counters compare against {0..3, N-2, N-1, N} only; every
        # value from 0 to N finds the same best payoff against the catalog.
        # k is the counter's width, so a counter compare finishes within a
        # tick; at k=2 it never does and every threshold ties. Thinning to
        # {0..3, N} loses a point against CountingDefector here.
        def search():
            results = [best_response(get(name, config), config, INTRO_TABLE, size_bound=6)
                       for name in BUILTIN_NAMES]
            return [r.payoff for r in results], results[0].searched

        thinned, thinned_count = search()
        monkeypatch.setattr(analysis, "_counter_thresholds",
                            lambda n: [dsl.ConstInt(v) for v in range(n + 1)])
        full, full_count = search()
        assert full == thinned
        assert full_count > thinned_count

    @pytest.mark.parametrize("config", [GameConfig(N=4, k=2), opd(4)])
    def test_a_program_opponent_is_its_fixed_opponent_model(self, config):
        opponent = get("TFT", config)
        direct = best_response(opponent, config, INTRO_TABLE, size_bound=6)
        modelled = best_response(FixedOpponentModel(opponent), config, INTRO_TABLE,
                                 size_bound=6)
        assert direct == modelled
        assert direct.exact

    def test_draw_model_search_is_pinned(self):
        # The draw model is exact, so its leader is the answer: the same
        # source the sampled search found, at its exact mean.
        config = opd(20)
        model = DrawModel(q=Fraction(1, 2))
        result = best_response(model, config, INTRO_TABLE, size_bound=6, trials=40, seed=3)
        assert result.payoff == Fraction(4097, 256)
        assert result.source == "strategy cand\nif opp != C then play O\nalways play C\n"
        assert result.searched == 716
        assert result.exact is True
        assert draw_sequence_mean(model, result.program, config, INTRO_TABLE) == result.payoff

    def test_a_draw_model_search_compiles_its_partners_once(self, monkeypatch):
        # The named partners are compiled once per search, not once per
        # candidate, and the answer is the argmax of every candidate's
        # exact mean under the model as given.
        compile_, compiles = dsl.compile, []

        def counted(program, config):
            compiles.append(program)
            return compile_(program, config)

        config = opd(12, instantaneous=False, t=2)
        model = DrawModel(q=Fraction(3, 7), first_draw="TFT")
        expected = {bound: min((-model.evaluate(c, config, INTRO_TABLE).mean, c.source)
                               for c in enumerate_candidates(config, bound))
                    for bound in (4, 6)}
        assert estimate_search_size(config, 6) > estimate_search_size(config, 4)
        monkeypatch.setattr(dsl, "compile", counted)
        for bound, best in expected.items():
            compiles.clear()
            result = best_response(model, config, INTRO_TABLE, size_bound=bound)
            assert len(compiles) == 3, bound
            assert (-result.payoff, result.source) == best
            assert result.searched == estimate_search_size(config, bound)
            assert result.exact is True

    def test_a_population_mix_search_compiles_its_roster_once(self, monkeypatch):
        # The roster is compiled once per search, not once per candidate.
        compile_, compiles = dsl.compile, []

        def counted(program, config):
            compiles.append(program)
            return compile_(program, config)

        config = GameConfig(N=6, mode=Mode.OPD, K=2, k=2)
        model = PopulationMixModel(others=("GRIM", "AllD", "TFT"))
        monkeypatch.setattr(dsl, "compile", counted)
        result = best_response(model, config, INTRO_TABLE, size_bound=3, trials=2)
        assert result.searched > 1
        assert len(compiles) == 3

    def test_a_sampled_model_search_is_its_full_trial_argmax(self):
        # Every candidate is scored on the full trial count: the answer is
        # the argmax of the estimates the model itself reports, ties to the
        # smallest source.
        config = GameConfig(N=6, mode=Mode.OPD, K=2, k=2)
        model = PopulationMixModel(others=("GRIM", "AllD", "TFT"))
        result = best_response(model, config, INTRO_TABLE, size_bound=5, trials=10, seed=0)
        scores = [(model.evaluate(c, config, INTRO_TABLE, trials=10, seed=0).mean, c.source)
                  for c in enumerate_candidates(config, 5)]
        payoff, source = min(scores, key=lambda pair: (-pair[0], pair[1]))
        assert (result.payoff, result.source) == (payoff, source)
        assert result.searched == len(scores)
        assert result.exact is False

    @pytest.mark.parametrize("mode", [Mode.FTPD, Mode.OPD])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 12])
    def test_assembled_candidates_are_the_compiled_programs(self, n, mode):
        # The search assembles each candidate from pieces shared across
        # candidates; dsl.compile of its parsed source, with fresh pieces,
        # is the reference. Full equality covers the emit cache's compare
        # targets, s1's start and the gotos into it, and the source text the
        # parser reads back. At N=1 the bounds reach 8, where two-state
        # programs with a counter and several pairing lists appear; the
        # wider counters and the N-offset thresholds of larger N are covered
        # up to bound 6.
        config = GameConfig(N=n, mode=mode, k=2)
        compiled = {}
        for bound in range(1, 9 if n == 1 else 7):
            for program in enumerate_candidates(config, bound):
                if program.source not in compiled:
                    compiled[program.source] = dsl.compile(dsl.parse(program.source), config)
                assert program == compiled[program.source]

    def test_one_search_builds_the_space_once(self, monkeypatch):
        build, builds = analysis._combos_by_counter, []

        def counted(config, size_bound):
            builds.append(size_bound)
            return build(config, size_bound)

        monkeypatch.setattr(analysis, "_combos_by_counter", counted)
        config = GameConfig(N=4, k=2)
        result = best_response(get("GRIM", config), config, INTRO_TABLE, size_bound=6)
        assert builds == [6]
        assert result.searched == estimate_search_size(config, 6)


class TestEquilibriumCheck:
    def test_grim_pair_is_a_cooperative_equilibrium(self):
        config = GameConfig(N=4, k=2)
        grim = get("GRIM", config)
        verdict = equilibrium_check(grim, grim, config, INTRO_TABLE, size_bound=8)
        assert verdict.is_nash and verdict.cooperative
        assert verdict.payoffs == (4, 4)

    def test_a_symmetric_pair_is_searched_once(self, monkeypatch):
        # Player 2's search in a symmetric pair is player 1's, against the
        # same total; a Nash verdict on any other pair needs both.
        config = GameConfig(N=4, k=2)
        searched = []
        search = analysis.best_response

        def counted(opponent, *args, **kwargs):
            searched.append(opponent.name)
            return search(opponent, *args, **kwargs)

        monkeypatch.setattr(analysis, "best_response", counted)
        assert equilibrium_check("GRIM", "GRIM", config, INTRO_TABLE, size_bound=5).is_nash
        assert searched == ["GRIM"]
        searched.clear()
        assert equilibrium_check("GRIM", "TFT", config, INTRO_TABLE, size_bound=5).is_nash
        assert searched == ["TFT", "GRIM"]

    def test_a_narrower_counter_deviation_lies_outside_the_space(self):
        """The known gap of the search space, pinned: at N=4 a 2-bit counter
        counts to N-1, and this deviation fits the bound and beats GRIM's
        4, but the space declares counters at ``counter_width_for(4)`` = 3
        bits only, so the verdict above is Nash."""
        config = GameConfig(N=4, k=2)
        witness = dsl.compile(dsl.parse(
            "strategy witness\ncounter n: 2 bits\n"
            "if n != 3 then play C inc n\nalways play D\n"), config)
        assert (len(witness), witness.worst_tick_cost) == (7, 2)
        assert run_match(witness, get("GRIM", config), config, INTRO_TABLE).total1 == 5
        assert counter_width_for(config.N) == 3

    def test_unconditional_cooperation_is_not_stable(self):
        config = GameConfig(N=4, k=2)
        allc = get("AllC", config)
        verdict = equilibrium_check(allc, allc, config, INTRO_TABLE, size_bound=8)
        assert not verdict.is_nash
        assert verdict.deviation_payoff == 8  # defect every tick for T each

    def test_mutual_defection_is_stable_only_when_p_is_positive(self):
        config = GameConfig(N=4, k=2)
        alld = get("AllD", config)
        # On the example table the wait shelter (0 > 4P) breaks it.
        verdict = equilibrium_check(alld, alld, config, INTRO_TABLE, size_bound=8)
        assert not verdict.is_nash
        # In the P > 0 > H regime backward induction holds and it is Nash.
        verdict = equilibrium_check(alld, alld, config, STRICT_TABLE, size_bound=8)
        assert verdict.is_nash and not verdict.cooperative

    def test_opt_for_tat_pair_is_a_cooperative_equilibrium_in_opd(self):
        # Both totals come from the pool-of-two model the deviations are
        # scored in; the best deviation only cooperates throughout.
        config = opd(6)
        verdict = equilibrium_check("OFT", "OFT", config, INTRO_TABLE, size_bound=6)
        assert verdict.is_nash and verdict.cooperative
        assert verdict.payoffs == (6, 6)
        best = best_response("OFT", config, INTRO_TABLE, size_bound=6)
        assert (best.source, best.payoff) == ("strategy cand\nalways play C\n", 6)

    def test_verdicts_read_as_text(self):
        config = GameConfig(N=5, k=2)
        assert str(equilibrium_check("GRIM", "GRIM", config, INTRO_TABLE, size_bound=5)) == (
            "Nash within bound (cooperative equilibrium), payoffs 5, 5")
        assert str(equilibrium_check("AllC", "AllC", config, INTRO_TABLE, size_bound=5)) == (
            "deviation found for player 1: payoff 10 vs 5")
        verdict = analysis.EquilibriumVerdict(True, False, (Fraction(-4), Fraction(-4)))
        assert str(verdict) == "Nash within bound (equilibrium), payoffs -4, -4"


class TestFixedOpponentModel:
    @given(st.integers(0, 10**9), st.sampled_from([Mode.FTPD, Mode.OPD]),
           st.integers(1, 30), st.integers(1, 3), st.booleans(),
           st.sampled_from([INTRO_TABLE, SPLIT_TABLE, FRACTIONAL_TABLE]))
    @settings(max_examples=100, deadline=None)
    def test_the_mean_is_the_engines_total(self, seed, mode, n, t, instantaneous, table):
        # The engines are the reference: in FTPD the match, in OPD a pool of
        # two that re-pairs the same seats after every split. A split that
        # changes the total needs an opting player and a reactive partner,
        # so each example plays many pairs from a mixed pool. The focal
        # loop the draw model plays through gives the same total.
        rng = random_module.Random(seed)
        config = GameConfig(N=n, mode=mode, t=t, k=rng.choice([2, 4]),
                            instantaneous_rematch=instantaneous)
        pool = [get(name, config) for name in ("OFT", "GRIM", "TFT", "AllC", "AllD", "AllW")]
        pool += [retaliator()] + [random_program(rng) for _ in range(6)]
        for _ in range(12):
            a, b = rng.choice(pool), rng.choice(pool)
            if mode is Mode.FTPD:
                expected = run_match(a, b, config, table).total1
            else:
                trace = run_population([("a", a), ("b", b)], config, table,
                                       initial_pairing=[(0, 1)])
                expected = trace.summaries[0].total
            estimate = FixedOpponentModel(b).evaluate(a, config, table)
            assert estimate.mean == expected and estimate.exact
            assert _pool_of_two_total(a, b, config, table) == expected

    def test_an_invalid_table_is_refused(self):
        config = GameConfig(N=5, k=2)
        with pytest.raises(ValueError, match="T > R"):
            FixedOpponentModel("AllD").evaluate(get("GRIM", config), config,
                                                PayoffTable(T=1, R=1, P=-1, S=-2))

    def test_zero_trials_are_refused(self):
        # Refused as every other model refuses them, though the exact
        # evaluation reads no trial count.
        config = GameConfig(N=8)
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            security_level(get("GRIM", config), [FixedOpponentModel("AllD")], config,
                           INTRO_TABLE, trials=0)


def _catalog_and_test_players(config):
    """The catalog, the retaliator and two random programs, by name."""
    players = {name: get(name, config) for name in BUILTIN_NAMES}
    players["Retaliator"] = retaliator()
    for seed in (1, 2):
        players[f"random-{seed}"] = random_program(random_module.Random(seed))
    return players


_OPPONENT_NAMES = BUILTIN_NAMES + ("Retaliator", "random-1", "random-2")
#: FTPD, then OPD with instantaneous rematch and with a rematch every t ticks.
_REMATCH_SETTINGS = [(Mode.FTPD, False, 1), (Mode.OPD, True, 2),
                     (Mode.OPD, False, 1), (Mode.OPD, False, 2), (Mode.OPD, False, 3)]
_CANDIDATES: dict = {}


def _candidates(config, bound):
    """The enumeration, compiled once per horizon, mode, budget and bound."""
    key = (config.N, config.mode, config.k, bound)
    if key not in _CANDIDATES:
        _CANDIDATES[key] = list(enumerate_candidates(config, bound))
    return _CANDIDATES[key]


def _pool_of_two_total(program, opponent, config, table):
    return _play_focal(program, opponent, lambda partner, vm: (partner, vm), config, table)


class TestPlayTree:
    @pytest.mark.parametrize("setting", range(len(_REMATCH_SETTINGS)))
    @pytest.mark.parametrize("name", _OPPONENT_NAMES)
    def test_leaf_totals_and_search_match_the_focal_loop(self, name, setting):
        # The grid walks N over 3..9, both bounds, both tables and k in
        # {2, 4} as the opponent and rematch setting change, so every value
        # of each meets both modes. The search against the same opponent is
        # then the argmax of these totals, ties to the smallest source.
        mode, instantaneous, t = _REMATCH_SETTINGS[setting]
        step = _OPPONENT_NAMES.index(name) * len(_REMATCH_SETTINGS) + setting
        config = GameConfig(N=3 + step % 7, mode=mode, t=t, K=1, k=(2, 4)[step // 7 % 2],
                            instantaneous_rematch=instantaneous)
        bound, table = 5 + step % 2, (INTRO_TABLE, SPLIT_TABLE)[step // 2 % 2]
        opponent = _catalog_and_test_players(config)[name]
        candidates = _candidates(config, bound)
        expected = [_pool_of_two_total(c, opponent, config, table) for c in candidates]
        assert FixedOpponentModel(opponent).evaluate_all(candidates, config, table) == expected
        best, source = min((-total, c.source) for total, c in zip(expected, candidates))
        result = best_response(opponent, config, table, size_bound=bound)
        assert (result.payoff, result.source, result.searched, result.exact) == (
            -best, source, len(candidates), True)

    def test_chunks_change_nothing_even_across_a_tie(self, monkeypatch):
        # Three candidates tie on the best total against CountingDefector,
        # in different chunks of 7, and the smallest of their sources is
        # not the first of them enumerated.
        config = GameConfig(N=3, k=2)
        opponent = get("CountingDefector", config)
        candidates = _candidates(config, 5)
        totals = FixedOpponentModel(opponent).evaluate_all(candidates, config, INTRO_TABLE)
        tied = [i for i, total in enumerate(totals) if total == max(totals)]
        winner = min(tied, key=lambda i: candidates[i].source)
        assert len({i // 7 for i in tied}) == len(tied) > 1 and winner != tied[0]

        def search(chunk):
            monkeypatch.setattr(analysis, "_TREE_CHUNK", chunk)
            return best_response(opponent, config, INTRO_TABLE, size_bound=5)

        whole = search(len(candidates))
        assert whole.source == candidates[winner].source
        assert search(7) == whole
        assert search(1) == whole

    def test_a_named_opponent_is_its_program(self):
        config = GameConfig(N=5, k=2)
        named = best_response("GRIM", config, INTRO_TABLE, size_bound=5)
        assert named == best_response(get("GRIM", config), config, INTRO_TABLE, size_bound=5)
        verdict = equilibrium_check("GRIM", "GRIM", config, INTRO_TABLE, size_bound=5)
        assert verdict.is_nash and verdict.payoffs == (5, 5)

    def test_an_unknown_name_is_refused(self):
        with pytest.raises(ValueError, match="no builtin or strategy file"):
            best_response("NoSuchStrategy", GameConfig(N=5, k=2), INTRO_TABLE, size_bound=5)


def _root_bound(opponent, config, table):
    """V at the root of the play tree, as a payoff."""
    tree = analysis._PlayTree(opponent, config, table)
    return Fraction(tree.best_values(math.inf)[tree.root], payoff_unit(table))


class TestBranchAndBound:
    @given(st.sampled_from(_OPPONENT_NAMES), st.integers(3, 12),
           st.integers(0, len(_REMATCH_SETTINGS) - 1), st.sampled_from([2, 4]),
           st.sampled_from([INTRO_TABLE, SPLIT_TABLE]))
    @settings(max_examples=30, deadline=None)
    def test_the_root_bound_covers_every_candidate(self, name, n, setting, k, table):
        mode, instantaneous, t = _REMATCH_SETTINGS[setting]
        config = GameConfig(N=n, mode=mode, t=t, K=1, k=k, instantaneous_rematch=instantaneous)
        opponent = _catalog_and_test_players(config)[name]
        bound = _root_bound(opponent, config, table)
        for candidate in _candidates(config, 5):
            assert _pool_of_two_total(candidate, opponent, config, table) <= bound

    @pytest.mark.parametrize("setting", [0, 2, 4])
    def test_the_root_bound_is_the_best_scripted_play(self, setting):
        # Without the instantaneous peek every sequence of focal actions is
        # the play of a script that emits one action per tick, so V at the
        # root, the best over all sequences, is the best script's total.
        mode, instantaneous, t = _REMATCH_SETTINGS[setting]
        config = GameConfig(N=4, mode=mode, t=t, K=1, k=2, instantaneous_rematch=instantaneous)
        scripts = [StrategyProgram("script", tuple(ins for a in plays for ins in (emit(a), halt())))
                   for plays in itertools.product(legal_actions(mode), repeat=config.N)]
        for name, opponent in _catalog_and_test_players(config).items():
            totals = FixedOpponentModel(opponent).evaluate_all(scripts, config, SPLIT_TABLE)
            assert _root_bound(opponent, config, SPLIT_TABLE) == max(totals), name

    @pytest.mark.parametrize("name", ["GRIM", "AllD"])
    def test_pruning_plays_fewer_candidate_ticks(self, name, monkeypatch):
        config = GameConfig(N=8, k=2)
        opponent = get(name, config)
        ticks = []

        def counted(vm, program, opp, own, config):
            if program is not opponent:
                ticks.append(program)
            return seat_move(vm, program, opp, own, config)

        monkeypatch.setattr(analysis, "seat_move", counted)
        FixedOpponentModel(opponent).evaluate_all(_candidates(config, 6), config, INTRO_TABLE)
        unpruned = len(ticks)
        ticks.clear()
        best_response(opponent, config, INTRO_TABLE, size_bound=6)
        assert 0 < len(ticks) < unpruned

    def test_a_long_horizon_is_bounded_without_recursion(self):
        result = best_response("GRIM", GameConfig(N=1500, k=2), INTRO_TABLE, size_bound=4)
        assert (result.payoff, result.source, result.searched) == (
            1500, "strategy cand\nalways play C\n", 67)

    def test_an_opponent_with_too_many_nodes_is_searched_unpruned(self):
        # Counting the focal player's defections, the opponent reaches more
        # nodes than the search requests ticks, so V is not built; the
        # search is still the argmax of the exact totals.
        config = GameConfig(N=60, k=2)
        opponent = dsl.compile(dsl.parse(
            "strategy tally\ncounter n: 6 bits\n"
            "if opp == D then play C inc n\nalways play C\n"), config)
        ticks = estimate_search_size(config, 4) * config.N
        assert analysis._PlayTree(opponent, config, INTRO_TABLE).best_values(ticks) is None
        candidates = list(enumerate_candidates(config, 4))
        totals = FixedOpponentModel(opponent).evaluate_all(candidates, config, INTRO_TABLE)
        best, source = min((-total, c.source) for total, c in zip(totals, candidates))
        result = best_response(opponent, config, INTRO_TABLE, size_bound=4)
        assert (result.payoff, result.source) == (-best, source)


class TestDrawModel:
    def test_one_trial_is_enough_and_none_is_an_error(self):
        # ``trials`` only keeps the shared signature; the exact mean takes one.
        config = opd(10)
        program, model = get("OFT", config), DrawModel(q=Fraction(1, 2))
        estimate = model.evaluate(program, config, INTRO_TABLE, trials=1)
        assert estimate == model.evaluate(program, config, INTRO_TABLE)
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            model.evaluate(program, config, INTRO_TABLE, trials=0)

    def test_split_states_reached_twice_before_a_rematch_add_their_mass(self):
        # The focal counter's 3-bit compare takes two ticks at k=2, so it
        # plays D every other tick, and the waiter opts out on the tick
        # after it sees one: the split comes at a tick that depends on the
        # focal phase. Two draw sequences reach one split state before the
        # same rematch at t=2, and the mean needs both their masses.
        config = GameConfig(N=7, mode=Mode.OPD, t=2, k=2)
        counted = dsl.compile(dsl.parse(
            "strategy counted\ncounter n: 3 bits\nif n != 6 then play D inc n\n"), config)
        waiter = dsl.compile(dsl.parse(
            "strategy waiter\nif opp != W then play O\nalways play W\n"), config)
        model = DrawModel(q=Fraction(1, 2), cooperative=waiter, hostile="OFT")
        mean = model.evaluate(counted, config, INTRO_TABLE).mean
        assert mean == draw_sequence_mean(model, counted, config, INTRO_TABLE) == Fraction(5, 4)

    def test_one_sampled_trial_has_no_standard_error(self):
        config = opd(10)
        estimate = DrawModel(q=Fraction(1, 2)).sample(get("OFT", config), config, INTRO_TABLE,
                                                      trials=1, seed=3)
        assert (estimate.se, estimate.trials, estimate.exact) == (0.0, 1, False)

    def test_estimates_are_pinned(self):
        # sha256 over the sampled (mean, se) on a seeded grid of periods,
        # rematch modes, tables, models and players; recorded before the
        # draw and fixed-opponent models shared one focal-player loop.
        rng = random_module.Random(20261018)
        models = (
            DrawModel(q=Fraction(1, 4)),
            DrawModel(q=Fraction(1, 2), first_draw="AllW"),
            DrawModel(q=Fraction(3, 4), cooperative="OFT", hostile="TFT"),
            DrawModel(q=1, hostile="AllW"),
        )
        digest = hashlib.sha256()
        for t in (1, 2, 3):
            for instantaneous in (True, False):
                config = GameConfig(N=rng.randint(10, 30), mode=Mode.OPD, t=t,
                                    instantaneous_rematch=instantaneous)
                players = [get(name, config) for name in ("OFT", "GRIM", "TFT", "AllC")]
                players += [retaliator(), random_program(rng), random_program(rng)]
                for table in (INTRO_TABLE, SPLIT_TABLE):
                    for model in models:
                        for program in players:
                            est = model.sample(program, config, table, trials=8,
                                               seed=rng.randrange(1000))
                            digest.update(repr((float(est.mean), est.se)).encode())
        assert digest.hexdigest() == (
            "8cd5e805c9f5520742173b2bb489cd4014b18de5781f1b4a879b3a23cbbc0a45"
        )

    @pytest.mark.parametrize("table", [INTRO_TABLE, SPLIT_TABLE])
    @pytest.mark.parametrize("instantaneous", [True, False])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_the_mean_is_the_sum_over_draw_sequences(self, t, instantaneous, table):
        # The brute-force sum over every partner-draw sequence is the
        # reference. Players and partners come from the catalog, a reactive
        # retaliator and random programs.
        rng = random_module.Random(t * 10 + 2 * instantaneous + (table is SPLIT_TABLE))
        for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            for pinned in (False, True):
                config = GameConfig(N=rng.randint(3, 9), mode=Mode.OPD, t=t,
                                    k=rng.randint(2, 4), instantaneous_rematch=instantaneous)
                pool = [get(name, config) for name in BUILTIN_NAMES]
                pool += [retaliator()] + [random_program(rng) for _ in range(3)]
                model = DrawModel(q=q, cooperative=rng.choice(pool), hostile=rng.choice(pool),
                                  first_draw=rng.choice(pool) if pinned else None)
                for program in rng.sample(pool, 2):
                    est = model.evaluate(program, config, table)
                    assert est.exact and est.se == 0 and est.trials == 1
                    assert est.mean == draw_sequence_mean(model, program, config, table)

    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("instantaneous", [True, False])
    @pytest.mark.parametrize("q", [Fraction(3, 7), 0.3, 1])
    def test_fractional_payoffs_match_the_draw_sequences(self, q, instantaneous, pinned):
        # A q whose denominator is not a power of two, a float q (a
        # denominator of 2**54) and certainty, over payoffs whose least
        # common denominator is 60.
        assert validate_table(FRACTIONAL_TABLE) == [] and payoff_unit(FRACTIONAL_TABLE) == 60
        rng = random_module.Random(f"{q}/{instantaneous}/{pinned}")
        for n in (4, 7, 9):
            config = GameConfig(N=n, mode=Mode.OPD, t=1 if instantaneous else 2,
                                k=rng.randint(2, 4), instantaneous_rematch=instantaneous)
            pool = [get(name, config) for name in BUILTIN_NAMES]
            pool += [retaliator()] + [random_program(rng) for _ in range(2)]
            model = DrawModel(q=q, cooperative=rng.choice(pool), hostile=rng.choice(pool),
                              first_draw=rng.choice(pool) if pinned else None)
            for program in rng.sample(pool, 3):
                est = model.evaluate(program, config, FRACTIONAL_TABLE)
                assert est.mean == draw_sequence_mean(model, program, config,
                                                      FRACTIONAL_TABLE)

    def test_a_float_q_is_its_exact_fraction(self):
        config = opd(300)
        for name in ("OFT", "TFT", "GRIM"):
            program = get(name, config)
            for table in (INTRO_TABLE, FRACTIONAL_TABLE):
                est = DrawModel(q=0.3).evaluate(program, config, table)
                assert est.mean == DrawModel(q=Fraction(0.3)).evaluate(
                    program, config, table).mean
                # Taken exactly, 0.3 is not 3/10.
                assert est.mean != DrawModel(q=Fraction(3, 10)).evaluate(
                    program, config, table).mean

    @pytest.mark.parametrize("name", ["OFT", "GRIM"])
    def test_the_exact_mean_lies_in_the_sampled_interval(self, name):
        config = opd(200)
        program = get(name, config)
        model = DrawModel(q=Fraction(1, 2))
        exact = model.evaluate(program, config, INTRO_TABLE)
        sampled = model.sample(program, config, INTRO_TABLE, trials=1000, seed=17)
        assert not sampled.exact
        assert abs(float(exact.mean) - sampled.mean) <= 2.576 * sampled.se

    def test_many_joint_states_stay_exact(self):
        # A counter of opt-outs keeps the focal machines apart, so the joint
        # states grow with the horizon, here past 256. The counter is never
        # tested, so the program plays as the same rules without it.
        config = opd(600)
        counter = dsl.compile(dsl.parse(
            f"strategy opt_counter\ncounter n: {counter_width_for(600)} bits\n"
            "if opp == D then play O inc n\nalways play C\n"), config)
        plain = dsl.compile(dsl.parse(
            "strategy opt_out\nif opp == D then play O\nalways play C\n"), config)
        model = DrawModel(q=Fraction(1, 2))
        est = model.evaluate(counter, config, INTRO_TABLE)
        assert est.exact is True
        assert est.mean == model.evaluate(plain, config, INTRO_TABLE).mean

    @pytest.mark.parametrize("name", ["OFT", "GRIM"])
    @pytest.mark.parametrize("t", [1, 3])
    def test_each_joint_state_is_played_once(self, monkeypatch, name, t):
        # Over 200 ticks the focal player and its partners pass through six
        # joint states between them, so six pair ticks are played. Both
        # names the pair tick is looked up by are counted.
        play, calls = population.play_pair_tick, []

        def counted(*joint_state_and_config):
            calls.append(None)
            return play(*joint_state_and_config)

        for module in (population, analysis):
            monkeypatch.setattr(module, "play_pair_tick", counted)
        config = opd(200, instantaneous=t == 1, t=t)
        DrawModel(q=Fraction(1, 2)).evaluate(get(name, config), config, INTRO_TABLE)
        assert len(calls) == 6

    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_oft_meets_the_security_bound_exactly(self, t, q):
        # N*R - (1/q)((r+1)R - S) with the expected rematch delay
        # r = (t-1)/2: periodic rematches for t > 1, instantaneous at t = 1.
        for n in (50, 100, 200, 300, 400, 500):
            config = opd(n, instantaneous=t == 1, t=t)
            est = DrawModel(q=q).evaluate(get("OFT", config), config, INTRO_TABLE)
            bound = n * INTRO_TABLE.R - oft_constant(q, Fraction(t - 1, 2), INTRO_TABLE)
            assert est.exact and est.mean >= bound, (n, est.mean, bound)

    @pytest.mark.parametrize("q", [0, -Fraction(1, 2), Fraction(3, 2), 2,
                                   Fraction(10**20 + 1, 10**20), Fraction(1, 10**400)])
    def test_q_outside_the_unit_interval_is_refused(self, q):
        # Compared exactly: 1 + 1e-20 is above one, 1e-400 is above zero.
        if 0 < q <= 1:
            assert DrawModel(q=q).q == q
            return
        with pytest.raises(ValueError, match="q must be in"):
            DrawModel(q=q)

    def test_zero_trials_are_refused(self):
        config = opd(5)
        with pytest.raises(ValueError, match="trials"):
            DrawModel(q=Fraction(1, 2)).evaluate(get("OFT", config), config, INTRO_TABLE,
                                                 trials=0)

    def test_an_invalid_table_is_refused(self):
        config = opd(5)
        with pytest.raises(ValueError, match="invalid payoff table"):
            DrawModel(q=Fraction(1, 2)).evaluate(get("OFT", config), config,
                                                 PayoffTable(T=1, R=1, P=-1, S=-2))

    def test_seeded_evaluation_is_reproducible(self):
        config = opd(50)
        oft = get("OFT", config)
        model = DrawModel(q=Fraction(1, 2))
        a = model.evaluate(oft, config, INTRO_TABLE, trials=50, seed=5)
        b = model.evaluate(oft, config, INTRO_TABLE, trials=50, seed=5)
        assert a.mean == b.mean and a.se == b.se

    def test_certain_cooperation_pays_full_reward(self):
        config = opd(40)
        oft = get("OFT", config)
        est = DrawModel(q=1).evaluate(oft, config, INTRO_TABLE, trials=5, seed=0)
        assert est.mean == 40.0

    def test_known_cooperative_partner_beats_a_blind_draw(self):
        # The first-partner draw is the only difference.
        config = opd(60)
        oft = get("OFT", config)
        blind = DrawModel(q=Fraction(1, 2))
        known = DrawModel(q=Fraction(1, 2), first_draw="GRIM")
        trials = 300
        est_blind = blind.evaluate(oft, config, INTRO_TABLE, trials=trials, seed=3)
        est_known = known.evaluate(oft, config, INTRO_TABLE, trials=trials, seed=3)
        assert float(est_known.mean) >= float(est_blind.mean)

    def test_a_known_cooperative_partner_is_worth_four_exactly(self):
        # Criterion 7's comparison, exact: on its config (OPD, N=200,
        # instantaneous rematch, q=1/2) the known GRIM first partner is
        # worth 4 - 2**-98 to OFT over a blind first draw.
        config = opd(200)
        oft = get("OFT", config)
        q = Fraction(1, 2)
        known = DrawModel(q=q, first_draw="GRIM").evaluate(oft, config, INTRO_TABLE).mean
        blind = DrawModel(q=q).evaluate(oft, config, INTRO_TABLE).mean
        assert known - blind == 4 - Fraction(1, 2**98)

    def test_trials_compile_the_named_partners_once(self, monkeypatch):
        get_, gets = library.get, []

        def counted(name, config):
            gets.append(name)
            return get_(name, config)

        config = opd(20)
        oft = get("OFT", config)
        monkeypatch.setattr(library, "get", counted)
        for model, partners in ((DrawModel(q=Fraction(1, 2)), ["GRIM", "AllD"]),
                                (DrawModel(q=Fraction(1, 2), first_draw="GRIM"),
                                 ["GRIM", "AllD", "GRIM"])):
            gets.clear()
            for seed in range(1000):
                model.run_trial(oft, config, INTRO_TABLE, seed)
            assert gets == partners

    def test_opting_out_beats_staying_with_a_waiter(self):
        # A waiting first partner plus a cooperative pool: the opting
        # strategy strictly beats its stay-put variant.
        config = opd(60)
        oft = get("OFT", config)
        stay = get("AllC", config)
        model = DrawModel(q=Fraction(1, 2), first_draw="AllW")
        est_oft = model.evaluate(oft, config, INTRO_TABLE, trials=200, seed=4)
        est_stay = model.evaluate(stay, config, INTRO_TABLE, trials=200, seed=4)
        assert float(est_oft.mean) > float(est_stay.mean) + 10

    def test_periodic_rematch_costs_idle_ticks(self):
        # Expected delay (t-1)/2 shows up as a lower mean than r=0.
        oft_fast = DrawModel(q=Fraction(1, 2))
        oft_slow = DrawModel(q=Fraction(1, 2))
        fast = oft_fast.evaluate(get("OFT", opd(80)), opd(80), INTRO_TABLE,
                                 trials=200, seed=6)
        slow_cfg = opd(80, instantaneous=False, t=5)
        slow = oft_slow.evaluate(get("OFT", slow_cfg), slow_cfg, INTRO_TABLE,
                                 trials=200, seed=6)
        assert float(fast.mean) > float(slow.mean)

    def test_no_test_strategy_beats_the_rematch_cap(self):
        # With cooperative and satisficing partners, nobody clears
        # N*R + (r+1)*T on average.
        config = opd(40)
        cap = float(40 * INTRO_TABLE.R + 1 * INTRO_TABLE.T)
        model = DrawModel(q=Fraction(1, 2), cooperative="GRIM", hostile="OFT")
        for name in ("AllD", "TFT", "OFT", "AllC", "GRIM", "CountingDefector"):
            est = model.evaluate(get(name, config), config, INTRO_TABLE,
                                 trials=60, seed=8)
            assert float(est.mean) <= cap


class TestPopulationMixModel:
    def test_focal_player_mean_over_seeds(self):
        config = GameConfig(N=20, mode=Mode.OPD, t=1, K=2, k=2, seed=0)
        model = PopulationMixModel(others=("GRIM", "GRIM", "AllD"))
        est = model.evaluate(get("OFT", config), config, INTRO_TABLE, trials=30, seed=2)
        assert est.trials == 30 and not est.exact
        a = model.evaluate(get("OFT", config), config, INTRO_TABLE, trials=30, seed=2)
        assert a.mean == est.mean

    def test_zero_trials_are_refused(self):
        config = GameConfig(N=5, mode=Mode.OPD)
        with pytest.raises(ValueError, match="trials"):
            PopulationMixModel(others=("GRIM",)).evaluate(get("OFT", config), config,
                                                          INTRO_TABLE, trials=0)


class TestUnprovokedDefection:
    def test_clean_cooperation_has_no_first_strike(self):
        config = GameConfig(N=5, k=2)
        trace = run_match(get("GRIM", config), get("GRIM", config), config, INTRO_TABLE)
        assert unprovoked_defection_tick(trace, 1) is None

    def test_reaction_on_the_same_tick_counts_as_provoked(self):
        config = GameConfig(N=5, k=2)
        trace = run_match(get("AllD", config), get("TFT", config), config, INTRO_TABLE)
        # TFT defects from tick 2 onward, strictly after AllD's tick-1 move.
        assert unprovoked_defection_tick(trace, 2) is None
        assert unprovoked_defection_tick(trace, 1) == 1

    @pytest.mark.parametrize("player", [0, 3])
    def test_a_player_other_than_1_or_2_is_rejected(self, player):
        config = GameConfig(N=5, k=2)
        trace = run_match(get("AllD", config), get("TFT", config), config, INTRO_TABLE)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            unprovoked_defection_tick(trace, player)


class TestCompetitiveRatio:
    def test_report_fields_and_ratio_bounds(self):
        # The draw model's row is exact; the population mix's is sampled.
        config = opd(60)
        oft = get("OFT", config)
        models = [DrawModel(q=Fraction(1, 2)), PopulationMixModel(others=("GRIM",))]
        report = competitive_ratio(oft, models, config, INTRO_TABLE, trials=20,
                                   size_bound=6, seed=1)
        assert report.security_model == "draw(q=1/2)"
        assert report.competitive_ratio is not None
        assert 0 < report.competitive_ratio <= 1.0
        assert float(report.h) >= float(report.security_level)
        assert report.best_response_gap >= 0
        text = report.to_text()
        assert "security level" in text
        assert f"model draw(q=1/2): mean {float(report.rows[0].mean):.3f} (exact)\n" in text
        assert "model mix(GRIM): mean 60.000 (95% CI 60.000..60.000, n=20)\n" in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == "quantity,value,se"

    def test_ratio_undefined_when_benchmark_is_nonpositive(self):
        # Against a pure waiter every action earns 0, so h = 0.
        config = GameConfig(N=3, k=2)
        allw = get("AllW", config)
        report = competitive_ratio(allw, [FixedOpponentModel("AllW")], config,
                                   INTRO_TABLE, trials=5, size_bound=6)
        assert report.competitive_ratio is None
        assert "undefined" in report.to_text()


    def test_benchmark_searched_against_the_worst_of_same_named_models(self):
        # GRIM earns 3 against AllC and -4 against AllD; the benchmark must
        # come from AllD, where nothing beats waiting (h = 0), not from the
        # first model carrying the shared name, where h = 6.
        config = GameConfig(N=3, k=2)
        models = [FixedOpponentModel(replace(get(opponent, config), name="pal"))
                  for opponent in ("AllC", "AllD")]
        report = competitive_ratio(get("GRIM", config), models, config, INTRO_TABLE,
                                   size_bound=6)
        assert report.security_level == -4
        assert report.h == 0


class TestTheoremFiveAtTheInvariantEdge:
    def test_nothing_beats_grim_at_n_six(self):
        # The largest horizon the desk-scale invariant covers; N=5 runs in
        # the acceptance suite.
        config = GameConfig(N=6, k=2)
        result = best_response(get("GRIM", config), config, INTRO_TABLE, size_bound=8)
        assert result.payoff <= 6 * INTRO_TABLE.R


class TestGroupedWalk:
    """The search walks each chunk's candidates in groups: a group ticks one
    partial program, its members' shared entry rule and epilogue, until a
    tick reads past rule 1, and only then each member's own program."""

    @given(st.sampled_from(_OPPONENT_NAMES), st.integers(3, 9),
           st.integers(0, len(_REMATCH_SETTINGS) - 1), st.sampled_from([2, 3, 4]),
           st.sampled_from([5, 7, 8]), st.sampled_from([INTRO_TABLE, SPLIT_TABLE]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_grouped_total_is_the_focal_loop_total(self, name, n, setting, k, bound,
                                                        table, data):
        # k=2 is below every counter width from N=4 on, so counter compares
        # suspend; a slice of the enumeration keeps its groups whole but for
        # its two ends.
        mode, instantaneous, t = _REMATCH_SETTINGS[setting]
        config = GameConfig(N=n, mode=mode, t=t, K=1, k=k, instantaneous_rematch=instantaneous)
        opponent = _catalog_and_test_players(config)[name]
        space = list(analysis._combos_by_counter(config, bound))
        start = data.draw(st.integers(0, estimate_search_size(config, bound, space) - 1))
        stop = start + data.draw(st.integers(1, 300))
        candidates = list(itertools.islice(enumerate_candidates(config, bound, space), start, stop))
        keys = itertools.islice(analysis._group_keys(space), start, stop)
        tree = analysis._PlayTree(opponent, config, table)
        # With no ticks to spend V is not built, so every total comes back.
        scored = list(analysis._branch_and_bound(tree, iter(candidates), keys, 0,
                                                 payoff_unit(table)))
        assert [candidate for _, candidate in scored] == candidates
        for total, candidate in scored:
            assert total == _pool_of_two_total(candidate, opponent, config, table), candidate.source

    @pytest.mark.parametrize("name, config", [
        ("GRIM", GameConfig(N=5, k=2)),
        ("AllW", GameConfig(N=4, mode=Mode.OPD, k=2, instantaneous_rematch=True)),
    ])
    def test_groups_tick_fewer_machines_for_the_same_totals(self, name, config, monkeypatch):
        # Against AllW in instantaneous OPD every move meets a wait, so a
        # group also splits where its peek at the wait reads past rule 1.
        opponent = get(name, config)
        candidates = list(enumerate_candidates(config, 7))
        ticks = []

        def counted(vm, program, opp, own, config):
            ticks.append(program.name)
            return seat_move(vm, program, opp, own, config)

        monkeypatch.setattr(analysis, "seat_move", counted)
        tree = analysis._PlayTree(opponent, config, INTRO_TABLE)
        keys = analysis._group_keys(analysis._combos_by_counter(config, 7))
        grouped = [total for total, _ in analysis._branch_and_bound(
            tree, iter(candidates), keys, 0, payoff_unit(INTRO_TABLE))]
        partial_ticks, grouped_ticks = ticks.count("partial"), len(ticks)
        ticks.clear()
        alone = FixedOpponentModel(opponent).evaluate_all(candidates, config, INTRO_TABLE)
        assert grouped == alone
        assert 0 < partial_ticks < grouped_ticks < len(ticks)

    def test_a_group_splits_where_its_peek_reads_past_rule_1(self):
        # Every member of a group opens with C, or with D, and goes to s1; in
        # instantaneous OPD the peek at AllW's wait then runs s1, where the
        # members differ, and a member whose s1 opts out answers with O.
        config = GameConfig(N=4, mode=Mode.OPD, k=2, instantaneous_rematch=True)
        opponent = get("AllW", config)
        space = [(decls, [], [(combo0, tails) for combo0, tails in pairs
                              if combo0.pieces[0].text in ("always play C goto s1",
                                                           "always play D goto s1")])
                 for decls, _, pairs in analysis._combos_by_counter(config, 8)]
        candidates = list(enumerate_candidates(config, 8, space))
        tree = analysis._PlayTree(opponent, config, SPLIT_TABLE)
        scored = list(analysis._branch_and_bound(tree, iter(candidates), analysis._group_keys(space),
                                                 0, payoff_unit(SPLIT_TABLE)))
        expected = [_pool_of_two_total(c, opponent, config, SPLIT_TABLE) for c in candidates]
        assert [total for total, _ in scored] == expected
        assert len(candidates) > 1 and len(set(expected)) > 1

    @pytest.mark.parametrize("n, mode, bound", [
        (3, Mode.FTPD, 8), (3, Mode.OPD, 8), (8, Mode.FTPD, 8), (16, Mode.OPD, 7)])
    def test_no_candidate_jumps_to_or_past_its_end(self, n, mode, bound):
        # The premise of the escape: a partial program's jump to its end is
        # the only way a member's tick can finish.
        for program in enumerate_candidates(GameConfig(N=n, mode=mode, k=2), bound):
            size = len(program)
            for ins in program.instructions:
                if ins.opcode is Opcode.JUMP:
                    assert 0 <= ins.target < size, program.source
                elif ins.opcode is Opcode.COMPARE:
                    assert 0 <= ins.on_false < size, program.source
