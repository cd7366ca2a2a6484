"""Security level, best response, equilibrium, and ratio analysis tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
)
from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode, PayoffTable, STRICT_TABLE
from boundedpd.library import BUILTIN_NAMES, get
from boundedpd.match import run_match


def opd(n, q_seed=0, instantaneous=True, t=1):
    return GameConfig(N=n, mode=Mode.OPD, t=t, K=1, k=2,
                      instantaneous_rematch=instantaneous, seed=q_seed)


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
        assert err.value.estimate > 0

    def test_estimate_matches_enumeration(self):
        config = GameConfig(N=3, k=2)
        count = sum(1 for _ in enumerate_candidates(config, 7))
        assert estimate_search_size(config, 7) == count


class TestEquilibriumCheck:
    def test_grim_pair_is_a_cooperative_equilibrium(self):
        config = GameConfig(N=4, k=2)
        grim = get("GRIM", config)
        verdict = equilibrium_check(grim, grim, config, INTRO_TABLE, size_bound=8)
        assert verdict.is_nash and verdict.cooperative
        assert verdict.payoffs == (4, 4)

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


class TestDrawModel:
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
        # Paired seeds; the first-partner draw is the only difference.
        config = opd(60)
        oft = get("OFT", config)
        blind = DrawModel(q=Fraction(1, 2))
        known = DrawModel(q=Fraction(1, 2), first_draw="GRIM")
        trials = 300
        est_blind = blind.evaluate(oft, config, INTRO_TABLE, trials=trials, seed=3)
        est_known = known.evaluate(oft, config, INTRO_TABLE, trials=trials, seed=3)
        assert float(est_known.mean) >= float(est_blind.mean)

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


class TestCompetitiveRatio:
    def test_report_fields_and_ratio_bounds(self):
        config = opd(60)
        oft = get("OFT", config)
        report = competitive_ratio(oft, [DrawModel(q=Fraction(1, 2))], config,
                                   INTRO_TABLE, trials=120, size_bound=6, seed=1)
        assert report.competitive_ratio is not None
        assert 0 < report.competitive_ratio <= 1.0
        assert float(report.h) >= float(report.security_level)
        assert report.best_response_gap >= 0
        text = report.to_text()
        assert "security level" in text and "95% CI" in text
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
        models = [FixedOpponentModel("AllC", name="pal"), FixedOpponentModel("AllD", name="pal")]
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
