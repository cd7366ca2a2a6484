"""Payoff, validation, and dominance tests for the core game types."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd.game import (
    Action,
    ConfigError,
    Dominance,
    GameConfig,
    INTRO_TABLE,
    IllegalActionError,
    Mode,
    PayoffTable,
    STRICT_TABLE,
    bit_width,
    cb_bound_bits,
    config_header,
    counter_width_for,
    dominance_check,
    is_dominated,
    legal_actions,
    parse_config_text,
    parse_rational,
    payoff,
    payoff_unit,
    table_from_mapping,
    validate_config,
    validate_table,
)

C, D, W, O = Action.C, Action.D, Action.W, Action.O


def random_valid_tables() -> st.SearchStrategy[PayoffTable]:
    """Tables satisfying T > R > P > S and 2R > T + S, with H <= 0."""

    @st.composite
    def build(draw):
        s = draw(st.integers(-20, 0))
        p = draw(st.integers(s + 1, 10))
        r = draw(st.integers(p + 1, 20))
        t = draw(st.integers(r + 1, r + 30))
        h = draw(st.integers(-10, 0))
        if not 2 * r > t + s:
            t = 2 * r - s - 1  # pull temptation back under the sum bound
        if t <= r:
            t = r + 1
        table = PayoffTable(T=t, R=r, P=p, S=s, H=h)
        if validate_table(table):
            # A raw draw can still be inconsistent; skip those cases.
            return None
        return table

    return build().filter(lambda t: t is not None)


class TestPayoff:
    def test_intro_example_defect_vs_cooperate(self):
        out = payoff(D, C, INTRO_TABLE)
        assert out == (Fraction(2), Fraction(-2), False)

    def test_wait_against_mover_pays_nothing(self):
        for other in (C, D):
            assert payoff(W, other, INTRO_TABLE) == (0, 0, False)
            assert payoff(other, W, INTRO_TABLE) == (0, 0, False)

    def test_double_wait_pays_h(self):
        table = PayoffTable(T=2, R=1, P=-1, S=-2, H=Fraction(-1, 100))
        out = payoff(W, W, table)
        assert out == (Fraction(-1, 100), Fraction(-1, 100), False)

    def test_opt_out_pays_q_to_both_and_splits(self):
        out = payoff(O, D, INTRO_TABLE, Mode.OPD)
        assert out == (0, 0, True)

    def test_opt_out_asymmetric_split(self):
        table = PayoffTable(T=2, R=1, P=-1, S=-2, Q=0, Q_hat=Fraction(-1, 2))
        out = payoff(O, C, table, Mode.OPD, asymmetric_split=True)
        assert out == (0, Fraction(-1, 2), True)
        out = payoff(C, O, table, Mode.OPD, asymmetric_split=True)
        assert out == (Fraction(-1, 2), 0, True)
        out = payoff(O, O, table, Mode.OPD, asymmetric_split=True)
        assert out == (0, 0, True)

    def test_opt_out_illegal_outside_opd(self):
        with pytest.raises(IllegalActionError):
            payoff(O, C, INTRO_TABLE, Mode.FTPD)

    @given(random_valid_tables(),
           st.sampled_from([C, D, W, O]), st.sampled_from([C, D, W, O]))
    def test_swap_symmetry(self, table, a, b):
        left = payoff(a, b, table, Mode.OPD)
        right = payoff(b, a, table, Mode.OPD)
        assert left == (right[1], right[0], right[2])

    def test_plain_cells(self):
        assert payoff(C, C, INTRO_TABLE) == (1, 1, False)
        assert payoff(C, D, INTRO_TABLE) == (-2, 2, False)
        assert payoff(D, D, INTRO_TABLE) == (-1, -1, False)


def fractional_tables() -> st.SearchStrategy[PayoffTable]:
    """Any table of small fractions; the rows do not assume a valid one."""
    value = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.builds(PayoffTable, T=value, R=value, P=value, S=value,
                     H=value, Q=value, Q_hat=value)


def payoff_rule(a, b, table, asymmetric_split):
    """The payoff rule, cell by cell: any O splits and pays Q (a unilateral
    opt-out pays Q_hat to the abandoned partner under the asymmetric rule),
    a double wait pays H, a mixed wait nothing, C/D the classic cells."""
    if O in (a, b):
        if asymmetric_split and a is not b:
            return (table.Q, table.Q_hat, True) if a is O else (table.Q_hat, table.Q, True)
        return (table.Q, table.Q, True)
    cells = {(C, C): (table.R, table.R), (C, D): (table.S, table.T),
             (D, C): (table.T, table.S), (D, D): (table.P, table.P),
             (W, W): (table.H, table.H)}
    pay1, pay2 = cells.get((a, b), (0, 0))
    return (pay1, pay2, False)


class TestOutcomeRows:
    @given(fractional_tables(), st.sampled_from(list(Mode)), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rows_follow_the_payoff_rule(self, table, mode, asymmetric_split):
        rows = table.outcomes[mode, asymmetric_split]
        actions = legal_actions(mode)
        assert set(rows) == {(a, b) for a in actions for b in actions}
        unit = payoff_unit(table)
        for (a, b), (pay1, pay2, split, scaled1, scaled2) in rows.items():
            assert (pay1, pay2, split) == payoff_rule(a, b, table, asymmetric_split)
            assert payoff(a, b, table, mode, asymmetric_split) == (pay1, pay2, split)
            assert type(scaled1) is int and type(scaled2) is int
            assert (Fraction(scaled1, unit), Fraction(scaled2, unit)) == (pay1, pay2)

    @pytest.mark.parametrize("asymmetric_split", [False, True])
    def test_opt_out_has_no_row_outside_opd(self, asymmetric_split):
        for a, b in [(O, C), (C, O), (O, O), (W, O)]:
            assert (a, b) not in INTRO_TABLE.outcomes[Mode.FTPD, asymmetric_split]
            with pytest.raises(IllegalActionError):
                payoff(a, b, INTRO_TABLE, Mode.FTPD, asymmetric_split)

    def test_a_replaced_table_starts_with_fresh_rows(self):
        table = PayoffTable(T=5, R=3, P=1, S=0)
        assert table.outcomes[Mode.FTPD, False][D, C][:2] == (5, 0)
        changed = dataclasses.replace(table, T=Fraction(9, 2))
        assert "outcomes" not in vars(changed)
        assert changed.outcomes[Mode.FTPD, False][D, C] == (Fraction(9, 2), 0, False, 9, 0)

    def test_rows_change_no_equality_hash_or_header(self):
        config = GameConfig(N=5)
        fresh = PayoffTable(T=5, R=3, P=1, S=0)
        used = PayoffTable(T=5, R=3, P=1, S=0)
        header = config_header(used, config)
        assert used.outcomes and "outcomes" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert config_header(used, config) == header == config_header(fresh, config)


class TestValidateTable:
    def test_intro_table_is_valid(self):
        assert validate_table(INTRO_TABLE) == []

    def test_equal_t_and_r_breaks_strict_order(self):
        table = PayoffTable(T=1, R=1, P=-1, S=-2)
        assert "T > R" in validate_table(table)

    def test_temptation_sum_bound(self):
        table = PayoffTable(T=5, R=2, P=1, S=0)
        assert "2R > T + S" in validate_table(table)

    def test_positive_h_flagged(self):
        table = PayoffTable(T=2, R=1, P=-1, S=-2, H=1)
        assert "H <= 0" in validate_table(table)

    def test_every_violation_is_named(self):
        table = PayoffTable(T=0, R=1, P=2, S=3, H=5)
        violations = validate_table(table)
        assert set(violations) == {"T > R", "R > P", "P > S", "2R > T + S", "H <= 0"}

    def test_theorem6_regime(self):
        table = PayoffTable(T=2, R=1, P=1, S=-2, Q=0, Q_hat=Fraction(-1, 10))
        violations = validate_table(table, Mode.OPD, regime="theorem6")
        assert "P >= Q" not in violations
        assert "Q_hat < 0" not in violations
        bad = PayoffTable(T=2, R=1, P=-1, S=-2, Q=1, Q_hat=0)
        violations = validate_table(bad, Mode.OPD, regime="theorem6")
        assert "P >= Q" in violations and "Q_hat < 0" in violations

    def test_theorem7_regime(self):
        table = PayoffTable(T=3, R=2, P=1, S=-1, H=-1, Q=Fraction(1, 2), Q_hat=-1)
        assert validate_table(table, Mode.OPD, regime="theorem7") == []
        # Core-valid, but Q = Q_hat = P and H = 0 break all three strict bounds.
        bad = PayoffTable(T=3, R=2, P=1, S=-1, H=0, Q=1, Q_hat=1)
        assert validate_table(bad, Mode.OPD, regime="theorem7") == ["P > Q", "Q > Q_hat", "H < 0"]
        assert validate_table(bad, Mode.FTPD, regime="theorem7") == [
            "mode == OPD", "P > Q", "Q > Q_hat", "H < 0"]

    def test_theorem6_names_its_mode_and_a_negative_q(self):
        table = PayoffTable(T=2, R=1, P=-1, S=-2, Q=-2, Q_hat=-3)
        assert validate_table(table, Mode.FTPD, regime="theorem6") == ["mode == OPD", "Q >= 0"]

    def test_an_unknown_regime_is_an_error(self):
        with pytest.raises(ValueError, match="unknown regime 'theorem8'"):
            validate_table(INTRO_TABLE, Mode.OPD, regime="theorem8")


def brute_force_dominance(table: PayoffTable, mode: Mode) -> list[Dominance]:
    """Independent oracle: explicit row matrices, no shared code path with
    dominance_check's interior."""
    actions = legal_actions(mode)
    matrix = {}
    for a in actions:
        for b in actions:
            if a is O or b is O:
                matrix[(a, b)] = table.Q
            elif a is W and b is W:
                matrix[(a, b)] = table.H
            elif a is W or b is W:
                matrix[(a, b)] = Fraction(0)
            else:
                matrix[(a, b)] = {
                    (C, C): table.R, (C, D): table.S, (D, C): table.T, (D, D): table.P,
                }[(a, b)]
    records = []
    for x in actions:
        for y in actions:
            if x is y:
                continue
            diffs = [matrix[(y, b)] - matrix[(x, b)] for b in actions]
            if all(d >= 0 for d in diffs) and any(d > 0 for d in diffs):
                records.append(Dominance(x, y, strict=all(d > 0 for d in diffs)))
    return records


class TestDominance:
    def test_wait_strictly_dominated_when_p_positive(self):
        records = dominance_check(STRICT_TABLE)
        assert is_dominated(records, W, by=D, strict=True)

    def test_zero_p_and_h_leaves_wait_undominated_strictly(self):
        # With P = 0 and H = 0 the D and W rows tie against D and W columns.
        table = PayoffTable(T=2, R=1, P=0, S=-2, H=0)
        records = dominance_check(table)
        assert not is_dominated(records, W, by=D, strict=True)
        assert is_dominated(records, W, by=D, strict=False)

    def test_opt_out_weakly_dominated_at_zero_q(self):
        table = PayoffTable(T=3, R=2, P=1, S=-1, H=-1, Q=0, Q_hat=Fraction(-1, 10))
        assert validate_table(table, Mode.OPD, regime="theorem6") == []
        records = dominance_check(table, Mode.OPD)
        assert is_dominated(records, O, by=D, strict=False)
        assert not is_dominated(records, O, by=D, strict=True)

    def test_a_pair_with_no_record_is_not_dominated(self):
        assert not is_dominated([], W, by=D, strict=False)

    @given(random_valid_tables())
    def test_agrees_with_brute_force(self, table):
        for mode in (Mode.FTPD, Mode.OPD):
            got = sorted(
                dominance_check(table, mode),
                key=lambda r: (r.dominated.value, r.dominator.value),
            )
            want = sorted(
                brute_force_dominance(table, mode),
                key=lambda r: (r.dominated.value, r.dominator.value),
            )
            assert got == want


class TestWidths:
    def test_bit_width(self):
        assert bit_width(0) == 1
        assert bit_width(1) == 1
        assert bit_width(6) == 3
        with pytest.raises(ValueError):
            bit_width(-1)

    def test_counter_width(self):
        assert counter_width_for(1000) == 10
        assert counter_width_for(8) == 4
        assert counter_width_for(1) == 1

    def test_cb_bound(self):
        assert cb_bound_bits(10) == 4
        assert cb_bound_bits(8) == 3
        assert cb_bound_bits(5) == 3
        assert cb_bound_bits(4) == 2

    @pytest.mark.parametrize("width", [counter_width_for, cb_bound_bits])
    def test_a_horizon_of_zero_is_an_error(self, width):
        with pytest.raises(ValueError, match="horizon must be positive"):
            width(0)


class TestConfig:
    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            GameConfig(N=0)
        with pytest.raises(ValueError):
            GameConfig(N=10, k=1)
        with pytest.raises(ValueError):
            GameConfig(N=10, t=0, mode=Mode.OPD)

    def test_a_pair_count_of_zero_is_an_error(self):
        with pytest.raises(ValueError, match="pair count K must be at least 1"):
            GameConfig(N=10, K=0)

    def test_a_mode_given_by_its_name_becomes_the_mode(self):
        config = GameConfig(N=10, mode="OPD")
        assert config.mode is Mode.OPD and config == GameConfig(N=10, mode=Mode.OPD)

    def test_cb_bound_is_soft(self):
        # Small horizons outside the budget bound still construct; the
        # validator names the violated constraint.
        config = GameConfig(N=4, k=2)
        assert validate_config(config) == ["k < ceil(log2 N)"]
        assert validate_config(GameConfig(N=10, k=2)) == []

    def test_rational_parsing(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("0.1") == Fraction(1, 10)
        assert parse_rational("1e-3") == Fraction(1, 1000)
        with pytest.raises(ValueError):
            parse_rational("x")
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("3/0")

    def test_config_text_roundtrip(self):
        table = PayoffTable(T=2, R=1, P=-1, S=-2, H=Fraction(-1, 100), Q_hat=Fraction(-1, 10))
        text = "# a table file\n" + "".join(
            f"{key}={value}\n" for key, value in table.as_mapping().items())
        assert table_from_mapping(parse_config_text(text)) == table

    def test_config_text_errors(self):
        with pytest.raises(ConfigError):
            parse_config_text("unknown=3")
        with pytest.raises(ConfigError, match="duplicate key 'T'"):
            parse_config_text("T=3\nT=4")
        with pytest.raises(ConfigError):
            parse_config_text("bogus line")
        # The run parameters come from the CLI flags, never from a table file.
        with pytest.raises(ConfigError) as info:
            parse_config_text("T=2\nN=50\nmode=OPD\n")
        assert str(info.value) == ("not payoff table keys: N, mode "
                                   "(a table file takes T,R,P,S,H,Q,Q_hat)")

    def test_an_empty_value_names_its_line_and_key(self):
        with pytest.raises(ConfigError, match="line 2: empty value for 'T'"):
            parse_config_text("R=1\nT=\n")
