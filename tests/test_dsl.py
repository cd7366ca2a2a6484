"""Parser, printer, and compiler tests for the strategy language."""

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd.dsl import (
    ConstInt,
    DslError,
    Goto,
    HorizonMinus,
    Play,
    Rule,
    compile as compile_source,
    parse,
    print_source,
    try_parse,
)
from boundedpd.game import Action, GameConfig, counter_width_for
from boundedpd.library import BUILTIN_NAMES, source_text
from boundedpd.vm import Opcode, reset, tick, Observation

CFG = GameConfig(N=10, k=2)

GRIM_TEXT = """\
strategy GRIM
if opp != C then play D goto punish
always play C
punish: always play D
"""


class TestParse:
    def test_grim_shape(self):
        src = parse(GRIM_TEXT)
        assert src.name == "GRIM"
        assert len(src.rules) == 3
        assert src.rules[0].guard[0].field == "opp"
        assert isinstance(src.rules[0].stmts[-1], Goto)
        assert src.rules[2].label == "punish"

    def test_empty_input_error_at_origin(self):
        with pytest.raises(DslError) as err:
            parse("")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_width_cap_diagnostic(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\ncounter i: 40 bits\nalways play C")
        assert "outside 1..32" in err.value.message

    def test_duplicate_counter(self):
        text = "strategy X\ncounter i: 2 bits\ncounter i: 3 bits\nalways play C"
        with pytest.raises(DslError) as err:
            parse(text)
        assert "duplicate counter" in err.value.message

    def test_unknown_field(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\nif them == C then play C")
        assert "unknown field" in err.value.message

    def test_unknown_goto_label(self):
        with pytest.raises(DslError):
            parse("strategy X\nalways play C goto nowhere")

    def test_unknown_goto_label_is_reported_at_the_label(self):
        with pytest.raises(DslError) as err:
            parse("strategy x\nalways play C\nalways goto nowhere\n")
        assert str(err.value) == "3:13: goto to unknown label 'nowhere'"

    def test_goto_must_be_last(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\nloop: always goto loop play C")
        assert "goto must be the last" in err.value.message

    def test_one_play_per_rule(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\nalways play C play D")
        assert "at most once" in err.value.message

    def test_ordering_comparison_on_actions_rejected(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\nif opp >= C then play C")
        assert "ordering comparison" in err.value.message

    def test_counter_vs_action_value_rejected(self):
        text = "strategy X\ncounter i: 2 bits\nif i == C then play C"
        with pytest.raises(DslError) as err:
            parse(text)
        assert "integers only" in err.value.message

    def test_action_field_vs_integer_rejected(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\nif opp == 3 then play C")
        assert "actions only" in err.value.message

    def test_declarations_must_precede_rules(self):
        text = "strategy X\nalways play C\ncounter i: 2 bits"
        with pytest.raises(DslError) as err:
            parse(text)
        assert "precede rules" in err.value.message

    def test_horizon_expression(self):
        text = "strategy X\ncounter i: 4 bits\nif i >= N-2 then play D inc i\nalways play C inc i"
        src = parse(text)
        value = src.rules[0].guard[0].value
        assert isinstance(value, HorizonMinus) and value.offset == 2

    def test_comments_and_blank_lines(self):
        text = "# header\nstrategy X\n\n# rule\nalways play C  # trailing\n"
        src = parse(text)
        assert len(src.rules) == 1

    def test_error_positions_are_one_based(self):
        with pytest.raises(DslError) as err:
            parse("strategy X\nif opp == C then")
        assert err.value.line == 2

    def test_try_parse_returns_diagnostic(self):
        tree, diag = try_parse("strategy X\nplay")
        assert tree is None and diag is not None
        assert diag.with_file("f.pdstrat").startswith("f.pdstrat:2:")


class TestRoundtrip:
    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES])
    def test_builtins_reach_print_fixpoint(self, name):
        src = parse(source_text(name, CFG))
        printed = print_source(src)
        assert parse(printed) == src
        assert print_source(parse(printed)) == printed

    def test_whitespace_and_comments_normalize(self):
        messy = "strategy   X\n\n  always    play C   # noise\n"
        tidy = "strategy X\nalways play C\n"
        assert print_source(parse(messy)) == tidy

    def test_grim_canonical_text(self):
        assert print_source(parse(GRIM_TEXT)) == GRIM_TEXT


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_parser_is_total_on_byte_soup(data):
    text = data.decode("utf-8", errors="replace")
    try:
        parse(text)
    except DslError:
        pass  # positioned diagnostics are the only acceptable failure


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="strategy counterbits ifthenalwaysplayincgoto CDWO:=!<>#\n 0123456789", max_size=120))
def test_parser_is_total_on_keyword_soup(text):
    try:
        parse(text)
    except DslError:
        pass


class TestCompile:
    def test_grim_costs_one_action_compare(self):
        program = compile_source(parse(GRIM_TEXT), CFG)
        assert program.worst_tick_cost == 2

    def test_allc_costs_nothing(self):
        program = compile_source(parse("strategy AllC\nalways play C"), CFG)
        assert program.worst_tick_cost == 0

    def test_counting_defector_cost_tracks_horizon(self):
        for n in (10, 100, 1000):
            config = GameConfig(N=n, k=2)
            program = compile_source(parse(source_text("CountingDefector", config)), config)
            assert program.worst_tick_cost == counter_width_for(n)

    def test_horizon_constant_resolves(self):
        text = "strategy X\ncounter i: 4 bits\nif i >= N-2 then play D\nalways play C inc i"
        program = compile_source(parse(text), GameConfig(N=9, k=2))
        compares = [ins for ins in program.instructions if ins.opcode is Opcode.COMPARE]
        assert compares[0].rhs.value == 7

    def test_negative_horizon_constant_rejected(self):
        text = "strategy X\ncounter i: 4 bits\nif i >= N-9 then play D\nalways play C inc i"
        with pytest.raises(DslError):
            compile_source(parse(text), GameConfig(N=5, k=2))

    def test_unreachable_rule_diagnostic(self):
        text = "strategy X\nalways play C\nif opp == D then play D"
        diagnostics: list[str] = []
        compile_source(parse(text), CFG, diagnostics=diagnostics)
        assert any("unreachable" in d for d in diagnostics)

    def test_compile_is_deterministic(self):
        a = compile_source(parse(GRIM_TEXT), CFG)
        b = compile_source(parse(GRIM_TEXT), CFG)
        assert a.instructions == b.instructions

    def test_compiled_state_machine_switches_states(self):
        text = (
            "strategy Flip\n"
            "s0: always play C goto s1\n"
            "s1: always play D goto s0\n"
        )
        program = compile_source(parse(text), CFG)
        state = reset(program)
        actions = []
        for _ in range(4):
            state, action = tick(state, program, Observation(horizon_N=10), 2)
            actions.append(action.value)
        assert "".join(actions) == "CDCD"

    def test_goto_ends_the_tick(self):
        # The fired rule's own play decides this tick; the target state
        # only runs from the next tick on.
        text = (
            "strategy Trigger\n"
            "if opp == D then play W goto sink\n"
            "always play C\n"
            "sink: always play D\n"
        )
        program = compile_source(parse(text), CFG)
        state = reset(program)
        seq = []
        for opp in (None, Action.D, Action.C, Action.C):
            state, action = tick(state, program, Observation(opponent_last_action=opp, horizon_N=10), 2)
            seq.append(action.value)
        assert "".join(seq) == "CWDD"


class TestDecompile:
    def test_alld_comes_back_canonical(self):
        from boundedpd.dsl import decompile
        source = parse("strategy AllD\nalways   play D")
        program = compile_source(source, CFG)
        assert print_source(decompile(program)) == "strategy AllD\nalways play D\n"

    @pytest.mark.parametrize("name", list(BUILTIN_NAMES))
    def test_decompiled_builtins_recompile_identically(self, name):
        from boundedpd.dsl import decompile
        config = GameConfig(N=8, k=2)
        program = compile_source(parse(source_text(name, config)), config)
        again = compile_source(decompile(program), config)
        assert again.instructions == program.instructions
        assert again.reg_widths == program.reg_widths

    def test_foreign_programs_are_refused(self):
        from boundedpd.dsl import decompile
        from boundedpd.vm import StrategyProgram, emit, halt
        bare = StrategyProgram("hand", (emit(Action.C), halt()))
        with pytest.raises(DslError):
            decompile(bare)

    def test_debug_trace_lists_pc_cost_action(self):
        from boundedpd.vm import Observation, debug_trace, format_debug_trace
        program = compile_source(parse(GRIM_TEXT), CFG)
        obs = [Observation(horizon_N=10),
               Observation(opponent_last_action=Action.W, horizon_N=10),
               Observation(opponent_last_action=Action.C, horizon_N=10)]
        records = debug_trace(program, obs, 2)
        assert [r.action.value for r in records] == ["C", "D", "D"]
        assert records[0].cost == 2 and records[2].cost == 0
        text = format_debug_trace(records)
        assert text.splitlines()[0] == "tick,pc,cost,action,suspended"
