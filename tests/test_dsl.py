"""Parser, printer, and compiler tests for the strategy language."""

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd.analysis import enumerate_candidates
from boundedpd.dsl import (
    ConstAction,
    ConstInt,
    Decl,
    DslError,
    Goto,
    HorizonMinus,
    Inc,
    Layout,
    Play,
    Rule,
    RulePiece,
    Term,
    compile as compile_source,
    emit_rule,
    parse,
    print_source,
)
from boundedpd.game import Action, GameConfig, Mode, counter_width_for
from boundedpd.library import BUILTIN_NAMES, source_text
from boundedpd.vm import CmpOp, Opcode, reset, tick

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


class TestRoundtrip:
    @pytest.mark.parametrize(
        "name, config",
        [(n, CFG) for n in BUILTIN_NAMES] + [("CountingDefector", GameConfig(N=5000, k=2))],
        ids=list(BUILTIN_NAMES) + ["CountingDefector-5000"],
    )
    def test_builtins_reach_print_fixpoint(self, name, config):
        # The compiler writes the program's source with the printer's text
        # format; the long counting defector has one state per tick.
        src = parse(source_text(name, config))
        printed = print_source(src)
        assert parse(printed) == src
        assert print_source(parse(printed)) == printed
        assert compile_source(src, config).source == printed

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

    def test_negative_horizon_constant_is_reported_at_the_n(self):
        text = ("strategy x\ncounter n: 3 bits\n"
                "if n >= N-20 then play D inc n\nalways play C inc n\n")
        source = parse(text)
        # The position takes no part in equality.
        assert source.rules[0].guard[0].value == HorizonMinus(20)
        with pytest.raises(DslError) as err:
            compile_source(source, GameConfig(N=5))
        assert str(err.value) == "3:9: N-20 is negative at N=5"

    def test_unreachable_rule_diagnostic(self):
        # Every rule after an unconditional one in its own state is named,
        # state by state; a goto rule ahead does not make the rest dead.
        text = (
            "strategy X\n"
            "if opp == D then goto punish\n"
            "always play C\n"
            "if opp == C then play D\n"
            "punish: always play D\n"
            "if opp == C then play C\n"
            "always play W\n"
        )
        diagnostics: list[str] = []
        compile_source(parse(text), CFG, diagnostics=diagnostics)
        assert diagnostics == [
            "rule 3 of state start is unreachable",
            "rule 2 of state punish is unreachable",
            "rule 3 of state punish is unreachable",
        ]

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
            state, action = tick(state, program, None, None, 2)
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
            state, action = tick(state, program, opp, None, 2)
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

    def test_horizon_terms_come_back_as_written(self):
        from boundedpd.dsl import decompile
        from boundedpd.library import get
        text = print_source(decompile(get("CountingDefector", GameConfig(N=5))))
        assert text.splitlines()[-1] == "armed: if n >= N-2 then play D"


#: Two counters of different widths, so a register's width and index both
#: reach the emitted compares.
LAYOUT_DECLS = (Decl("n", 4), Decl("m", 9))


@st.composite
def layout_rules(draw):
    """A rule of 0-2 guard terms on ``opp``, ``own`` or a declared counter
    (values include ``N-k``), with a play, incs and a goto."""
    def term():
        field = draw(st.sampled_from(["opp", "own", "n", "m"]))
        if field in ("opp", "own"):
            return Term(field, draw(st.sampled_from([CmpOp.EQ, CmpOp.NE])),
                        ConstAction(draw(st.sampled_from(list(Action)))))
        value = draw(st.one_of(st.builds(ConstInt, st.integers(0, 600)),
                               st.builds(HorizonMinus, st.integers(0, CFG.N))))
        return Term(field, draw(st.sampled_from(list(CmpOp))), value)

    guard = tuple(term() for _ in range(draw(st.integers(0, 2))))
    stmts = [Inc(name) for name in draw(st.lists(st.sampled_from(["n", "m"]), max_size=2))]
    if draw(st.booleans()):
        stmts.insert(draw(st.integers(0, len(stmts))), Play(draw(st.sampled_from(list(Action)))))
    if not stmts or draw(st.booleans()):
        stmts.append(Goto("elsewhere"))
    return Rule(None, guard, tuple(stmts))


class TestLayout:
    """``assemble``'s parts built once: a rule's further compare targets
    re-target its first body, and one enumeration's JUMPs are shared."""

    @settings(max_examples=300, deadline=None)
    @given(layout_rules(), st.lists(st.integers(-1, 40), min_size=2, max_size=4, unique=True))
    def test_a_retargeted_body_is_the_emitted_one(self, rule, targets):
        layout = Layout("x", LAYOUT_DECLS, CFG)
        for first in targets:
            for then in targets:
                if then == first:
                    continue
                piece = RulePiece(rule)
                assert piece.emit(first, layout) == emit_rule(rule, first, layout)
                assert piece.emit(then, layout) == emit_rule(rule, then, layout)

    def test_a_piece_emits_its_rule_once(self, monkeypatch):
        guard = (Term("m", CmpOp.GE, HorizonMinus(2)),
                 Term("opp", CmpOp.NE, ConstAction(Action.D)))
        rule = Rule(None, guard, (Inc("n"), Play(Action.D), Inc("m")))
        layout = Layout("x", LAYOUT_DECLS, CFG)
        expected = {target: emit_rule(rule, target, layout) for target in (7, 3, 12)}
        calls = []
        monkeypatch.setattr("boundedpd.dsl.emit_rule",
                            lambda *args: calls.append(args) or emit_rule(*args))
        piece = RulePiece(rule)
        assert {target: piece.emit(target, layout) for target in expected} == expected
        assert len(calls) == 1

    def test_a_later_state_falls_to_its_own_next_rule(self):
        # s1's first rule is guarded and not last: its failed compare jumps
        # to s1's second rule, counted from s1's start at 5.
        text = ("strategy Later\n"
                "always play C goto s1\n"
                "s1: if opp == D then play D\n"
                "always play C\n")
        program = compile_source(parse(text), CFG)
        compare = program.instructions[5]
        assert compare.opcode is Opcode.COMPARE and compare.on_false == 8
        state, seq = reset(program), []
        for opp in (None, Action.C, Action.D, Action.C):
            state, action = tick(state, program, opp, None, 2)
            seq.append(action.value)
        assert "".join(seq) == "CCDC"

    def test_a_program_failing_validation_is_an_internal_error(self, monkeypatch):
        # No compiled program fails vm.validate_program; were one to, the
        # error would name each problem.
        monkeypatch.setattr("boundedpd.vm.validate_program", lambda program: ["one", "two"])
        with pytest.raises(DslError, match="^1:1: internal compile error: one; two$"):
            compile_source(parse("strategy x\nalways play C\n"), CFG)

    @pytest.mark.parametrize("mode", [Mode.FTPD, Mode.OPD])
    def test_one_enumeration_shares_its_jumps(self, mode):
        jumps: dict[int, object] = {}
        count = 0
        for program in enumerate_candidates(GameConfig(N=8, mode=mode, k=2), 7):
            for ins in program.instructions:
                if ins.opcode is Opcode.JUMP:
                    assert jumps.setdefault(ins.target, ins) is ins
                    count += 1
        assert count > len(jumps) > 1
