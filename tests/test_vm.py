"""Budget accounting, suspension, and fault behavior of the strategy VM."""

import pytest
from hypothesis import given, settings, strategies as st

from boundedpd import dsl
from boundedpd.analysis import enumerate_candidates
from boundedpd.game import Action, GameConfig, Mode, counter_width_for
from boundedpd.library import BUILTIN_NAMES, get
from boundedpd.vm import (
    MAX_STEPS_PER_TICK,
    TABLE_ENTRIES_PER_INSTRUCTION,
    CmpOp,
    Instruction,
    Opcode,
    Operand,
    Pending,
    StrategyProgram,
    VmState,
    compare,
    compare_width,
    emit,
    halt,
    increment,
    interpret,
    jump,
    reset,
    tick,
    validate_program,
)

C, D, W, O = Action.C, Action.D, Action.W, Action.O
CFG = GameConfig(N=10, k=2)

#: Programs that play C, then reach a compare the interpreter rejects: one
#: reads a register the program lacks, one compares two zero-bit registers,
#: one has no left operand.
MALFORMED_COMPARES = [
    StrategyProgram("missing-register", (
        emit(C), halt(),
        compare(Operand.reg(1), CmpOp.EQ, Operand.const(1), on_false=2), emit(D), halt(), jump(2),
    ), reg_widths=(3,)),
    StrategyProgram("zero-width", (
        emit(C), halt(),
        compare(Operand.reg(0), CmpOp.EQ, Operand.reg(1), on_false=2), emit(D), halt(), jump(2),
    ), reg_widths=(0, 0)),
    StrategyProgram("missing-operand", (
        emit(C), halt(),
        Instruction(Opcode.COMPARE, op=CmpOp.EQ, rhs=Operand.const(1), on_false=2),
        emit(D), halt(), jump(2),
    )),
    StrategyProgram("missing-operator", (
        emit(C), halt(),
        Instruction(Opcode.COMPARE, lhs=Operand.const(3), rhs=Operand.const(1), on_false=2),
        emit(D), halt(), jump(2),
    )),
    StrategyProgram("unknown-operator", (
        emit(C), halt(),
        Instruction(Opcode.COMPARE, lhs=Operand.const(3), op="bogus", rhs=Operand.const(1),
                    on_false=2),
        emit(D), halt(), jump(2),
    )),
]


def run_actions(program: StrategyProgram, observations, k=2):
    """Tick a fresh program once per ``(opp, own)`` pair."""
    state = reset(program)
    actions = []
    for opp, own in observations:
        state, action = tick(state, program, opp, own, k)
        actions.append(action)
    return state, actions


class TestCompareCost:
    def test_action_width(self):
        ins = compare(Operand.obs("opp"), CmpOp.EQ, Operand.action(C), on_false=0)
        assert compare_width(ins, ()) == 2

    def test_horizon_width(self):
        ins = compare(Operand.reg(0), CmpOp.GE, Operand.const(1000), on_false=0)
        assert compare_width(ins, (counter_width_for(1000),)) == 10

    def test_single_bit(self):
        ins = compare(Operand.const(1), CmpOp.EQ, Operand.const(0), on_false=0)
        assert compare_width(ins, ()) == 1

    def test_zero_rejected(self):
        ins = compare(Operand.reg(0), CmpOp.EQ, Operand.reg(1), on_false=0)
        with pytest.raises(ValueError):
            compare_width(ins, (0, 0))

    def test_no_tick_costs_more_than_the_compilers_worst(self):
        """The compiler sums the width rule into ``worst_tick_cost`` and
        ``interpret`` charges it per compare: given that budget, no tick of
        a compiled program suspends or spends more. The catalog and the
        bound-6 candidates scan at most one compare per tick; the program
        added here scans up to three."""
        import random as random_module
        rng = random_module.Random(22)
        ticks = 0
        for mode in Mode:
            for n in (5, 8, 16):
                config = GameConfig(N=n, k=2, mode=mode)
                programs = [get(name, config) for name in BUILTIN_NAMES]
                programs.append(dsl.compile(dsl.parse(
                    f"strategy three\ncounter n: {counter_width_for(n)} bits\n"
                    "if opp == D and n >= N-2 then play D\n"
                    "if own == C then play C inc n\nalways play W\n"), config))
                for program in programs + list(enumerate_candidates(config, 6)):
                    k = max(2, program.worst_tick_cost)
                    state = reset(program)
                    for _ in range(n + 2):
                        state, _ = tick(state, program, *random_observation(rng), k)
                        assert not state.suspended, program.source
                        assert state.tick_cost <= program.worst_tick_cost, program.source
                        ticks += 1
        assert ticks > 40_000  # 42 775 over the bound-6 space


class TestReset:
    def test_fresh_state(self):
        grim = get("GRIM", CFG)
        state = reset(grim)
        assert state.pc == 0 and state.pending is None and not state.faulted

    def test_reset_is_idempotent(self):
        grim = get("GRIM", CFG)
        assert reset(grim) == reset(grim)

    def test_grim_opens_with_c(self):
        _, actions = run_actions(get("GRIM", CFG), [(None, None)])
        assert actions == [C]

    def test_alld_opens_with_d(self):
        _, actions = run_actions(get("AllD", CFG), [(None, None)])
        assert actions == [D]


class TestGrimBehavior:
    def test_cooperates_within_tick_at_minimum_budget(self):
        grim = get("GRIM", CFG)
        state, action = tick(reset(grim), grim, C, None, 2)
        assert action is C
        assert state.tick_cost == 2
        assert not state.suspended

    def test_wait_triggers_permanent_defection(self):
        grim = get("GRIM", CFG)
        _, actions = run_actions(grim, [(None, None), (W, None), (C, None), (C, None)])
        assert actions == [C, D, D, D]

    def test_triggered_state_costs_nothing(self):
        grim = get("GRIM", CFG)
        state, _ = tick(reset(grim), grim, D, None, 2)
        state, action = tick(state, grim, C, None, 2)
        assert action is D and state.tick_cost == 0


class TestSuspension:
    def test_counting_defector_waits_on_wide_compare(self):
        # N=16, k=3: a 5-bit compare cannot finish within one tick.
        config = GameConfig(N=16, k=3)
        cd = get("CountingDefector", config)
        state = reset(cd)
        actions = []
        for _ in range(16):
            state, action = tick(state, cd, None, None, config.k)
            actions.append(action)
        assert actions == [C] * 14 + [W, D]

    def test_suspended_compare_resumes_with_progress(self):
        program = StrategyProgram(
            name="wide",
            instructions=(
                compare(Operand.reg(0), CmpOp.GE, Operand.const(0), on_false=3),
                emit(D),
                halt(),
                emit(C),
                halt(),
            ),
            reg_widths=(5,),
        )
        state = reset(program)
        state, a1 = tick(state, program, None, None, 3)
        assert a1 is W and state.suspended and state.tick_cost == 3
        state, a2 = tick(state, program, None, None, 3)
        assert a2 is D and not state.suspended and state.tick_cost == 2

    def test_emit_before_suspension_is_not_kept(self):
        # A tick that ends inside a compare records W even if an EMIT ran.
        program = StrategyProgram(
            name="emit-then-think",
            instructions=(
                emit(C),
                compare(Operand.reg(0), CmpOp.EQ, Operand.const(0), on_false=3),
                halt(),
                halt(),
            ),
            reg_widths=(6,),
        )
        state, action = tick(reset(program), program, None, None, 2)
        assert action is W and state.suspended

    def test_operands_latch_at_compare_start(self):
        # The compare begins with reg=0; an increment that happens after
        # resumption must not change the already-latched view.
        program = StrategyProgram(
            name="latch",
            instructions=(
                increment(0),                                               # 0
                compare(Operand.reg(0), CmpOp.GE, Operand.const(2), 4),     # 1
                emit(D),                                                    # 2
                halt(),                                                     # 3
                emit(C),                                                    # 4
                halt(),                                                     # 5
                jump(0),                                                    # 6
            ),
            reg_widths=(4,),
        )
        state = reset(program)
        history = []
        for _ in range(8):
            state, action = tick(state, program, None, None, 2)
            history.append(action)
        # reg values seen by the compare: 1, 2, 3... threshold 2 reached on
        # the second full evaluation.
        assert history[0] is W            # compare 4>2 suspends
        assert history[1] is C            # resumes, 1 >= 2 false
        assert history[2] is W
        assert history[3] is D            # latched 2 >= 2 true


class TestFaults:
    def test_jump_out_of_range_faults_forever(self):
        program = StrategyProgram("bad", (jump(99),))
        state, action = tick(reset(program), program, None, None, 2)
        assert action is W and state.faulted
        state, action = tick(state, program, None, None, 2)
        assert action is W

    def test_zero_cost_loop_hits_step_cap(self):
        program = StrategyProgram("spin", (jump(1), jump(0)))
        state, action = tick(reset(program), program, None, None, 2)
        assert action is W and state.faulted
        assert "step limit" in (state.fault_reason or "")

    def test_a_looping_tick_faults_as_if_it_ran_every_step(self):
        # The loop repeats its (pc, regs, budget) every 32 steps; the tick
        # runs every step and faults with the registers of step 10 001:
        # 5000 increments of a 4-bit counter leave 8.
        program = StrategyProgram("spin", (increment(0), jump(0)), reg_widths=(4,))
        state, action = tick(reset(program), program, None, None, 2)
        assert action is W
        assert (state.pc, state.regs, state.tick_cost) == (0, (8,), 0)
        assert state.fault_reason == "per-tick step limit exceeded"

    def test_resuming_a_compare_is_not_a_step(self):
        # The 6-bit compare finishes on the third tick at k=2; the loop after
        # it then runs MAX_STEPS_PER_TICK steps, one increment in three,
        # before the fault. Counting the resume as a step would drop one.
        program = StrategyProgram(
            "spin-after-resume",
            (
                compare(Operand.reg(0), CmpOp.GE, Operand.const(0), on_false=4),
                increment(1),
                emit(C),
                jump(1),
                halt(),
            ),
            reg_widths=(6, 16),
        )
        state = reset(program)
        for _ in range(3):
            state, action = tick(state, program, None, None, 2)
        assert action is W and "step limit" in (state.fault_reason or "")
        assert state.regs == (0, -(-MAX_STEPS_PER_TICK // 3)) and state.tick_cost == 2

    def test_running_off_the_end_finishes(self):
        program = StrategyProgram("fall", (emit(C),))
        state, action = tick(reset(program), program, None, None, 2)
        assert action is C and state.finished
        state, action = tick(state, program, None, None, 2)
        assert action is W

    def test_static_validation_flags_bad_targets(self):
        program = StrategyProgram("bad", (jump(99), increment(3)))
        problems = validate_program(program)
        assert len(problems) == 2

    def test_static_validation_lists_every_problem_in_order(self):
        program = StrategyProgram("bad", (
            jump(99),
            compare(Operand.reg(2), CmpOp.GE, Operand.const(1), on_false=-1),
            increment(5),
            Instruction(Opcode.COMPARE, lhs=Operand.obs("opp"), op=CmpOp.EQ, on_false=0),
            Instruction(Opcode.EMIT),
            Instruction(Opcode.COMPARE, lhs=Operand.reg(1), op="~", rhs=Operand.reg(-1),
                        on_false=9),
            Instruction(Opcode.JUMP),
            Instruction(Opcode.INCREMENT),
            Instruction(Opcode.COMPARE, lhs=Operand.reg(0), rhs=Operand.const(1), on_false=10),
            emit(C),
            halt(),
        ), reg_widths=(3,))
        assert validate_program(program) == [
            "instruction 0: jump target 99 out of range",
            "instruction 1: on_false target -1 out of range",
            "instruction 1: register 2 out of range",
            "instruction 2: register 5 out of range",
            "instruction 3: missing compare operand",
            "instruction 4: EMIT without an action",
            "instruction 5: unknown compare operator '~'",
            "instruction 5: register 1 out of range",
            "instruction 5: register -1 out of range",
            "instruction 6: jump target None out of range",
            "instruction 7: register None out of range",
            "instruction 8: missing compare operator",
        ]

    def test_static_validation_flags_a_missing_or_unknown_operator(self):
        missing, unknown = (p for p in MALFORMED_COMPARES if p.name.endswith("-operator"))
        assert validate_program(missing) == ["instruction 2: missing compare operator"]
        assert validate_program(unknown) == ["instruction 2: unknown compare operator 'bogus'"]

    @pytest.mark.parametrize("program", [
        StrategyProgram("zero-bit", (compare(Operand.reg(0), CmpOp.EQ, Operand.reg(0), on_false=1),
                                     halt()), reg_widths=(0,)),
        StrategyProgram("negative", (compare(Operand.obs("opp"), CmpOp.EQ, Operand.const(-1),
                                             on_false=1), halt())),
    ], ids=["zero-bit-registers", "negative-constant"])
    def test_a_validated_compare_without_a_width_faults(self, program):
        assert validate_program(program) == []
        state, action = tick(reset(program), program, None, None, 2)
        assert action is W and state.fault_reason == "bad compare operand at 0"

    @pytest.mark.parametrize("program", MALFORMED_COMPARES, ids=lambda p: p.name)
    def test_a_bad_compare_faults_on_the_tick_that_reaches_it(self, program):
        # The fault waits for the compare, on the second tick.
        state, first = tick(reset(program), program, None, None, 2)
        assert first is C and state.fault_reason is None
        state, second = tick(state, program, None, C, 2)
        assert second is W and state.fault_reason == "bad compare operand at 2"
        assert state.tick_cost == 0 and state.pc == 2

    @pytest.mark.parametrize("advance", [interpret, tick])
    def test_a_resumed_compare_with_an_unknown_operator_faults(self, advance):
        # Only a hand-built state reaches this: a fresh compare with the
        # operator's text in place of a CmpOp faults before it can suspend.
        program = StrategyProgram("resumed-text-operator", (
            Instruction(Opcode.COMPARE, lhs=Operand.obs("opp"), op="==", rhs=Operand.action(C),
                        on_false=1),
            halt()))
        resumed = VmState(pc=0, pending=Pending(1, 2, 0, 0))
        state, action = advance(resumed, program, None, None, 2)
        assert action is W and state.fault_reason == "bad compare operand at 0"

    @pytest.mark.parametrize("advance", [interpret, tick])
    def test_a_compare_target_fault_charges_the_compare(self, advance):
        program = StrategyProgram("far-target", (
            compare(Operand.obs("opp"), CmpOp.EQ, Operand.action(C), on_false=5), halt()))
        state, action = advance(reset(program), program, None, None, 3)
        assert action is W and state.fault_reason == "compare target 5 out of range"
        assert state.tick_cost == 2

    def test_budget_below_two_rejected(self):
        program = get("AllC", CFG)
        with pytest.raises(ValueError):
            tick(reset(program), program, None, None, 1)


class TestRegisters:
    def test_increment_wraps_at_width(self):
        program = StrategyProgram(
            "wrap", (increment(0), emit(C), halt(), jump(0)), reg_widths=(2,)
        )
        state = reset(program)
        values = []
        for _ in range(5):
            state, _ = tick(state, program, None, None, 2)
            values.append(state.regs[0])
        assert values == [1, 2, 3, 0, 1]


class TestNoneComparisons:
    def test_any_comparison_with_missing_observation_is_false(self):
        for op in CmpOp:
            program = StrategyProgram(
                "first",
                (
                    compare(Operand.obs("opp"), op, Operand.action(C), on_false=3),
                    emit(D),
                    halt(),
                    emit(C),
                    halt(),
                ),
            )
            _, action = tick(reset(program), program, None, None, 4)
            assert action is C, f"opp {op.value} C should be false on the first tick"


def test_an_unknown_observation_field_is_an_error():
    # A compare observes only the two last actions, not a payoff.
    with pytest.raises(ValueError, match="unknown observation field 'pay'"):
        Operand.obs("pay")


# ---------------------------------------------------------------------------
# Random-program properties (shared with the acceptance suite)
# ---------------------------------------------------------------------------

ACTIONS = (C, D, W, O)
OBS_FIELDS = ("opp", "own")
#: Emitted actions, C and D twice as likely: O faults an FTPD player into a
#: waiter and W passes, so an even draw would leave few programs playing.
EMITS = (C, C, D, D, W, O)
#: Kinds of instruction by weight: the compiler's set, EMIT and COMPARE
#: the most common as in compiled rules.
KINDS = ("emit",) * 3 + ("compare",) * 3 + ("increment", "jump") + ("halt",) * 2


def random_operand(rng, n_regs: int) -> Operand:
    which = rng.randrange(4 if n_regs else 3)
    if which == 0:
        return Operand.const(rng.randrange(64))
    if which == 1:
        return Operand.action(ACTIONS[rng.randrange(4)])
    if which == 2:
        return Operand.obs(OBS_FIELDS[rng.randrange(2)])
    return Operand.reg(rng.randrange(n_regs))


def random_instruction(rng, size: int, n_regs: int):
    """One instruction of the compiler's set. Three compares in four test
    an observation against an action a player can see (O ends a pairing,
    so it is never observed), as compiled guards do, so that random
    programs react to their partner; the rest mix any operands."""
    kind = KINDS[rng.randrange(len(KINDS))]
    if kind == "emit":
        return emit(EMITS[rng.randrange(len(EMITS))])
    if kind == "compare":
        target = rng.randrange(size + 1)
        if rng.randrange(4):
            op = (CmpOp.EQ, CmpOp.NE)[rng.randrange(2)]
            return compare(Operand.obs(OBS_FIELDS[rng.randrange(2)]), op,
                           Operand.action(ACTIONS[rng.randrange(3)]), target)
        op = (CmpOp.EQ, CmpOp.NE, CmpOp.LT, CmpOp.GE)[rng.randrange(4)]
        return compare(random_operand(rng, n_regs), op, random_operand(rng, n_regs), target)
    if kind == "increment" and n_regs:
        return increment(rng.randrange(n_regs))
    if kind == "jump":
        return jump(rng.randrange(size + 1))
    return halt()


def random_program(rng) -> StrategyProgram:
    n_regs = rng.randrange(3)
    widths = tuple(1 + rng.randrange(6) for _ in range(n_regs))
    size = 1 + rng.randrange(12)
    instructions = tuple(random_instruction(rng, size, n_regs) for _ in range(size))
    return StrategyProgram("fuzz", instructions, reg_widths=widths)


def random_observation(rng) -> tuple[Action | None, Action | None]:
    """A random ``(opp, own)`` pair; each is None half the time."""
    maybe = lambda value: value if rng.randrange(2) else None
    return (maybe(ACTIONS[rng.randrange(4)]), maybe(ACTIONS[rng.randrange(4)]))


@given(st.integers(0, 10**9), st.integers(2, 8), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_budget_law_and_wait_on_suspension(seed, k, ticks):
    import random as random_module
    rng = random_module.Random(seed)
    program = random_program(rng)
    state = reset(program)
    for _ in range(ticks):
        state, action = tick(state, program, *random_observation(rng), k)
        assert state.tick_cost <= k
        if state.suspended:
            assert action is W


@given(st.integers(0, 10**9), st.integers(2, 6), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_determinism(seed, k, ticks):
    import random as random_module
    rng = random_module.Random(seed)
    program = random_program(rng)
    observations = [random_observation(rng) for _ in range(ticks)]

    def run():
        state = reset(program)
        out = []
        for opp, own in observations:
            state, action = tick(state, program, opp, own, k)
            out.append(action)
        return out, state

    first, second = run(), run()
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_random_program_traces_are_pinned():
    """Every state field and action of 2000 random programs over 30 ticks
    each (k 2-8), hashed. The digest was recorded before ``tick`` took its
    current shape; the sample holds 1324 suspensions, 1148 resumes and 190
    step-limit faults, 26 of them in a tick that resumed a compare."""
    import hashlib
    import random as random_module
    rng = random_module.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(2000):
        program = random_program(rng)
        k = rng.randint(2, 8)
        state = reset(program)
        for _ in range(30):
            state, action = tick(state, program, *random_observation(rng), k)
            p = state.pending
            pending = None if p is None else (
                state.pc, p.units_done, p.width, p.lhs_value, p.rhs_value)
            row = (state.pc, state.regs, pending, state.faulted, state.fault_reason,
                   state.finished, state.tick_cost, state.suspended, action.value)
            digest.update(repr(row).encode())
    assert digest.hexdigest() == (
        "4f2301dfd18408178798676ccaf46ec4b7cd64bd68b02ef508e31f0a20346731")


#: Hand-built programs at the edges of what ``interpret`` runs: a step-limit
#: loop, a loop after a resumed compare, a wide compare that suspends over
#: several ticks behind a narrow one, runs off the end, a faulting jump,
#: increment and opcode, and operands no compiler emits (a kind outside
#: ``OperandKind``, an action's letter, a negative or fractional constant).
EDGE_PROGRAMS = [
    StrategyProgram("spin", (increment(0), jump(0)), reg_widths=(4,)),
    StrategyProgram("spin-after-resume", (
        compare(Operand.reg(0), CmpOp.GE, Operand.const(0), on_false=4),
        increment(1), emit(C), jump(1), halt(),
    ), reg_widths=(6, 16)),
    StrategyProgram("wide-compares", (
        increment(0),
        compare(Operand.obs("opp"), CmpOp.EQ, Operand.action(C), on_false=6),
        compare(Operand.reg(0), CmpOp.LT, Operand.const(5), on_false=6),
        emit(C), halt(), jump(0), emit(D), halt(), jump(0),
    ), reg_widths=(12,)),
    StrategyProgram("fall", (emit(C),)),
    StrategyProgram("fall-after-halt", (emit(D), halt(), compare(
        Operand.obs("opp"), CmpOp.EQ, Operand.action(C), on_false=3))),
    StrategyProgram("bad-jump", (emit(C), halt(), jump(-1))),
    StrategyProgram("bad-increment", (emit(C), halt(), increment(2)), reg_widths=(1,)),
    StrategyProgram("bad-target", (emit(C), halt(), compare(
        Operand.obs("own"), CmpOp.NE, Operand.action(D), on_false=9), emit(D), halt(), jump(2))),
    StrategyProgram("bad-opcode", (emit(C), halt(), Instruction("NOP"))),
    StrategyProgram("odd-kind", (compare(
        Operand("bogus", "opp"), CmpOp.EQ, Operand.action(C), on_false=4),
        emit(D), halt(), jump(0), emit(C), halt(), jump(0))),
    StrategyProgram("letter", (compare(
        Operand.obs("opp"), CmpOp.NE, Operand(Operand.action(C).kind, "C"), on_false=4),
        emit(D), halt(), jump(0), emit(C), halt(), jump(0))),
    StrategyProgram("negative-constant", (emit(C), halt(), compare(
        Operand.const(1), CmpOp.LT, Operand(Operand.const(0).kind, -3), on_false=0))),
    StrategyProgram("fractional-constant", (emit(C), halt(), compare(
        Operand.const(1), CmpOp.LT, Operand(Operand.const(0).kind, 2.5), on_false=0))),
]

#: ``(opp, own, k)`` of each tick the pinned corpus plays.
OBSERVATION_SCRIPT = [
    (None, None, 2), (C, C, 2), (D, C, 3), (W, D, 2), (C, W, 4), (O, C, 2),
    (D, D, 8), (None, C, 2), (C, None, 3), (W, W, 2), (C, D, 5), (D, W, 2),
]


def test_interpret_on_a_fixed_corpus_is_pinned():
    """Every ``(VmState, Action)`` that ``interpret`` itself returns, not
    ``tick``, over the malformed compares and the edge programs, each played
    through the observation script twice, hashed field by field. The
    digest is the same on the interpreter from before ``Pending`` lost its
    ``index`` field (always the suspended state's ``pc``), where the digest
    of the whole ``repr`` recorded before the interpreter read its enum
    members from module constants held too. The stream holds suspensions,
    resumes, faults, step-limit faults and finished programs. Random
    programs are pinned through ``tick``, whose every state comes from
    ``interpret``, by ``test_random_program_traces_are_pinned``."""
    import hashlib
    digest = hashlib.sha256()
    seen = {"suspended": 0, "resumed": 0, "faulted": 0, "step-limit": 0, "finished": 0}
    for program in MALFORMED_COMPARES + EDGE_PROGRAMS:
        state = reset(program)
        for opp, own, k in OBSERVATION_SCRIPT * 2:
            before = state
            state, action = interpret(state, program, opp, own, k)
            p = state.pending
            pending = None if p is None else (p.units_done, p.width, p.lhs_value, p.rhs_value)
            row = (state.pc, state.regs, pending, state.fault_reason, state.finished,
                   state.tick_cost, action.value)
            digest.update(repr(row).encode())
            seen["suspended"] += state.pending is not None
            seen["resumed"] += before.pending is not None
            seen["faulted"] += state.fault_reason is not None and before.fault_reason is None
            seen["step-limit"] += "step limit" in (state.fault_reason or "")
            seen["finished"] += state.finished
    assert min(seen.values()) >= 10, seen
    assert digest.hexdigest() == (
        "c3f2842d164d6e88d3210940b95e0a38d336a5bbba2e6a30ea0487643e7068cc")


def test_a_negative_compare_register_faults():
    """``interpret`` faults on a COMPARE of ``Operand.reg(-1)``, as on any
    bad operand, where a list index would read the last register;
    ``validate_program`` reports the register out of range."""
    program = StrategyProgram("negative-register", (increment(0), compare(
        Operand.reg(-1), CmpOp.GE, Operand.const(2), on_false=4),
        emit(D), halt(), emit(C), halt(), jump(0)), reg_widths=(3,))
    assert validate_program(program) == ["instruction 1: register -1 out of range"]
    state, action = interpret(reset(program), program, None, None, 8)
    assert action is W and state.fault_reason == "bad compare operand at 1"
    assert state.regs == (1,)


def replay_through_the_table(program: StrategyProgram, k: int, observations) -> dict:
    """Play ``observations`` with ``tick`` and with plain ``interpret`` side by
    side, twice over so the second pass reads the table, and peek at a W
    (as the instantaneous-rematch peek does, without committing it) after
    every C or D. Asserts both return the same ``(VmState, Action)`` on
    every call; returns what the calls covered."""
    seen = {"calls": 0, "suspensions": 0, "faults": 0, "peeks": 0}
    for _ in range(2):
        state = reset(program)
        for opp, own in observations:
            expected = interpret(state, program, opp, own, k)
            got = tick(state, program, opp, own, k)
            assert type(got[0]) is VmState and got == expected
            seen["calls"] += 1
            seen["suspensions"] += got[0].suspended
            seen["faults"] += got[0].faulted
            state, action = got
            if action is C or action is D:
                assert tick(state, program, W, action, k) == interpret(state, program, W, action, k)
                seen["peeks"] += 1
    return seen


class TestTransitionTable:
    """``tick`` plays through each program's transition table;
    ``interpret``, the reference, must agree with it call for call."""

    @given(st.integers(0, 10**9), st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_tick_replays_interpret_on_random_programs(self, seed, ticks):
        import random as random_module
        rng = random_module.Random(seed)
        program = random_program(rng)
        # The same program object at k=2, then at k=3: the budget is part
        # of the key, so the k=2 entries must not answer a k=3 tick.
        for k in (2, 3):
            replay_through_the_table(program, k, [random_observation(rng) for _ in range(ticks)])
        assert {key[3] for key in program.transitions} == {2, 3}

    def test_the_sample_covers_suspensions_faults_and_peeks(self):
        import random as random_module
        rng = random_module.Random(20261019)
        totals = dict.fromkeys(("calls", "suspensions", "faults", "peeks"), 0)
        for _ in range(300):
            program = random_program(rng)
            for k in (2, 3):
                seen = replay_through_the_table(
                    program, k, [random_observation(rng) for _ in range(20)])
                for name, count in seen.items():
                    totals[name] += count
        assert totals["calls"] == 300 * 2 * 2 * 20
        assert min(totals.values()) > 100, totals

    def test_malformed_compares_fault_through_the_table(self):
        for program in MALFORMED_COMPARES:
            replay_through_the_table(program, 2, [(None, None), (C, C), (C, C)])
            faulted = [out for out in program.transitions.values() if out[0].faulted]
            assert faulted and faulted[0][0].fault_reason == "bad compare operand at 2"

    def test_a_register_counter_keeps_its_table_bounded(self):
        """One state per counter value: the table is cleared when full, so
        it stays within its bound, and play still matches ``interpret``."""
        config = GameConfig(N=3000, k=2)
        program = dsl.compile(dsl.parse(
            "strategy ctr\ncounter n: 12 bits\n"
            "if n != 2999 then play C inc n\nalways play D\n"), config)
        limit = TABLE_ENTRIES_PER_INSTRUCTION * len(program)
        state = reference = reset(program)
        sizes = []
        for _ in range(config.N):
            state, action = tick(state, program, C, C, config.k)
            reference, expected = interpret(reference, program, C, C, config.k)
            assert (state, action) == (reference, expected)
            sizes.append(len(program.transitions))
        assert max(sizes) == limit < config.N
        assert sizes.count(1) > 1  # cleared and refilled


class TestBounds:
    """Each bound of the reference interpreter and the static check, at the
    first value past it and at the last value inside it."""

    @pytest.mark.parametrize("advance", [interpret, tick])
    def test_an_increment_of_the_register_count_faults(self, advance):
        program = StrategyProgram("past-registers", (emit(C), increment(1), halt()),
                                  reg_widths=(3,))
        state, action = advance(reset(program), program, None, None, 2)
        assert action is W
        assert (state.fault_reason, state.regs, state.pc) == ("register 1 out of range", (0,), 0)
        inside = StrategyProgram("last-register", (emit(C), increment(0), halt()),
                                 reg_widths=(3,))
        assert advance(reset(inside), inside, None, None, 2) == (VmState(3, (1,)), C)

    def test_validation_reports_an_increment_of_the_register_count(self):
        program = StrategyProgram("past-registers", (increment(0), increment(1), halt()),
                                  reg_widths=(3,))
        assert validate_program(program) == ["instruction 1: register 1 out of range"]

    def test_validation_accepts_a_target_of_the_program_length(self):
        # A target of the length runs the program off its end, which is legal.
        def program(target):
            return StrategyProgram("to-the-end", (
                compare(Operand.obs("opp"), CmpOp.EQ, Operand.action(C), on_false=target),
                halt(), jump(target)))

        assert validate_program(program(3)) == []
        assert validate_program(program(4)) == [
            "instruction 0: on_false target 4 out of range",
            "instruction 2: jump target 4 out of range",
        ]

    @pytest.mark.parametrize("advance", [interpret, tick])
    def test_a_resumed_tick_faults_at_exactly_the_step_limit(self, advance):
        # The 3-bit compare suspends at k=2 and finishes on the next tick,
        # whose steps count from the instruction after it: emits, then the
        # HALT at step ``emits + 1``, which the limit allows up to its own
        # value and no further.
        def resumed(emits):
            program = StrategyProgram("long-tick", (
                compare(Operand.const(4), CmpOp.EQ, Operand.const(4), on_false=0),
                *[emit(C)] * emits, halt()))
            state, action = advance(reset(program), program, None, None, 2)
            assert action is W and state.suspended
            return advance(state, program, None, None, 2)

        state, action = resumed(MAX_STEPS_PER_TICK - 1)
        assert action is C and state.fault_reason is None
        assert (state.pc, state.tick_cost) == (MAX_STEPS_PER_TICK + 1, 1)
        state, action = resumed(MAX_STEPS_PER_TICK)
        assert action is W and state.fault_reason == "per-tick step limit exceeded"
