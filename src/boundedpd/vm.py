"""Budgeted strategy virtual machine.

A strategy is a fixed, finite instruction list executed tick by tick. Each
clock tick grants the player ``k`` XOR units. Only COMPARE instructions
consume the budget, at one unit per bit of their widest operand; everything
else is free bookkeeping. A COMPARE that cannot finish within the remaining
budget suspends: the tick's action is W, and the compare resumes next tick
with a fresh budget (progress is kept, operand values are latched at the
moment the compare started).

The instruction set is what :func:`boundedpd.dsl.compile` emits: EMIT,
COMPARE, INCREMENT, JUMP and HALT. A compare's operands are constants,
counter registers and the two observations, the player's own and the
opponent's action on the previous tick: ``tick`` takes exactly those two
beside the ``VmState``, which stores no flag it can derive. The horizon N
is not an input; the compiler turns it into a constant. ``compare_width``
is the one width rule: the compiler sums it for ``worst_tick_cost``, and
``interpret`` charges it when a compare starts.

``Operand``, ``Instruction``, ``Pending`` and ``VmState`` are
``NamedTuple``s: they are built and hashed in C, and updated with
``_replace``. Each compares equal to the plain tuple of its fields, so no
dict may mix ``VmState`` keys with plain tuples. The hot loops read enum
members from private module constants (``_HALT``, ``_REG``, ``_W``): on
CPython 3.11 ``Opcode.HALT`` costs about 75 ns a read, a module global 5 ns.

A compiled program is a finite automaton: a tick is deterministic in
``(state, opp, own, k)``. ``interpret`` is the reference interpreter, and
``tick``, the one way the engines advance a machine, plays through the
program's own ``transitions`` table: it looks that key up and calls
``interpret`` only on a miss, storing what it returns, so the table holds
nothing the interpreter did not return. The table is a field of the
program, built empty with it and left out of its equality, hash and repr:
an equal but distinct program starts empty, and the table is freed with
the program. It holds one entry per (state, observation pair, budget) played,
and at most ``TABLE_ENTRIES_PER_INSTRUCTION`` per instruction: a full
table is cleared and refills with the transitions played since. So the
table is at most a fixed multiple of the instruction list: a program that
counts in a register, one state per counter value, keeps refilling it,
and one whose counter is unrolled into its pcs (CountingDefector) keeps
one entry per unrolled state.

Control flow model:

* Execution proceeds instruction by instruction from the current pc.
* EMIT records the tick's action and keeps executing (it costs nothing).
* HALT ends the tick. The tick's action is the last EMIT executed during
  this tick, or W if there was none. The next tick resumes at pc + 1, so a
  program is laid out as one or more small loops and the program counter
  doubles as the strategy's persistent state.
* Running past the end of the program ends the tick the same way and
  finishes the program: the player waits for the rest of the game.
* A malformed step (bad jump target, bad register) faults the program; a
  faulted player plays W for all remaining ticks.

If a tick ends in suspension the recorded action is W even when an EMIT had
already executed earlier in the same tick: an unfinished compare means the
player has not committed a move this tick.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .game import Action, bit_width

#: Action encoding used in registers and compare operands.
ACTION_CODE = {Action.C: 0, Action.D: 1, Action.W: 2, Action.O: 3}

#: Steps allowed per tick, each counted as it runs, before the program is
#: declared faulty (guards against zero-cost jump loops in hand-written
#: programs; no compiled tick runs more than its size + 1 steps).
MAX_STEPS_PER_TICK = 10_000


class Opcode(Enum):
    EMIT = "EMIT"
    COMPARE = "COMPARE"
    INCREMENT = "INCREMENT"
    JUMP = "JUMP"
    HALT = "HALT"


class CmpOp(Enum):
    EQ = "=="
    NE = "!="
    LT = "<"
    GE = ">="


class OperandKind(Enum):
    CONST_INT = "int"
    CONST_ACTION = "action"
    REG = "reg"
    OBS = "obs"


OBS_FIELDS = ("opp", "own")

# The enum members the hot loops compare against, read as module globals.
_EMIT, _COMPARE, _INCREMENT, _JUMP, _HALT = (
    Opcode.EMIT, Opcode.COMPARE, Opcode.INCREMENT, Opcode.JUMP, Opcode.HALT)
_CONST_INT, _CONST_ACTION, _REG = OperandKind.CONST_INT, OperandKind.CONST_ACTION, OperandKind.REG
_W = Action.W
_new_tuple = tuple.__new__


#: What each compare operator tests.
_TESTS = {CmpOp.EQ: operator.eq, CmpOp.NE: operator.ne,
          CmpOp.LT: operator.lt, CmpOp.GE: operator.ge}


class Operand(NamedTuple):
    kind: OperandKind
    value: object  # int for CONST_INT/REG, Action for CONST_ACTION, field name for OBS

    @staticmethod
    def const(value: int) -> "Operand":
        return Operand(OperandKind.CONST_INT, int(value))

    @staticmethod
    def action(action: Action) -> "Operand":
        return Operand(OperandKind.CONST_ACTION, action)

    @staticmethod
    def reg(index: int) -> "Operand":
        return Operand(OperandKind.REG, int(index))

    @staticmethod
    def obs(field: str) -> "Operand":
        if field not in OBS_FIELDS:
            raise ValueError(f"unknown observation field {field!r}")
        return Operand(OperandKind.OBS, field)


class Instruction(NamedTuple):
    opcode: Opcode
    action: Action | None = None          # EMIT
    lhs: Operand | None = None            # COMPARE
    op: CmpOp | None = None               # COMPARE
    rhs: Operand | None = None            # COMPARE
    on_false: int | None = None           # COMPARE jump target
    reg: int | None = None                # INCREMENT
    target: int | None = None             # JUMP


# The compiler builds these per rule and per state of every program it
# lays out, so they skip ``Instruction.__new__``'s keyword handling, which
# on CPython 3.11 costs about twice what building the tuple does.

def emit(action: Action) -> Instruction:
    return _new_tuple(Instruction, (_EMIT, action, None, None, None, None, None, None))


def compare(lhs: Operand, op: CmpOp, rhs: Operand, on_false: int) -> Instruction:
    return _new_tuple(Instruction, (_COMPARE, None, lhs, op, rhs, on_false, None, None))


def increment(reg: int) -> Instruction:
    return _new_tuple(Instruction, (_INCREMENT, None, None, None, None, None, reg, None))


def jump(target: int) -> Instruction:
    return _new_tuple(Instruction, (_JUMP, None, None, None, None, None, None, target))


def halt() -> Instruction:
    return Instruction(Opcode.HALT)


@dataclass(frozen=True, slots=True)
class StrategyProgram:
    """A compiled strategy: instructions plus declared register widths.

    ``source`` is the canonical source text the compiler laid out, which
    ``dsl.decompile`` parses back; hand-assembled programs leave it None.
    ``transitions`` is the table ``tick`` plays through: each ``(state,
    opp, own, k)`` played since it was last cleared maps to the
    ``(VmState, Action)`` that ``interpret`` returned for it. It is built
    empty with the program and is not an argument, and it takes no part in
    equality, hashing or ``repr``, so ``dataclasses.replace`` starts a
    fresh, empty one.
    """

    name: str
    instructions: tuple[Instruction, ...]
    reg_widths: tuple[int, ...] = ()
    worst_tick_cost: int | None = None
    source: str | None = None
    transitions: dict[tuple, tuple[VmState, Action]] = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __len__(self) -> int:
        return len(self.instructions)


class Pending(NamedTuple):
    """A compare caught mid-flight: operand values are latched at start.
    The compare sits at the suspended state's ``pc``."""

    units_done: int
    width: int
    lhs_value: object
    rhs_value: object


class VmState(NamedTuple):
    pc: int = 0
    regs: tuple[int, ...] = ()
    pending: Pending | None = None
    fault_reason: str | None = None
    finished: bool = False
    tick_cost: int = 0        # XOR units spent during the most recent tick

    @property
    def faulted(self) -> bool:
        return self.fault_reason is not None

    @property
    def suspended(self) -> bool:
        """The most recent tick ended inside a compare."""
        return self.pending is not None


#: Fresh states by register count: a state is immutable, so machines share them.
_FRESH: dict[int, VmState] = {}


def reset(program: StrategyProgram) -> VmState:
    """Fresh state: entry pc, zeroed registers, nothing pending."""
    count = len(program.reg_widths)
    state = _FRESH.get(count)
    if state is None:
        state = _FRESH[count] = VmState(pc=0, regs=(0,) * count)
    return state


def validate_program(program: StrategyProgram) -> list[str]:
    """Static checks; returns a list of problems (empty when clean)."""
    problems: list[str] = []
    size = len(program.instructions)
    registers = len(program.reg_widths)
    for idx, ins in enumerate(program.instructions):
        opcode = ins.opcode
        if opcode is _COMPARE:
            # A target of size is legal: it runs the program off the end for good.
            target = ins.on_false
            if target is None or not 0 <= target <= size:
                problems.append(f"instruction {idx}: on_false target {target} out of range")
            if ins.op is None:
                problems.append(f"instruction {idx}: missing compare operator")
            elif not isinstance(ins.op, CmpOp):
                problems.append(f"instruction {idx}: unknown compare operator {ins.op!r}")
            for operand in (ins.lhs, ins.rhs):
                if operand is None:
                    problems.append(f"instruction {idx}: missing compare operand")
                elif operand.kind is _REG:
                    reg = operand.value
                    if reg is None or not 0 <= reg < registers:  # type: ignore[operator]
                        problems.append(f"instruction {idx}: register {reg} out of range")
        elif opcode is _JUMP:
            target = ins.target
            if target is None or not 0 <= target <= size:
                problems.append(f"instruction {idx}: jump target {target} out of range")
        elif opcode is _INCREMENT:
            reg = ins.reg
            if reg is None or not 0 <= reg < registers:
                problems.append(f"instruction {idx}: register {reg} out of range")
        elif opcode is _EMIT and ins.action is None:
            problems.append(f"instruction {idx}: EMIT without an action")
    return problems


def _operand_width(operand: Operand, reg_widths: tuple[int, ...]) -> int:
    kind = operand.kind
    if kind is _CONST_INT:
        return bit_width(operand.value)  # type: ignore[arg-type]
    if kind is _REG:
        return reg_widths[operand.value]  # type: ignore[index]
    return 2  # an action: a constant or an observation


def compare_width(ins: Instruction, reg_widths: tuple[int, ...]) -> int:
    """XOR units a COMPARE costs: one per bit of its wider operand. The
    compiler sums these for ``worst_tick_cost``; ``interpret`` charges them."""
    width = max(_operand_width(ins.lhs, reg_widths),  # type: ignore[arg-type]
                _operand_width(ins.rhs, reg_widths))  # type: ignore[arg-type]
    if width < 1:
        raise ValueError("compare width must be at least 1 bit")
    return width


def _operand_value(
    operand: Operand, regs: list[int], opp: Action | None, own: Action | None
) -> object:
    kind = operand.kind
    if kind is _CONST_INT:
        return operand.value
    if kind is _CONST_ACTION:
        return ACTION_CODE[operand.value]  # type: ignore[index]
    if kind is _REG:
        if operand.value < 0:  # a list index would read it from the end
            raise IndexError(f"register {operand.value} out of range")
        return regs[operand.value]  # type: ignore[index]
    a = opp if operand.value == "opp" else own
    return None if a is None else ACTION_CODE[a]


def _fault(state: VmState, regs: list[int], cost: int, reason: str) -> tuple[VmState, Action]:
    return VmState(state.pc, tuple(regs), None, reason, False, cost), _W


def interpret(
    state: VmState, program: StrategyProgram,
    opp: Action | None, own: Action | None, k: int,
) -> tuple[VmState, Action]:
    """Advance the program by one clock tick; returns the action taken.

    ``opp`` and ``own`` are the opponent's and the player's own action on
    the previous tick of the pairing, None before its first tick: all a
    program observes. A suspended compare resumes where it stopped, with
    the operand values it latched; resuming it is not a step. The tick
    faults past ``MAX_STEPS_PER_TICK`` steps, every step counted.

    Deterministic in (state, program, opp, own, k). Never raises for
    program misbehavior: faults are folded into the returned state.
    """
    if k < 2:
        raise ValueError("budget k must be at least 2 (one action compare must fit in a tick)")

    if state.fault_reason is not None or state.finished:
        return VmState(state.pc, state.regs, None, state.fault_reason, state.finished, 0), _W

    budget = k
    emitted: Action | None = None
    regs = list(state.regs)
    pc = state.pc
    size = len(program.instructions)
    resume = state.pending  # its compare sits at pc
    steps = 0 if resume is None else -1
    while True:
        steps += 1
        if steps > MAX_STEPS_PER_TICK:
            return _fault(state, regs, k - budget, "per-tick step limit exceeded")
        if pc >= size or pc < 0:
            # Ran past the end: the program is over for good.
            return VmState(pc, tuple(regs), None, None, True, k - budget), emitted or _W

        ins = program.instructions[pc]
        opcode = ins.opcode

        if opcode is _HALT:
            return VmState(pc + 1, tuple(regs), None, None, False, k - budget), emitted or _W

        if opcode is _EMIT:
            emitted = ins.action
            pc += 1
            continue

        if opcode is _COMPARE:
            try:
                test = _TESTS[ins.op]
                if resume is None:
                    done = 0
                    width = compare_width(ins, program.reg_widths)
                    lhs_value = _operand_value(ins.lhs, regs, opp, own)  # type: ignore[arg-type]
                    rhs_value = _operand_value(ins.rhs, regs, opp, own)  # type: ignore[arg-type]
                else:
                    done, width, lhs_value, rhs_value = resume
                    resume = None
            except (AttributeError, IndexError, TypeError, KeyError, ValueError):
                return _fault(state, regs, k - budget, f"bad compare operand at {pc}")
            if width - done > budget:
                # Not enough budget left this tick: latch and suspend.
                pending = Pending(done + budget, width, lhs_value, rhs_value)
                return VmState(pc, tuple(regs), pending, None, False, k), _W
            budget -= width - done
            # A comparison touching a missing observation is false whatever the
            # operator: nothing can be concluded from a move that never happened.
            if lhs_value is not None and rhs_value is not None and test(lhs_value, rhs_value):
                pc += 1
            else:
                target = ins.on_false
                if target is None or not (0 <= target <= size):
                    return _fault(state, regs, k - budget, f"compare target {target} out of range")
                pc = target
            continue

        if opcode is _JUMP:
            target = ins.target
            if target is None or not (0 <= target <= size):
                return _fault(state, regs, k - budget, f"jump target {target} out of range")
            pc = target
            continue

        if opcode is _INCREMENT:
            reg = ins.reg
            if reg is None or not (0 <= reg < len(regs)):
                return _fault(state, regs, k - budget, f"register {reg} out of range")
            mask = (1 << program.reg_widths[reg]) - 1
            regs[reg] = (regs[reg] + 1) & mask
            pc += 1
            continue

        return _fault(state, regs, k - budget, f"unknown opcode at {pc}")


#: A program's transition table holds at most this many entries per
#: instruction. The catalog's programs need at most two.
TABLE_ENTRIES_PER_INSTRUCTION = 64


def tick(
    state: VmState, program: StrategyProgram,
    opp: Action | None, own: Action | None, k: int,
) -> tuple[VmState, Action]:
    """Advance the program by one clock tick through its transition table:
    returns what ``interpret`` returns for the same arguments, calling it
    only for a key the table does not hold."""
    key = (state, opp, own, k)
    table = program.transitions
    result = table.get(key)
    if result is None:
        result = interpret(state, program, opp, own, k)
        if len(table) >= TABLE_ENTRIES_PER_INSTRUCTION * len(program.instructions):
            table.clear()
        table[key] = result
    return result
