"""The pair-tick kernel and the two-player fixed-horizon match engine.

A pairing's joint state is each player's program, machine and own move on
the pairing's last tick (None before the first); the kernel maps it to the
next and holds no state. A tick only moves: ``seat_move`` ticks each
machine against its own last move and the partner's (so moves are
simultaneous), through the program's transition table, so a transition
runs the interpreter once per program: GRIM against GRIM runs it on two
ticks of a match and looks the rest up. Each engine then pays the action
pair from its own row of the payoff table's ``outcomes``, one dict read. A
program fault, including playing O in a mode that forbids it, turns the
offender into a perpetual waiter.

``match_step`` is a match's tick: from the joint state ``(program1, vm1,
last1, program2, vm2, last2)`` it returns the next one's ``(vm1, a1, vm2,
a2)``; a tick's XOR units are each machine's ``tick_cost``. A fixed-horizon
match is the opting-out game without the opt-out;
``population.play_pair_tick`` adds the instantaneous-rematch peek.
``run_match`` keeps the joint state in loop locals, plays N ticks of
``match_step`` and appends each tick to the trace's four columns, ``a1``,
``a2``, ``cost1`` and ``cost2``: flat lists of shared actions and small
ints, so a trace holds no object per tick for the garbage collector to
walk. The faults are the final machines'. The match is paid once, by
counting the action pairs played: each count times the pair's payoff, an
integer over the table's ``payoff_unit``. ``trace_to_csv`` reads the
columns and each tick's pay from the same rows as it writes the tick's line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .game import (
    ACTION_TEXT, Action, GameConfig, Mode, PayoffTable, config_header, payoff_unit,
    require_valid_table,
)
from .vm import StrategyProgram, VmState, reset, tick

# Enum members read as module globals, not class attributes, on each move.
_O, _W, _OPD = Action.O, Action.W, Mode.OPD


@dataclass(frozen=True)
class MatchTrace:
    """A played match, kept in columns: tick i's actions are ``a1[i - 1]``
    and ``a2[i - 1]``, its XOR units ``cost1[i - 1]`` and ``cost2[i - 1]``.
    The totals pay the action pairs. The columns are not to be mutated."""

    a1: list[Action]
    a2: list[Action]
    cost1: list[int]
    cost2: list[int]
    total1: Fraction
    total2: Fraction
    fault1: str | None = None
    fault2: str | None = None

    @property
    def totals(self) -> tuple[Fraction, Fraction]:
        return (self.total1, self.total2)


def seat_move(vm: VmState, program: StrategyProgram, opp: Action | None, own: Action | None,
              config: GameConfig) -> tuple[VmState, Action]:
    """Tick ``vm`` against ``opp``, the partner's last move, and ``own``, its own.

    O is the only action outside a mode's set (FTPD lacks it); playing it
    there is a program fault: the player waits from here on and this tick's
    move is already a wait.
    """
    vm, action = tick(vm, program, opp, own, config.k)
    if action is _O and config.mode is not _OPD:
        vm = vm._replace(fault_reason="played O outside OPD mode")
        action = _W
    return vm, action


def match_step(program1: StrategyProgram, vm1: VmState, last1: Action | None,
               program2: StrategyProgram, vm2: VmState, last2: Action | None,
               config: GameConfig) -> tuple[VmState, Action, VmState, Action]:
    """Advance one tick from the joint state; both players observe, then
    both move. Returns the next joint state's ``(vm1, a1, vm2, a2)``."""
    vm1, a1 = seat_move(vm1, program1, last2, last1, config)
    vm2, a2 = seat_move(vm2, program2, last1, last2, config)
    return vm1, a1, vm2, a2


def run_match(
    p1: StrategyProgram,
    p2: StrategyProgram,
    config: GameConfig,
    table: PayoffTable,
) -> MatchTrace:
    """Play a full match of N ticks. Deterministic; raises on a bad table
    or a non-FTPD config (population games belong to the other engine)."""
    if config.mode is not Mode.FTPD:
        raise ValueError("run_match runs FTPD games; use run_population for OPD")
    require_valid_table(table)

    vm1, a1, vm2, a2 = reset(p1), None, reset(p2), None
    a1s: list[Action] = []
    a2s: list[Action] = []
    costs1: list[int] = []
    costs2: list[int] = []
    for _ in range(config.N):
        vm1, a1, vm2, a2 = match_step(p1, vm1, a1, p2, vm2, a2, config)
        a1s.append(a1)
        a2s.append(a2)
        costs1.append(vm1.tick_cost)
        costs2.append(vm2.tick_cost)
    rows = table.outcomes[config.mode, False]
    scaled1 = scaled2 = 0
    for pair, count in Counter(zip(a1s, a2s)).items():
        _, _, _, pay1, pay2 = rows[pair]
        scaled1 += count * pay1
        scaled2 += count * pay2
    unit = payoff_unit(table)
    return MatchTrace(
        a1=a1s,
        a2=a2s,
        cost1=costs1,
        cost2=costs2,
        total1=Fraction(scaled1, unit),
        total2=Fraction(scaled2, unit),
        fault1=vm1.fault_reason,
        fault2=vm2.fault_reason,
    )


def trace_to_csv(
    trace: MatchTrace, config: GameConfig, table: PayoffTable, extra_meta: str = ""
) -> str:
    """CSV export with a reproducibility header naming config hash and seed."""
    rows = table.outcomes[config.mode, False]
    lines = [
        config_header(table, config, extra_meta),
        "tick,a1,a2,pay1,pay2,cost1,cost2",
    ]
    columns = zip(trace.a1, trace.a2, trace.cost1, trace.cost2)
    for index, (a1, a2, cost1, cost2) in enumerate(columns, start=1):
        pay1, pay2, _, _, _ = rows[a1, a2]
        lines.append(f"{index},{ACTION_TEXT[a1]},{ACTION_TEXT[a2]},{pay1},{pay2},{cost1},{cost2}")
    return "\n".join(lines) + "\n"
