"""The pair-tick kernel and the two-player fixed-horizon match engine.

A ``Seat`` is one player's side of a pairing: its program, its machine
and its own move on the pairing's last tick. A tick of a pairing only
moves: ``seat_move`` ticks each machine against its own last move and the
partner's (so moves are simultaneous), and both moves are committed. Each
engine then pays the action pair from its own row of the payoff table's
``outcomes``, one dict read. A program fault, including playing O in a
mode that forbids it, turns the offender into a perpetual waiter.

``seat_move`` advances a machine with ``vm.tick``, through the program's
transition table, so a transition runs the interpreter once per program:
GRIM against GRIM runs it on two ticks of a match and looks the rest up.

``match_step`` is a match's tick and returns what was played, the plain
tuple ``(a1, a2, cost1, cost2)``: the action pair and each seat's XOR
units, no pay. A fixed-horizon match is the opting-out game without the
opt-out; ``population.play_pair_tick`` adds the instantaneous-rematch peek.
``run_match`` plays N ticks of ``match_step`` and appends each tick to the
trace's four columns, ``a1``, ``a2``, ``cost1`` and ``cost2``: flat lists
of shared actions and small ints, so a trace holds no object per tick for
the garbage collector to walk. The match is paid once, by counting the
action pairs played: each count times the pair's payoff, an integer over
the table's ``payoff_unit``. ``trace_to_csv`` reads the columns and each
tick's pay from the same rows as it writes the tick's line.
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


@dataclass
class Seat:
    """A player's side of its pairing: the program, its machine and its
    own move on the pairing's last tick (None before the first)."""

    program: StrategyProgram
    vm: VmState
    last: Action | None = None

    @staticmethod
    def fresh(program: StrategyProgram) -> "Seat":
        return Seat(program=program, vm=reset(program))


def seat_move(seat: Seat, opp: Action | None, config: GameConfig) -> tuple[VmState, Action]:
    """Tick the seat's machine against ``opp``, the partner's last move, and its own.

    Nothing is committed to the seat. O is the only action outside a mode's
    set (FTPD lacks it); playing it there is a program fault: the player
    waits from here on and this tick's move is already a wait.
    """
    vm, action = tick(seat.vm, seat.program, opp, seat.last, config.k)
    if action is _O and config.mode is not _OPD:
        vm = vm._replace(fault_reason="played O outside OPD mode")
        action = _W
    return vm, action


def match_step(seat1: Seat, seat2: Seat, config: GameConfig) -> tuple[Action, Action, int, int]:
    """Advance one tick; both players observe, then both move. Returns what
    was played: the action pair and each seat's XOR units."""
    vm1, a1 = seat_move(seat1, seat2.last, config)
    vm2, a2 = seat_move(seat2, seat1.last, config)
    seat1.vm, seat1.last = vm1, a1
    seat2.vm, seat2.last = vm2, a2
    return a1, a2, vm1.tick_cost, vm2.tick_cost


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

    seat1, seat2 = Seat.fresh(p1), Seat.fresh(p2)
    a1s: list[Action] = []
    a2s: list[Action] = []
    costs1: list[int] = []
    costs2: list[int] = []
    for _ in range(config.N):
        a1, a2, cost1, cost2 = match_step(seat1, seat2, config)
        a1s.append(a1)
        a2s.append(a2)
        costs1.append(cost1)
        costs2.append(cost2)
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
        fault1=seat1.vm.fault_reason,
        fault2=seat2.vm.fault_reason,
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
