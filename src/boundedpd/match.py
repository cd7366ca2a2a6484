"""The pair-tick kernel and the two-player fixed-horizon match engine.

A ``Seat`` is one player's side of a pairing. Every engine plays a tick of
a pairing in two steps: ``seat_move`` ticks each machine against the
completed actions of the previous tick (so moves are simultaneous), and
``settle`` pays the action pair, commits it to both seats and returns the
tick's ``PairOutcome``. A program fault, including playing O in a mode that
forbids it, turns the offender into a perpetual waiter from that tick on.

``seat_move`` advances a machine with ``vm.tick``, through the program's
transition table, so a transition runs the interpreter once per program:
GRIM against GRIM runs it on two ticks of a match and looks the rest up.
``settle`` pays by the same kind of lookup: the pair's row of the payoff
table's ``outcomes``, one dict read and no function call.

``PairOutcome``, like the machine's ``VmState``, is a ``NamedTuple``: built
in C, updated with ``_replace``, and equal to the plain tuple of its
fields, so no dict may mix them with plain tuples as keys.

``match_step`` is the two steps back to back: a fixed-horizon match is the
opting-out game without the opt-out. ``population.play_pair_tick`` puts
the instantaneous-rematch peek between them, since only the opting-out
game has it. ``run_match`` plays N ticks of ``match_step`` and totals each
side exactly by counting the action pairs played: each count times the
pair's payoff, as an integer over the table's ``payoff_unit``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .game import (
    ACTION_TEXT, Action, GameConfig, Mode, PayoffTable, config_header, payoff_unit,
    require_valid_table,
)
from .vm import StrategyProgram, VmState, reset, tick


@dataclass(frozen=True)
class MatchTrace:
    """A played match: tick i's outcome is ``records[i - 1]``."""

    records: tuple[PairOutcome, ...]
    total1: Fraction
    total2: Fraction
    fault1: str | None = None
    fault2: str | None = None

    @property
    def totals(self) -> tuple[Fraction, Fraction]:
        return (self.total1, self.total2)


@dataclass
class Seat:
    """A player's view of its current pairing."""

    program: StrategyProgram
    vm: VmState
    last_own: Action | None = None
    last_opp: Action | None = None

    @staticmethod
    def fresh(program: StrategyProgram) -> "Seat":
        return Seat(program=program, vm=reset(program))

    def new_pairing(self) -> None:
        """Forget the previous partner; the machine itself keeps running."""
        self.last_own = None
        self.last_opp = None


class PairOutcome(NamedTuple):
    a1: Action
    a2: Action
    pay1: Fraction
    pay2: Fraction
    split: bool
    cost1: int
    cost2: int


def seat_move(seat: Seat, config: GameConfig) -> tuple[VmState, Action]:
    """Tick the seat's machine against its view of the previous tick.

    Nothing is committed to the seat. O is the only action outside a mode's
    set (FTPD lacks it); playing it there is a program fault: the player
    waits from here on and this tick's move is already a wait.
    """
    vm, action = tick(seat.vm, seat.program, seat.last_opp, seat.last_own, config.k)
    if action is Action.O and config.mode is not Mode.OPD:
        vm = vm._replace(fault_reason="played O outside OPD mode")
        action = Action.W
    return vm, action


def settle(
    seat1: Seat, vm1: VmState, a1: Action, cost1: int,
    seat2: Seat, vm2: VmState, a2: Action, cost2: int,
    config: GameConfig, table: PayoffTable, asymmetric_split: bool = False,
) -> PairOutcome:
    """Pay the tick's action pair and commit it, with each seat's new
    machine state, to both seats; ``cost1``/``cost2`` are the XOR units
    each seat spent on the tick."""
    pay1, pay2, split, _, _ = table.outcomes[config.mode, asymmetric_split][a1, a2]
    seat1.vm, seat1.last_own, seat1.last_opp = vm1, a1, a2
    seat2.vm, seat2.last_own, seat2.last_opp = vm2, a2, a1
    return PairOutcome(a1, a2, pay1, pay2, split, cost1, cost2)


def match_step(seat1: Seat, seat2: Seat, config: GameConfig, table: PayoffTable) -> PairOutcome:
    """Advance one tick; both players observe, then both move."""
    vm1, a1 = seat_move(seat1, config)
    vm2, a2 = seat_move(seat2, config)
    return settle(seat1, vm1, a1, vm1.tick_cost, seat2, vm2, a2, vm2.tick_cost, config, table)


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
    records = tuple(match_step(seat1, seat2, config, table) for _ in range(config.N))
    rows = table.outcomes[config.mode, False]
    scaled1 = scaled2 = 0
    for pair, count in Counter(map(itemgetter(0, 1), records)).items():
        _, _, _, pay1, pay2 = rows[pair]
        scaled1 += count * pay1
        scaled2 += count * pay2
    unit = payoff_unit(table)
    return MatchTrace(
        records=records,
        total1=Fraction(scaled1, unit),
        total2=Fraction(scaled2, unit),
        fault1=seat1.vm.fault_reason,
        fault2=seat2.vm.fault_reason,
    )


def deviation_gain(
    opponent: StrategyProgram,
    candidate: StrategyProgram,
    baseline: StrategyProgram,
    config: GameConfig,
    table: PayoffTable,
) -> Fraction:
    """Payoff delta for player 1 from playing ``candidate`` instead of
    ``baseline`` against a fixed opponent."""
    with_candidate = run_match(candidate, opponent, config, table).total1
    with_baseline = run_match(baseline, opponent, config, table).total1
    return with_candidate - with_baseline


def trace_to_csv(
    trace: MatchTrace, config: GameConfig, table: PayoffTable, extra_meta: str = ""
) -> str:
    """CSV export with a reproducibility header naming config hash and seed."""
    lines = [
        config_header(table, config, extra_meta),
        "tick,a1,a2,pay1,pay2,cost1,cost2",
    ]
    for index, rec in enumerate(trace.records, start=1):
        lines.append(
            f"{index},{ACTION_TEXT[rec.a1]},{ACTION_TEXT[rec.a2]},"
            f"{rec.pay1},{rec.pay2},{rec.cost1},{rec.cost2}"
        )
    return "\n".join(lines) + "\n"
