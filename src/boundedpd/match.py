"""The pair-tick kernel and the two-player fixed-horizon match engine.

A ``Seat`` is one player's side of a pairing. Every engine plays a tick of
a pairing in two steps: ``seat_move`` ticks each machine against the
completed actions of the previous tick (so moves are simultaneous), and
``settle`` pays the action pair and commits it to both seats. A program
fault, including playing O in a mode that forbids it, turns the offender
into a perpetual waiter from that tick on.

``match_step`` is the two steps back to back: a fixed-horizon match is the
opting-out game without the opt-out. ``population.play_pair_tick`` puts
the instantaneous-rematch peek between them, since only the opting-out
game has it. ``run_match`` plays N ticks of ``match_step``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .game import (
    Action, GameConfig, Mode, PayoffOutcome, PayoffTable, config_header, payoff,
    validate_table,
)
from .vm import Observation, StrategyProgram, VmState, reset, tick


@dataclass(frozen=True)
class TickRecord:
    tick: int
    a1: Action
    a2: Action
    pay1: Fraction
    pay2: Fraction
    cost1: int
    cost2: int


@dataclass(frozen=True)
class MatchTrace:
    records: tuple[TickRecord, ...]
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
    last_pay: Fraction | None = None

    @staticmethod
    def fresh(program: StrategyProgram) -> "Seat":
        return Seat(program=program, vm=reset(program))

    def new_pairing(self) -> None:
        """Forget the previous partner; the machine itself keeps running."""
        self.last_own = None
        self.last_opp = None
        self.last_pay = None


@dataclass(frozen=True)
class PairOutcome:
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
    obs = Observation(
        opponent_last_action=seat.last_opp,
        own_last_action=seat.last_own,
        last_payoff=seat.last_pay,
        horizon_N=config.N,
    )
    vm, action = tick(seat.vm, seat.program, obs, config.k)
    if action is Action.O and config.mode is not Mode.OPD:
        vm = replace(vm, faulted=True, fault_reason="played O outside OPD mode")
        action = Action.W
    return vm, action


def settle(
    seat1: Seat, vm1: VmState, a1: Action,
    seat2: Seat, vm2: VmState, a2: Action,
    config: GameConfig, table: PayoffTable, asymmetric_split: bool = False,
) -> PayoffOutcome:
    """Pay the tick's action pair and commit it, with each seat's new
    machine state, to both seats."""
    outcome = payoff(a1, a2, table, config.mode, asymmetric_split)
    seat1.vm, seat1.last_own, seat1.last_opp, seat1.last_pay = vm1, a1, a2, outcome.p1
    seat2.vm, seat2.last_own, seat2.last_opp, seat2.last_pay = vm2, a2, a1, outcome.p2
    return outcome


def match_step(seat1: Seat, seat2: Seat, config: GameConfig, table: PayoffTable) -> PairOutcome:
    """Advance one tick; both players observe, then both move."""
    vm1, a1 = seat_move(seat1, config)
    vm2, a2 = seat_move(seat2, config)
    outcome = settle(seat1, vm1, a1, seat2, vm2, a2, config, table)
    return PairOutcome(a1, a2, outcome.p1, outcome.p2, outcome.split,
                       vm1.tick_cost, vm2.tick_cost)


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
    violations = validate_table(table, config.mode)
    if violations:
        raise ValueError("invalid payoff table: " + ", ".join(violations))

    seat1, seat2 = Seat.fresh(p1), Seat.fresh(p2)
    total1 = total2 = Fraction(0)
    records = []
    for index in range(1, config.N + 1):
        out = match_step(seat1, seat2, config, table)
        total1 += out.pay1
        total2 += out.pay2
        records.append(TickRecord(index, out.a1, out.a2, out.pay1, out.pay2,
                                  out.cost1, out.cost2))
    return MatchTrace(
        records=tuple(records),
        total1=total1,
        total2=total2,
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
    for rec in trace.records:
        lines.append(
            f"{rec.tick},{rec.a1.value},{rec.a2.value},"
            f"{rec.pay1},{rec.pay2},{rec.cost1},{rec.cost2}"
        )
    return "\n".join(lines) + "\n"
