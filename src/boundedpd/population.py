"""Population engine for the opting-out game.

A population of 2K players is divided into pairs. Every clock tick each
paired player outputs C, D, or O (W is assigned when nothing was emitted).
Any O splits the pair and pays both players Q; both members return to the
unpaired pool. Mixed waits pay nothing, a double wait pays H, and C/D pairs
score the usual PD cells and stay together. Unpaired players idle at zero
payoff (optionally Q_hat per tick) until the rematch event, which uniformly
pairs up the pool, leaving one player over when the pool is odd.

Rematch events fire every ``t`` ticks, or at the end of every tick in
instantaneous mode. Instantaneous mode also grants same-round reactions to
a waiting partner: a player who completed a move while the partner waited
gets to peek at that wait and, if its program answers with O, the opt-out
replaces its move this very tick. The peek runs on a scratch copy of the
machine and commits only when it produces an O, so non-opting strategies
are unaffected.

A pairing's tick, ``play_pair_tick``, is the pair-tick kernel of
:mod:`boundedpd.match` with the peek between its two steps; the peek lives
here because only the opting-out game has it. The draw model of
:mod:`boundedpd.analysis` plays through the same function.

Determinism: the random source is consumed only at rematch events, on a
pool sorted by player id, so a fixed seed reproduces a run exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .game import Action, GameConfig, Mode, PayoffTable, config_header, validate_table
from .match import PairOutcome, Seat, seat_move, settle
from .vm import Observation, StrategyProgram, VmState, tick


# ---------------------------------------------------------------------------
# One tick of a pairing
# ---------------------------------------------------------------------------

def play_pair_tick(
    seat1: Seat,
    seat2: Seat,
    config: GameConfig,
    table: PayoffTable,
    asymmetric_split: bool = False,
) -> PairOutcome:
    """One simultaneous tick of a pairing, with payoffs applied to the seats.

    The shared kernel's two steps, with the instantaneous-rematch peek
    between them. Outside OPD there is no O to react with, so no peek.
    """
    vm1, a1 = seat_move(seat1, config)
    vm2, a2 = seat_move(seat2, config)
    cost1, cost2 = vm1.tick_cost, vm2.tick_cost
    if config.instantaneous_rematch and config.mode is Mode.OPD:
        if a2 is Action.W:
            vm1, a1, cost1 = _peek_at_wait(seat1, vm1, a1, cost1, config)
        elif a1 is Action.W:
            vm2, a2, cost2 = _peek_at_wait(seat2, vm2, a2, cost2, config)
    outcome = settle(seat1, vm1, a1, seat2, vm2, a2, config, table, asymmetric_split)
    return PairOutcome(a1, a2, outcome.p1, outcome.p2, outcome.split, cost1, cost2)


def _peek_at_wait(
    seat: Seat, vm: VmState, action: Action, cost: int, config: GameConfig
) -> tuple[VmState, Action, int]:
    """Same-round reaction to a waiting partner: a seat that completed a C
    or D ticks its machine once more against the wait, and the result
    replaces its move only when it is an O."""
    if action is not Action.C and action is not Action.D:
        return vm, action, cost
    obs = Observation(
        opponent_last_action=Action.W,
        own_last_action=action,
        last_payoff=seat.last_pay,
        horizon_N=config.N,
    )
    peek_vm, peek_action = tick(vm, seat.program, obs, config.k)
    if peek_action is Action.O:
        return peek_vm, Action.O, cost + peek_vm.tick_cost
    return vm, action, cost


# ---------------------------------------------------------------------------
# Population state
# ---------------------------------------------------------------------------

@dataclass
class PlayerSlot:
    pid: int
    label: str
    program: StrategyProgram
    seat: Seat
    total: Fraction = Fraction(0)
    partner: int | None = None
    opt_outs: int = 0
    unpaired_ticks: int = 0
    pool_entry_tick: int | None = None


@dataclass
class PopulationState:
    players: list[PlayerSlot]
    rng: random.Random
    tick: int = 0

    def pool_ids(self) -> list[int]:
        return sorted(p.pid for p in self.players if p.partner is None)

    def pairs(self) -> list[tuple[int, int]]:
        seen = []
        for player in self.players:
            if player.partner is not None and player.pid < player.partner:
                seen.append((player.pid, player.partner))
        return seen


@dataclass(frozen=True)
class PlayEvent:
    tick: int
    pid: int
    partner: int
    action: Action
    pay: Fraction
    cost: int
    split: bool


@dataclass(frozen=True)
class RematchEvent:
    tick: int
    pairings: tuple[tuple[int, int], ...]
    leftover: int | None


Event = PlayEvent | RematchEvent


@dataclass(frozen=True)
class PlayerSummary:
    pid: int
    label: str
    total: Fraction
    opt_outs: int
    unpaired_ticks: int


@dataclass(frozen=True)
class OpdTrace:
    events: tuple[Event, ...]
    summaries: tuple[PlayerSummary, ...]

    def totals(self) -> tuple[Fraction, ...]:
        return tuple(s.total for s in self.summaries)


def rematch(pool: list[int], rng: random.Random) -> tuple[tuple[tuple[int, int], ...], int | None]:
    """Uniform perfect matching over the pool; odd pools leave one player
    (uniformly chosen) unpaired. Consumes the random source in sorted-id
    order so runs are reproducible."""
    shuffled = sorted(pool)
    rng.shuffle(shuffled)
    leftover = shuffled.pop() if len(shuffled) % 2 else None
    pairs = tuple(
        (min(shuffled[i], shuffled[i + 1]), max(shuffled[i], shuffled[i + 1]))
        for i in range(0, len(shuffled), 2)
    )
    return pairs, leftover


def expected_rematch_delay(config: GameConfig) -> Fraction:
    """Expected ticks an unpaired player waits before the next rematch,
    assuming a uniformly random split phase within the period."""
    if config.instantaneous_rematch:
        return Fraction(0)
    return Fraction(config.t - 1, 2)


def _apply_rematch(state: PopulationState, events: list[Event]) -> None:
    pool = state.pool_ids()
    if len(pool) < 2:
        return
    pairs, leftover = rematch(pool, state.rng)
    for a, b in pairs:
        pa, pb = state.players[a], state.players[b]
        pa.partner, pb.partner = b, a
        pa.pool_entry_tick = pb.pool_entry_tick = None
        pa.seat.new_pairing()
        pb.seat.new_pairing()
    events.append(RematchEvent(state.tick, pairs, leftover))


def population_step(
    state: PopulationState,
    config: GameConfig,
    table: PayoffTable,
    asymmetric_split: bool = False,
    unpaired_pay_qhat: bool = False,
) -> list[Event]:
    """Advance the population one clock tick; returns this tick's events."""
    state.tick += 1
    events: list[Event] = []

    for a, b in state.pairs():
        pa, pb = state.players[a], state.players[b]
        outcome = play_pair_tick(pa.seat, pb.seat, config, table, asymmetric_split)
        pa.total += outcome.pay1
        pb.total += outcome.pay2
        if outcome.split:
            if outcome.a1 is Action.O:
                pa.opt_outs += 1
            if outcome.a2 is Action.O:
                pb.opt_outs += 1
            pa.partner = pb.partner = None
            pa.pool_entry_tick = pb.pool_entry_tick = state.tick
        events.append(PlayEvent(state.tick, a, b, outcome.a1, outcome.pay1,
                                outcome.cost1, outcome.split))
        events.append(PlayEvent(state.tick, b, a, outcome.a2, outcome.pay2,
                                outcome.cost2, outcome.split))

    for player in state.players:
        if player.partner is None and player.pool_entry_tick != state.tick:
            player.unpaired_ticks += 1
            if unpaired_pay_qhat:
                player.total += table.Q_hat

    if config.instantaneous_rematch or state.tick % config.t == 0:
        _apply_rematch(state, events)
    return events


def run_population(
    programs: list[tuple[str, StrategyProgram]],
    config: GameConfig,
    table: PayoffTable,
    initial_pairing: list[tuple[int, int]] | None = None,
    asymmetric_split: bool = False,
    unpaired_pay_qhat: bool = False,
) -> OpdTrace:
    """Run the full population game for N ticks.

    ``programs`` lists (label, program) per player; the count must be even.
    The initial pairing is a uniform random matching drawn from the seeded
    source unless an explicit pairing is supplied.
    """
    if config.mode is not Mode.OPD:
        raise ValueError("run_population runs OPD games; use run_match for FTPD")
    violations = validate_table(table, config.mode)
    if violations:
        raise ValueError("invalid payoff table: " + ", ".join(violations))
    if len(programs) < 2 or len(programs) % 2:
        raise ValueError("population size must be even and at least 2")

    players = [
        PlayerSlot(pid=i, label=label, program=program, seat=Seat.fresh(program))
        for i, (label, program) in enumerate(programs)
    ]
    state = PopulationState(players=players, rng=random.Random(config.seed))
    events: list[Event] = []

    if initial_pairing is not None:
        claimed = [pid for pair in initial_pairing for pid in pair]
        if sorted(claimed) != list(range(len(players))):
            raise ValueError("initial pairing must cover every player exactly once")
        for a, b in initial_pairing:
            players[a].partner, players[b].partner = b, a
        events.append(RematchEvent(0, tuple(tuple(sorted(p)) for p in initial_pairing), None))
    else:
        _apply_rematch(state, events)  # state.tick is 0: the initial division

    for _ in range(config.N):
        events.extend(population_step(state, config, table, asymmetric_split, unpaired_pay_qhat))

    summaries = tuple(
        PlayerSummary(p.pid, p.label, p.total, p.opt_outs, p.unpaired_ticks)
        for p in players
    )
    return OpdTrace(events=tuple(events), summaries=summaries)


# ---------------------------------------------------------------------------
# Population spec files and trace export
# ---------------------------------------------------------------------------

class PopulationSpecError(ValueError):
    pass


def parse_population_spec(
    text: str, config: GameConfig, base_dir: str | Path = "."
) -> list[tuple[str, StrategyProgram]]:
    """Parse ``count x strategy`` lines into per-player (label, program).

    A strategy is a builtin name or a path to a ``.pdstrat`` file, resolved
    relative to ``base_dir``.
    """
    from . import dsl, library

    result: list[tuple[str, StrategyProgram]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 3 or parts[1].lower() != "x":
            raise PopulationSpecError(
                f"line {lineno}: expected 'COUNT x STRATEGY', got {stripped!r}"
            )
        try:
            count = int(parts[0])
        except ValueError:
            raise PopulationSpecError(f"line {lineno}: bad count {parts[0]!r}") from None
        if count < 1:
            raise PopulationSpecError(f"line {lineno}: count must be positive")
        name = parts[2]
        if name in library.BUILTIN_NAMES:
            program = library.get(name, config)
            label = name
        else:
            path = Path(base_dir) / name
            if not path.exists():
                raise PopulationSpecError(
                    f"line {lineno}: no builtin or file named {name!r}"
                )
            program = dsl.compile(dsl.parse(path.read_text(encoding="utf-8")), config)
            label = program.name
        result.extend((label, program) for _ in range(count))
    if not result:
        raise PopulationSpecError("population spec is empty")
    return result


def trace_to_csv(
    trace: OpdTrace, config: GameConfig, table: PayoffTable, extra_meta: str = ""
) -> str:
    lines = [
        config_header(table, config, extra_meta),
        "tick,event,player,partner,action,payoff",
    ]
    for event in trace.events:
        if isinstance(event, PlayEvent):
            kind = "split" if event.split else "play"
            lines.append(
                f"{event.tick},{kind},{event.pid},{event.partner},"
                f"{event.action.value},{event.pay}"
            )
        else:
            for a, b in event.pairings:
                lines.append(f"{event.tick},rematch,{a},{b},,")
            if event.leftover is not None:
                lines.append(f"{event.tick},unmatched,{event.leftover},,,")
    return "\n".join(lines) + "\n"


def summary_to_csv(trace: OpdTrace) -> str:
    lines = ["player,strategy,payoff,opt_outs,unpaired_ticks"]
    for s in trace.summaries:
        lines.append(f"{s.pid},{s.label},{s.total},{s.opt_outs},{s.unpaired_ticks}")
    return "\n".join(lines) + "\n"
