"""Population engine for the opting-out game.

A population of 2K players is divided into pairs. Every clock tick each
paired player outputs C, D, or O (W is assigned when nothing was emitted).
Any O splits the pair and pays both players Q; both members return to the
unpaired pool. Mixed waits pay nothing, a double wait pays H, and C/D pairs
score the usual PD cells and stay together. Unpaired players idle at zero
payoff (optionally Q_hat per tick) until the rematch event, which uniformly
pairs up the pool. The pool is always even: the population is, and a split
returns both members to it.

Rematch events fire every ``t`` ticks, or at the end of every tick in
instantaneous mode. Instantaneous mode also grants same-round reactions to
a waiting partner: a player who completed a move while the partner waited
gets to peek at that wait and, if its program answers with O, the opt-out
replaces its move this very tick. The peek runs on a scratch copy of the
machine and commits only when it produces an O, so non-opting strategies
are unaffected.

A pairing's tick, ``play_pair_tick``, is the pair-tick kernel of
:mod:`boundedpd.match` with the peek between the moves and their commit;
it returns the action pair for the caller to pay. The peek lives here
because only the opting-out game has it. The draw model of
:mod:`boundedpd.analysis` plays through the same function.

With the config fixed for a run, a pairing's tick is a function of its
joint state alone: both programs, both machines and both last moves. So a
population plays each distinct joint state once, as the draw model does:
``PopulationState.steps`` is the run's joint-state table, and
``population_step`` calls ``play_pair_tick`` only for a state the table
does not hold, and otherwise sets both seats from the entry. Players of one
spec line share a program, so their pairings share entries: a 100-player
roster of seven builtins run for 200 ticks plays 436 to 1 039 distinct
joint states in about 10 000 pair ticks.

An ``OpdTrace`` keeps its play events in six columns, one row per player
and pairing tick (tick, player, partner, action, pay and split), plus the
few rematch events, each with its position in the play stream. The columns
hold ints, shared actions, bools and the payoff rows' own ``Fraction``s, so
a trace keeps no object per tick for the garbage collector to walk;
``OpdTrace.events`` builds the ``PlayEvent`` and ``RematchEvent`` stream
again on read, and ``trace_to_csv`` writes it from the columns in one pass,
formatting each distinct row once.

Determinism: the random source is consumed only at rematch events, on a
pool sorted by player id, so a fixed seed reproduces a run exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterator, NamedTuple

from .game import (
    ACTION_TEXT, Action, GameConfig, Mode, PayoffTable, config_header, payoff_unit,
    require_valid_table,
)
from .library import resolve
from .match import Seat, seat_move
from .vm import StrategyProgram, VmState, tick

# Enum members read as module globals, not class attributes, on each tick.
_C, _D, _W, _O, _OPD = Action.C, Action.D, Action.W, Action.O, Mode.OPD


# ---------------------------------------------------------------------------
# One tick of a pairing
# ---------------------------------------------------------------------------

def play_pair_tick(seat1: Seat, seat2: Seat, config: GameConfig) -> tuple[Action, Action]:
    """One simultaneous tick of a pairing: both seats move, the
    instantaneous-rematch peek runs (in OPD only: no other mode has an O),
    and both moves are committed. Returns the action pair for the caller to pay."""
    vm1, a1 = seat_move(seat1, seat2.last, config)
    vm2, a2 = seat_move(seat2, seat1.last, config)
    if config.instantaneous_rematch and config.mode is _OPD:
        if a2 is _W:
            vm1, a1 = _peek_at_wait(seat1.program, vm1, a1, config)
        elif a1 is _W:
            vm2, a2 = _peek_at_wait(seat2.program, vm2, a2, config)
    seat1.vm, seat1.last = vm1, a1
    seat2.vm, seat2.last = vm2, a2
    return a1, a2


def _peek_at_wait(
    program: StrategyProgram, vm: VmState, action: Action, config: GameConfig
) -> tuple[VmState, Action]:
    """Same-round reaction to a waiting partner: a seat that completed a C
    or D ticks its machine once more against the wait, and the result
    replaces its move only when it is an O."""
    if action is not _C and action is not _D:
        return vm, action
    peek_vm, peek_action = tick(vm, program, _W, action, config.k)
    if peek_action is _O:
        return peek_vm, _O
    return vm, action


# ---------------------------------------------------------------------------
# Population state
# ---------------------------------------------------------------------------

@dataclass
class PlayerSlot:
    """A player's seat and running score, kept as an integer over the
    table's ``game.payoff_unit``."""

    pid: int
    label: str
    seat: Seat
    scaled_total: int = 0
    partner: int | None = None
    opt_outs: int = 0
    unpaired_ticks: int = 0


@dataclass
class PopulationState:
    """The players, the rematch source and the run's pair ticks. Scores and
    ``idle_pay``, what an unpaired player earns per tick, are integers over
    the table's ``game.payoff_unit``, so adding a payoff to a score is
    integer arithmetic.

    ``steps`` maps each joint state a pairing has played this run,
    ``(id(program1), vm1, last1, id(program2), vm2, last2)``, to what
    ``play_pair_tick`` made of it: ``(vm1, a1, vm2, a2)``, both machines
    after the tick and both moves. Programs are keyed by identity, which is
    cheaper than hashing their instructions; the roster keeps them alive
    for the run, so their ids are stable. It holds at most one entry per
    pair tick."""

    players: list[PlayerSlot]
    rng: random.Random
    idle_pay: int
    tick: int = 0
    steps: dict[tuple, tuple[VmState, Action, VmState, Action]] = field(default_factory=dict)

    def pool_ids(self) -> list[int]:
        return sorted(p.pid for p in self.players if p.partner is None)

    def pairs(self) -> list[tuple[int, int]]:
        seen = []
        for player in self.players:
            if player.partner is not None and player.pid < player.partner:
                seen.append((player.pid, player.partner))
        return seen


class PlayEvent(NamedTuple):
    tick: int
    pid: int
    partner: int
    action: Action
    pay: Fraction
    split: bool


@dataclass(frozen=True)
class RematchEvent:
    tick: int
    pairings: tuple[tuple[int, int], ...]


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
    """A population run, its play events kept in columns: row i is the
    ``PlayEvent`` ``(tick[i], pid[i], partner[i], action[i], pay[i],
    split[i])``, and ``pay`` holds the payoff rows' own ``Fraction``s.
    ``rematches`` pairs each rematch event with the number of play rows
    before it. ``population_step`` appends to the columns while the run
    lasts; after it they are not to be mutated."""

    tick: list[int] = field(default_factory=list)
    pid: list[int] = field(default_factory=list)
    partner: list[int] = field(default_factory=list)
    action: list[Action] = field(default_factory=list)
    pay: list[Fraction] = field(default_factory=list)
    split: list[bool] = field(default_factory=list)
    rematches: list[tuple[int, RematchEvent]] = field(default_factory=list)
    summaries: tuple[PlayerSummary, ...] = ()

    @property
    def events(self) -> tuple[Event, ...]:
        """The run's event stream, built from the columns on every read."""
        events: list[Event] = []
        for plays, rematch_event in self._segments(map(PlayEvent, *self._play_columns())):
            events += plays
            if rematch_event is not None:
                events.append(rematch_event)
        return tuple(events)

    def totals(self) -> tuple[Fraction, ...]:
        return tuple(s.total for s in self.summaries)

    def _play_columns(self) -> tuple[list, ...]:
        return (self.tick, self.pid, self.partner, self.action, self.pay, self.split)

    def _segments(self, plays: Iterator) -> Iterator[tuple[Iterator, RematchEvent | None]]:
        """``plays``, one item per play row, cut at the rematch events: each
        run of items with the event that follows it, and the last with None.
        Each run is to be consumed before the next is taken."""
        done = 0
        for position, rematch_event in self.rematches:
            yield islice(plays, position - done), rematch_event
            done = position
        yield plays, None


def rematch(pool: list[int], rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Uniform perfect matching over an even pool. Consumes the random
    source in sorted-id order so runs are reproducible. The pool is always
    even: a population is, and a split returns both members to it."""
    shuffled = sorted(pool)
    rng.shuffle(shuffled)
    return tuple(
        (min(shuffled[i], shuffled[i + 1]), max(shuffled[i], shuffled[i + 1]))
        for i in range(0, len(shuffled), 2)
    )


def expected_rematch_delay(config: GameConfig) -> Fraction:
    """Expected ticks an unpaired player waits before the next rematch,
    assuming a uniformly random split phase within the period."""
    if config.instantaneous_rematch:
        return Fraction(0)
    return Fraction(config.t - 1, 2)


def _apply_rematch(state: PopulationState, trace: OpdTrace) -> None:
    pool = state.pool_ids()
    if len(pool) < 2:
        return
    pairs = rematch(pool, state.rng)
    for a, b in pairs:
        pa, pb = state.players[a], state.players[b]
        pa.partner, pb.partner = b, a
        pa.seat.new_pairing()
        pb.seat.new_pairing()
    trace.rematches.append((len(trace.pid), RematchEvent(state.tick, pairs)))


def population_step(
    state: PopulationState,
    config: GameConfig,
    table: PayoffTable,
    trace: OpdTrace,
    asymmetric_split: bool = False,
) -> None:
    """Advance the population one clock tick, appending its events to ``trace``."""
    state.tick += 1
    now = state.tick

    # Only players unpaired as the tick starts idle through it: a pair that
    # splits this tick has played it.
    for player in state.players:
        if player.partner is None:
            player.unpaired_ticks += 1
            player.scaled_total += state.idle_pay

    rows = table.outcomes[config.mode, asymmetric_split]
    steps = state.steps
    ticks, pids, partners = trace.tick, trace.pid, trace.partner
    actions, pays, splits = trace.action, trace.pay, trace.split
    for a, b in state.pairs():
        pa, pb = state.players[a], state.players[b]
        seat1, seat2 = pa.seat, pb.seat
        key = (id(seat1.program), seat1.vm, seat1.last, id(seat2.program), seat2.vm, seat2.last)
        step = steps.get(key)
        if step is None:
            a1, a2 = play_pair_tick(seat1, seat2, config)
            steps[key] = (seat1.vm, a1, seat2.vm, a2)
        else:
            seat1.vm, a1, seat2.vm, a2 = step
            seat1.last, seat2.last = a1, a2
        pay1, pay2, split, scaled1, scaled2 = rows[a1, a2]
        pa.scaled_total += scaled1
        pb.scaled_total += scaled2
        if split:
            if a1 is _O:
                pa.opt_outs += 1
            if a2 is _O:
                pb.opt_outs += 1
            pa.partner = pb.partner = None
        # Two rows per pairing, the first seat's and then the second's.
        ticks += (now, now)
        pids += (a, b)
        partners += (b, a)
        actions += (a1, a2)
        pays += (pay1, pay2)
        splits += (split, split)

    if config.rematches_at(now):
        _apply_rematch(state, trace)


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
    require_valid_table(table)
    if len(programs) < 2 or len(programs) % 2:
        raise ValueError("population size must be even and at least 2")

    players = [
        PlayerSlot(pid=i, label=label, seat=Seat.fresh(program))
        for i, (label, program) in enumerate(programs)
    ]
    scale = payoff_unit(table)
    state = PopulationState(players=players, rng=random.Random(config.seed),
                            idle_pay=int(table.Q_hat * scale) if unpaired_pay_qhat else 0)
    trace = OpdTrace()

    if initial_pairing is not None:
        claimed = [pid for pair in initial_pairing for pid in pair]
        if sorted(claimed) != list(range(len(players))):
            raise ValueError("initial pairing must cover every player exactly once")
        for a, b in initial_pairing:
            players[a].partner, players[b].partner = b, a
        pairs = tuple(tuple(sorted(p)) for p in initial_pairing)
        trace.rematches.append((0, RematchEvent(0, pairs)))
    else:
        _apply_rematch(state, trace)  # state.tick is 0: the initial division

    for _ in range(config.N):
        population_step(state, config, table, trace, asymmetric_split)

    summaries = tuple(
        PlayerSummary(p.pid, p.label, Fraction(p.scaled_total, scale), p.opt_outs,
                      p.unpaired_ticks)
        for p in players
    )
    return replace(trace, summaries=summaries)


# ---------------------------------------------------------------------------
# Population spec files and trace export
# ---------------------------------------------------------------------------

class PopulationSpecError(ValueError):
    pass


def parse_population_spec(
    text: str, config: GameConfig, base_dir: str | Path = "."
) -> list[tuple[str, StrategyProgram]]:
    """Parse ``count x strategy`` lines into per-player (label, program).

    A strategy is whatever :func:`boundedpd.library.resolve` takes, with
    file paths relative to ``base_dir``; each player is labeled with its
    program's name. Errors name the spec line.
    """
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
        try:
            program = resolve(parts[2], config, base_dir)
        except ValueError as exc:
            raise PopulationSpecError(f"line {lineno}: {exc}") from exc
        result.extend((program.name, program) for _ in range(count))
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
    # A run plays few distinct rows: each line is its tick's text plus the
    # text after it, each formatted once. The tails are keyed by the pay's
    # identity (a table row's own object), which is cheaper than a
    # Fraction's hash, and the ticks come in order.
    tails: dict[tuple, str] = {}
    last_tick, tick_text = None, ""
    for plays, rematch_event in trace._segments(zip(*trace._play_columns())):
        for tick, pid, partner, action, pay, split in plays:
            if tick != last_tick:
                last_tick, tick_text = tick, str(tick)
            key = (pid, partner, action, id(pay), split)
            tail = tails.get(key)
            if tail is None:
                kind = "split" if split else "play"
                tail = tails[key] = f",{kind},{pid},{partner},{ACTION_TEXT[action]},{pay}"
            lines.append(tick_text + tail)
        if rematch_event is not None:
            lines += [f"{rematch_event.tick},rematch,{a},{b},," for a, b in rematch_event.pairings]
    return "\n".join(lines) + "\n"


def summary_to_csv(trace: OpdTrace) -> str:
    lines = ["player,strategy,payoff,opt_outs,unpaired_ticks"]
    for s in trace.summaries:
        lines.append(f"{s.pid},{s.label},{s.total},{s.opt_outs},{s.unpaired_ticks}")
    return "\n".join(lines) + "\n"
