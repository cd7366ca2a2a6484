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

A pairing's tick, ``play_pair_tick``, is ``match.match_step`` followed by
each seat's answer to a waiting partner; like the kernel, it maps a joint
state to the next. The answer lives here because only the opting-out game
has it. The draw model and the play tree of :mod:`boundedpd.analysis`
play through the same rule.

With the config fixed, a pairing's tick is a function of its joint state
alone: both programs, both machines and both last moves. ``JointStates``
numbers the joint states as they arise and plays each once, keeping its
move: the next state's number, both actions, whether the row splits and
seat 1's scaled payoff. A population and the draw model of
:mod:`boundedpd.analysis` each step through one such table.
``PopulationState`` keeps the live pairs in order of the lower id, each
with its state's number, so ``population_step`` maps the pairs' numbers
through the moves. The pairs change only at a split and a rematch event,
and a player's machine is read back from its pair's joint state only when
the pair splits. Players of one spec line share a program, so their
pairings share states: a 100-player roster of seven builtins run for 200
ticks plays 436 to 1 039 distinct joint states in 9 862 to 10 000 pair
ticks.

A population, like a match, keeps what was played and is paid once by
counting. An ``OpdTrace`` holds one row per pairing tick in five columns
of ints and shared actions (tick, lower id, higher id and their two
actions), so it keeps no object per tick for the garbage collector to
walk; the payoff rows the run was paid from; and the rematch events with
their positions among the rows. ``run_population`` counts the distinct
``(first, second, a1, a2)`` rows: the counts times the rows' payoffs give
each player's total, and they give its plays and opt-outs; a player idles
through every tick it did not play. ``trace_to_csv`` writes two lines
per row, cut at the rematch events, and formats each distinct row's two
lines once.

Determinism: the random source is consumed only at rematch events, on a
pool sorted by player id, so a fixed seed reproduces a run exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

from .game import (
    ACTION_TEXT, Action, GameConfig, Mode, PayoffTable, config_header, payoff_unit,
    require_valid_table,
)
from .library import resolve
from .match import match_step
from .vm import StrategyProgram, VmState, reset, tick

# Enum members read as module globals, not class attributes, on each tick.
_C, _D, _W, _O, _OPD = Action.C, Action.D, Action.W, Action.O, Mode.OPD


# ---------------------------------------------------------------------------
# One tick of a pairing
# ---------------------------------------------------------------------------

def _answer_wait(
    program: StrategyProgram, vm: VmState, action: Action, partner: Action, config: GameConfig
) -> tuple[VmState, Action]:
    """Same-round reaction to a waiting partner, in instantaneous OPD only:
    a seat that moved C or D while its partner played W ticks its machine
    once more against the wait, and the result replaces its move only when
    it is an O."""
    if (partner is _W and (action is _C or action is _D) and config.instantaneous_rematch
            and config.mode is _OPD):
        peek_vm, peek_action = tick(vm, program, _W, action, config.k)
        if peek_action is _O:
            return peek_vm, _O
    return vm, action


def play_pair_tick(program1: StrategyProgram, vm1: VmState, last1: Action | None,
                   program2: StrategyProgram, vm2: VmState, last2: Action | None,
                   config: GameConfig) -> tuple[VmState, Action, VmState, Action]:
    """One simultaneous tick of a pairing from its joint state: ``match_step``,
    then each seat answers a waiting partner. Returns the next joint state's
    ``(vm1, a1, vm2, a2)`` for the caller to pay."""
    vm1, a1, vm2, a2 = match_step(program1, vm1, last1, program2, vm2, last2, config)
    vm1, answer1 = _answer_wait(program1, vm1, a1, a2, config)
    vm2, answer2 = _answer_wait(program2, vm2, a2, a1, config)
    return vm1, answer1, vm2, answer2


# ---------------------------------------------------------------------------
# Population state
# ---------------------------------------------------------------------------

@dataclass
class JointStates:
    """The joint states of pairings among ``programs``, numbered, and their moves.

    A joint state is ``(program1, vm1, last1, program2, vm2, last2)``, both
    seats of a pairing, with each program as its place in ``programs``.
    ``states`` lists them in the order they arose and ``numbers`` maps each
    to its place there. With the config and the payoff ``rows`` fixed, a
    pairing's tick is a function of its joint state alone: ``moves[s]`` is
    what a pairing at state ``s`` plays, ``(next state, a1, a2, split,
    pay1)``, or None until ``play`` fills it, once; ``pay1`` is seat 1's
    payoff from the row, as an integer over the table's ``payoff_unit``.
    A split's next state still holds both machines, which the players
    keep."""

    programs: list[StrategyProgram]
    config: GameConfig
    rows: dict[tuple[Action, Action], tuple]
    states: list[tuple] = field(default_factory=list)
    numbers: dict[tuple, int] = field(default_factory=dict)
    moves: list[tuple[int, Action, Action, bool, int] | None] = field(default_factory=list)

    def number(self, state: tuple) -> int:
        """The joint state's number, a new one the first time it arises."""
        number = self.numbers.setdefault(state, len(self.states))
        if number == len(self.states):
            self.states.append(state)
            self.moves.append(None)
        return number

    def play(self, number: int) -> tuple[int, Action, Action, bool, int]:
        """Fill in and return the move of state ``number``: one
        ``play_pair_tick`` from it."""
        program1, vm1, last1, program2, vm2, last2 = self.states[number]
        vm1, a1, vm2, a2 = play_pair_tick(self.programs[program1], vm1, last1,
                                          self.programs[program2], vm2, last2, self.config)
        after = self.number((program1, vm1, a1, program2, vm2, a2))
        row = self.rows[a1, a2]
        move = self.moves[number] = (after, a1, a2, row[2], row[3])
        return move


@dataclass
class PopulationState:
    """The players, the rematch source, the live pairs and the run's joint
    states. A player's program number, ``program_of[pid]``, is the id of
    the first player that runs it: ``joint_states.programs`` is by player.

    The live pairs are ``(first[i], second[i])``, the lower id first and in
    ascending order of it, at joint state ``joint[i]``; ``pool`` holds the
    unpaired players. They change only at a split and a rematch. ``vms`` is
    each player's machine as its last pairing left it: a paired player's
    machine is in its pair's joint state until the pair splits."""

    joint_states: JointStates
    program_of: list[int]
    vms: list[VmState]
    rng: random.Random
    tick: int = 0
    first: list[int] = field(default_factory=list)
    second: list[int] = field(default_factory=list)
    joint: list[int] = field(default_factory=list)
    pool: list[int] = field(default_factory=list)

    def pair(self, a: int, b: int) -> None:
        """Start a pairing of players ``a < b``, neither with a last move."""
        i = bisect_left(self.first, a)
        self.first.insert(i, a)
        self.second.insert(i, b)
        program_of, vms = self.program_of, self.vms
        start = (program_of[a], vms[a], None, program_of[b], vms[b], None)
        self.joint.insert(i, self.joint_states.number(start))

    def split(self, i: int) -> None:
        """End pair ``i``: both players get their machines back and join the pool."""
        a, b = self.first.pop(i), self.second.pop(i)
        joint_state = self.joint_states.states[self.joint.pop(i)]
        self.vms[a], self.vms[b] = joint_state[1], joint_state[4]
        self.pool += (a, b)


@dataclass(frozen=True)
class RematchEvent:
    tick: int
    pairings: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PlayerSummary:
    pid: int
    label: str
    total: Fraction
    opt_outs: int
    unpaired_ticks: int


@dataclass(frozen=True)
class OpdTrace:
    """A population run, kept as what was played: row i is the pairing tick
    ``(tick[i], first[i], second[i], a1[i], a2[i])``, the lower id first,
    and ``rows``, the ``table.outcomes`` rows the run was paid from, gives
    each row's pay and split. ``rematches`` pairs each rematch event with
    the number of play rows before it. ``population_step`` appends to the
    columns while the run lasts; after it they are not to be mutated."""

    rows: dict[tuple[Action, Action], tuple]
    tick: list[int] = field(default_factory=list)
    first: list[int] = field(default_factory=list)
    second: list[int] = field(default_factory=list)
    a1: list[Action] = field(default_factory=list)
    a2: list[Action] = field(default_factory=list)
    rematches: list[tuple[int, RematchEvent]] = field(default_factory=list)
    summaries: tuple[PlayerSummary, ...] = ()

    def totals(self) -> tuple[Fraction, ...]:
        return tuple(s.total for s in self.summaries)


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
    if len(state.pool) < 2:
        return
    pairs = rematch(state.pool, state.rng)
    state.pool.clear()
    for a, b in pairs:
        state.pair(a, b)
    trace.rematches.append((len(trace.tick), RematchEvent(state.tick, pairs)))


def population_step(state: PopulationState, config: GameConfig, trace: OpdTrace) -> None:
    """Advance the population one clock tick: every pair makes its joint
    state's move, its row is appended to ``trace``, and a pair whose row
    splits it is unpaired."""
    state.tick += 1
    joint, moves = state.joint, state.joint_states.moves
    if joint:
        played = list(map(moves.__getitem__, joint))
        if None in played:
            for number in joint:
                if moves[number] is None:
                    state.joint_states.play(number)
            played = list(map(moves.__getitem__, joint))
        after, a1, a2, splits, _ = zip(*played)
        trace.tick.extend([state.tick] * len(joint))
        trace.first.extend(state.first)
        trace.second.extend(state.second)
        trace.a1.extend(a1)
        trace.a2.extend(a2)
        joint[:] = after
        if True in splits:
            for i in reversed([i for i, split in enumerate(splits) if split]):
                state.split(i)

    if config.rematches_at(state.tick):
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

    # A program is numbered by the first player that runs it: players of
    # one spec line share theirs.
    first_runner: dict[int, int] = {}
    trace = OpdTrace(rows=table.outcomes[config.mode, asymmetric_split])
    state = PopulationState(
        joint_states=JointStates([program for _, program in programs], config, trace.rows),
        program_of=[first_runner.setdefault(id(program), pid)
                    for pid, (_, program) in enumerate(programs)],
        vms=[reset(program) for _, program in programs],
        rng=random.Random(config.seed),
    )

    if initial_pairing is not None:
        pairs = tuple(tuple(sorted(p)) for p in initial_pairing)
        claimed = sorted(pid for pair in pairs for pid in pair)
        if any(len(pair) != 2 for pair in pairs) or claimed != list(range(len(programs))):
            raise ValueError("initial pairing must cover every player exactly once")
        for a, b in pairs:
            state.pair(a, b)
        trace.rematches.append((0, RematchEvent(0, pairs)))
    else:
        state.pool = list(range(len(programs)))
        _apply_rematch(state, trace)  # state.tick is 0: the initial division

    for _ in range(config.N):
        population_step(state, config, trace)

    # Paid once, by counting what was played: each distinct row's count
    # times its payoffs, integers over the table's payoff unit. A player
    # idles through every tick it did not play.
    n = len(programs)
    scaled, plays, opt_outs = [0] * n, [0] * n, [0] * n
    for (first, second, a1, a2), count in Counter(
            zip(trace.first, trace.second, trace.a1, trace.a2)).items():
        row = trace.rows[a1, a2]
        for pid, action, pay in ((first, a1, row[3]), (second, a2, row[4])):
            scaled[pid] += count * pay
            plays[pid] += count
            opt_outs[pid] += count * (action is _O)
    unit = payoff_unit(table)
    idle_pay = int(table.Q_hat * unit) if unpaired_pay_qhat else 0
    summaries = []
    for pid, (label, _) in enumerate(programs):
        unpaired_ticks = config.N - plays[pid]
        total = Fraction(scaled[pid] + unpaired_ticks * idle_pay, unit)
        summaries.append(PlayerSummary(pid, label, total, opt_outs[pid], unpaired_ticks))
    return replace(trace, summaries=tuple(summaries))


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
    # A run plays few distinct rows: each of a row's two lines is its
    # tick's text plus the text after it, formatted once per distinct
    # (first, second, a1, a2), and the ticks come in order. Each rematch
    # event's lines follow the rows before its position.
    rows = trace.rows
    tails: dict[tuple, tuple[str, str]] = {}
    last_tick, tick_text = None, ""
    plays = zip(trace.tick, trace.first, trace.second, trace.a1, trace.a2)
    done = 0
    for position, rematch_event in [*trace.rematches, (len(trace.tick), None)]:
        for tick, first, second, a1, a2 in islice(plays, position - done):
            if tick != last_tick:
                last_tick, tick_text = tick, str(tick)
            key = (first, second, a1, a2)
            pair_tails = tails.get(key)
            if pair_tails is None:
                pay1, pay2, split, _, _ = rows[a1, a2]
                kind = "split" if split else "play"
                pair_tails = tails[key] = (
                    f",{kind},{first},{second},{ACTION_TEXT[a1]},{pay1}",
                    f",{kind},{second},{first},{ACTION_TEXT[a2]},{pay2}",
                )
            tail1, tail2 = pair_tails
            lines += (tick_text + tail1, tick_text + tail2)
        done = position
        if rematch_event is not None:
            lines += [f"{rematch_event.tick},rematch,{a},{b},," for a, b in rematch_event.pairings]
    return "\n".join(lines) + "\n"


def summary_to_csv(trace: OpdTrace) -> str:
    lines = ["player,strategy,payoff,opt_outs,unpaired_ticks"]
    for s in trace.summaries:
        lines.append(f"{s.pid},{s.label},{s.total},{s.opt_outs},{s.unpaired_ticks}")
    return "\n".join(lines) + "\n"
