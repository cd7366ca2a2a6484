"""Worst-case and best-response analysis.

The security level of a strategy is its lowest expected payoff over a set
of candidate populations. The true minimum ranges over every population
there could be, which is not computable, so everything here is certified
relative to a finite, caller-supplied candidate set and the reports say so.

Three population models are provided. The first two are partner
schedules for one focal seat, played through the population engine's
kernel from the joint state of focal player and partner: both seats move
by ``match.seat_move``, a seat answers a waiting partner in instantaneous
mode, the model pays the action pair from its row, and a rematch event
after a split takes the schedule's next partner. ``_play_focal`` plays one
game of a schedule; the draw model's exact evaluation runs that loop over
every draw at once.

* :class:`FixedOpponentModel` - a single deterministic partner for the
  whole game, re-paired with the focal player after every split as a pool
  of two would be; evaluated exactly, many programs at once over one
  shared play tree (``evaluate_all``).
* :class:`DrawModel` - the focal player faces partners drawn independently
  at every rematch: cooperative with probability q, hostile otherwise.
  This realizes the "probability at least q of meeting a cooperative
  player at any stage" premise directly; a full population cannot, because
  settled pairs leave the pool and skew later draws. The draws form a
  finite chance tree, so it is evaluated exactly, by carrying the
  probability of each joint state of focal player and partner tick by
  tick.
* :class:`PopulationMixModel` - a full 2K population run; the focal player
  is id 0.

The maximizing benchmark h is the best payoff found by brute-force search
over a canonical space of small strategy programs. The search space is a
parameterized family: at most two states, at most two rules per state, at
most one guard term per rule, and at most one counter whose width is the
one needed to count to N. Term order inside multi-term guards only adds
compare cost without adding reachable behavior at desk-scale budgets (a
two-term guard needs at least 4 XOR units to finish, so at k=2 such a rule
can never fire), which is why single-term guards are the canonical form.
Rules play the mode's ``legal_actions``; past N=8 counters compare against
a thinned set of values (``_counter_thresholds``). Sizes are the
compiler's own (``dsl.rule_size``), so the enumeration yields each
canonical source once, already within the size bound, and nothing is
filtered after compiling (a test checks both over a grid of horizons and
bounds). Each state's rule list is built in one pass, with only the states
a declaration keeps, and one pairing table lists every first state with the
second states it pairs with: ``estimate_search_size`` sums the lists'
lengths and the enumeration walks them; a search builds the table once for
both. Candidates are not compiled from source: each is its states' rule
pieces laid out by ``dsl.assemble``, the one layout, which ``dsl.compile``
runs too, from one ``dsl.Layout`` per counter declaration: its register
widths, counter index and source header are worked out once for all of the
declaration's candidates, the candidates share their JUMPs, and a piece
shared by many candidates is emitted once and re-targeted per further
compare target. The exact candidate count is the only limit on a search. Every
candidate is scored in one loop: against a fixed opponent the candidates are
played ``_TREE_CHUNK`` at a time over the shared play tree, against any other
model each is one ``evaluate`` call. Ties between equal payoffs go to the
lexicographically smallest source.

Against a fixed opponent the walk is a branch and bound. V, the largest
total any sequence of focal moves can still earn from a node of the play
tree, is the best response to the opponent's automaton with no budget
limit (Gilboa 1988, *JET* 45); one table of it serves a whole search. A
program's moves are one such sequence, so a node whose running total plus
V falls strictly below the best total found so far holds only programs
that pay strictly less than the answer, and is dropped with all of them.
Programs that tie with the answer are never dropped, so the tie still goes
to the smallest source and the result is that of the unpruned walk.

The search plays candidates that start alike as one machine until they
diverge. A chunk's candidates with one counter declaration, entry-state first
rule, entry-state size and program size lay out rule 1 and the entry state's
epilogue alike: the group ticks one partial program, those instructions with
a jump past the end in place of every other. No candidate runs off its end,
so a partial tick that finishes is exactly one that read past rule 1: only
then does the group split, that tick replayed on each member's own program.
Until then V drops a group with all its members.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice, product
from typing import Callable, Iterator, NamedTuple, Union

from . import dsl
from .game import (
    Action, GameConfig, Mode, PayoffTable, counter_width_for, legal_actions,
    payoff_unit, require_valid_table,
)
from .library import resolve
from .match import MatchTrace, seat_move
from .population import JointStates, _answer_wait, play_pair_tick, run_population
from .vm import StrategyProgram, VmState, jump, reset, tick

# Read as module globals, not class attributes, on each node of a walk.
_C, _D, _W, _OPD = Action.C, Action.D, Action.W, Mode.OPD


def _derive_seed(base: int, index: int) -> int:
    return (base * 1_000_003 + index * 7_919 + 12_345) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Closed-form pieces
# ---------------------------------------------------------------------------

def oft_constant(q: Fraction | float, r: Fraction | int, table: PayoffTable) -> Fraction:
    """The security-level shortfall constant (1/q) * ((r+1)R - S).

    q is the per-draw chance of a cooperative partner, r the expected
    rematch delay in ticks.
    """
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError(f"q must be positive and at most 1, got {q}")
    r = Fraction(r)
    if r < 0:
        raise ValueError(f"r must be at least 0, got {r}")
    return (1 / q) * ((r + 1) * table.R - table.S)


def unprovoked_defection_tick(trace: MatchTrace, player: int = 1) -> int | None:
    """First tick at which the player waits or defects without an earlier
    non-C move from the opponent; None when no such tick exists.

    Cooperative strategies must return None against every opponent: they
    go non-C only in response to provocation. ``player`` is 1 or 2.
    """
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")
    provoked = False
    columns = (trace.a1, trace.a2) if player == 1 else (trace.a2, trace.a1)
    for index, (own, opp) in enumerate(zip(*columns), start=1):
        if not provoked and own in (Action.W, Action.D):
            return index
        if opp is not Action.C:
            provoked = True
    return None


# ---------------------------------------------------------------------------
# Population models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelEstimate:
    model: str
    mean: Fraction | float
    se: float
    trials: int
    exact: bool

    def interval(self) -> tuple[float, float]:
        return (float(self.mean) - 1.96 * self.se, float(self.mean) + 1.96 * self.se)


def _estimate(name: str, values: list[float]) -> ModelEstimate:
    n = len(values)
    if n < 1:
        raise ValueError("trials must be at least 1")
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return ModelEstimate(name, mean, se, n, exact=False)


def _play_focal(
    program: StrategyProgram, partner: StrategyProgram,
    next_partner: Callable[[StrategyProgram, VmState], tuple[StrategyProgram, VmState]],
    config: GameConfig, table: PayoffTable,
) -> Fraction:
    """The focal player's total over N ticks in seat 1, starting against a
    fresh ``partner``. After a split the focal player idles until the next
    rematch event, where ``next_partner(partner, vm)`` gives the next
    partner and its machine, and both seats forget their last actions (the
    machines keep running). The total is added in integers over the table's
    ``payoff_unit``, read from its rows."""
    rows = table.outcomes[config.mode, False]
    vm1, last1, vm2, last2 = reset(program), None, reset(partner), None
    paired, total = True, 0
    for now in range(1, config.N + 1):
        if paired:
            vm1, last1, vm2, last2 = play_pair_tick(program, vm1, last1, partner, vm2, last2, config)
            _, _, split, pay, _ = rows[last1, last2]
            total += pay
            paired = not split
        if not paired and config.rematches_at(now):
            partner, vm2 = next_partner(partner, vm2)
            last1 = last2 = None
            paired = True
    return Fraction(total, payoff_unit(table))


@dataclass(frozen=True)
class FixedOpponentModel:
    """One deterministic partner for the whole game, given as a program, a
    builtin name or a ``.pdstrat`` path. Exact evaluation; ``evaluate`` is
    ``evaluate_all`` on one program, so both take the same path."""

    opponent: Union[str, StrategyProgram]

    def describe(self) -> str:
        label = self.opponent if isinstance(self.opponent, str) else self.opponent.name
        return f"all-{label}"

    def resolved(self, config: GameConfig) -> "FixedOpponentModel":
        """This model with its opponent compiled, once for a whole search."""
        return replace(self, opponent=resolve(self.opponent, config))

    def evaluate(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
                 trials: int = 1, seed: int = 0) -> ModelEstimate:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        total = self.evaluate_all([program], config, table)[0]
        return ModelEstimate(self.describe(), total, 0.0, 1, exact=True)

    def evaluate_all(self, programs: list[StrategyProgram], config: GameConfig,
                     table: PayoffTable) -> list[Fraction]:
        """Each program's exact total, from one walk over a shared play
        tree: ``_PlayTree.walk`` without V, so nothing is pruned and every
        total is returned. ``best_response`` runs the same walk with V."""
        tree = _PlayTree(resolve(self.opponent, config), config, table)
        unit = payoff_unit(table)
        return [Fraction(total, unit) for total in tree.walk(programs)]


#: A play-tree node: ticks played, the opponent's machine, the focal view
#: of the last tick (own, opp) and whether the pair is together.
_Node = tuple[int, VmState, Action | None, Action | None, bool]


class _PlayTree:
    """The play tree against one deterministic opponent: the focal players
    that have played the same actions so far face the same opponent state,
    so they share a node. As in ``_play_focal`` with a pool of two, both
    seats forget their last actions when a rematch event re-pairs them
    after a split. Payoffs and totals are integers over the table's
    ``payoff_unit``.
    """

    def __init__(self, opponent: StrategyProgram, config: GameConfig, table: PayoffTable):
        require_valid_table(table)
        self.config = config
        self.rows = table.outcomes[config.mode, False]
        #: Every focal action a row pays, W from a fault and O from a peek
        #: included.
        self.actions = tuple(dict.fromkeys(a1 for a1, _ in self.rows))
        self.opponent = opponent
        self.root: _Node = (0, reset(opponent), None, None, True)

    def opponent_move(self, node: _Node) -> tuple[VmState, Action]:
        """The opponent's machine and move on the tick after a paired node,
        whose focal move is the opponent's ``opp``."""
        _, opp_vm, own, opp, _ = node
        return seat_move(opp_vm, self.opponent, own, opp, self.config)

    def child(self, now: int, vm2: VmState, a2: Action, a1: Action) -> tuple[int, _Node]:
        """The focal payoff and the node after tick ``now`` when the focal
        player plays ``a1`` against the opponent's move ``a2``: a partner
        that moved answers a focal wait first."""
        vm2, a2 = _answer_wait(self.opponent, vm2, a2, a1, self.config)
        _, _, split, pay, _ = self.rows[a1, a2]
        if not split:
            return pay, (now, vm2, a1, a2, True)
        return pay, self.apart(now, vm2)

    def apart(self, now: int, opp_vm: VmState) -> _Node:
        """The node after tick ``now`` with the pair apart: it is paired
        again at a rematch event, and the focal player idles until then."""
        return (now, opp_vm, None, None, self.config.rematches_at(now))

    def best_values(self, limit: int) -> dict[_Node, int] | None:
        """V of every node reachable from the root: the largest, over the
        focal actions, of the payoff plus the child's V, and 0 at the
        horizon. Each tick leads from one layer of nodes to the next, so
        the layers are built forward and V is filled in backward, without
        recursion. None when the nodes number more than ``limit``: an
        opponent that counts the focal moves reaches many per tick."""
        edges: dict[_Node, list[tuple[int, _Node]]] = {}
        layers = [[self.root]]
        for now in range(1, self.config.N + 1):
            following: set[_Node] = set()
            for node in layers[-1]:
                if node[4]:
                    vm2, a2 = self.opponent_move(node)
                    out = [self.child(now, vm2, a2, a1) for a1 in self.actions]
                else:
                    out = [(0, self.apart(now, node[1]))]
                edges[node] = out
                following.update(child for _, child in out)
            if len(edges) + len(following) > limit:
                return None
            layers.append(list(following))
        values = dict.fromkeys(layers.pop(), 0)
        for layer in reversed(layers):
            for node in layer:
                values[node] = max(pay + values[child] for pay, child in edges.pop(node))
        return values

    def walk(self, programs: list[StrategyProgram], values: dict[_Node, int] | None = None,
             incumbent: int | None = None,
             groups: list[tuple[StrategyProgram, list[int]]] | None = None) -> list[int | None]:
        """Each program's exact total, from one walk.

        A stack entry is a node, the running total of the programs that
        reached it, and its units, ``(program, machine, members)``: each
        program alone, or ``groups``' ``(partial program, members)`` (see
        the module docstring). A unit ticks its program once for all its
        members; the units then split by the action each played, and the
        opponent's move, payoff and total are worked out once per child. A
        partial tick that finishes, the move or the peek that answers a
        waiting opponent, read past rule 1: the group then splits into
        its members, each replaying that tick on its own program.

        Given V (``best_values``), a node whose total plus V falls strictly
        below the incumbent, the best total reached so far or passed in,
        is dropped with its units, whose totals are None.
        """
        config = self.config
        prune = values is not None
        best = -math.inf if incumbent is None else incumbent
        totals: list[int | None] = [None] * len(programs)
        if groups is None:
            groups = [(program, [index]) for index, program in enumerate(programs)]
        stack = [(self.root, 0, [(program, reset(program), group) for program, group in groups])]
        peeks = config.instantaneous_rematch and config.mode is _OPD
        while stack:
            node, total, units = stack.pop()
            if prune and total + values[node] < best:
                continue
            now, _, own, opp, paired = node
            if now == config.N:
                for _, _, members in units:
                    for index in members:
                        totals[index] = total
                best = max(best, total)
                continue
            if not paired:
                stack.append((self.apart(now + 1, node[1]), total, units))
                continue
            vm2, a2 = self.opponent_move(node)
            waited = a2 is _W
            children: dict[Action, list[tuple[StrategyProgram, VmState, list[int]]]] = {}
            # A group that reads past rule 1 appends its members, each on
            # its own program, to the units this loop is still to tick.
            for program, vm, members in units:
                vm1, a1 = seat_move(vm, program, opp, own, config)
                if len(members) > 1 and (vm1.finished or waited and peeks and a1 in (_C, _D)
                                         and tick(vm1, program, _W, a1, config.k)[0].finished):
                    units += [(programs[index], vm, [index]) for index in members]
                    continue
                if waited:
                    vm1, a1 = _answer_wait(program, vm1, a1, a2, config)
                children.setdefault(a1, []).append((program, vm1, members))
            entries = []
            for a1, following in children.items():
                pay, child = self.child(now + 1, vm2, a2, a1)
                entries.append((child, total + pay, following))
            if prune:
                # The best bound on top: walked first, it raises the
                # incumbent soonest.
                entries.sort(key=lambda entry: entry[1] + values[entry[0]])
            stack += entries
        return totals


@dataclass(frozen=True)
class DrawModel:
    """Independent partner draws at every rematch event.

    The focal player is always rematched at an event (the abstract pool is
    never short of players). A draw is the cooperative strategy with
    probability q, otherwise the hostile one. ``first_draw`` pins the very
    first partner, which is how "play against a known cooperative partner"
    comparisons are set up.

    ``evaluate`` is exact: it carries the probability of every joint state
    of focal player and partner tick by tick, keyed by its number in one
    ``JointStates`` table per call, the population's, whose programs are
    the focal one, the cooperative, the hostile and the first draw; a split
    pair's probability waits for the rematch at its split state's number.
    ``q`` is taken at its exact value, so a float q brings its full binary
    expansion in: 0.3 is ``Fraction(5404319552844595, 2**54)``, and each
    draw widens the masses by 54 bits. OFT at N=2000 takes about 7 times as
    long with 0.3 as with ``Fraction(3, 10)`` (0.046 s against 0.0064 s on
    one x86-64 core). The joint states stay at a handful for real
    strategies, but a program that counts its opt-outs grows them with the
    horizon (to about N/2), and the exact cost with its square. ``sample``
    is the Monte-Carlo estimate over ``run_trial`` games, kept as a
    reference.
    """

    q: Fraction | float
    cooperative: Union[str, StrategyProgram] = "GRIM"
    hostile: Union[str, StrategyProgram] = "AllD"
    first_draw: Union[str, StrategyProgram, None] = None

    def __post_init__(self) -> None:
        # As given: a float conversion would let 1 + 1e-20 in and 1e-400 not.
        if not 0 < self.q <= 1:
            raise ValueError(f"q must be in (0, 1], got {self.q}")

    def describe(self) -> str:
        return f"draw(q={self.q})"

    def resolved(self, config: GameConfig) -> "DrawModel":
        """This model with its named partners compiled, so that a caller
        scoring many programs compiles them once and their transition
        tables stay warm across programs."""
        return replace(
            self,
            cooperative=resolve(self.cooperative, config),
            hostile=resolve(self.hostile, config),
            first_draw=None if self.first_draw is None else resolve(self.first_draw, config),
        )

    @cached_property
    def _trial_partners(self) -> dict[GameConfig, "DrawModel"]:
        """``run_trial``'s resolved models by config. Not a field: it takes
        no part in equality, and ``dataclasses.replace`` starts an empty one."""
        return {}

    def evaluate(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
                 trials: int = 200, seed: int = 0) -> ModelEstimate:
        """The exact mean of ``_play_focal`` over the partner draws.

        Every mass is keyed by joint-state number. A joint state is played
        once, into the table's ``moves``, the first time it carries mass;
        its move gives the focal pay and the next state. Each tick every
        paired mass makes its state's move, and a split's mass waits at the
        split state's number, which holds the focal machine (what the focal
        seat saw last is forgotten at the next pairing). At a rematch event
        each waiting mass branches into a fresh partner per draw, numbered
        once per split state; equal states add their probabilities, and the
        tick loop hashes only integers.

        The arithmetic is in integers. With q = a/b a draw weighs a for the
        cooperative partner and b - a for the hostile one, and every mass
        is an integer over one running ``scale``: an event that draws
        multiplies ``scale``, the carried masses and the running total by
        b. Payoffs are integers over the table's ``payoff_unit``, so the
        mean is ``total / (scale * unit)``, reduced once at the end.

        ``trials`` is only checked, and ``seed`` is unused: they keep the
        signature every model shares.
        """
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        require_valid_table(table)
        q = Fraction(self.q)
        a, b = q.numerator, q.denominator
        programs = [program, resolve(self.cooperative, config), resolve(self.hostile, config)]
        draws = [(index, weight) for index, weight in ((1, a), (2, b - a)) if weight]
        first, scale = draws, b
        if self.first_draw is not None:
            programs.append(resolve(self.first_draw, config))
            first, scale = [(3, 1)], 1
        rows, unit = table.outcomes[config.mode, False], payoff_unit(table)
        joint_states = JointStates(programs, config, rows)
        number, moves, states = joint_states.number, joint_states.moves, joint_states.states
        fresh = [reset(p) for p in programs]
        paired = {number((0, fresh[0], None, j, fresh[j], None)): w for j, w in first}
        idle: dict[int, int] = {}
        # ``drawn[s]``: the draws' fresh joint states, with their weights,
        # from the focal machine of split state ``s``.
        drawn: dict[int, list[tuple[int, int]]] = {}
        total = 0
        for now in range(1, config.N + 1):
            after: dict[int, int] = {}
            for state, mass in paired.items():
                following, _, _, split, pay = moves[state] or joint_states.play(state)
                if pay:
                    total += mass * pay
                if split:
                    idle[following] = idle.get(following, 0) + mass
                else:
                    after[following] = after.get(following, 0) + mass
            if idle and config.rematches_at(now):
                if b != 1:
                    scale *= b
                    total *= b
                    after = {state: mass * b for state, mass in after.items()}
                # No carried state is fresh (a played pair has a view of its
                # tick), but split states of one focal machine share theirs.
                for split_state, mass in idle.items():
                    pairings = drawn.get(split_state)
                    if pairings is None:
                        vm = states[split_state][1]
                        pairings = drawn[split_state] = [
                            (number((0, vm, None, j, fresh[j], None)), w) for j, w in draws]
                    for state, weight in pairings:
                        after[state] = after.get(state, 0) + mass * weight
                idle = {}
            paired = after
        return ModelEstimate(self.describe(), Fraction(total, scale * unit), 0.0, 1, exact=True)

    def sample(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
               trials: int = 200, seed: int = 0) -> ModelEstimate:
        """Monte-Carlo estimate: the mean of ``trials`` seeded games."""
        require_valid_table(table)
        values = [
            float(self.run_trial(program, config, table, _derive_seed(seed, i)))
            for i in range(trials)
        ]
        return _estimate(self.describe(), values)

    def run_trial(self, program: StrategyProgram, config: GameConfig,
                  table: PayoffTable, trial_seed: int) -> Fraction:
        """One seeded game, its named partners compiled once per model and config."""
        model = self._trial_partners.get(config)
        if model is None:
            model = self._trial_partners[config] = self.resolved(config)
        rng = random.Random(trial_seed)
        q = float(self.q)

        def draw(*_: object) -> tuple[StrategyProgram, VmState]:
            partner = model.cooperative if rng.random() < q else model.hostile
            return partner, reset(partner)

        first = draw()[0] if model.first_draw is None else model.first_draw
        return _play_focal(program, first, draw, config, table)


@dataclass(frozen=True)
class PopulationMixModel:
    """A full population run; the focal strategy is player 0 and the rest
    of the roster is fixed. Sampled over seeds (matchings vary)."""

    others: tuple[Union[str, StrategyProgram], ...]

    def describe(self) -> str:
        labels = [o if isinstance(o, str) else o.name for o in self.others]
        return "mix(" + ",".join(labels) + ")"

    def resolved(self, config: GameConfig) -> "PopulationMixModel":
        """This model with its roster compiled, once for a whole search."""
        return replace(self, others=tuple(resolve(o, config) for o in self.others))

    def evaluate(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
                 trials: int = 50, seed: int = 0) -> ModelEstimate:
        others = [resolve(o, config) for o in self.others]
        roster = [("S", program)] + [(o.name, o) for o in others]
        values = []
        for i in range(trials):
            cfg = replace(config, seed=_derive_seed(seed, i))
            trace = run_population(roster, cfg, table)
            values.append(float(trace.summaries[0].total))
        return _estimate(self.describe(), values)


PopulationModel = Union[FixedOpponentModel, DrawModel, PopulationMixModel]


@dataclass(frozen=True)
class SecurityLevelResult:
    value: Fraction | float
    model: str
    rows: tuple[ModelEstimate, ...]


def security_level(
    program: StrategyProgram,
    models: list[PopulationModel],
    config: GameConfig,
    table: PayoffTable,
    trials: int = 200,
    seed: int = 0,
) -> SecurityLevelResult:
    """Minimum over the candidate populations of the strategy's mean payoff.

    Exact for the fixed-opponent and draw models, Monte-Carlo for a
    population mix; the per-model rows keep their standard errors so
    reports can print intervals.
    """
    if not models:
        raise ValueError("the candidate population set must not be empty")
    rows = tuple(m.evaluate(program, config, table, trials=trials, seed=seed) for m in models)
    worst = min(rows, key=lambda row: float(row.mean))
    return SecurityLevelResult(worst.mean, worst.model, rows)


# ---------------------------------------------------------------------------
# Canonical program enumeration
# ---------------------------------------------------------------------------

class BoundTooLargeError(ValueError):
    def __init__(self, estimate: int, limit: int):
        super().__init__(
            f"search space of {estimate} programs exceeds the limit of {limit}; "
            "lower the size bound"
        )
        self.estimate = estimate
        self.limit = limit


#: Candidates past which ``best_response`` refuses a search; at bound 13
#: even N=1 FTPD counts 4 468 735, so every bound above 12 is refused.
_MAX_CANDIDATES = 3_000_000
#: Candidates that share one play tree in a search against a fixed
#: opponent; it bounds the search's memory, not its result.
_TREE_CHUNK = 1024


#: ``_StateCombo.flags``: the state holds a goto, a counter increment, a
#: counter test; a declared counter is both incremented and tested.
_GOTO, _INC, _TEST = 1, 2, 4
_COUNTER_USE = _INC | _TEST


class _StateCombo(NamedTuple):
    pieces: tuple[dsl.RulePiece, ...]
    size: int            # compiled size including the state epilogue
    flags: int           # _GOTO, _INC and _TEST over its rules


def _state_combos(guards: list[tuple[dsl.Term, ...]], actions: tuple[Action, ...], counter: bool,
                  label: str | None, budget: int, keep: int = 0) -> list[_StateCombo]:
    """Rule sequences for the state ``label`` fitting the budget that hold
    the flags ``keep`` between their rules: every one-rule state, then every
    guarded rule followed by one more (unconditional rules anywhere else
    would make the rest of the state dead). State s0 may go to s1 and s1 to
    s0; an unlabeled state is a whole program and has no goto. A rule ahead
    of another adds its size as a non-last rule to the other's one-rule
    state, so its followers are the one-rule states that fit the room left
    and hold the flags it lacks, listed once per room and lack in their own
    order. Every rule shares its statements. ``dsl.assemble`` puts the
    label on the state's first rule."""
    goto_target = {"s0": "s1", "s1": "s0"}.get(label)
    plays = (None,) + tuple(dsl.Play(play) for play in actions)
    incs = (None, dsl.Inc("n")) if counter else (None,)
    gotos = (None, dsl.Goto(goto_target)) if goto_target else (None,)
    statements = [(tuple(stmt for stmt in (play, inc, goto) if stmt),
                   (_INC if inc else 0) | (_GOTO if goto else 0))
                  for play, inc, goto in product(plays, incs, gotos)][1:]  # [0] holds none
    # Each one-rule state with its rule's size ahead of another rule.
    singles: list[tuple[int, _StateCombo]] = []
    for guard in guards:
        test = _TEST if guard and guard[0].field == "n" else 0
        for stmts, flags in statements:
            piece = dsl.RulePiece(dsl.Rule(None, guard, stmts))
            singles.append((piece.ahead, _StateCombo(
                (piece,), piece.size + dsl.EPILOGUE_SIZE, flags | test)))
    fitting = [combo for _, combo in singles if combo.size <= budget]
    combos = [combo for combo in fitting if combo.flags & keep == keep]
    followers: dict[tuple[int, int], list[_StateCombo]] = {}
    for ahead, first in singles:
        if not first.pieces[0].rule.guard:
            continue
        room, lacks = budget - ahead, keep & ~first.flags
        if (room, lacks) not in followers:
            followers[room, lacks] = [combo for combo in fitting
                                      if combo.size <= room and combo.flags & lacks == lacks]
        for second in followers[room, lacks]:
            combos.append(_StateCombo(first.pieces + second.pieces, ahead + second.size,
                                      first.flags | second.flags))
    return combos


def _counter_thresholds(n: int) -> list[dsl.Value]:
    """Counter compare values at horizon ``n``: all of them up to N=8, then
    only the early ticks and the horizon boundary, since against a
    once-per-tick counter a later defection threshold dominates an
    intermediate one (T > R). ``test_thinned_thresholds_lose_no_payoff``
    checks that no catalog opponent's best response pays less for it."""
    if n <= 8:
        return [dsl.ConstInt(v) for v in range(n + 1)]
    values: list[dsl.Value] = [dsl.ConstInt(v) for v in range(0, 4)]
    values += [dsl.HorizonMinus(2), dsl.HorizonMinus(1), dsl.HorizonMinus(0)]
    return values


#: The smallest s0, ``always goto s1``; s1 gets the rest of the bound.
_MIN_S0_SIZE = dsl.rule_size(dsl.Rule(None, (), (dsl.Goto("s1"),)), last=True) + dsl.EPILOGUE_SIZE
#: The smallest state of all, a rule of one statement: ``always play C``.
_MIN_STATE_SIZE = (dsl.rule_size(dsl.Rule(None, (), (dsl.Play(Action.C),)), last=True)
                   + dsl.EPILOGUE_SIZE)


#: One counter declaration's part of the space: the declarations, the
#: single-state programs and the pairing table.
_CounterSpace = tuple[tuple, list[_StateCombo], list[tuple[_StateCombo, list[_StateCombo]]]]


def _combos_by_counter(config: GameConfig, size_bound: int) -> Iterator[_CounterSpace]:
    """Per counter declaration (none, then one): the single-state programs
    (no gotos: a self-goto only restates the loop), then the pairing table
    of the two-state programs, each s0 with the s1 states it pairs with, in
    order. s1 must be reachable, so every s0 holds a goto. A pair fits when
    the two sizes fit the bound and a declared counter is incremented and
    tested in one state or the other; that depends only on the s0's size
    and counter use, so s0s that share them share one list."""
    actions = legal_actions(config.mode)
    guards: list[tuple[dsl.Term, ...]] = [()] + [
        (dsl.Term(field, op, dsl.ConstAction(a)),)
        for field in ("opp", "own")
        for op in (dsl.CmpOp.EQ, dsl.CmpOp.NE)
        for a in actions
    ]
    counter_guards = [
        (dsl.Term("n", op, value),)
        for op in (dsl.CmpOp.EQ, dsl.CmpOp.NE, dsl.CmpOp.LT, dsl.CmpOp.GE)
        for value in _counter_thresholds(config.N)
    ]

    for decls in ((), (dsl.Decl("n", counter_width_for(config.N)),)):
        if decls:
            guards += counter_guards
        singles = _state_combos(guards, actions, bool(decls), None, size_bound,
                                _COUNTER_USE if decls else 0)
        partners: dict[tuple[int, int], list[_StateCombo]] = {}
        pairs = []
        if size_bound - _MIN_S0_SIZE >= _MIN_STATE_SIZE:
            combos1 = _state_combos(guards, actions, bool(decls), "s1", size_bound - _MIN_S0_SIZE)
            budget0 = size_bound - min(c.size for c in combos1)
            for combo0 in _state_combos(guards, actions, bool(decls), "s0", budget0, _GOTO):
                key = (combo0.size, combo0.flags)
                if key not in partners:
                    partners[key] = [
                        combo1 for combo1 in combos1
                        if combo0.size + combo1.size <= size_bound and (not decls or (
                            combo0.flags | combo1.flags) & _COUNTER_USE == _COUNTER_USE)
                    ]
                pairs.append((combo0, partners[key]))
        yield decls, singles, pairs


def enumerate_candidates(config: GameConfig, size_bound: int,
                         space: list[_CounterSpace] | None = None) -> Iterator[StrategyProgram]:
    """Yield every canonical candidate program within the compiled size bound.

    Deterministic order. Canonical means: unconditional rules only in last
    position, a declared counter is both incremented and tested somewhere,
    the second state is goto-reachable, and no self-gotos. Each source is
    distinct and fits the bound by construction, so every one is yielded.

    Candidates are assembled, not compiled: each is its states' rule pieces
    laid out by ``dsl.assemble``, the one layout, which ``dsl.compile`` runs
    too, from one ``dsl.Layout`` per counter declaration. The candidates
    of one call share their JUMPs, and a piece shared by many candidates is
    emitted once and re-targeted per further compare target. A test checks
    each candidate against ``dsl.compile`` of its source. ``space`` is the
    table ``_combos_by_counter`` built for this config and bound, when the
    caller has it already.
    """
    if space is None:
        space = _combos_by_counter(config, size_bound)
    jumps = dsl.Jumps()
    for decls, singles, pairs in space:
        layout = dsl.Layout("cand", decls, config, jumps)
        for combo in singles:
            yield dsl.assemble(layout, [(None, combo.pieces)])
        for combo0, tails in pairs:
            for combo1 in tails:
                yield dsl.assemble(layout, [("s0", combo0.pieces), ("s1", combo1.pieces)])


def estimate_search_size(config: GameConfig, size_bound: int,
                         space: list[_CounterSpace] | None = None) -> int:
    """Size of the candidate space, counted without building a source: the
    single-state programs plus the lengths of the pairing table's lists,
    the same table ``enumerate_candidates`` walks. ``space`` is that table
    when the caller has built it already."""
    if space is None:
        space = _combos_by_counter(config, size_bound)
    return sum(len(singles) + sum(len(tails) for _, tails in pairs)
               for _, singles, pairs in space)


# ---------------------------------------------------------------------------
# Best response and equilibrium checks
# ---------------------------------------------------------------------------

def _group_keys(space: list[_CounterSpace]) -> Iterator[tuple[dsl.RulePiece, int, int]]:
    """Each candidate's group, in ``enumerate_candidates``' order: its entry
    state's first rule piece, which is built per counter declaration, the
    entry state's size and the program's size."""
    for _, singles, pairs in space:
        for combo in singles:
            yield combo.pieces[0], combo.size, combo.size
        for combo0, tails in pairs:
            for combo1 in tails:
                yield combo0.pieces[0], combo0.size, combo0.size + combo1.size


def _partial(program: StrategyProgram, key: tuple[dsl.RulePiece, int, int]) -> StrategyProgram:
    """The partial program of ``program``'s group ``key``: its entry state's
    first rule and epilogue, which every member of the group lays out alike,
    and in place of every other instruction a jump past the end. A group of
    two or more has a second rule or a goto in rule 1 (a one-rule state
    without one is a whole program), so rule 1 ends ``piece.ahead`` in."""
    piece, entry, size = key
    epilogue = entry - dsl.EPILOGUE_SIZE
    code, escape = program.instructions, (jump(size),)
    code = code[:piece.ahead] + escape * (epilogue - piece.ahead) + code[epilogue:entry]
    return StrategyProgram("partial", code + escape * (size - entry), program.reg_widths)


def _branch_and_bound(tree: _PlayTree, candidates: Iterator[StrategyProgram],
                      keys: Iterator[tuple[dsl.RulePiece, int, int]], ticks: int,
                      unit: int) -> Iterator[tuple[Fraction, StrategyProgram]]:
    """The exact total of every candidate the walk does not prune, walked
    ``_TREE_CHUNK`` at a time over one play tree with one V; the incumbent
    carries across chunks. V is built only when its nodes number no more
    than the ``ticks`` the candidates request, so that it never costs much
    more than the walk; without it nothing is pruned. A chunk's candidates
    that share a key (``_group_keys``) are one group of the walk, which
    ticks one partial program for them, built once per search."""
    values = tree.best_values(ticks)
    incumbent = None
    partials: dict[tuple, StrategyProgram] = {}
    for chunk in iter(lambda: list(islice(candidates, _TREE_CHUNK)), []):
        grouped: dict[tuple, list[int]] = {}
        for index, key in enumerate(islice(keys, len(chunk))):
            grouped.setdefault(key, []).append(index)
        groups = []
        for key, members in grouped.items():
            program = chunk[members[0]]
            if len(members) > 1:
                if key not in partials:
                    partials[key] = _partial(program, key)
                program = partials[key]
            groups.append((program, members))
        for total, candidate in zip(tree.walk(chunk, values, incumbent, groups), chunk):
            if total is not None:
                incumbent = total if incumbent is None else max(incumbent, total)
                yield Fraction(total, unit), candidate


@dataclass(frozen=True)
class BestResponseResult:
    program: StrategyProgram
    payoff: Fraction | float
    source: str
    searched: int
    exact: bool


def best_response(
    opponent: Union[str, StrategyProgram, PopulationModel],
    config: GameConfig,
    table: PayoffTable,
    size_bound: int = 8,
    trials: int = 100,
    seed: int = 0,
) -> BestResponseResult:
    """Exhaustive argmax over the canonical program space.

    A program opponent, or a builtin name or ``.pdstrat`` path, is the model
    ``FixedOpponentModel(opponent)``. The model's named programs are
    compiled once (``resolved``), and every candidate is scored in one
    loop. Against a fixed opponent the exact totals come from the walk
    ``evaluate_all`` runs, fed the enumeration ``_TREE_CHUNK`` programs at
    a time to bound memory, as a branch and bound (``_branch_and_bound``):
    only candidates that pay strictly less than the answer are dropped, so
    the answer and its tie-break are those of the unpruned walk. Candidates
    that start alike (see the module docstring) tick one partial program
    until a tick reads past rule 1 and escapes through a jump past its end;
    each is still assembled through ``enumerate_candidates``. Any other
    model scores each candidate by its ``evaluate`` mean on ``trials`` and
    ``seed``: a draw model's is exact, a population mix's is the mean of
    ``trials`` runs, so a mix search costs ``searched * trials`` population
    runs and its answer is the argmax of those estimates (``exact=False``).
    Ties break to the smallest canonical source.

    The space declares a counter only at ``counter_width_for(N)`` bits.
    When N is a power of two a counter of one bit fewer still counts to
    N-1, so a deviation that uses it lies outside the space: at N=4, k=2,
    ``counter n: 2 bits`` / ``if n != 3 then play C inc n`` / ``always
    play D`` is 7 instructions and pays 5 against GRIM, whose best response
    here pays 4.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    model = opponent
    if isinstance(model, (str, StrategyProgram)):
        model = FixedOpponentModel(model)
    model = model.resolved(config)
    # One build of the space serves the count and the enumeration.
    space = list(_combos_by_counter(config, size_bound))
    estimate = estimate_search_size(config, size_bound, space)
    if estimate == 0:
        raise ValueError(f"size_bound {size_bound} admits no candidate program")
    if estimate > _MAX_CANDIDATES:
        raise BoundTooLargeError(estimate, _MAX_CANDIDATES)
    # The enumeration yields one program per source the estimate counted.
    candidates = enumerate_candidates(config, size_bound, space)
    if isinstance(model, FixedOpponentModel):
        scored = _branch_and_bound(_PlayTree(model.opponent, config, table), candidates,
                                   _group_keys(space), estimate * config.N, payoff_unit(table))
    else:
        scored = (
            (model.evaluate(candidate, config, table, trials=trials, seed=seed).mean, candidate)
            for candidate in candidates
        )
    score, program = min(scored, key=lambda pair: (-pair[0], pair[1].source))
    return BestResponseResult(program, score, program.source, estimate,
                              not isinstance(model, PopulationMixModel))


@dataclass(frozen=True)
class EquilibriumVerdict:
    is_nash: bool
    cooperative: bool
    payoffs: tuple[Fraction, Fraction]
    deviation_player: int | None = None
    deviation_source: str | None = None
    deviation_payoff: Fraction | None = None

    def __str__(self) -> str:
        if self.is_nash:
            kind = "cooperative equilibrium" if self.cooperative else "equilibrium"
            return f"Nash within bound ({kind}), payoffs {self.payoffs[0]}, {self.payoffs[1]}"
        return (
            f"deviation found for player {self.deviation_player}: "
            f"payoff {self.deviation_payoff} vs {self.payoffs[self.deviation_player - 1]}"
        )


def equilibrium_check(
    sigma1: Union[str, StrategyProgram],
    sigma2: Union[str, StrategyProgram],
    config: GameConfig,
    table: PayoffTable,
    size_bound: int = 8,
) -> EquilibriumVerdict:
    """Brute-force Nash check of a strategy pair within the candidate space.

    Also reports whether the pair is a cooperative equilibrium, i.e. its
    own play pays R*N to both players. A strategy is anything
    ``library.resolve`` takes: a program, a builtin name or a file path.
    Each player's total is its ``FixedOpponentModel`` total against the
    other, the model its deviations are scored in, so OPD pairs that split
    re-pair as a pool of two; in FTPD it is the ``run_match`` total.

    Deviations are searched by ``best_response``, once per distinct
    program: in a symmetric pair player 2's search would repeat player 1's
    against the same total. The verdict inherits its space's gap: counters
    are declared only at ``counter_width_for(N)`` bits, and when N is a
    power of two a narrower counter's deviation is not tried. GRIM against
    GRIM at N=4, k=2, bound 8 is reported Nash, although a 2-bit counter
    deviation of 7 instructions pays 5 > 4.
    """
    sigma1, sigma2 = resolve(sigma1, config), resolve(sigma2, config)
    totals = tuple(FixedOpponentModel(other).evaluate(player, config, table).mean
                   for player, other in ((sigma1, sigma2), (sigma2, sigma1)))
    cooperative = totals == (table.R * config.N,) * 2
    for player, opponent in ((1, sigma2), (2, sigma1)):
        if player == 2 and sigma2 == sigma1:
            break  # the same search against the same total as player 1's
        br = best_response(opponent, config, table, size_bound=size_bound)
        if br.payoff > totals[player - 1]:
            return EquilibriumVerdict(
                False, cooperative, totals,
                deviation_player=player, deviation_source=br.source, deviation_payoff=br.payoff,
            )
    return EquilibriumVerdict(True, cooperative, totals)


# ---------------------------------------------------------------------------
# Competitive ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    strategy: str
    security_level: Fraction | float
    security_model: str
    h: Fraction | float
    h_source: str
    competitive_ratio: float | None
    best_response_gap: float
    beta_bound: float
    rows: tuple[ModelEstimate, ...]
    note: str

    def to_text(self) -> str:
        lines = [f"strategy: {self.strategy}"]
        for row in self.rows:
            if row.exact:
                mean = Fraction(row.mean)
                shown = mean if mean.denominator == 1 else f"{float(mean):.3f}"
                lines.append(f"  model {row.model}: mean {shown} (exact)")
            else:
                lo, hi = row.interval()
                lines.append(
                    f"  model {row.model}: mean {float(row.mean):.3f} "
                    f"(95% CI {lo:.3f}..{hi:.3f}, n={row.trials})"
                )
        lines.append(f"security level: {float(self.security_level):.3f} (model {self.security_model})")
        lines.append(f"maximizing benchmark h: {float(self.h):.3f} ({self.h_source.splitlines()[0]}...)")
        if self.competitive_ratio is None:
            lines.append("competitive ratio: undefined (h <= 0)")
        else:
            lines.append(f"competitive ratio: {self.competitive_ratio:.4f}")
        lines.append(f"best-response gap: {self.best_response_gap:.3f}")
        lines.append(f"excess over cooperative baseline: {self.beta_bound:.3f}")
        lines.append(f"note: {self.note}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["quantity,value,se"]
        for row in self.rows:
            lines.append(f"mean[{row.model}],{float(row.mean)},{row.se}")
        lines.append(f"security_level,{float(self.security_level)},")
        lines.append(f"h,{float(self.h)},")
        cr = "" if self.competitive_ratio is None else self.competitive_ratio
        lines.append(f"competitive_ratio,{cr},")
        lines.append(f"best_response_gap,{self.best_response_gap},")
        lines.append(f"beta_bound,{self.beta_bound},")
        return "\n".join(lines) + "\n"


def competitive_ratio(
    program: StrategyProgram,
    models: list[PopulationModel],
    config: GameConfig,
    table: PayoffTable,
    trials: int = 200,
    size_bound: int = 6,
    seed: int = 0,
) -> AnalysisReport:
    """Security level over the models, maximizing benchmark on the worst
    model, and their ratio. Undefined (None) when the benchmark is not
    positive."""
    sl = security_level(program, models, config, table, trials=trials, seed=seed)
    # By position: two models may share a name.
    worst_model = models[min(range(len(models)), key=lambda i: float(sl.rows[i].mean))]
    br = best_response(worst_model, config, table, size_bound=size_bound,
                       trials=trials, seed=seed)
    h = br.payoff
    cr = float(sl.value) / float(h) if float(h) > 0 else None
    baseline = float(table.R * config.N)
    return AnalysisReport(
        strategy=program.name,
        security_level=sl.value,
        security_model=sl.model,
        h=h,
        h_source=br.source,
        competitive_ratio=cr,
        best_response_gap=float(h) - float(sl.value),
        beta_bound=float(h) - baseline,
        rows=sl.rows,
        note=(
            "security level is certified relative to the supplied candidate "
            "populations only; the benchmark h searches programs up to "
            f"{size_bound} instructions"
        ),
    )
