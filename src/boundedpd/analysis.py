"""Worst-case and best-response analysis.

The security level of a strategy is its lowest expected payoff over a set
of candidate populations. The true minimum ranges over every population
there could be, which is not computable, so everything here is certified
relative to a finite, caller-supplied candidate set and the reports say so.

Three population models are provided:

* :class:`FixedOpponentModel` - a single deterministic partner for the
  whole game; evaluated exactly.
* :class:`DrawModel` - the focal player faces partners drawn independently
  at every rematch: cooperative with probability q, hostile otherwise.
  This realizes the "probability at least q of meeting a cooperative
  player at any stage" premise directly; a full population cannot, because
  settled pairs leave the pool and skew later draws.
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
Programs are deduplicated by their canonical source text and ties between
equal payoffs go to the lexicographically smallest source.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Union

from . import dsl, library
from .game import Action, GameConfig, Mode, PayoffTable
from .match import MatchTrace, Seat, run_match
from .population import play_pair_tick, run_population
from .vm import StrategyProgram
from .game import counter_width_for


def _derive_seed(base: int, index: int) -> int:
    return (base * 1_000_003 + index * 7_919 + 12_345) & 0x7FFFFFFF


def _resolve(program_or_name: Union[str, StrategyProgram], config: GameConfig) -> StrategyProgram:
    if isinstance(program_or_name, str):
        return library.get(program_or_name, config)
    return program_or_name


# ---------------------------------------------------------------------------
# Closed-form pieces
# ---------------------------------------------------------------------------

def oft_constant(q: Fraction | float, r: Fraction | int, table: PayoffTable) -> Fraction:
    """The security-level shortfall constant (1/q) * ((r+1)R - S).

    q is the per-draw chance of a cooperative partner, r the expected
    rematch delay in ticks.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("q must be positive")
    r = Fraction(r)
    return (1 / q) * ((r + 1) * table.R - table.S)


def unprovoked_defection_tick(trace: MatchTrace, player: int = 1) -> int | None:
    """First tick at which the player waits or defects without an earlier
    non-C move from the opponent; None when no such tick exists.

    Cooperative strategies must return None against every opponent: they
    go non-C only in response to provocation.
    """
    provoked = False
    for rec in trace.records:
        own = rec.a1 if player == 1 else rec.a2
        opp = rec.a2 if player == 1 else rec.a1
        if not provoked and own in (Action.W, Action.D):
            return rec.tick
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
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return ModelEstimate(name, mean, se, n, exact=False)


@dataclass(frozen=True)
class FixedOpponentModel:
    """One deterministic partner for the whole game. Exact evaluation."""

    opponent: Union[str, StrategyProgram]
    name: str = ""

    def describe(self) -> str:
        if self.name:
            return self.name
        label = self.opponent if isinstance(self.opponent, str) else self.opponent.name
        return f"all-{label}"

    def evaluate(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
                 trials: int = 1, seed: int = 0) -> ModelEstimate:
        opponent = _resolve(self.opponent, config)
        if config.mode is Mode.FTPD:
            total = run_match(program, opponent, config, table).total1
        else:
            trace = run_population([("S", program), ("opp", opponent)], config, table,
                                   initial_pairing=[(0, 1)])
            total = trace.summaries[0].total
        return ModelEstimate(self.describe(), total, 0.0, 1, exact=True)


@dataclass(frozen=True)
class DrawModel:
    """Independent partner draws at every rematch event.

    The focal player is always rematched at an event (the abstract pool is
    never short of players). A draw is the cooperative strategy with
    probability q, otherwise the hostile one. ``first_draw`` pins the very
    first partner, which is how "play against a known cooperative partner"
    comparisons are set up.
    """

    q: Fraction | float
    cooperative: Union[str, StrategyProgram] = "GRIM"
    hostile: Union[str, StrategyProgram] = "AllD"
    first_draw: Union[str, StrategyProgram, None] = None
    name: str = ""

    def describe(self) -> str:
        return self.name or f"draw(q={self.q})"

    def evaluate(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
                 trials: int = 200, seed: int = 0) -> ModelEstimate:
        coop = _resolve(self.cooperative, config)
        hostile = _resolve(self.hostile, config)
        forced = None if self.first_draw is None else _resolve(self.first_draw, config)
        values = [
            float(self.run_trial(program, config, table, _derive_seed(seed, i),
                                 _programs=(coop, hostile, forced)))
            for i in range(trials)
        ]
        return _estimate(self.describe(), values)

    def run_trial(self, program: StrategyProgram, config: GameConfig,
                  table: PayoffTable, trial_seed: int,
                  _programs: tuple[StrategyProgram, StrategyProgram, StrategyProgram | None] | None = None,
                  ) -> Fraction:
        if _programs is None:
            coop = _resolve(self.cooperative, config)
            hostile = _resolve(self.hostile, config)
            forced = None if self.first_draw is None else _resolve(self.first_draw, config)
        else:
            coop, hostile, forced = _programs
        rng = random.Random(trial_seed)
        q = float(self.q)

        def draw() -> Seat:
            pick = coop if rng.random() < q else hostile
            return Seat.fresh(pick)

        focal = Seat.fresh(program)
        partner = Seat.fresh(forced) if forced is not None else draw()
        focal.new_pairing()
        total = Fraction(0)
        for now in range(1, config.N + 1):
            if partner is not None:
                outcome = play_pair_tick(focal, partner, config, table)
                total += outcome.pay1
                if outcome.split:
                    partner = None
            if partner is None and (config.instantaneous_rematch or now % config.t == 0):
                partner = draw()
                focal.new_pairing()
        return total


@dataclass(frozen=True)
class PopulationMixModel:
    """A full population run; the focal strategy is player 0 and the rest
    of the roster is fixed. Sampled over seeds (matchings vary)."""

    others: tuple[Union[str, StrategyProgram], ...]
    name: str = ""

    def describe(self) -> str:
        if self.name:
            return self.name
        labels = [o if isinstance(o, str) else o.name for o in self.others]
        return "mix(" + ",".join(labels) + ")"

    def evaluate(self, program: StrategyProgram, config: GameConfig, table: PayoffTable,
                 trials: int = 50, seed: int = 0) -> ModelEstimate:
        roster = [("S", program)] + [
            (o if isinstance(o, str) else o.name, _resolve(o, config)) for o in self.others
        ]
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

    def __float__(self) -> float:
        return float(self.value)


def security_level(
    program: StrategyProgram,
    models: list[PopulationModel],
    config: GameConfig,
    table: PayoffTable,
    trials: int = 200,
    seed: int = 0,
) -> SecurityLevelResult:
    """Minimum over the candidate populations of the strategy's mean payoff.

    Exact for deterministic models, Monte-Carlo otherwise; the per-model
    rows keep their standard errors so reports can print intervals.
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
            f"search space of roughly {estimate} programs exceeds the limit of {limit}; "
            "lower the size bound"
        )
        self.estimate = estimate
        self.limit = limit


_MAX_SIZE_BOUND = 12
_MAX_CANDIDATES = 3_000_000


def _rule_compiled_size(guard_terms: int, stmt_count: int, has_goto: bool, is_last: bool) -> int:
    size = guard_terms + stmt_count
    if has_goto:
        size += 2
    elif not is_last:
        size += 1
    return size


@dataclass(frozen=True)
class _RuleInfo:
    rule: dsl.Rule
    size_nonlast: int
    size_last: int
    has_goto: bool
    incs: bool
    tests_counter: bool


def _rule_infos(
    actions: tuple[Action, ...],
    action_terms: list[dsl.Term],
    counter_terms: list[dsl.Term],
    with_counter: bool,
    goto_target: str | None,
) -> list[_RuleInfo]:
    guards: list[tuple[dsl.Term, ...]] = [()]
    guards += [(t,) for t in action_terms]
    if with_counter:
        guards += [(t,) for t in counter_terms]
    infos: list[_RuleInfo] = []
    for guard in guards:
        for play in (None,) + actions:
            for inc in ((False, True) if with_counter else (False,)):
                for target in ((None, goto_target) if goto_target else (None,)):
                    stmts: list[dsl.Stmt] = []
                    if play is not None:
                        stmts.append(dsl.Play(play))
                    if inc:
                        stmts.append(dsl.Inc("n"))
                    if target is not None:
                        stmts.append(dsl.Goto(target))
                    if not stmts:
                        continue
                    plain = len(stmts) - (1 if target else 0)
                    infos.append(_RuleInfo(
                        rule=dsl.Rule(None, guard, tuple(stmts)),
                        size_nonlast=_rule_compiled_size(len(guard), plain, bool(target), False),
                        size_last=_rule_compiled_size(len(guard), plain, bool(target), True),
                        has_goto=bool(target),
                        incs=inc,
                        tests_counter=bool(guard) and guard[0].field == "n",
                    ))
    return infos


@dataclass(frozen=True)
class _StateCombo:
    rules: tuple[dsl.Rule, ...]
    size: int            # compiled size including the 2-instruction epilogue
    gotos: bool
    incs: bool
    tests_counter: bool


def _state_combos(infos: list[_RuleInfo], budget: int) -> list[_StateCombo]:
    """Rule sequences for one state fitting the budget: one rule, or a
    guarded rule followed by one more (unconditional rules anywhere else
    would make the rest of the state dead)."""
    combos: list[_StateCombo] = []
    for info in infos:
        size = info.size_last + 2
        if size <= budget:
            combos.append(_StateCombo(
                (info.rule,), size, info.has_goto, info.incs, info.tests_counter,
            ))
    min_last = min((i.size_last for i in infos), default=0)
    for first in infos:
        if not first.rule.guard:
            continue
        base = first.size_nonlast + 2
        if base + min_last > budget:
            continue
        for second in infos:
            size = base + second.size_last
            if size <= budget:
                combos.append(_StateCombo(
                    (first.rule, second.rule), size,
                    first.has_goto or second.has_goto,
                    first.incs or second.incs,
                    first.tests_counter or second.tests_counter,
                ))
    return combos


def _iter_sources(
    config: GameConfig, size_bound: int, mode: Mode | None = None
) -> Iterator[dsl.StrategySource]:
    """Generate canonical candidate sources whose compiled size fits the
    bound. Deterministic order; each distinct source appears once."""
    mode = mode or config.mode
    actions = (Action.C, Action.D, Action.W) + ((Action.O,) if mode is Mode.OPD else ())
    width = counter_width_for(config.N)

    # Compare thresholds: exhaustive at desk scale. At large horizons the
    # alphabet thins to the early ticks and the horizon boundary; against a
    # once-per-tick counter, an intermediate defection threshold is
    # dominated by a later one (T > R), so nothing of value is lost.
    values: list[dsl.Value]
    if config.N <= 8:
        values = [dsl.ConstInt(v) for v in range(0, min(config.N, (1 << width) - 1) + 1)]
    else:
        values = [dsl.ConstInt(v) for v in range(0, 4)]
        values += [dsl.HorizonMinus(2), dsl.HorizonMinus(1), dsl.HorizonMinus(0)]

    action_terms = [
        dsl.Term(field, op, dsl.ConstAction(a))
        for field in ("opp", "own")
        for op in (dsl.CmpOp.EQ, dsl.CmpOp.NE)
        for a in actions
    ]
    counter_terms = [
        dsl.Term("n", op, value)
        for op in (dsl.CmpOp.EQ, dsl.CmpOp.NE, dsl.CmpOp.LT, dsl.CmpOp.GE)
        for value in values
    ]

    def counter_ok(with_counter: bool, *combos: _StateCombo) -> bool:
        if not with_counter:
            return True
        return any(c.incs for c in combos) and any(c.tests_counter for c in combos)

    for with_counter in (False, True):
        decls = (dsl.Decl("n", width),) if with_counter else ()

        # Single state: no gotos (a self-goto only restates the loop).
        plain = _rule_infos(actions, action_terms, counter_terms, with_counter, None)
        for combo in _state_combos(plain, size_bound):
            if not counter_ok(with_counter, combo):
                continue
            yield dsl.StrategySource("cand", decls, combo.rules)

        # Two states: entry s0 and s1, each able to hand off to the other;
        # s1 must actually be reachable from s0.
        to_s1 = _rule_infos(actions, action_terms, counter_terms, with_counter, "s1")
        to_s0 = _rule_infos(actions, action_terms, counter_terms, with_counter, "s0")
        combos1 = _state_combos(to_s0, size_bound - 4)  # s0 takes 4 at minimum
        min_size1 = min((c.size for c in combos1), default=0)
        for combo0 in _state_combos(to_s1, size_bound - min_size1):
            if not combo0.gotos:
                continue
            budget1 = size_bound - combo0.size
            for combo1 in combos1:
                if combo1.size > budget1:
                    continue
                if not counter_ok(with_counter, combo0, combo1):
                    continue
                labeled0 = (replace(combo0.rules[0], label="s0"),) + combo0.rules[1:]
                labeled1 = (replace(combo1.rules[0], label="s1"),) + combo1.rules[1:]
                yield dsl.StrategySource("cand", decls, labeled0 + labeled1)


def enumerate_candidates(
    config: GameConfig,
    size_bound: int,
    mode: Mode | None = None,
) -> Iterator[StrategyProgram]:
    """Yield every canonical candidate program within the compiled size bound.

    Deterministic order. Canonical means: unconditional rules only in last
    position, a declared counter is both incremented and tested somewhere,
    the second state is goto-reachable, and no self-gotos.
    """
    seen: set[str] = set()
    for source in _iter_sources(config, size_bound, mode):
        text = dsl.print_source(source)
        if text in seen:
            continue
        seen.add(text)
        program = dsl.compile(source, config)
        if len(program.instructions) <= size_bound:
            yield program


def estimate_search_size(
    config: GameConfig,
    size_bound: int,
    mode: Mode | None = None,
    limit: int | None = None,
) -> int:
    """Size of the candidate space, counted without compiling anything.

    With ``limit`` set, counting stops just past the limit, so refusals on
    oversized bounds stay cheap.
    """
    count = 0
    for _ in _iter_sources(config, size_bound, mode):
        count += 1
        if limit is not None and count > limit:
            return count
    return count


# ---------------------------------------------------------------------------
# Best response and equilibrium checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestResponseResult:
    program: StrategyProgram
    payoff: Fraction | float
    source: str
    searched: int
    exact: bool


def best_response(
    opponent: Union[StrategyProgram, PopulationModel],
    config: GameConfig,
    table: PayoffTable,
    size_bound: int = 8,
    trials: int = 100,
    screen_trials: int = 3,
    finalists: int = 10,
    seed: int = 0,
) -> BestResponseResult:
    """Exhaustive argmax over the canonical program space.

    Against a fixed program the evaluation is exact. Against a population
    model, candidates are screened on a few shared seeds and the finalists
    re-evaluated on the full trial count; ties break to the smallest
    canonical source.
    """
    estimate = estimate_search_size(config, size_bound, limit=_MAX_CANDIDATES)
    if size_bound > _MAX_SIZE_BOUND or estimate > _MAX_CANDIDATES:
        raise BoundTooLargeError(estimate, _MAX_CANDIDATES)

    fixed = isinstance(opponent, StrategyProgram)
    searched = 0

    if fixed:
        best: tuple[Fraction, str, StrategyProgram] | None = None
        for candidate in enumerate_candidates(config, size_bound):
            searched += 1
            if config.mode is Mode.FTPD:
                value = run_match(candidate, opponent, config, table).total1
            else:
                trace = run_population(
                    [("cand", candidate), ("opp", opponent)], config, table,
                    initial_pairing=[(0, 1)],
                )
                value = trace.summaries[0].total
            key = (value, candidate.source or "")
            if best is None or value > best[0] or (value == best[0] and key[1] < best[1]):
                best = (value, key[1], candidate)
        if best is None:
            raise RuntimeError("empty candidate space")
        return BestResponseResult(best[2], best[0], best[1], searched, exact=True)

    # Model opponent: racing evaluation on shared seeds.
    scored: list[tuple[float, str, StrategyProgram]] = []
    for candidate in enumerate_candidates(config, size_bound):
        searched += 1
        est = opponent.evaluate(candidate, config, table, trials=screen_trials, seed=seed)
        scored.append((float(est.mean), candidate.source or "", candidate))
    scored.sort(key=lambda item: (-item[0], item[1]))
    best_final: tuple[float, str, StrategyProgram] | None = None
    for _, source, candidate in scored[:finalists]:
        est = opponent.evaluate(candidate, config, table, trials=trials, seed=seed)
        value = float(est.mean)
        if (
            best_final is None
            or value > best_final[0]
            or (value == best_final[0] and source < best_final[1])
        ):
            best_final = (value, source, candidate)
    assert best_final is not None
    return BestResponseResult(best_final[2], best_final[0], best_final[1], searched, exact=False)


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
    sigma1: StrategyProgram,
    sigma2: StrategyProgram,
    config: GameConfig,
    table: PayoffTable,
    size_bound: int = 8,
) -> EquilibriumVerdict:
    """Brute-force Nash check of a strategy pair within the candidate space.

    Also reports whether the pair is a cooperative equilibrium, i.e. its
    own play pays R*N to both players.
    """
    base = run_match(sigma1, sigma2, config, table)
    cooperative = (
        base.total1 == table.R * config.N and base.total2 == table.R * config.N
    )
    br1 = best_response(sigma2, config, table, size_bound=size_bound)
    if br1.payoff > base.total1:
        return EquilibriumVerdict(
            False, cooperative, (base.total1, base.total2),
            deviation_player=1, deviation_source=br1.source, deviation_payoff=br1.payoff,
        )
    br2 = best_response(sigma1, config, table, size_bound=size_bound)
    if br2.payoff > base.total2:
        return EquilibriumVerdict(
            False, cooperative, (base.total1, base.total2),
            deviation_player=2, deviation_source=br2.source, deviation_payoff=br2.payoff,
        )
    return EquilibriumVerdict(True, cooperative, (base.total1, base.total2))


# ---------------------------------------------------------------------------
# Competitive ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    strategy: str
    security_level: Fraction | float
    security_model: str
    mu: Fraction | float
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
                lines.append(f"  model {row.model}: mean {row.mean} (exact)")
            else:
                lo, hi = row.interval()
                lines.append(
                    f"  model {row.model}: mean {float(row.mean):.3f} "
                    f"(95% CI {lo:.3f}..{hi:.3f}, n={row.trials})"
                )
        lines.append(f"security level: {float(self.security_level):.3f} (model {self.security_model})")
        lines.append(f"expected payoff mu: {float(self.mu):.3f}")
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
        lines.append(f"mu,{float(self.mu)},")
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
    if isinstance(worst_model, FixedOpponentModel):
        opponent = _resolve(worst_model.opponent, config)
        br = best_response(opponent, config, table, size_bound=size_bound)
    else:
        br = best_response(worst_model, config, table, size_bound=size_bound,
                           trials=trials, seed=seed)
    h = br.payoff
    cr = float(sl.value) / float(h) if float(h) > 0 else None
    baseline = float(table.R * config.N)
    return AnalysisReport(
        strategy=program.name,
        security_level=sl.value,
        security_model=sl.model,
        mu=sl.value,
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
