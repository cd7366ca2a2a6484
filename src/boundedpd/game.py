"""Actions, payoff tables, and game configuration.

Everything here is a pure value type. Payoffs are exact rationals
(``fractions.Fraction``) so that equilibrium comparisons never hinge on
floating-point noise; Monte-Carlo layers convert to float at the edges.

Two game modes exist:

* ``FTPD``: two players, N clock ticks, action set {C, D, W}. W is the
  default action of a player whose computation produced no move this tick.
* ``OPD``: a population variant that adds the action O (opt out). Any O
  splits the pair; both players receive Q and return to the unpaired pool.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property


class Mode(str, Enum):
    FTPD = "FTPD"
    OPD = "OPD"


class Action(str, Enum):
    C = "C"  # cooperate
    D = "D"  # defect
    W = "W"  # wait (no move produced this tick)
    O = "O"  # opt out (OPD only)


#: Each action's letter, read without the enum's ``value`` descriptor.
ACTION_TEXT = {action: action.value for action in Action}


FTPD_ACTIONS = (Action.C, Action.D, Action.W)
OPD_ACTIONS = (Action.C, Action.D, Action.W, Action.O)


def legal_actions(mode: Mode) -> tuple[Action, ...]:
    return OPD_ACTIONS if mode is Mode.OPD else FTPD_ACTIONS


class IllegalActionError(ValueError):
    """An action was played that the current mode does not allow."""


def parse_rational(text: str) -> Fraction:
    """Read a rational exactly, as ``fractions.Fraction`` reads one: an
    integer, a decimal, ``p/q`` or an exponent form. A zero denominator is
    a ``ValueError`` like any other malformed literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def bit_width(value: int) -> int:
    """Bits needed to represent a nonnegative integer (at least 1)."""
    if value < 0:
        raise ValueError("bit_width is defined for nonnegative values")
    return max(1, value.bit_length())


def counter_width_for(n: int) -> int:
    """Width in bits of a counter able to hold values 0..n, i.e. ceil(log2(n+1))."""
    if n < 1:
        raise ValueError("horizon must be positive")
    return n.bit_length()


def cb_bound_bits(n: int) -> int:
    """ceil(log2 N): the per-tick budget must stay strictly below this for a
    complexity-bounded player at horizon N."""
    if n < 1:
        raise ValueError("horizon must be positive")
    return (n - 1).bit_length()


#: The payoff table's fields, in config-file order.
TABLE_KEYS = ("T", "R", "P", "S", "H", "Q", "Q_hat")

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PayoffTable:
    """Payoffs for every action pair.

    T, R, P, S are the classic temptation/reward/punishment/sucker values.
    H is paid to both players when both wait; Q is paid to both on a split
    (any O in OPD mode); Q_hat is the alternate split payoff used only by
    the asymmetric-split option. Mixed wait pairs such as (W, C) pay 0.

    An action pair takes at most 16 values, so the engines pay a tick by
    reading its row in ``outcomes``, built from these fields on first use.
    """

    T: Fraction
    R: Fraction
    P: Fraction
    S: Fraction
    H: Fraction = Fraction(0)
    Q: Fraction = Fraction(0)
    Q_hat: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in TABLE_KEYS:
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def as_mapping(self) -> dict[str, Fraction]:
        return {name: getattr(self, name) for name in TABLE_KEYS}

    @cached_property
    def outcomes(self) -> dict[tuple[Mode, bool], dict[tuple[Action, Action], tuple]]:
        """The rows of every game, keyed by ``(mode, asymmetric_split)``:
        each legal ``(a1, a2)`` maps to ``(pay1, pay2, split, scaled1,
        scaled2)``, where ``scaled`` is the payoff as an integer over
        ``payoff_unit(self)``. Not a field, so it takes no part in ``==``,
        ``hash`` or ``dataclasses.replace``."""
        unit = payoff_unit(self)
        rows = {}
        for mode in Mode:
            actions = legal_actions(mode)
            for asymmetric_split in (False, True):
                rows[mode, asymmetric_split] = {
                    (a, b): (pay1, pay2, split, int(pay1 * unit), int(pay2 * unit))
                    for a in actions for b in actions
                    for pay1, pay2, split in [_resolve(a, b, self, asymmetric_split)]
                }
        return rows


def _resolve(
    a: Action, b: Action, table: PayoffTable, asymmetric_split: bool
) -> tuple[Fraction, Fraction, bool]:
    """The payoff rule for one legal action pair, from the table's fields."""
    if a is Action.O or b is Action.O:
        if asymmetric_split and a is not b:
            if a is Action.O:
                return table.Q, table.Q_hat, True
            return table.Q_hat, table.Q, True
        return table.Q, table.Q, True

    if a is Action.W or b is Action.W:
        return (table.H, table.H, False) if a is b else (_ZERO, _ZERO, False)
    if a is Action.C:
        return (table.R, table.R, False) if b is Action.C else (table.S, table.T, False)
    return (table.T, table.S, False) if b is Action.C else (table.P, table.P, False)


def payoff_unit(table: PayoffTable) -> int:
    """The least common denominator of the table's payoffs: every payoff,
    and so every total, is an integer multiple of ``1 / payoff_unit``."""
    return math.lcm(*[value.denominator for value in table.as_mapping().values()])


#: The table from the information-trading example: sending a useful packet
#: costs 2, an empty one costs 1, receiving is worth 3.
INTRO_TABLE = PayoffTable(T=Fraction(2), R=Fraction(1), P=Fraction(-1), S=Fraction(-2))

#: A table in the P > 0 > H regime where waiting is strictly dominated.
STRICT_TABLE = PayoffTable(
    T=Fraction(3), R=Fraction(2), P=Fraction(1), S=Fraction(-1), H=Fraction(-1)
)

TABLE_PRESETS: dict[str, PayoffTable] = {
    "intro": INTRO_TABLE,
    "strict": STRICT_TABLE,
}


def payoff(
    a: Action,
    b: Action,
    table: PayoffTable,
    mode: Mode = Mode.FTPD,
    asymmetric_split: bool = False,
) -> tuple[Fraction, Fraction, bool]:
    """Resolve one simultaneous action pair into ``(pay1, pay2, split)``
    by reading the pair's row of ``table.outcomes``.

    In OPD mode any pair containing O yields Q to both and signals a split.
    With ``asymmetric_split`` enabled, a unilateral opt-out pays Q to the
    opting player and Q_hat to the abandoned one. A pair the mode lacks
    has no row and raises ``IllegalActionError``.
    """
    try:
        return table.outcomes[mode, asymmetric_split][a, b][:3]
    except KeyError:
        raise IllegalActionError(
            f"action pair ({a.value},{b.value}) illegal in {mode.value}") from None


# Regimes add the parameter constraints of the opting-out reduction results
# on top of the core ordering.
REGIME_THEOREM6 = "theorem6"
REGIME_THEOREM7 = "theorem7"


def validate_table(table: PayoffTable, mode: Mode = Mode.FTPD, regime: str | None = None) -> list[str]:
    """Check ordering constraints; returns the violated constraints by name.

    An empty list means the table is valid for the mode/regime.
    """
    violations: list[str] = []
    if not table.T > table.R:
        violations.append("T > R")
    if not table.R > table.P:
        violations.append("R > P")
    if not table.P > table.S:
        violations.append("P > S")
    if not 2 * table.R > table.T + table.S:
        violations.append("2R > T + S")
    if not table.H <= 0:
        violations.append("H <= 0")
    if regime == REGIME_THEOREM6:
        if mode is not Mode.OPD:
            violations.append("mode == OPD")
        if not table.P >= table.Q:
            violations.append("P >= Q")
        if not table.Q >= 0:
            violations.append("Q >= 0")
        if not table.Q_hat < 0:
            violations.append("Q_hat < 0")
    elif regime == REGIME_THEOREM7:
        if mode is not Mode.OPD:
            violations.append("mode == OPD")
        if not table.P > table.Q:
            violations.append("P > Q")
        if not table.Q > table.Q_hat:
            violations.append("Q > Q_hat")
        if not table.H < 0:
            violations.append("H < 0")
    elif regime is not None:
        raise ValueError(f"unknown regime {regime!r}")
    return violations


def require_valid_table(table: PayoffTable) -> None:
    """Raise ``ValueError`` naming every ordering constraint the table breaks."""
    violations = validate_table(table)
    if violations:
        raise ValueError("invalid payoff table: " + ", ".join(violations))


@dataclass(frozen=True)
class Dominance:
    dominated: Action
    dominator: Action
    strict: bool


def dominance_check(
    table: PayoffTable, mode: Mode = Mode.FTPD, asymmetric_split: bool = False
) -> list[Dominance]:
    """Row-dominance report over the one-shot action matrix for the mode.

    For each ordered action pair (x, y), x != y, reports whether y dominates
    x: strictly (better against every opponent action) or weakly (never
    worse, better at least once). Column dominance is the mirror image by
    symmetry of the game, so only rows are compared.
    """
    actions = legal_actions(mode)
    rows = {
        a: [payoff(a, b, table, mode, asymmetric_split)[0] for b in actions]
        for a in actions
    }
    records: list[Dominance] = []
    for dominated in actions:
        for dominator in actions:
            if dominator is dominated:
                continue
            better, worse = False, False
            for va, vb in zip(rows[dominated], rows[dominator]):
                if vb > va:
                    better = True
                elif vb < va:
                    worse = True
            if worse or not better:
                continue
            strict = all(vb > va for va, vb in zip(rows[dominated], rows[dominator]))
            records.append(Dominance(dominated, dominator, strict))
    return records


def is_dominated(records: list[Dominance], action: Action, by: Action, strict: bool = True) -> bool:
    for rec in records:
        if rec.dominated is action and rec.dominator is by:
            return rec.strict or not strict
    return False


@dataclass(frozen=True)
class GameConfig:
    """Run parameters shared by the engines.

    N is the horizon in clock ticks (known to players only through their
    observations), k the per-tick compare budget in XOR units, t the rematch
    period, and K the pair count (population size 2K) for OPD runs.
    """

    N: int
    mode: Mode = Mode.FTPD
    t: int = 1
    K: int = 1
    k: int = 2
    instantaneous_rematch: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.t < 1:
            raise ValueError("rematch period t must be at least 1")
        if self.K < 1:
            raise ValueError("pair count K must be at least 1")
        if self.k < 2:
            raise ValueError("budget k must be at least 2 (one action compare per tick)")
        if not isinstance(self.mode, Mode):
            object.__setattr__(self, "mode", Mode(self.mode))

    def rematches_at(self, now: int) -> bool:
        """Whether tick ``now`` ends with a rematch event."""
        return self.instantaneous_rematch or now % self.t == 0


def validate_config(config: GameConfig) -> list[str]:
    """Soft checks on a config; returns violated constraints by name.

    The complexity bound k < ceil(log2 N) is reported here rather than
    enforced at construction: small-N configs outside the bound are still
    runnable (and useful as negative controls), they just fall outside the
    regime where the cooperation results hold.
    """
    violations: list[str] = []
    if config.k >= cb_bound_bits(config.N):
        violations.append("k < ceil(log2 N)")
    return violations


# ---------------------------------------------------------------------------
# Table files, and the canonical config text behind the CSV headers
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A table file that cannot be read: a line that is not ``key=value``,
    a duplicate key, an empty value, a bad rational, or keys that are not
    payoff table keys."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the ``key=value`` lines of a table file into a raw string
    mapping of ``TABLE_KEYS``.

    Blank lines and ``#`` comments are ignored. A malformed line, a
    duplicate key or an empty value raises ``ConfigError`` with a line
    reference; keys outside ``TABLE_KEYS`` raise one ``ConfigError`` that
    names them all, since the run parameters do not belong in a table.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    extra = [key for key in raw if key not in TABLE_KEYS]
    if extra:
        raise ConfigError(f"not payoff table keys: {', '.join(extra)} "
                          f"(a table file takes {','.join(TABLE_KEYS)})")
    return raw


def table_from_mapping(raw: dict[str, str]) -> PayoffTable:
    """``INTRO_TABLE`` with each key ``raw`` holds set to its value, read by
    ``parse_rational``."""
    values = INTRO_TABLE.as_mapping()
    for key in TABLE_KEYS:
        if key in raw:
            try:
                values[key] = parse_rational(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad rational for {key!r}: {raw[key]!r}") from exc
    return PayoffTable(**values)


def dump_config_text(table: PayoffTable, config: GameConfig) -> str:
    """Canonical key=value rendering, used for output headers and hashing."""
    lines = [f"{key}={value}" for key, value in table.as_mapping().items()]
    lines += [
        f"N={config.N}",
        f"mode={config.mode.value}",
        f"t={config.t}",
        f"K={config.K}",
        f"k={config.k}",
        f"seed={config.seed}",
        f"instantaneous_rematch={'true' if config.instantaneous_rematch else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def config_header(table: PayoffTable, config: GameConfig, extra_meta: str = "") -> str:
    """The ``# config_sha256=... seed=...`` line that opens every CSV.

    The digest covers the canonical config text plus ``extra_meta`` (the
    strategy sources or the population spec), so identical inputs give an
    identical header.
    """
    digest = hashlib.sha256(
        (dump_config_text(table, config) + extra_meta).encode("utf-8")
    ).hexdigest()
    return f"# config_sha256={digest} seed={config.seed}"
