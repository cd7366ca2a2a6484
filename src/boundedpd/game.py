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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from pathlib import Path


class Mode(str, Enum):
    FTPD = "FTPD"
    OPD = "OPD"


class Action(str, Enum):
    C = "C"  # cooperate
    D = "D"  # defect
    W = "W"  # wait (no move produced this tick)
    O = "O"  # opt out (OPD only)


FTPD_ACTIONS = (Action.C, Action.D, Action.W)
OPD_ACTIONS = (Action.C, Action.D, Action.W, Action.O)


def legal_actions(mode: Mode) -> tuple[Action, ...]:
    return OPD_ACTIONS if mode is Mode.OPD else FTPD_ACTIONS


class IllegalActionError(ValueError):
    """An action was played that the current mode does not allow."""


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or integer literals into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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


@dataclass(frozen=True)
class PayoffTable:
    """Payoffs for every action pair.

    T, R, P, S are the classic temptation/reward/punishment/sucker values.
    H is paid to both players when both wait; Q is paid to both on a split
    (any O in OPD mode); Q_hat is the alternate split payoff used only by
    the asymmetric-split option. Mixed wait pairs such as (W, C) pay 0.
    """

    T: Fraction
    R: Fraction
    P: Fraction
    S: Fraction
    H: Fraction = Fraction(0)
    Q: Fraction = Fraction(0)
    Q_hat: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("T", "R", "P", "S", "H", "Q", "Q_hat"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def as_mapping(self) -> dict[str, Fraction]:
        return {
            "T": self.T, "R": self.R, "P": self.P, "S": self.S,
            "H": self.H, "Q": self.Q, "Q_hat": self.Q_hat,
        }


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


@dataclass(frozen=True)
class PayoffOutcome:
    p1: Fraction
    p2: Fraction
    split: bool = False

    def pair(self) -> tuple[Fraction, Fraction]:
        return (self.p1, self.p2)


def _pd_cells(table: PayoffTable) -> dict[tuple[Action, Action], PayoffOutcome]:
    # Memoized on the instance: hashing a table costs more than the lookup.
    cells = table.__dict__.get("_cells")
    if cells is None:
        cells = {
            (Action.C, Action.C): PayoffOutcome(table.R, table.R),
            (Action.C, Action.D): PayoffOutcome(table.S, table.T),
            (Action.D, Action.C): PayoffOutcome(table.T, table.S),
            (Action.D, Action.D): PayoffOutcome(table.P, table.P),
        }
        object.__setattr__(table, "_cells", cells)
    return cells


def payoff(
    a: Action,
    b: Action,
    table: PayoffTable,
    mode: Mode = Mode.FTPD,
    asymmetric_split: bool = False,
) -> PayoffOutcome:
    """Resolve one simultaneous action pair.

    In OPD mode any pair containing O yields Q to both and signals a split.
    With ``asymmetric_split`` enabled, a unilateral opt-out pays Q to the
    opting player and Q_hat to the abandoned one.
    """
    allowed = legal_actions(mode)
    if a not in allowed or b not in allowed:
        raise IllegalActionError(f"action pair ({a.value},{b.value}) illegal in {mode.value}")

    if a is Action.O or b is Action.O:
        if asymmetric_split and (a is Action.O) != (b is Action.O):
            if a is Action.O:
                return PayoffOutcome(table.Q, table.Q_hat, split=True)
            return PayoffOutcome(table.Q_hat, table.Q, split=True)
        return PayoffOutcome(table.Q, table.Q, split=True)

    if a is Action.W and b is Action.W:
        return PayoffOutcome(table.H, table.H)
    if a is Action.W or b is Action.W:
        return PayoffOutcome(Fraction(0), Fraction(0))

    return _pd_cells(table)[(a, b)]


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
        a: [payoff(a, b, table, mode, asymmetric_split).p1 for b in actions]
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
# Plain-text key=value config files
# ---------------------------------------------------------------------------

CONFIG_KEYS = (
    "T", "R", "P", "S", "H", "Q", "Q_hat",
    "N", "mode", "t", "K", "k", "seed", "instantaneous_rematch",
)

_TABLE_KEYS = ("T", "R", "P", "S", "H", "Q", "Q_hat")
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


class ConfigError(ValueError):
    """Malformed key=value config text."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines into a raw string mapping.

    Blank lines and ``#`` comments are ignored. Unknown keys and duplicate
    keys raise ``ConfigError`` with a line reference.
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
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def table_from_mapping(raw: dict[str, str], base: PayoffTable | None = None) -> PayoffTable:
    values = dict((base or INTRO_TABLE).as_mapping())
    for key in _TABLE_KEYS:
        if key in raw:
            try:
                values[key] = parse_rational(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad rational for {key!r}: {raw[key]!r}") from exc
    return PayoffTable(**values)


def config_from_mapping(raw: dict[str, str], base: GameConfig | None = None) -> GameConfig:
    base = base or GameConfig(N=10)
    kwargs: dict = {
        "N": base.N, "mode": base.mode, "t": base.t, "K": base.K,
        "k": base.k, "instantaneous_rematch": base.instantaneous_rematch,
        "seed": base.seed,
    }
    for key in ("N", "t", "K", "k", "seed"):
        if key in raw:
            try:
                kwargs[key] = int(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad integer for {key!r}: {raw[key]!r}") from exc
    if "mode" in raw:
        try:
            kwargs["mode"] = Mode(raw["mode"].upper())
        except ValueError as exc:
            raise ConfigError(f"bad mode {raw['mode']!r} (expected FTPD or OPD)") from exc
    if "instantaneous_rematch" in raw:
        value = raw["instantaneous_rematch"].lower()
        if value in _BOOL_TRUE:
            kwargs["instantaneous_rematch"] = True
        elif value in _BOOL_FALSE:
            kwargs["instantaneous_rematch"] = False
        else:
            raise ConfigError(f"bad boolean {raw['instantaneous_rematch']!r}")
    try:
        return GameConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config_file(path: str | Path, base_table: PayoffTable | None = None,
                     base_config: GameConfig | None = None) -> tuple[PayoffTable, GameConfig]:
    raw = parse_config_text(Path(path).read_text(encoding="utf-8"))
    return table_from_mapping(raw, base_table), config_from_mapping(raw, base_config)


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
