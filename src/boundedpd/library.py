"""Built-in strategies shipped as DSL sources, and the strategy resolver.

Six fixed strategies live as ``.pdstrat`` assets next to this module. The
seventh, CountingDefector, is generated per horizon: it cooperates through
an unrolled chain of free states while incrementing a counter sized for the
configured N, then checks the counter against N-2 before defecting. The
check is a single wide compare, so under a budget k below the counter width
the player inevitably spends a tick waiting before its defection lands.
This makes the defector the best case allowed by the cost model: even
granted perfect timing of the check, the compare itself costs a wait, the
partner's trigger fires, and the total comes out at (N-2) rewards plus one
punishment instead of N rewards.

:func:`resolve` is the one step from a strategy reference to a program: a
program passes through, a builtin name is compiled by :func:`get`, and
anything else is a ``.pdstrat`` file. A player is its compiled program, so
the catalog keeps nothing beside it: a builtin's worst tick cost is the
compiler's ``worst_tick_cost`` and its game modes come from
:func:`modes`.
"""

from __future__ import annotations

from pathlib import Path

from . import dsl
from .game import Action, GameConfig, Mode, counter_width_for
from .vm import StrategyProgram

_ASSET_DIR = Path(__file__).parent / "assets"

#: Names accepted by :func:`get`, in listing order.
BUILTIN_NAMES = ("GRIM", "OFT", "TFT", "AllC", "AllD", "AllW", "CountingDefector")


class UnknownStrategyError(KeyError):
    pass


def counting_defector_source(n: int) -> str:
    """Source text of the counting defector for horizon ``n`` (n >= 3)."""
    if n < 3:
        raise ValueError("CountingDefector needs a horizon of at least 3 ticks")
    width = counter_width_for(n)
    lines = [
        "strategy CountingDefector",
        f"counter n: {width} bits",
    ]
    for i in range(1, n - 1):
        target = f"c{i + 1}" if i < n - 2 else "armed"
        lines.append(f"c{i}: always play C inc n goto {target}")
    lines.append("armed: if n >= N-2 then play D")
    return "\n".join(lines) + "\n"


def source_text(name: str, config: GameConfig) -> str:
    """Raw DSL text for a builtin (CountingDefector depends on config.N)."""
    if name == "CountingDefector":
        return counting_defector_source(config.N)
    path = _ASSET_DIR / f"{name}.pdstrat"
    if name not in BUILTIN_NAMES or not path.exists():
        raise UnknownStrategyError(name)
    return path.read_text(encoding="utf-8")


def get(name: str, config: GameConfig) -> StrategyProgram:
    """Compile a builtin for the given config. Unknown names raise."""
    return dsl.compile(dsl.parse(source_text(name, config)), config)


def resolve(spec: str | StrategyProgram, config: GameConfig,
            base_dir: str | Path = ".") -> StrategyProgram:
    """The program a strategy reference names: a program as it is, a
    builtin by name, or else a ``.pdstrat`` path relative to ``base_dir``.
    A missing file or a file that does not compile is a ``ValueError``;
    a compile error names the file and the position in it."""
    if isinstance(spec, StrategyProgram):
        return spec
    if spec in BUILTIN_NAMES:
        return get(spec, config)
    path = Path(base_dir) / spec
    if not path.is_file():
        raise ValueError(f"no builtin or strategy file named {spec!r}")
    try:
        return dsl.compile(dsl.parse(path.read_text(encoding="utf-8")), config)
    except dsl.DslError as exc:
        raise ValueError(exc.with_file(str(path))) from exc


def modes(program: StrategyProgram) -> tuple[Mode, ...]:
    """The game modes a program fits: OPD alone if it can play O."""
    if any(ins.action is Action.O for ins in program.instructions):
        return (Mode.OPD,)
    return (Mode.FTPD, Mode.OPD)


def catalog(config: GameConfig) -> dict[str, StrategyProgram]:
    """All builtins compiled for ``config``, keyed by name."""
    return {name: get(name, config) for name in BUILTIN_NAMES
            if name != "CountingDefector" or config.N >= 3}
