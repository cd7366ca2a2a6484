"""Built-in strategies as DSL syntax trees, and the strategy resolver.

Six fixed strategies live as ``.pdstrat`` assets next to this module, which
:func:`get` parses. The seventh, CountingDefector, is generated per
horizon as a syntax tree (:func:`counting_defector_tree`), which :func:`get`
compiles directly: its source has one rule per tick, and printing it and
parsing it back would cost more than compiling it. Its text is that tree
printed. It cooperates through an unrolled chain of free states while
incrementing a counter sized for the configured N, then checks the counter
against N-2 before defecting. The
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
from .vm import CmpOp, StrategyProgram

_ASSET_DIR = Path(__file__).parent / "assets"

#: Names accepted by :func:`get`, in listing order.
BUILTIN_NAMES = ("GRIM", "OFT", "TFT", "AllC", "AllD", "AllW", "CountingDefector")


class UnknownStrategyError(KeyError):
    pass


def counting_defector_tree(n: int) -> dsl.StrategySource:
    """The counting defector for horizon ``n`` (n >= 3), built as a tree:
    states ``c1`` to ``c{n-2}`` each play C, count and go on, then ``armed``
    defects once the counter reaches N-2. The rules share one ``Inc``, one
    ``Play(C)`` and the counter's one ``Decl``; each has its own ``Goto``."""
    if n < 3:
        raise ValueError("CountingDefector needs a horizon of at least 3 ticks")
    count = (dsl.Play(Action.C), dsl.Inc("n"))
    rules = [dsl.Rule(f"c{i}", (), (*count, dsl.Goto(f"c{i + 1}" if i < n - 2 else "armed")))
             for i in range(1, n - 1)]
    rules.append(dsl.Rule("armed", (dsl.Term("n", CmpOp.GE, dsl.HorizonMinus(2)),),
                          (dsl.Play(Action.D),)))
    return dsl.StrategySource("CountingDefector", (dsl.Decl("n", counter_width_for(n)),),
                              tuple(rules))


def counting_defector_source(n: int) -> str:
    """Source text of the counting defector for horizon ``n`` (n >= 3): its
    tree, printed."""
    return dsl.print_source(counting_defector_tree(n))


def source_text(name: str, config: GameConfig) -> str:
    """Raw DSL text for a builtin (CountingDefector depends on config.N)."""
    if name == "CountingDefector":
        return counting_defector_source(config.N)
    path = _ASSET_DIR / f"{name}.pdstrat"
    if name not in BUILTIN_NAMES or not path.exists():
        raise UnknownStrategyError(name)
    return path.read_text(encoding="utf-8")


def get(name: str, config: GameConfig) -> StrategyProgram:
    """Compile a builtin for the given config. Unknown names raise.
    CountingDefector's tree is compiled as built, with no text in between;
    the other builtins are parsed from their assets."""
    if name == "CountingDefector":
        return dsl.compile(counting_defector_tree(config.N), config)
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
