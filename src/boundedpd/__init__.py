"""Clock-driven repeated Prisoner's Dilemma with compute-budgeted players.

The package splits into value types and engines:

* :mod:`boundedpd.game` - actions, payoff tables, configs, dominance.
* :mod:`boundedpd.vm` - the budgeted strategy machine.
* :mod:`boundedpd.dsl` - the strategy language and compiler.
* :mod:`boundedpd.library` - built-in strategies and the strategy resolver.
* :mod:`boundedpd.match` - the pair-tick kernel every engine plays
  through, a function from a pairing's joint state (both programs,
  machines and last moves) to the next (both seats move; each engine pays
  the action pair from its own row of the payoff table), and two-player
  fixed-horizon matches.
* :mod:`boundedpd.population` - the opting-out population game, whose
  pair tick adds the instantaneous-rematch peek to the kernel.
* :mod:`boundedpd.analysis` - security levels, competitive ratios, and
  brute-force best responses.
* :mod:`boundedpd.cli` - command-line front end.
"""

from .game import (
    Action,
    GameConfig,
    INTRO_TABLE,
    Mode,
    PayoffTable,
    STRICT_TABLE,
    dominance_check,
    payoff,
    validate_config,
    validate_table,
)
from .vm import StrategyProgram, VmState, reset, tick
from .dsl import (
    DslError, StrategySource, compile, decompile, parse, print_source,
)
from .library import get as get_strategy
from .match import MatchTrace, run_match
from .population import OpdTrace, expected_rematch_delay, rematch, run_population

__version__ = "0.1.0"

__all__ = [
    "Action", "GameConfig", "INTRO_TABLE", "Mode", "PayoffTable", "STRICT_TABLE",
    "dominance_check", "payoff", "validate_config", "validate_table",
    "StrategyProgram", "VmState", "reset", "tick",
    "DslError", "StrategySource", "compile", "decompile", "parse", "print_source",
    "get_strategy",
    "MatchTrace", "run_match",
    "OpdTrace", "expected_rematch_delay", "rematch", "run_population",
    "__version__",
]
