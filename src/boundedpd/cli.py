"""Command-line front end.

Subcommands:

* ``match``: run one two-player match, write the trace CSV, print totals.
* ``population``: run an opting-out population from a spec file.
* ``analyze``: security level / competitive ratio reports and sweeps.
* ``list-strategies``: show the built-in catalog.

Exit status 0 on success, 2 on configuration or parse problems. Strategy
file diagnostics are printed to stderr as ``file:line:col: message``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import analysis, dsl, library
from .game import (
    ConfigError, GameConfig, Mode, PayoffTable, TABLE_PRESETS, config_header,
    parse_config_text, table_from_mapping,
)
from .match import run_match, trace_to_csv as match_csv
from .population import (
    PopulationSpecError, parse_population_spec, run_population,
    summary_to_csv, trace_to_csv as population_csv,
)
from .vm import StrategyProgram


class CliError(Exception):
    """Raised for user-facing failures; main() maps it to exit code 2."""


def _load_table(spec: str | None) -> PayoffTable:
    if spec is None:
        return TABLE_PRESETS["intro"]
    if spec in TABLE_PRESETS:
        return TABLE_PRESETS[spec]
    path = Path(spec)
    if not path.exists():
        raise CliError(f"no table preset or file named {spec!r}")
    try:
        raw = parse_config_text(path.read_text(encoding="utf-8"))
        return table_from_mapping(raw)
    except ConfigError as exc:
        raise CliError(f"{spec}: {exc}") from exc


def _build_config(args: argparse.Namespace, mode: Mode) -> GameConfig:
    try:
        return GameConfig(
            N=args.N,
            mode=mode,
            t=getattr(args, "t", 1),
            K=getattr(args, "K", 1),
            k=args.k,
            instantaneous_rematch=getattr(args, "instantaneous_rematch", False),
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _resolve_strategy(spec: str, config: GameConfig) -> StrategyProgram:
    if spec in library.BUILTIN_NAMES:
        try:
            return library.get(spec, config)
        except ValueError as exc:
            raise CliError(f"{spec}: {exc}") from exc
    path = Path(spec)
    if not path.exists():
        raise CliError(f"no builtin or strategy file named {spec!r}")
    try:
        return dsl.compile(dsl.parse(path.read_text(encoding="utf-8")), config)
    except dsl.DslError as exc:
        raise CliError(exc.with_file(str(path))) from exc


def _write(out_dir: str | None, filename: str, content: str) -> None:
    if out_dir is None:
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(content, encoding="utf-8")


def _add_common(parser: argparse.ArgumentParser, default_n: int) -> None:
    parser.add_argument("--N", type=int, default=default_n, help="horizon in clock ticks")
    parser.add_argument("--k", type=int, default=2, help="per-tick compare budget in XOR units")
    parser.add_argument("--table", default=None,
                        help="payoff table preset (intro, strict) or key=value file")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--out", default=None, help="directory for CSV outputs")


def cmd_match(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    config = _build_config(args, Mode.FTPD)
    p1 = _resolve_strategy(args.strategy1, config)
    p2 = _resolve_strategy(args.strategy2, config)
    try:
        trace = run_match(p1, p2, config, table)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write(args.out, "match.csv", match_csv(trace, config, table,
                                            extra_meta=f"{p1.source}{p2.source}"))
    print(f"{trace.total1} {trace.total2}")
    return 0


def cmd_population(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    spec_path = Path(args.popspec)
    if not spec_path.exists():
        raise CliError(f"population spec file {args.popspec!r} not found")
    spec_text = spec_path.read_text(encoding="utf-8")
    # K is determined by the roster size.
    probe = GameConfig(N=args.N, mode=Mode.OPD, t=args.t, K=1, k=args.k,
                       instantaneous_rematch=args.instantaneous_rematch, seed=args.seed)
    try:
        roster = parse_population_spec(spec_text, probe, base_dir=spec_path.parent)
    except (PopulationSpecError, dsl.DslError) as exc:
        raise CliError(f"{args.popspec}: {exc}") from exc
    if len(roster) % 2:
        raise CliError(f"population has {len(roster)} players; the count must be even")
    if args.K is not None and args.K * 2 != len(roster):
        raise CliError(f"--K {args.K} asks for {args.K * 2} players but the "
                       f"spec provides {len(roster)}")
    config = replace(probe, K=len(roster) // 2)
    try:
        trace = run_population(roster, config, table,
                               unpaired_pay_qhat=args.unpaired_qhat)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write(args.out, "population.csv", population_csv(trace, config, table, extra_meta=spec_text))
    _write(args.out, "summary.csv",
           config_header(table, config, spec_text) + "\n" + summary_to_csv(trace))
    for s in trace.summaries:
        print(f"{s.pid} {s.label} payoff={s.total} opt_outs={s.opt_outs} "
              f"unpaired_ticks={s.unpaired_ticks}")
    return 0


def _delay_to_schedule(r: Fraction) -> tuple[bool, int]:
    """Map an expected rematch delay r to engine settings: instantaneous for
    r=0, otherwise the period t with (t-1)/2 = r."""
    if r == 0:
        return True, 1
    t = 2 * r + 1
    if t.denominator != 1:
        raise CliError("--r must be 0 or make 2r+1 a whole number of ticks")
    return False, int(t)


def cmd_analyze(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    if args.oft_constant:
        if args.q is None:
            raise CliError("--oft-constant needs --q")
        q = Fraction(args.q).limit_denominator(10**6)
        if q <= 0:
            raise CliError("q must be positive")
        r = Fraction(args.r if args.r is not None else 0).limit_denominator(10**6)
        print(analysis.oft_constant(q, r, table))
        return 0

    if args.strategy is None:
        raise CliError("analyze needs a strategy (or --oft-constant)")

    models: list[analysis.PopulationModel] = []
    mode = Mode.FTPD
    if args.q is not None:
        q = Fraction(args.q).limit_denominator(10**6)
        if not 0 < q <= 1:
            raise CliError("q must be in (0, 1]")
        mode = Mode.OPD
        models.append(analysis.DrawModel(q=q))
    if args.mode is not None:
        try:
            mode = Mode(args.mode.upper())
        except ValueError:
            raise CliError(f"unknown mode {args.mode!r} (expected FTPD or OPD)") from None
        if mode is Mode.FTPD and args.q is not None:
            raise CliError("--q describes an opting-out pool; it needs OPD mode")
    for gamma in args.gamma or []:
        if not gamma.startswith("all-"):
            raise CliError(f"unknown population {gamma!r}; expected all-<builtin>")
        name = gamma[len("all-"):]
        if name not in library.BUILTIN_NAMES:
            raise CliError(f"unknown builtin {name!r} in {gamma!r}")
        models.append(analysis.FixedOpponentModel(name))
    if not models:
        raise CliError("no population models given; use --q and/or --gamma")

    instantaneous, t = True, 1
    if args.r is not None:
        instantaneous, t = _delay_to_schedule(Fraction(args.r).limit_denominator(10**6))

    horizons = [args.N]
    if args.sweep_N:
        try:
            start, stop, step = (int(x) for x in args.sweep_N.split(":"))
            horizons = list(range(start, stop + 1, step))
        except ValueError:
            raise CliError("--sweep-N expects START:STOP:STEP") from None
        if not horizons:
            raise CliError("--sweep-N produced no horizons")

    rows = []
    for n in horizons:
        config = GameConfig(N=n, mode=mode, t=t, K=1, k=args.k,
                            instantaneous_rematch=instantaneous, seed=args.seed)
        program = _resolve_strategy(args.strategy, config)
        report = analysis.competitive_ratio(
            program, models, config, table,
            trials=args.trials, size_bound=args.size_bound, seed=args.seed,
        )
        rows.append((n, config, report))
        if len(horizons) == 1:
            print(report.to_text(), end="")
            _write(args.out, "report.csv",
                   config_header(table, config) + "\n" + report.to_csv())

    if len(horizons) > 1:
        lines = ["N,security_level,h,competitive_ratio"]
        for n, _config, report in rows:
            cr = "" if report.competitive_ratio is None else f"{report.competitive_ratio:.6f}"
            lines.append(f"{n},{float(report.security_level):.6f},{float(report.h):.6f},{cr}")
        sweep_csv = "\n".join(lines) + "\n"
        print(sweep_csv, end="")
        _write(args.out, "sweep.csv", config_header(table, rows[-1][1]) + "\n" + sweep_csv)
    return 0


def cmd_list_strategies(args: argparse.Namespace) -> int:
    config = GameConfig(N=args.N, k=args.k)
    for entry in library.catalog(config).values():
        modes = "+".join(m.value for m in entry.modes)
        print(f"{entry.name}\tworst tick cost {entry.documented_cost}\t{modes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundedpd",
        description="Clock-driven repeated PD with compute-budgeted strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="run one two-player match")
    p_match.add_argument("strategy1")
    p_match.add_argument("strategy2")
    _add_common(p_match, default_n=10)
    p_match.set_defaults(func=cmd_match)

    p_pop = sub.add_parser("population", help="run an opting-out population")
    p_pop.add_argument("popspec", help="file of 'COUNT x STRATEGY' lines")
    _add_common(p_pop, default_n=100)
    p_pop.add_argument("--t", type=int, default=1, help="rematch period in ticks")
    p_pop.add_argument("--K", type=int, default=None,
                       help="expected pair count; fails if the spec disagrees")
    p_pop.add_argument("--instantaneous-rematch", action="store_true",
                       dest="instantaneous_rematch")
    p_pop.add_argument("--unpaired-qhat", action="store_true", dest="unpaired_qhat",
                       help="pay Q_hat per unpaired tick instead of 0")
    p_pop.set_defaults(func=cmd_population)

    p_an = sub.add_parser("analyze", help="security level and competitive ratio")
    p_an.add_argument("strategy", nargs="?", default=None)
    _add_common(p_an, default_n=100)
    p_an.add_argument("--q", default=None, help="chance a pool draw is cooperative")
    p_an.add_argument("--r", default=None, help="expected rematch delay in ticks")
    p_an.add_argument("--mode", default=None,
                      help="force FTPD or OPD evaluation (default: OPD when --q is given)")
    p_an.add_argument("--gamma", action="append", default=None,
                      help="fixed-opponent population, e.g. all-AllD (repeatable)")
    p_an.add_argument("--sweep-N", default=None, help="sweep horizons START:STOP:STEP")
    p_an.add_argument("--trials", type=int, default=300)
    p_an.add_argument("--size-bound", type=int, default=6, dest="size_bound",
                      help="instruction bound for the maximizing benchmark search")
    p_an.add_argument("--oft-constant", action="store_true", dest="oft_constant",
                      help="print (1/q)((r+1)R - S) and exit")
    p_an.set_defaults(func=cmd_analyze)

    p_list = sub.add_parser("list-strategies", help="show the built-in catalog")
    p_list.add_argument("--N", type=int, default=100)
    p_list.add_argument("--k", type=int, default=2)
    p_list.set_defaults(func=cmd_list_strategies)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"boundedpd: {exc}", file=sys.stderr)
        return 2
    except analysis.BoundTooLargeError as exc:
        print(f"boundedpd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
