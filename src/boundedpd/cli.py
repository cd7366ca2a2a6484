"""Command-line front end.

Subcommands:

* ``match``: run one two-player match, write the trace CSV, print totals.
* ``population``: run an opting-out population from a spec file.
* ``analyze``: security level / competitive ratio reports and sweeps.
* ``list-strategies``: show the built-in catalog.

Exit status 0 on success, 2 on a usage problem: a bad flag, or any
``ValueError`` the package raises for a bad argument (out-of-range config,
invalid payoff table, unknown strategy, oversized search). ``main`` is the
one place that turns these into a ``boundedpd: ...`` line on stderr.
Strategy file diagnostics read ``file:line:col: message``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import analysis, library
from .game import (
    ConfigError, GameConfig, Mode, PayoffTable, TABLE_PRESETS, config_header,
    parse_config_text, parse_rational, table_from_mapping,
)
from .match import run_match, trace_to_csv as match_csv
from .population import (
    parse_population_spec, run_population, summary_to_csv, trace_to_csv as population_csv,
)


class CliError(Exception):
    """Raised for user-facing failures; main() maps it to exit code 2."""


def _load_table(spec: str | None) -> PayoffTable:
    if spec is None:
        return TABLE_PRESETS["intro"]
    if spec in TABLE_PRESETS:
        return TABLE_PRESETS[spec]
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"no table preset or file named {spec!r}")
    try:
        return table_from_mapping(parse_config_text(path.read_text(encoding="utf-8")))
    except ConfigError as exc:
        raise CliError(f"{spec}: {exc}") from exc


def _fraction(flag: str, text: str) -> Fraction:
    """A ``--q``/``--r`` value, read exactly as a table file's values are."""
    try:
        return parse_rational(text)
    except ValueError:
        raise CliError(f"{flag} expects a number, got {text!r}") from None


def _write(out_dir: str, filename: str, content: str) -> None:
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
    config = GameConfig(N=args.N, k=args.k, seed=args.seed)
    p1 = library.resolve(args.strategy1, config)
    p2 = library.resolve(args.strategy2, config)
    trace = run_match(p1, p2, config, table)
    if args.out is not None:
        _write(args.out, "match.csv", match_csv(trace, config, table,
                                                extra_meta=f"{p1.source}{p2.source}"))
    print(f"{trace.total1} {trace.total2}")
    return 0


def cmd_population(args: argparse.Namespace) -> int:
    table = _load_table(args.table)
    spec_path = Path(args.popspec)
    if not spec_path.is_file():
        raise CliError(f"population spec file {args.popspec!r} not found")
    spec_text = spec_path.read_text(encoding="utf-8")
    # K is determined by the roster size.
    probe = GameConfig(N=args.N, mode=Mode.OPD, t=args.t, k=args.k,
                       instantaneous_rematch=args.instantaneous_rematch, seed=args.seed)
    try:
        roster = parse_population_spec(spec_text, probe, base_dir=spec_path.parent)
    except ValueError as exc:
        raise CliError(f"{args.popspec}: {exc}") from exc
    if len(roster) % 2:
        raise CliError(f"population has {len(roster)} players; the count must be even")
    if args.K is not None and args.K * 2 != len(roster):
        raise CliError(f"--K {args.K} asks for {args.K * 2} players but the "
                       f"spec provides {len(roster)}")
    config = replace(probe, K=len(roster) // 2)
    trace = run_population(roster, config, table, unpaired_pay_qhat=args.unpaired_qhat)
    if args.out is not None:
        _write(args.out, "population.csv",
               population_csv(trace, config, table, extra_meta=spec_text))
        _write(args.out, "summary.csv",
               config_header(table, config, spec_text) + "\n" + summary_to_csv(trace))
    for s in trace.summaries:
        print(f"{s.pid} {s.label} payoff={s.total} opt_outs={s.opt_outs} "
              f"unpaired_ticks={s.unpaired_ticks}")
    return 0


def _delay_to_schedule(r: Fraction) -> tuple[bool, int]:
    """Map an expected rematch delay r to engine settings: instantaneous for
    r=0, otherwise the period t with (t-1)/2 = r."""
    if r < 0:
        raise CliError("--r must be at least 0")
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
        q = _fraction("--q", args.q)
        r = _fraction("--r", args.r) if args.r is not None else Fraction(0)
        print(analysis.oft_constant(q, r, table))
        return 0

    if args.strategy is None:
        raise CliError("analyze needs a strategy (or --oft-constant)")
    if args.size_bound < 1:
        raise CliError("--size-bound must be at least 1")

    models: list[analysis.PopulationModel] = []
    mode = Mode.FTPD
    if args.q is not None:
        mode = Mode.OPD
        models.append(analysis.DrawModel(q=_fraction("--q", args.q)))
    if args.mode is not None:
        try:
            mode = Mode(args.mode.upper())
        except ValueError:
            raise CliError(f"unknown mode {args.mode!r} (expected FTPD or OPD)") from None
        if mode is Mode.FTPD and args.q is not None:
            raise CliError("--q describes an opting-out pool; it needs OPD mode")
    if mode is Mode.FTPD and args.r is not None:
        raise CliError("--r is the rematch delay of an opting-out pool; it needs OPD mode")
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
        instantaneous, t = _delay_to_schedule(_fraction("--r", args.r))

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
        config = GameConfig(N=n, mode=mode, t=t, k=args.k,
                            instantaneous_rematch=instantaneous, seed=args.seed)
        program = library.resolve(args.strategy, config)
        report = analysis.competitive_ratio(
            program, models, config, table, size_bound=args.size_bound, seed=args.seed,
        )
        rows.append((n, report))

    if len(horizons) == 1:
        csv_name, csv_text = "report.csv", report.to_csv()
        print(report.to_text(), end="")
    else:
        lines = ["N,security_level,h,competitive_ratio"]
        for n, report in rows:
            cr = "" if report.competitive_ratio is None else f"{report.competitive_ratio:.6f}"
            lines.append(f"{n},{float(report.security_level):.6f},{float(report.h):.6f},{cr}")
        csv_name, csv_text = "sweep.csv", "\n".join(lines) + "\n"
        print(csv_text, end="")
    if args.out is not None:
        # The header's digest covers the (last) horizon's config and
        # program, the models, the size bound and every horizon.
        meta = "\n".join([program.source, *(model.describe() for model in models),
                          f"size_bound={args.size_bound}",
                          f"horizons={','.join(map(str, horizons))}"])
        _write(args.out, csv_name, config_header(table, config, meta) + "\n" + csv_text)
    return 0


def cmd_list_strategies(args: argparse.Namespace) -> int:
    for name, program in library.catalog(GameConfig(N=args.N, k=args.k)).items():
        modes = "+".join(m.value for m in library.modes(program))
        print(f"{name}\tworst tick cost {program.worst_tick_cost}\t{modes}")
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
    except (CliError, ValueError) as exc:
        print(f"boundedpd: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
