"""The benchmark's four workloads.

Every workload is a closed loop: one process, one thread, and each op starts
only after the previous one has finished. An op list is a sequence of
blocks; each block holds every stratum of the workload's input grid once,
in an order shuffled by the workload seed, so every seed gives the same mix
of costly and cheap inputs. Parameters that do not change an op's cost (a
draw seed, a CLI seed) are drawn per op from the same seed. Why each
workload exists is recorded beside it in ``BENCHMARK.json``.

A workload provides:

* ``setup(pkg, seed, workdir)``: compile what the ops use and generate the
  op list. ``pkg`` holds the freshly imported package modules.
* ``run(pkg, op)``: the timed part, calls into the package's public API.
* ``check(pkg, op, output, ref)``: the output checks behind ``fail_frac``;
  returns a list of problems, empty when the output is correct.
* ``ticks(op, ref)``: the game ticks the op's answer covers.
* ``record(pkg, workdir)``: the reference data the checks compare against,
  keyed like ``Op.key``; ``make_reference.py`` stores it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

#: Blocks generated per op list; a run that uses them up starts over.
BLOCKS = 400


@dataclass(frozen=True)
class Op:
    key: str        # reference key of the input
    ticks: int      # game ticks the op's answer covers (see Workload.ticks)
    args: tuple     # inputs handed to the package


class Workload:
    def ticks(self, op: Op, ref: dict) -> int:
        """Ticks requested, not ticks simulated: an evaluator that skips
        work answers the same ticks faster."""
        return op.ticks


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _blocks(strata: list, rng: random.Random):
    """Yield strata block by block, each block a fresh shuffle."""
    for _ in range(BLOCKS):
        block = list(strata)
        rng.shuffle(block)
        yield from block


class FtpdLong(Workload):
    name = "ftpd_long"
    PAIRS = (
        ("GRIM", "GRIM"), ("TFT", "AllD"), ("CountingDefector", "GRIM"),
        ("CountingDefector", "TFT"), ("TFT", "TFT"), ("AllC", "AllD"),
    )
    HORIZONS = (2000, 3000, 4000, 5000)

    def strata(self):
        return [(pair, n) for pair in self.PAIRS for n in self.HORIZONS]

    @staticmethod
    def key(pair, n):
        return f"{pair[0]}-{pair[1]}@N={n}"

    def setup(self, pkg, seed, workdir):
        names = sorted({name for pair in self.PAIRS for name in pair})
        prepared = {}
        for n in self.HORIZONS:
            config = pkg.game.GameConfig(N=n, k=2)
            programs = {name: pkg.library.get(name, config) for name in names}
            prepared[n] = (config, programs)
        table = pkg.game.INTRO_TABLE
        ops = []
        for pair, n in _blocks(self.strata(), random.Random(seed)):
            config, programs = prepared[n]
            ops.append(Op(self.key(pair, n), n,
                          (programs[pair[0]], programs[pair[1]], config, table)))
        return ops

    def run(self, pkg, op):
        return pkg.match.run_match(*op.args)

    def closed_form(self, pkg, pair, config, table):
        """Exact totals where the pair has a closed form, else None."""
        n = config.N
        if pair in (("GRIM", "GRIM"), ("TFT", "TFT")):
            return (n * table.R, n * table.R)
        if pair == ("TFT", "AllD"):
            return (table.S + (n - 1) * table.P, table.T + (n - 1) * table.P)
        if pair == ("AllC", "AllD"):
            return (n * table.S, n * table.T)
        if pair == ("CountingDefector", "GRIM"):
            # The final counter check needs more than two ticks of budget, so
            # the defector waits through ticks N-1 and N (mixed waits pay 0)
            # and its defection never lands.
            width = pkg.game.counter_width_for(n)
            if math.ceil(width / config.k) > 2:
                return ((n - 2) * table.R, (n - 2) * table.R)
        return None

    def check(self, pkg, op, trace, ref):
        p1, p2, config, table = op.args
        pair = (p1.name, p2.name)
        problems = []
        totals = (trace.total1, trace.total2)
        expected = tuple(Fraction(x) for x in ref["totals"])
        if totals != expected:
            problems.append(f"totals {totals} != recorded {expected}")
        closed = self.closed_form(pkg, pair, config, table)
        if closed is not None and totals != closed:
            problems.append(f"totals {totals} != closed form {closed}")
        digest = sha256(pkg.match.trace_to_csv(trace, config, table))
        if digest != ref["csv_sha256"]:
            problems.append("trace CSV digest differs from the recorded one")
        return problems

    def record(self, pkg, workdir):
        refs = {}
        for op in self.setup(pkg, 0, workdir)[:len(self.strata())]:
            trace = self.run(pkg, op)
            refs[op.key] = {
                "totals": [str(trace.total1), str(trace.total2)],
                "csv_sha256": sha256(pkg.match.trace_to_csv(trace, *op.args[2:])),
            }
        return refs


class OpdDraw(Workload):
    name = "opd_draw"
    PROGRAMS = ("OFT", "GRIM")
    QS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    HORIZONS = (100, 200, 300)
    TRIALS = 16
    REF_TRIALS = 2000
    REF_SEED = 20070101
    #: Standard errors a mean may lie from its reference.
    Z = 5.0

    def strata(self):
        return [(name, q, n) for name in self.PROGRAMS for q in self.QS for n in self.HORIZONS]

    @staticmethod
    def key(name, q, n):
        return f"{name}@q={q},N={n}"

    def _prepare(self, pkg):
        prepared = {}
        for n in self.HORIZONS:
            config = pkg.game.GameConfig(N=n, mode=pkg.game.Mode.OPD, t=1, K=1, k=2,
                                         instantaneous_rematch=True, seed=0)
            programs = {name: pkg.library.get(name, config)
                        for name in sorted(set(self.PROGRAMS) | {"GRIM", "AllD"})}
            prepared[n] = (config, programs)
        return prepared

    def _model(self, pkg, q, programs):
        # Compiled partners, so that evaluation does no DSL work.
        return pkg.analysis.DrawModel(q=q, cooperative=programs["GRIM"],
                                      hostile=programs["AllD"])

    def setup(self, pkg, seed, workdir):
        prepared = self._prepare(pkg)
        table = pkg.game.INTRO_TABLE
        rng = random.Random(seed)
        ops = []
        for name, q, n in _blocks(self.strata(), rng):
            config, programs = prepared[n]
            model = self._model(pkg, q, programs)
            ops.append(Op(self.key(name, q, n), n * self.TRIALS,
                          (programs[name], [model], config, table,
                           self.TRIALS, rng.randrange(1 << 31))))
        return ops

    def run(self, pkg, op):
        program, models, config, table, trials, seed = op.args
        return pkg.analysis.security_level(program, models, config, table,
                                           trials=trials, seed=seed)

    def tolerance(self, ref, exact, trials):
        """Distance allowed between a mean and its reference.

        It comes from the reference's standard error alone: an exact mean
        may differ from it by Z reference errors; a Monte-Carlo mean over
        ``trials`` trials also carries its own sampling error, estimated
        from the reference's per-trial spread.
        """
        se_ref = ref["se"]
        var = se_ref ** 2
        if not exact:
            var += se_ref ** 2 * ref["trials"] / trials
        return self.Z * math.sqrt(var)

    def check(self, pkg, op, result, ref):
        program, models, config, table, trials, _seed = op.args
        row = result.rows[0]
        mean = float(result.value)
        tol = self.tolerance(ref, row.exact, row.trials)
        problems = []
        if abs(mean - ref["mean"]) > tol:
            problems.append(f"mean {mean} is {abs(mean - ref['mean']):.3f} from the "
                            f"reference {ref['mean']} (tolerance {tol:.3f})")
        if program.name == "OFT":
            # Criterion 5: N*R - (1/q)((r+1)R - S) with r = 0.
            q = models[0].q
            bound = float(config.N * table.R - pkg.analysis.oft_constant(q, 0, table))
            if mean < bound - tol:
                problems.append(f"OFT mean {mean} below the criterion-5 bound {bound}")
        return problems

    def record(self, pkg, workdir):
        prepared = self._prepare(pkg)
        table = pkg.game.INTRO_TABLE
        refs = {}
        for name, q, n in self.strata():
            config, programs = prepared[n]
            est = self._model(pkg, q, programs).evaluate(
                programs[name], config, table, trials=self.REF_TRIALS, seed=self.REF_SEED)
            refs[self.key(name, q, n)] = {"mean": float(est.mean), "se": est.se,
                                          "trials": est.trials}
        return refs


class BrSearch(Workload):
    name = "br_search"
    OPPONENTS = ("GRIM", "TFT", "AllD", "AllC", "CountingDefector")
    HORIZONS = (5, 6, 7, 8)
    SIZE_BOUND = 6

    def strata(self):
        return [(name, n) for name in self.OPPONENTS for n in self.HORIZONS]

    def key(self, name, n):
        return f"{name}@N={n},bound={self.SIZE_BOUND}"

    def setup(self, pkg, seed, workdir):
        prepared = {}
        for n in self.HORIZONS:
            config = pkg.game.GameConfig(N=n, k=2)
            prepared[n] = (config, {name: pkg.library.get(name, config)
                                    for name in self.OPPONENTS})
        table = pkg.game.INTRO_TABLE
        ops = []
        for name, n in _blocks(self.strata(), random.Random(seed)):
            config, programs = prepared[n]
            ops.append(Op(self.key(name, n), n,
                          (programs[name], config, table, self.SIZE_BOUND)))
        return ops

    def ticks(self, op, ref):
        # N per candidate of the canonical space as the seed commit
        # enumerated it, so that pruning counts as answering faster.
        return op.ticks * ref["candidates"]

    def run(self, pkg, op):
        opponent, config, table, bound = op.args
        return pkg.analysis.best_response(opponent, config, table, size_bound=bound)

    def check(self, pkg, op, result, ref):
        problems = []
        if result.payoff != Fraction(ref["payoff"]):
            problems.append(f"payoff {result.payoff} != recorded {ref['payoff']}")
        if result.source != ref["source"]:
            problems.append("winning source differs from the recorded one")
        if not result.exact:
            problems.append("best response against a fixed program is not exact")
        return problems

    def record(self, pkg, workdir):
        refs = {}
        for op in self.setup(pkg, 0, workdir)[:len(self.strata())]:
            result = self.run(pkg, op)
            refs[op.key] = {"payoff": str(result.payoff), "source": result.source,
                            "candidates": result.searched}
        return refs


class OpdPopulation(Workload):
    name = "opd_population"
    ROSTERS = {
        "mixA": ((30, "OFT"), (20, "GRIM"), (20, "TFT"), (10, "AllC"), (10, "AllD"),
                 (6, "AllW"), (4, "CountingDefector")),
        "mixB": ((10, "OFT"), (30, "GRIM"), (10, "TFT"), (20, "AllC"), (20, "AllD"),
                 (4, "AllW"), (6, "CountingDefector")),
    }
    PERIODS = (1, 2, 5)
    HORIZON = 200
    CLI_SEEDS = tuple(range(8))

    def strata(self):
        return [(roster, t) for roster in self.ROSTERS for t in self.PERIODS]

    @staticmethod
    def key(roster, t, cli_seed):
        return f"{roster}@t={t},seed={cli_seed}"

    def _write_specs(self, workdir: Path) -> dict[str, Path]:
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for roster, entries in self.ROSTERS.items():
            path = workdir / f"{roster}.txt"
            path.write_text("".join(f"{count} x {name}\n" for count, name in entries),
                            encoding="utf-8")
            paths[roster] = path
        return paths

    def _op(self, paths, workdir, roster, t, cli_seed):
        pairs = sum(count for count, _ in self.ROSTERS[roster]) // 2
        argv = ["population", str(paths[roster]), "--N", str(self.HORIZON),
                "--t", str(t), "--seed", str(cli_seed), "--out", str(workdir / "out")]
        return Op(self.key(roster, t, cli_seed), self.HORIZON * pairs,
                  (argv, workdir / "out"))

    def setup(self, pkg, seed, workdir):
        paths = self._write_specs(workdir)
        rng = random.Random(seed)
        return [self._op(paths, workdir, roster, t, rng.choice(self.CLI_SEEDS))
                for roster, t in _blocks(self.strata(), rng)]

    def run(self, pkg, op):
        argv, _out = op.args
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(argv)

    @staticmethod
    def digests(out: Path) -> dict[str, str]:
        return {name: sha256((out / name).read_bytes())
                for name in ("population.csv", "summary.csv")}

    def check(self, pkg, op, code, ref):
        if code != 0:
            return [f"cli exited with {code}"]
        out = op.args[1]
        digests = self.digests(out)
        for name in digests:
            (out / name).unlink()  # so that no later op can pass on stale files
        return [f"{name} digest differs from the recorded one"
                for name, digest in digests.items() if digest != ref[name]]

    def record(self, pkg, workdir):
        paths = self._write_specs(workdir)
        refs = {}
        for roster, t in self.strata():
            for cli_seed in self.CLI_SEEDS:
                op = self._op(paths, workdir, roster, t, cli_seed)
                if self.run(pkg, op) != 0:
                    raise RuntimeError(f"population run {op.key} failed")
                refs[op.key] = self.digests(op.args[1])
        return refs


WORKLOADS = {w.name: w for w in (FtpdLong(), OpdDraw(), BrSearch(), OpdPopulation())}
