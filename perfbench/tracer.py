"""Span recorder for the benchmark's traced run.

The package is measured from outside: each function in ``LAYERS`` is
replaced by one wrapper at every name it is looked up by, so a call is
recorded whichever binding it goes through (``from .vm import tick`` binds
``tick`` inside ``match`` and ``population`` as well as ``vm``). Class
attributes such as ``DrawModel.run_trial`` are replaced on the class.

A span is a name, a start, an end and the span that was open when it began
(its parent). Spans are kept in flat arrays while the run lasts and written
out when it ends. A layer's self time is the sum of its spans' durations
minus the time covered by their child spans. Work counts come from the
wrapped functions' return values. The package is single-threaded, so spans
nest strictly and no layer waits on another.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

#: (module, attribute) of every wrapped function, in report order.
LAYERS = (
    ("vm", "tick"),
    ("match", "run_match"),
    ("match", "match_step"),
    ("game", "payoff"),
    ("game", "validate_table"),
    ("dsl", "parse"),
    ("dsl", "compile"),
    ("dsl", "print_source"),
    ("library", "get"),
    ("analysis", "enumerate_candidates"),
    ("analysis", "estimate_search_size"),
    ("analysis", "best_response"),
    ("analysis", "security_level"),
    ("analysis", "DrawModel.evaluate"),
    ("analysis", "DrawModel.run_trial"),
    ("population", "play_pair_tick"),
    ("population", "run_population"),
    ("population", "population_step"),
    ("population", "rematch"),
    ("population", "trace_to_csv"),
    ("population", "summary_to_csv"),
    ("cli", "main"),
)

PACKAGE = "boundedpd"


def _count_tick(counts, args, result):
    before, (after, _action) = args[0], result
    counts["vm.tick.xor_units"] += after.tick_cost
    # A suspension is a compare that runs out of budget; the ticks it then
    # spends resuming are not new suspensions.
    counts["vm.tick.suspensions"] += after.suspended and before.pending is None
    counts["vm.tick.faults"] += after.faulted and not before.faulted


def _count_sources(counts, args, result):
    counts["analysis.search.sources"] += result


def _count_csv(counts, args, result):
    counts["population.csv_bytes"] += len(result.encode("utf-8"))


_COUNTERS = {
    "vm.tick": _count_tick,
    "analysis.estimate_search_size": _count_sources,
    "population.trace_to_csv": _count_csv,
    "population.summary_to_csv": _count_csv,
}

#: Counts derived from return values, beside each layer's calls and self_s.
WORK_COUNTS = (
    "vm.tick.xor_units", "vm.tick.suspensions", "vm.tick.faults",
    "analysis.enumerate_candidates.yielded", "analysis.search.sources",
    "population.csv_bytes",
)


class Recorder:
    """Records spans while ``on`` is true; ``install`` wraps the package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.on = False
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (used for the root spans)."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str):
        rec, nid = self, self.name_id(name)
        calls = f"{name}.calls"
        counter = _COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if rec.on:
                    rec.counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    # Each resumption of the generator is one span.
                    idx = rec.open(nid) if rec.on else -1
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if idx >= 0:
                            rec.close(idx)
                    if rec.on:
                        rec.counts[yielded] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            rec.counts[calls] += 1
            idx = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if counter is not None:
                counter(rec.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of every ``LAYERS`` function by its wrapper."""
        package = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[leaf]
            wrapper = self._wrap(original, f"{module_name}.{attr}")
            targets = [owner] if owner_name else package
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.on = False
        self.uninstall()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.span_start)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.span_name[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.names, totals))

    def metrics(self) -> dict[str, float]:
        """Every layer's calls and self_s, the work counts and the search
        yield ratio (candidates evaluated per source generated)."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for module_name, attr in LAYERS:
            name = f"{module_name}.{attr}"
            out[f"{name}.calls"] = self.counts[f"{name}.calls"]
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in WORK_COUNTS:
            out[name] = self.counts[name]
        sources = self.counts["analysis.search.sources"]
        yielded = self.counts["analysis.enumerate_candidates.yielded"]
        out["analysis.search.yield_ratio"] = yielded / sources if sources else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the four span arrays in native layout."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
