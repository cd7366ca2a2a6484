"""One-at-a-time AST mutation testing, with the standard library only.

Each mutant changes one node inside the named functions or classes of one
module: a comparison flipped (``<`` and ``<=``, ``==`` and ``!=``, ``is`` and
``is not``, ``in`` and ``not in``), an arithmetic or boolean operator
swapped, an augmented assignment swapped, a binary operation replaced by
either operand (``d.get(k, 0) + m`` becomes ``m``: add becomes assign), an
integer constant moved by one, ``True`` and ``False`` swapped, and an
``if`` or ``while`` condition negated. Annotations, default arguments and
docstrings are left alone.

The mutated module is written into a copy of ``src/`` and ``tests/`` in a
temporary directory, removed when the run ends, never into the tree itself.
Each stage of pytest arguments runs there in turn with ``-x``; every stage
must pass on the unmutated copy first, or the run stops with exit 1. A
mutant is killed when a stage fails a test (pytest exit 1), counts as a
timeout when a stage runs past ``--timeout`` seconds, as an error on any
other nonzero exit (a collection or usage failure), and survives when every
stage passes. Example, from the repository root::

    python tools/mutate.py src/boundedpd/analysis.py DrawModel.evaluate \\
        --stage "tests/test_population.py tests/test_analysis.py" --timeout 300

Prints one line per mutant and the counts; exits 0 once the mutants have run.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr,
}


def _targets(tree: ast.Module, names: list[str]) -> list[ast.AST]:
    """The function and class nodes named ``Class.method`` or ``name``."""
    found = []
    for name in names:
        scope: list[ast.stmt] = tree.body
        for part in name.split("."):
            node = next((n for n in scope if isinstance(
                n, (ast.FunctionDef, ast.ClassDef)) and n.name == part), None)
            if node is None:
                raise SystemExit(f"no {name} in the module")
            scope = node.body
        found.append(node)
    return found


def _skipped(root: ast.AST) -> set[int]:
    """Ids of the nodes under annotations, default arguments and docstrings."""
    skip: set[int] = set()
    for node in ast.walk(root):
        parts = []
        if isinstance(node, ast.AnnAssign):
            parts.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            parts.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts += [node.returns] if node.returns else []
            parts += node.args.defaults + [d for d in node.args.kw_defaults if d]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                parts.append(first)
        for part in parts:
            skip.update(id(n) for n in ast.walk(part))
    return skip


def _copy_with(node: ast.AST, **fields: object) -> ast.AST:
    new = copy.deepcopy(node)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


def _variants(node: ast.AST) -> list[tuple[ast.AST, str, ast.AST]]:
    """``(site, description, replacement)`` for each mutant at ``node``."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIPS:
                flipped = _FLIPS[type(op)]()
                ops = node.ops[:i] + [flipped] + node.ops[i + 1:]
                out.append((f"{type(op).__name__} -> {type(flipped).__name__}",
                            _copy_with(node, ops=ops)))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        swapped = _SWAPS[type(node.op)]()
        mark = "=" if isinstance(node, ast.AugAssign) else ""
        out.append((f"{type(node.op).__name__}{mark} -> {type(swapped).__name__}{mark}",
                    _copy_with(node, op=swapped)))
    elif isinstance(node, ast.BoolOp):
        swapped = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        out.append((f"{type(node.op).__name__} -> {type(swapped).__name__}",
                    _copy_with(node, op=swapped)))
    elif isinstance(node, ast.Constant) and type(node.value) in (bool, int):
        value = not node.value if type(node.value) is bool else node.value + 1
        out.append((f"{node.value} -> {value}", ast.Constant(value)))
    if isinstance(node, ast.BinOp):
        out += [("binop -> left operand", copy.deepcopy(node.left)),
                ("binop -> right operand", copy.deepcopy(node.right))]
    sites = [(node, description, replacement) for description, replacement in out]
    if isinstance(node, (ast.If, ast.While)):
        sites.append((node.test, "condition negated",
                      ast.UnaryOp(ast.Not(), copy.deepcopy(node.test))))
    return sites


def _splice(source: str, node: ast.AST, replacement: ast.AST) -> str:
    """``source`` with ``node``'s text replaced by ``replacement``'s."""
    lines = source.splitlines(keepends=True)

    def offset(line: int, column: int) -> int:
        # ``col_offset`` counts UTF-8 bytes.
        return sum(map(len, lines[:line - 1])) + len(lines[line - 1].encode()[:column].decode())

    text = ast.unparse(replacement)
    if not isinstance(node, ast.stmt):
        text = f"({text})"
    start = offset(node.lineno, node.col_offset)
    return source[:start] + text + source[offset(node.end_lineno, node.end_col_offset):]


def mutants(source: str, names: list[str]) -> list[tuple[int, str, str]]:
    """``(line, description, mutated source)`` for every site in the targets."""
    tree = ast.parse(source)
    found = []
    for target in _targets(tree, names):
        skip = _skipped(target)
        for node in ast.walk(target):
            if id(node) in skip or not hasattr(node, "lineno"):
                continue
            for site, description, replacement in _variants(node):
                mutated = _splice(source, site, replacement)
                try:
                    ast.parse(mutated)
                except SyntaxError:
                    continue
                found.append((node.lineno, description, mutated))
    return sorted(found, key=lambda m: (m[0], m[1]))


def _stage(stage: str, tree: Path, timeout: float) -> str:
    """``passed``, ``failed``, ``timeout`` or ``error <exit code>`` for one stage in ``tree``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *shlex.split(stage)]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(command, cwd=tree, env=env, timeout=timeout,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    # pytest exits 1 when a test failed; 2 to 5 mean the run itself went wrong.
    return {0: "passed", 1: "failed"}.get(result.returncode, f"error {result.returncode}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module under src/, from the repository root")
    parser.add_argument("targets", nargs="+", help="functions or classes, e.g. DrawModel.evaluate")
    parser.add_argument("--stage", action="append", required=True,
                        help="pytest arguments of one stage, run in order (repeatable)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds a stage may run before the mutant counts as killed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    module = Path(args.module)
    source = (root / module).read_text(encoding="utf-8")
    found = mutants(source, args.targets)
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        tree = Path(work)
        for part in ("src", "tests"):
            shutil.copytree(root / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(root / "pyproject.toml", tree / "pyproject.toml")
        for stage in args.stage:
            outcome = _stage(stage, tree, args.timeout)
            if outcome != "passed":
                print(f"stage {stage!r} is not green on the unmutated tree: {outcome}")
                return 1
        counts = {"killed": 0, "timeout": 0, "survived": 0, "error": 0}
        print(f"{len(found)} mutants of {module} in {', '.join(args.targets)}", flush=True)
        for line, description, mutated in found:
            (tree / module).write_text(mutated, encoding="utf-8")
            verdict, started = "survived", time.perf_counter()
            for stage in args.stage:
                outcome = _stage(stage, tree, args.timeout)
                if outcome != "passed":
                    verdict = "killed" if outcome == "failed" else outcome
                    break
            counts[verdict.split()[0]] += 1
            print(f"{verdict:8} {module}:{line} {description} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
    print(" ".join(f"{name} {count}" for name, count in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
