"""Strategy description language: parser, compiler, and printer.

Grammar (one declaration or rule per line, ``#`` starts a comment):

    program := "strategy" NAME NEWLINE decl* rule+
    decl    := "counter" NAME ":" INT "bits"
    rule    := [LABEL ":"] ("if" guard "then" stmt+ | "always" stmt+)
    guard   := term ("and" term)*
    term    := field cmp value
    field   := "opp" | "own" | counter-name
    cmp     := "==" | "!=" | "<" | ">="
    value   := "C" | "D" | "W" | "O" | INT | "N" ["-" INT]
    stmt    := "play" action | "inc" counter-name | "goto" LABEL

Execution model: rules form states. A labeled rule starts a new state; the
rules before the first label form the entry state. Each tick the current
state's rules are scanned in order and the first rule whose guard holds
fires (an ``always`` rule fires unconditionally). Each guard term costs one
compare of the widest operand and guards short-circuit, so a failed first
term spends nothing on the rest. If no rule fires the player waits. A
``goto`` ends the tick and makes the named state current from the next tick
on, which is how a strategy switches phase without spending compares on a
flag: the program counter itself is the memory.

``N`` in a compare value is the game horizon, resolved to a constant when
the source is compiled against a config. A compare of ``opp`` or ``own``
against a move that does not exist yet (the first tick of a pairing) is
false whatever the operator.

Parsing is linear in the source. Each line, cut at its comment, is split
into token strings by one regex call, and a line's tokens are read in one
pass over an index; no token object is built. A column is computed only
for a diagnostic, by tokenizing the offending line again with positions.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .game import ACTION_TEXT, Action, GameConfig
from . import vm
from .vm import OBS_FIELDS, CmpOp, Instruction, Operand, StrategyProgram

#: Declared counters may not exceed this width.
WIDTH_CAP = 32

KEYWORDS = {
    "strategy", "counter", "bits", "if", "then", "always",
    "play", "inc", "goto", "and", "opp", "own", "N",
    "C", "D", "W", "O",
}

_ACTIONS = {"C": Action.C, "D": Action.D, "W": Action.W, "O": Action.O}
_CMP_OPS = {"==": CmpOp.EQ, "!=": CmpOp.NE, "<": CmpOp.LT, ">=": CmpOp.GE}
_CMP_TEXT = {op: text for text, op in _CMP_OPS.items()}


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstAction:
    action: Action

    def render(self) -> str:
        return ACTION_TEXT[self.action]


@dataclass(frozen=True)
class ConstInt:
    value: int

    def render(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class HorizonMinus:
    """The compare constant ``N - offset``, resolved at compile time.

    ``line`` and ``col`` locate the ``N`` token for diagnostics; they take
    no part in equality, so a parsed value equals a built one.
    """

    offset: int = 0
    line: int = field(default=1, compare=False)
    col: int = field(default=1, compare=False)

    def render(self) -> str:
        return "N" if self.offset == 0 else f"N-{self.offset}"


Value = ConstAction | ConstInt | HorizonMinus


@dataclass(frozen=True)
class Term:
    field: str
    op: CmpOp
    value: Value

    def render(self) -> str:
        return f"{self.field} {_CMP_TEXT[self.op]} {self.value.render()}"


@dataclass(frozen=True)
class Play:
    action: Action

    def render(self) -> str:
        return f"play {ACTION_TEXT[self.action]}"


@dataclass(frozen=True)
class Inc:
    counter: str

    def render(self) -> str:
        return f"inc {self.counter}"


@dataclass(frozen=True)
class Goto:
    label: str

    def render(self) -> str:
        return f"goto {self.label}"


Stmt = Play | Inc | Goto


@dataclass(frozen=True)
class Rule:
    label: str | None
    guard: tuple[Term, ...]  # empty means "always"
    stmts: tuple[Stmt, ...]

    def render(self) -> str:
        """The rule's line without its label."""
        return _render(self.guard, self.stmts)


def _render(guard: tuple[Term, ...], stmts: Iterable[Stmt]) -> str:
    """A rule's line without its label: ``always`` or ``if <guard> then``,
    then ``stmts``."""
    if guard:
        head = "if " + " and ".join([term.render() for term in guard]) + " then"
    else:
        head = "always"
    return " ".join([head, *[stmt.render() for stmt in stmts]])


@dataclass(frozen=True)
class Decl:
    name: str
    width: int

    def render(self) -> str:
        return f"counter {self.name}: {self.width} bits"


@dataclass(frozen=True)
class StrategySource:
    name: str
    decls: tuple[Decl, ...]
    rules: tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class DslError(ValueError):
    """Parse or compile failure, carrying a 1-based source position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    def with_file(self, filename: str) -> str:
        return f"{filename}:{self.line}:{self.col}: {self.message}"


_TOKEN_RE = re.compile(r"==|!=|>=|<|:|-|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
#: A token is a name when its first character starts one: ``_TOKEN_RE``
#: tries the name pattern before the one-character fallback, so such a
#: token is a whole name.
_NAME_START = frozenset(string.ascii_letters + "_")
#: Statements and action values are immutable, so a tree shares them.
_PLAYS = {text: Play(action) for text, action in _ACTIONS.items()}
_CONST_ACTIONS = {text: ConstAction(action) for text, action in _ACTIONS.items()}
_STMT_KEYWORDS = frozenset(("play", "inc", "goto"))


class _TokenError(Exception):
    """A diagnostic at token ``index`` of the line being parsed, or just
    past its last token when ``index`` is the token count; ``parse`` adds
    the line and turns the index into a column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _code(raw: str) -> str:
    """A source line without its comment."""
    return raw.split("#", 1)[0]


def _column(code: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``code`` (the last one for
    -1), or the column just past the last token when ``index`` is the token
    count. Only diagnostics need columns, so they are found by tokenizing
    the line again."""
    spans = [match.span() for match in _TOKEN_RE.finditer(code)]
    if index < len(spans):
        return spans[index][0] + 1
    return spans[-1][1] + 1 if spans else 1


def _take(tokens: list[str], i: int) -> str:
    if i >= len(tokens):
        raise _TokenError("unexpected end of line", len(tokens))
    return tokens[i]


def _expect(tokens: list[str], i: int, expected: str) -> None:
    if i >= len(tokens):
        raise _TokenError(f"expected {expected!r}", len(tokens))
    if tokens[i] != expected:
        raise _TokenError(f"expected {expected!r}, got {tokens[i]!r}", i)


def _is_name(text: str) -> bool:
    """Whether the token ``text`` can name a strategy, counter or label."""
    return text[0] in _NAME_START and text not in KEYWORDS


def parse(text: str) -> StrategySource:
    """Parse strategy source; raises ``DslError`` with line:col on bad input.

    The parser is total: any byte soup produces either a tree or a
    positioned diagnostic, never an unhandled crash. Beside diagnostics,
    only ``N`` values need a column, which they carry for ``compile``.
    """
    lines = text.splitlines()
    findall = _TOKEN_RE.findall
    lineno, code = 1, ""
    try:
        for lineno, raw in enumerate(lines, start=1):
            code = _code(raw)
            tokens = findall(code)
            if tokens:
                break
        else:
            raise DslError("expected 'strategy <name>'", 1, 1)
        _expect(tokens, 0, "strategy")
        name = _take(tokens, 1)
        if not _is_name(name):
            raise _TokenError("expected strategy name", 1)
        if len(tokens) > 2:
            raise _TokenError("unexpected input after strategy name", 2)

        decls: list[Decl] = []
        incs: dict[str, Inc] = {}  # by declared counter name
        rules: list[Rule] = []
        labels: set[str] = set()
        gotos: list[tuple[str, int]] = []  # (label, line) of each goto
        for lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
            code = _code(raw)
            tokens = findall(code)
            if not tokens:
                continue
            if tokens[0] == "counter":
                if rules:
                    raise _TokenError("counter declarations must precede rules", 0)
                decls.append(_parse_decl(tokens, incs))
                continue
            rule = _parse_rule(tokens, incs, labels, lineno, code)
            rules.append(rule)
            last = rule.stmts[-1]
            if type(last) is Goto:
                gotos.append((last.label, lineno))
    except _TokenError as exc:
        raise DslError(exc.message, lineno, _column(code, exc.index)) from None

    if not rules:
        raise DslError("strategy has no rules", len(lines), 1)

    for label, lineno in gotos:
        if label not in labels:
            # A goto's label is the last token of its line.
            raise DslError(f"goto to unknown label {label!r}", lineno,
                           _column(_code(lines[lineno - 1]), -1))

    return StrategySource(name, tuple(decls), tuple(rules))


def _parse_decl(tokens: list[str], incs: dict[str, Inc]) -> Decl:
    """A ``counter`` line; the counter's ``Inc`` joins ``incs``."""
    name = _take(tokens, 1)
    if not _is_name(name):
        raise _TokenError("expected counter name", 1)
    if name in incs:
        raise _TokenError(f"duplicate counter {name!r}", 1)
    _expect(tokens, 2, ":")
    width_text = _take(tokens, 3)
    # What int() reads: a superscript digit is a digit, not a decimal.
    if not width_text.isdecimal():
        raise _TokenError("expected counter width in bits", 3)
    width = int(width_text)
    if width < 1 or width > WIDTH_CAP:
        raise _TokenError(f"counter width {width} outside 1..{WIDTH_CAP}", 3)
    _expect(tokens, 4, "bits")
    if len(tokens) > 5:
        raise _TokenError("unexpected input after declaration", 5)
    incs[name] = Inc(name)
    return Decl(name, width)


def _parse_rule(tokens: list[str], incs: dict[str, Inc], labels: set[str],
                lineno: int, code: str) -> Rule:
    """A rule line, ``code``, split into ``tokens``; its label joins
    ``labels``."""
    label: str | None = None
    i = 0
    count = len(tokens)
    if count > 1 and tokens[1] == ":" and _is_name(tokens[0]):
        label = tokens[0]
        if label in labels:
            raise _TokenError(f"duplicate label {label!r}", 0)
        if label in incs:
            raise _TokenError(f"label {label!r} collides with a counter", 0)
        labels.add(label)
        i = 2

    head = tokens[i] if i < count else None
    if head == "always":
        guard: tuple[Term, ...] = ()
        i += 1
    elif head == "if":
        guard, i = _parse_guard(tokens, i + 1, incs, lineno, code)
    elif head is None:
        raise _TokenError("expected 'if' or 'always'", count)
    else:
        raise _TokenError(f"expected 'if' or 'always', got {head!r}", i)
    return Rule(label, guard, _parse_stmts(tokens, i, incs))


def _parse_guard(tokens: list[str], i: int, incs: dict[str, Inc], lineno: int,
                 code: str) -> tuple[tuple[Term, ...], int]:
    """The guard's terms from token ``i`` on, through ``then``, and the
    index after ``then``."""
    term, i = _parse_term(tokens, i, incs, lineno, code)
    terms = [term]
    while i < len(tokens) and tokens[i] == "and":
        term, i = _parse_term(tokens, i + 1, incs, lineno, code)
        terms.append(term)
    _expect(tokens, i, "then")
    return tuple(terms), i + 1


def _parse_term(tokens: list[str], i: int, incs: dict[str, Inc], lineno: int,
                code: str) -> tuple[Term, int]:
    """The term at token ``i`` and the index after it."""
    field = _take(tokens, i)
    if field not in OBS_FIELDS and field not in incs:
        raise _TokenError(f"unknown field {field!r}", i)

    op_index = i + 1
    op = _CMP_OPS.get(_take(tokens, op_index))
    if op is None:
        raise _TokenError(f"expected comparison operator, got {tokens[op_index]!r}", op_index)

    at = i + 2
    text = _take(tokens, at)
    i = at + 1
    value: Value
    if text in _ACTIONS:
        value = _CONST_ACTIONS[text]
    elif text.isdecimal():
        value = ConstInt(int(text))
    elif text == "N":
        offset = 0
        if i < len(tokens) and tokens[i] == "-":
            offset_text = _take(tokens, i + 1)
            if not offset_text.isdecimal():
                raise _TokenError("expected integer after 'N-'", i + 1)
            offset = int(offset_text)
            i += 2
        value = HorizonMinus(offset, lineno, _column(code, at))
    else:
        raise _TokenError(f"expected action, integer, or N, got {text!r}", at)

    if field in OBS_FIELDS:
        if type(value) is not ConstAction:
            raise _TokenError("observation fields compare against actions only", at)
        if op is not CmpOp.EQ and op is not CmpOp.NE:
            raise _TokenError("ordering comparison is not defined on actions", op_index)
    elif type(value) is ConstAction:
        raise _TokenError("counters compare against integers only", at)
    return Term(field, op, value), i


def _parse_stmts(tokens: list[str], i: int, incs: dict[str, Inc]) -> tuple[Stmt, ...]:
    """A rule's statements, from token ``i`` to the end of the line."""
    stmts: list[Stmt] = []
    played = False
    count = len(tokens)
    while i < count:
        keyword = tokens[i]
        if keyword not in _STMT_KEYWORDS:
            raise _TokenError(f"expected 'play', 'inc', or 'goto', got {keyword!r}", i)
        if i + 1 == count:
            raise _TokenError("unexpected end of line", count)
        operand = tokens[i + 1]
        if keyword == "play":
            stmt = _PLAYS.get(operand)
            if stmt is None:
                raise _TokenError(f"expected action, got {operand!r}", i + 1)
            if played:
                raise _TokenError("a rule may play at most once", i)
            played = True
        elif keyword == "inc":
            stmt = incs.get(operand)
            if stmt is None:
                raise _TokenError(f"unknown counter {operand!r}", i + 1)
        else:
            if not _is_name(operand):
                raise _TokenError("expected label name", i + 1)
            if i + 2 < count:
                raise _TokenError("goto must be the last statement of a rule", i + 2)
            stmt = Goto(operand)
        stmts.append(stmt)
        i += 2
    if not stmts:
        raise _TokenError("rule has no statements", count)
    return tuple(stmts)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _source_text(name: str, decls: tuple[Decl, ...], lines: list[str]) -> str:
    """The canonical text: the header, the declarations, then the rules'
    ``lines``, each behind ``label: `` when its rule starts a labeled state."""
    return "\n".join([f"strategy {name}", *[decl.render() for decl in decls], *lines, ""])


def print_source(source: StrategySource) -> str:
    """Canonical rendering; ``parse(print_source(parse(s)))`` equals ``parse(s)``."""
    return _source_text(source.name, source.decls, [
        f"{rule.label}: {rule.render()}" if rule.label else rule.render()
        for rule in source.rules])


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _resolve_value(value: Value, config: GameConfig) -> Operand:
    if isinstance(value, ConstAction):
        return Operand.action(value.action)
    if isinstance(value, ConstInt):
        return Operand.const(value.value)
    resolved = config.N - value.offset
    if resolved < 0:
        raise DslError(f"N-{value.offset} is negative at N={config.N}", value.line, value.col)
    return Operand.const(resolved)


#: Instructions closing every state: HALT, then JUMP back to its first rule.
EPILOGUE_SIZE = 2
#: Instructions are immutable, so programs share their HALTs and plays.
_HALT = vm.halt()
_EMITS = {action: vm.emit(action) for action in Action}


def rule_size(rule: Rule, last: bool) -> int:
    """Instructions ``rule`` compiles to: a compare per guard term, one per
    play or inc, then HALT and JUMP for a goto (end the tick, resume in the
    target state); otherwise a JUMP to the state's epilogue, unless it is the
    ``last`` rule of its state and falls into it. A rule has at least one
    statement and any goto is its last (``parse`` enforces both)."""
    size = len(rule.guard) + len(rule.stmts)
    if isinstance(rule.stmts[-1], Goto):
        return size + 1  # the goto is a HALT and a JUMP
    return size if last else size + 1


def emit_rule(rule: Rule, on_false: int, counter_index: dict[str, int], reg_widths: tuple[int, ...],
              config: GameConfig) -> tuple[tuple[Instruction, ...], int]:
    """The compares, plays and incs ``rule`` compiles to, each compare
    jumping to ``on_false`` when it fails, and the rule's compare cost, the
    sum of its compares' ``vm.compare_width``: the compares come first, one
    per guard term.

    The rule's exit (HALT and JUMP for a goto, or a JUMP to the state's
    epilogue) is left to ``assemble``, which knows where the states start.
    """
    instructions: list[Instruction] = []
    cost = 0
    for term in rule.guard:
        if term.field in OBS_FIELDS:
            lhs = Operand.obs(term.field)
        else:
            lhs = Operand.reg(counter_index[term.field])
        guard = vm.compare(lhs, term.op, _resolve_value(term.value, config), on_false)
        cost += vm.compare_width(guard, reg_widths)
        instructions.append(guard)
    for stmt in rule.stmts:
        kind = type(stmt)
        if kind is Play:
            instructions.append(_EMITS[stmt.action])
        elif kind is Inc:
            instructions.append(vm.increment(counter_index[stmt.counter]))
    return tuple(instructions), cost


class RulePiece:
    """A rule as ``assemble`` lays it out: the ``rule`` (its label is not
    read: a state's label comes with the state), its ``size`` as a state's
    last rule and as a rule ``ahead`` of another, its ``goto`` label or
    None, and its rendered line ``text``.

    ``emitted`` caches what ``emit_rule`` returns, the compares, plays and
    incs of the rule but its goto and their compare cost, once per compare
    target (one entry for a rule without a guard, which has no compare).
    Pieces built with one ``bodies`` table share it, and the rendered text
    before the goto, with every piece of the same guard and statements but
    a goto, so ``compile`` renders and emits such a body once per call.
    The cache is valid for one ``(decls, config)`` only: the search builds
    its pieces per counter declaration of one config, and ``compile``
    builds fresh pieces and bodies per call.
    """

    __slots__ = ("rule", "size", "ahead", "goto", "text", "emitted")

    def __init__(self, rule: Rule, bodies: dict[tuple, tuple[str, dict]] | None = None):
        self.rule = rule
        self.size = rule_size(rule, last=True)
        guard, stmts = rule.guard, rule.stmts
        last = stmts[-1]
        if type(last) is Goto:
            self.goto = last.label
            self.ahead = self.size
            stmts = stmts[:-1]
        else:
            self.goto = None
            self.ahead = self.size + 1
        key = (guard, stmts)
        body = None if bodies is None else bodies.get(key)
        if body is None:
            body = (_render(guard, stmts), {})
            if bodies is not None:
                bodies[key] = body
        text, self.emitted = body
        self.text = text if self.goto is None else f"{text} goto {self.goto}"


def assemble(name: str, decls: tuple[Decl, ...],
             states: list[tuple[str | None, Sequence[RulePiece]]],
             config: GameConfig, diagnostics: list[str] | None = None) -> StrategyProgram:
    """The program whose states are ``states``, each ``(label, pieces)``,
    laid out in order from instruction 0; the first state is the entry.

    This is the one layout. Each rule is its compares, plays and incs, each
    compare jumping on failure to the next rule or, from the last rule, to
    the state's epilogue. A rule with a goto then ends the tick (HALT) and
    jumps to the target state's start; any other rule but the last jumps to
    the epilogue, HALT then a JUMP back to the state's start; the JUMPs to
    one target are one instruction. The ``worst_tick_cost`` is the largest
    compare total any single tick can request: the maximum over states of
    the rules' compare costs, as ``emit_rule`` returns them, summed along a
    full scan of the state's rules; ``vm.interpret`` charges each compare's
    width when the compare starts. Unreachable rules (after an unconditional rule in the same
    state) are reported through ``diagnostics`` when a list is supplied.
    The program carries its canonical source text, which ``decompile``
    parses back, and is returned once ``vm.validate_program`` finds
    nothing wrong with it.
    """
    reg_widths = tuple([decl.width for decl in decls])
    counter_index: dict[str, int] | None = None  # built on the first body emitted
    # Fixed sizes first, so every state's start (as the JUMP to it) and
    # epilogue is known up front.
    to_start: dict[str | None, Instruction] = {}
    epilogues: list[int] = []
    at = 0
    for label, pieces in states:
        to_start[label] = vm.jump(at)
        for piece in pieces[:-1]:
            at += piece.ahead
        at += pieces[-1].size
        epilogues.append(at)
        at += EPILOGUE_SIZE

    instructions: list[Instruction] = []
    lines: list[str] = []
    worst = 0
    for (label, pieces), epilogue in zip(states, epilogues):
        to_epilogue = None
        scan_cost = 0
        fired = False
        last = len(pieces) - 1
        for ri, piece in enumerate(pieces):
            if fired and diagnostics is not None:
                diagnostics.append(f"rule {ri + 1} of state {label or 'start'} is unreachable")
            if piece.rule.guard:
                on_false = epilogue if ri == last else len(instructions) + piece.ahead
            else:
                fired = True
                on_false = -1  # no compare jumps, wherever the rule lands
            body = piece.emitted.get(on_false)
            if body is None:
                if counter_index is None:
                    counter_index = {decl.name: i for i, decl in enumerate(decls)}
                body = piece.emitted[on_false] = emit_rule(
                    piece.rule, on_false, counter_index, reg_widths, config)
            scan_cost += body[1]
            instructions += body[0]
            if piece.goto is not None:
                instructions += (_HALT, to_start[piece.goto])
            elif ri != last:
                if to_epilogue is None:
                    to_epilogue = vm.jump(epilogue)
                instructions.append(to_epilogue)
            lines.append(f"{label}: {piece.text}" if label and not ri else piece.text)
        assert len(instructions) == epilogue, "layout drift between rule sizes and emission"
        instructions += (_HALT, to_start[label])
        if scan_cost > worst:
            worst = scan_cost

    program = StrategyProgram(
        name=name,
        instructions=tuple(instructions),
        reg_widths=reg_widths,
        worst_tick_cost=worst,
        source=_source_text(name, decls, lines),
    )
    problems = vm.validate_program(program)
    if problems:
        raise DslError("internal compile error: " + "; ".join(problems))
    return program


def compile(  # noqa: A001 - deliberate: this is the module's compile entry point
    source: StrategySource,
    config: GameConfig,
    diagnostics: list[str] | None = None,
) -> StrategyProgram:
    """Compile a parsed source against a game config: its rules by state,
    one ``RulePiece`` per rule, laid out by ``assemble``, the one layout,
    which the best-response search uses too. The pieces share one table of
    bodies, so rules alike but for their gotos are rendered and emitted
    once; nothing is kept between calls. Deterministic; unreachable rules
    are reported through ``diagnostics`` when a list is supplied.
    """
    states: list[tuple[str | None, list[RulePiece]]] = []
    bodies: dict[tuple, tuple[str, dict]] = {}
    for rule in source.rules:
        # A labeled rule starts a new state; the rules before the first
        # label form the entry state.
        if rule.label is not None or not states:
            states.append((rule.label, []))
        states[-1][1].append(RulePiece(rule, bodies))
    return assemble(source.name, source.decls, states, config, diagnostics)

# ---------------------------------------------------------------------------
# Decompilation
# ---------------------------------------------------------------------------

def decompile(program: StrategyProgram) -> StrategySource:
    """The source tree of a program compiled by this module: its canonical
    ``source`` text, parsed. Hand-assembled programs carry no source and
    cannot be decompiled. Horizon terms come back as written (``n >= N-2``),
    not as the constants they resolved to; recompiling the result against
    the same config reproduces the instruction stream exactly.
    """
    if program.source is None:
        raise DslError("program carries no source; it was not compiled here")
    return parse(program.source)
