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
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .game import Action, GameConfig
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


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstAction:
    action: Action

    def render(self) -> str:
        return self.action.value


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
        return f"{self.field} {self.op.value} {self.value.render()}"


@dataclass(frozen=True)
class Play:
    action: Action

    def render(self) -> str:
        return f"play {self.action.value}"


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
        """The rule without its label, which ``_source_text`` writes."""
        body = " ".join(stmt.render() for stmt in self.stmts)
        if self.guard:
            guard = " and ".join(term.render() for term in self.guard)
            return f"if {guard} then {body}"
        return f"always {body}"


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
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _tokenize_line(text: str, lineno: int) -> list[_Token]:
    code = text.split("#", 1)[0]
    return [
        _Token(m.group(0), lineno, m.start() + 1)
        for m in _TOKEN_RE.finditer(code)
    ]


class _LineParser:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno

    def peek(self, ahead: int = 0) -> _Token | None:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self, expected: str | None = None) -> _Token:
        token = self.peek()
        if token is None:
            raise self.error(f"expected {expected!r}" if expected else "unexpected end of line")
        if expected is not None and token.text != expected:
            raise DslError(f"expected {expected!r}, got {token.text!r}", token.line, token.col)
        self.pos += 1
        return token

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def error(self, message: str) -> DslError:
        token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            col = (last.col + len(last.text)) if last else 1
            return DslError(message, self.lineno, col)
        return DslError(message, token.line, token.col)


def _is_name(text: str) -> bool:
    return bool(_NAME_RE.fullmatch(text))


def parse(text: str) -> StrategySource:
    """Parse strategy source; raises ``DslError`` with line:col on bad input.

    The parser is total: any byte soup produces either a tree or a
    positioned diagnostic, never an unhandled crash.
    """
    lines = text.splitlines()
    header: _LineParser | None = None
    header_line = 0
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, lineno)
        if tokens:
            header = _LineParser(tokens, lineno)
            header_line = lineno
            break
    if header is None:
        raise DslError("expected 'strategy <name>'", 1, 1)

    header.next("strategy")
    name_token = header.next()
    if not _is_name(name_token.text) or name_token.text in KEYWORDS:
        raise DslError("expected strategy name", name_token.line, name_token.col)
    if not header.at_end():
        raise DslError("unexpected input after strategy name",
                       header.peek().line, header.peek().col)  # type: ignore[union-attr]

    decls: list[Decl] = []
    counters: dict[str, int] = {}
    rules: list[Rule] = []
    labels: set[str] = set()
    goto_labels: list[_Token] = []

    for lineno in range(header_line + 1, len(lines) + 1):
        tokens = _tokenize_line(lines[lineno - 1], lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno)
        first = parser.peek()
        assert first is not None
        if first.text == "counter":
            if rules:
                raise DslError("counter declarations must precede rules", first.line, first.col)
            decls.append(_parse_decl(parser, counters))
        else:
            rules.append(_parse_rule(parser, counters, labels, goto_labels))

    if not rules:
        raise DslError("strategy has no rules", len(lines) or 1, 1)

    for token in goto_labels:
        if token.text not in labels:
            raise DslError(f"goto to unknown label {token.text!r}", token.line, token.col)

    return StrategySource(name_token.text, tuple(decls), tuple(rules))


def _parse_decl(parser: _LineParser, counters: dict[str, int]) -> Decl:
    parser.next("counter")
    name_token = parser.next()
    if not _is_name(name_token.text) or name_token.text in KEYWORDS:
        raise DslError("expected counter name", name_token.line, name_token.col)
    if name_token.text in counters:
        raise DslError(f"duplicate counter {name_token.text!r}", name_token.line, name_token.col)
    parser.next(":")
    width_token = parser.next()
    if not width_token.text.isdigit():
        raise DslError("expected counter width in bits", width_token.line, width_token.col)
    width = int(width_token.text)
    if width < 1 or width > WIDTH_CAP:
        raise DslError(f"counter width {width} outside 1..{WIDTH_CAP}",
                       width_token.line, width_token.col)
    parser.next("bits")
    if not parser.at_end():
        raise parser.error("unexpected input after declaration")
    counters[name_token.text] = width
    return Decl(name_token.text, width)


def _parse_rule(
    parser: _LineParser, counters: dict[str, int], labels: set[str], goto_labels: list[_Token]
) -> Rule:
    label: str | None = None
    first = parser.peek()
    second = parser.peek(1)
    if (
        first is not None and second is not None and second.text == ":"
        and _is_name(first.text) and first.text not in KEYWORDS
    ):
        label = first.text
        if label in labels:
            raise DslError(f"duplicate label {label!r}", first.line, first.col)
        if label in counters:
            raise DslError(f"label {label!r} collides with a counter", first.line, first.col)
        labels.add(label)
        parser.next()
        parser.next(":")

    head = parser.peek()
    if head is None:
        raise parser.error("expected 'if' or 'always'")
    if head.text == "if":
        parser.next("if")
        guard = _parse_guard(parser, counters)
        parser.next("then")
    elif head.text == "always":
        parser.next("always")
        guard = ()
    else:
        raise DslError(f"expected 'if' or 'always', got {head.text!r}", head.line, head.col)

    stmts = _parse_stmts(parser, counters, goto_labels)
    return Rule(label, guard, stmts)


def _parse_guard(parser: _LineParser, counters: dict[str, int]) -> tuple[Term, ...]:
    terms = [_parse_term(parser, counters)]
    while not parser.at_end() and parser.peek().text == "and":  # type: ignore[union-attr]
        parser.next("and")
        terms.append(_parse_term(parser, counters))
    return tuple(terms)


def _parse_term(parser: _LineParser, counters: dict[str, int]) -> Term:
    field_token = parser.next()
    field = field_token.text
    if field not in OBS_FIELDS and field not in counters:
        raise DslError(f"unknown field {field!r}", field_token.line, field_token.col)

    op_token = parser.next()
    if op_token.text not in _CMP_OPS:
        raise DslError(f"expected comparison operator, got {op_token.text!r}",
                       op_token.line, op_token.col)
    op = _CMP_OPS[op_token.text]

    value_token = parser.next()
    value: Value
    if value_token.text in _ACTIONS:
        value = ConstAction(_ACTIONS[value_token.text])
    elif value_token.text.isdigit():
        value = ConstInt(int(value_token.text))
    elif value_token.text == "N":
        offset = 0
        if not parser.at_end() and parser.peek().text == "-":  # type: ignore[union-attr]
            parser.next("-")
            offset_token = parser.next()
            if not offset_token.text.isdigit():
                raise DslError("expected integer after 'N-'", offset_token.line, offset_token.col)
            offset = int(offset_token.text)
        value = HorizonMinus(offset, value_token.line, value_token.col)
    else:
        raise DslError(f"expected action, integer, or N, got {value_token.text!r}",
                       value_token.line, value_token.col)

    if field in OBS_FIELDS:
        if not isinstance(value, ConstAction):
            raise DslError("observation fields compare against actions only",
                           value_token.line, value_token.col)
        if op not in (CmpOp.EQ, CmpOp.NE):
            raise DslError("ordering comparison is not defined on actions",
                           op_token.line, op_token.col)
    else:
        if isinstance(value, ConstAction):
            raise DslError("counters compare against integers only",
                           value_token.line, value_token.col)
    return Term(field, op, value)


def _parse_stmts(
    parser: _LineParser, counters: dict[str, int], goto_labels: list[_Token]
) -> tuple[Stmt, ...]:
    """Parse a rule's statements; each goto's label token is appended to
    ``goto_labels`` so that unknown labels can be reported where they are
    written once every label is known."""
    stmts: list[Stmt] = []
    played = False
    while not parser.at_end():
        keyword = parser.next()
        if keyword.text == "play":
            action_token = parser.next()
            if action_token.text not in _ACTIONS:
                raise DslError(f"expected action, got {action_token.text!r}",
                               action_token.line, action_token.col)
            if played:
                raise DslError("a rule may play at most once", keyword.line, keyword.col)
            played = True
            stmts.append(Play(_ACTIONS[action_token.text]))
        elif keyword.text == "inc":
            name_token = parser.next()
            if name_token.text not in counters:
                raise DslError(f"unknown counter {name_token.text!r}",
                               name_token.line, name_token.col)
            stmts.append(Inc(name_token.text))
        elif keyword.text == "goto":
            label_token = parser.next()
            if not _is_name(label_token.text) or label_token.text in KEYWORDS:
                raise DslError("expected label name", label_token.line, label_token.col)
            stmts.append(Goto(label_token.text))
            goto_labels.append(label_token)
            if not parser.at_end():
                extra = parser.peek()
                raise DslError("goto must be the last statement of a rule",
                               extra.line, extra.col)  # type: ignore[union-attr]
        else:
            raise DslError(f"expected 'play', 'inc', or 'goto', got {keyword.text!r}",
                           keyword.line, keyword.col)
    if not stmts:
        raise parser.error("rule has no statements")
    return tuple(stmts)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _source_text(name: str, decls: tuple[Decl, ...],
                 rules: Iterable[tuple[str | None, str]]) -> str:
    """The canonical text: the header, the declarations, then each rule's
    rendered line, behind ``label: `` when the rule starts a labeled state."""
    lines = [f"strategy {name}"]
    lines += [decl.render() for decl in decls]
    lines += [f"{label}: {text}" if label else text for label, text in rules]
    return "\n".join(lines) + "\n"


def print_source(source: StrategySource) -> str:
    """Canonical rendering; ``parse(print_source(parse(s)))`` equals ``parse(s)``."""
    return _source_text(source.name, source.decls,
                        ((rule.label, rule.render()) for rule in source.rules))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _split_states(rules: tuple[Rule, ...]) -> list[tuple[str | None, list[Rule]]]:
    """The rules by state, as ``(label, rules)``: a labeled rule starts a
    new state, and the rules before the first label form the entry state."""
    states: list[tuple[str | None, list[Rule]]] = []
    for rule in rules:
        if rule.label is not None or not states:
            states.append((rule.label, []))
        states[-1][1].append(rule)
    return states


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
#: Instructions are immutable, so programs share their HALTs, JUMPs, plays
#: and incs.
_HALT = vm.halt()
_jump = functools.lru_cache(maxsize=1024)(vm.jump)
_emit = functools.lru_cache(maxsize=None)(vm.emit)
_increment = functools.lru_cache(maxsize=None)(vm.increment)


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
        if isinstance(stmt, Play):
            instructions.append(_emit(stmt.action))
        elif isinstance(stmt, Inc):
            instructions.append(_increment(counter_index[stmt.counter]))
    return tuple(instructions), cost


class RulePiece:
    """A rule as ``assemble`` lays it out: the ``rule`` (its label is not
    read: a state's label comes with the state), its ``size`` as a state's
    last rule and as a rule ``ahead`` of another, its ``goto`` label or
    None, and its rendered line ``text``.

    ``emitted`` caches what ``emit_rule`` returns, the rule's compares,
    plays and incs and their compare cost, once per compare target, so a
    piece shared by many programs is emitted once per place it can land.
    The cache is valid for one ``(decls, config)`` only: the search builds
    its pieces per counter declaration of one config, and ``compile``
    builds fresh pieces per call.
    """

    __slots__ = ("rule", "size", "ahead", "goto", "text", "emitted")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.size = rule_size(rule, last=True)
        stmt = rule.stmts[-1]
        self.goto = stmt.label if isinstance(stmt, Goto) else None
        # rule_size(rule, last=False), without a second call.
        self.ahead = self.size + (self.goto is None)
        self.text = rule.render()
        self.emitted: dict[int, tuple[tuple[Instruction, ...], int]] = {}


def assemble(name: str, decls: tuple[Decl, ...],
             states: list[tuple[str | None, Sequence[RulePiece]]],
             config: GameConfig, diagnostics: list[str] | None = None) -> StrategyProgram:
    """The program whose states are ``states``, each ``(label, pieces)``,
    laid out in order from instruction 0; the first state is the entry.

    This is the one layout. Each rule is its compares, plays and incs, each
    compare jumping on failure to the next rule or, from the last rule, to
    the state's epilogue. A rule with a goto then ends the tick (HALT) and
    jumps to the target state's start; any other rule but the last jumps to
    the epilogue, HALT then a JUMP back to the state's start. The
    ``worst_tick_cost`` is the largest compare total any single tick can
    request: the maximum over states of the rules' compare costs, as
    ``emit_rule`` returns them, summed along a full scan of the state's
    rules; ``vm.interpret`` charges each compare's width when the compare
    starts. Unreachable rules (after an unconditional rule in the same
    state) are reported through ``diagnostics`` when a list is supplied.
    The program carries its canonical source text, which ``decompile``
    parses back, and is returned once ``vm.validate_program`` finds
    nothing wrong with it.
    """
    reg_widths = tuple([decl.width for decl in decls])
    counter_index = {decl.name: i for i, decl in enumerate(decls)}
    # Fixed sizes first, so every state's start and epilogue is known up front.
    starts: dict[str | None, int] = {}
    epilogues: list[int] = []
    at = 0
    for label, pieces in states:
        starts[label] = at
        for piece in pieces[:-1]:
            at += piece.ahead
        at += pieces[-1].size
        epilogues.append(at)
        at += EPILOGUE_SIZE

    instructions: list[Instruction] = []
    lines: list[tuple[str | None, str]] = []
    worst = 0
    for (label, pieces), epilogue in zip(states, epilogues):
        start = starts[label]
        scan_cost = 0
        fired = False
        last = len(pieces) - 1
        for ri, piece in enumerate(pieces):
            if fired and diagnostics is not None:
                diagnostics.append(f"rule {ri + 1} of state {label or 'start'} is unreachable")
            on_false = epilogue if ri == last else len(instructions) + piece.ahead
            body = piece.emitted.get(on_false)
            if body is None:
                body = piece.emitted[on_false] = emit_rule(
                    piece.rule, on_false, counter_index, reg_widths, config)
            scan_cost += body[1]
            instructions += body[0]
            if piece.goto is not None:
                instructions += (_HALT, _jump(starts[piece.goto]))
            elif ri != last:
                instructions.append(_jump(epilogue))
            lines.append((label if not ri else None, piece.text))
            fired = fired or not piece.rule.guard
        assert len(instructions) == epilogue, "layout drift between rule sizes and emission"
        instructions += (_HALT, _jump(start))
        worst = max(worst, scan_cost)

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
    which the best-response search uses too. Deterministic; unreachable
    rules are reported through ``diagnostics`` when a list is supplied.
    """
    states = [(label, [RulePiece(rule) for rule in rules])
              for label, rules in _split_states(source.rules)]
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
