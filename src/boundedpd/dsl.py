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
the source is compiled against a config. Observation fields compared
against a move that does not exist yet (the first tick of a pairing) are
false whatever the operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .game import Action, GameConfig, bit_width
from . import vm
from .vm import CmpOp, Instruction, Operand, StrategyProgram

#: Declared counters may not exceed this width.
WIDTH_CAP = 32

KEYWORDS = {
    "strategy", "counter", "bits", "if", "then", "always",
    "play", "inc", "goto", "and", "opp", "own", "N",
    "C", "D", "W", "O",
}

OBS_FIELD_NAMES = ("opp", "own")

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
    """The compare constant ``N - offset``, resolved at compile time."""

    offset: int = 0

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
        prefix = f"{self.label}: " if self.label else ""
        body = " ".join(stmt.render() for stmt in self.stmts)
        if self.guard:
            guard = " and ".join(term.render() for term in self.guard)
            return f"{prefix}if {guard} then {body}"
        return f"{prefix}always {body}"


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
            last = self.tokens[-1] if self.tokens else None
            col = (last.col + len(last.text)) if last else 1
            want = f"expected {expected!r}" if expected else "unexpected end of line"
            raise DslError(want, self.lineno, col)
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
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text))


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
    if field not in OBS_FIELD_NAMES and field not in counters:
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
        value = HorizonMinus(offset)
    else:
        raise DslError(f"expected action, integer, or N, got {value_token.text!r}",
                       value_token.line, value_token.col)

    if field in OBS_FIELD_NAMES:
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


def try_parse(text: str) -> tuple[StrategySource | None, DslError | None]:
    """Totality wrapper: returns (tree, None) or (None, diagnostic)."""
    try:
        return parse(text), None
    except DslError as err:
        return None, err


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_source(source: StrategySource) -> str:
    """Canonical rendering; ``parse(print_source(parse(s)))`` equals ``parse(s)``."""
    lines = [f"strategy {source.name}"]
    lines.extend(decl.render() for decl in source.decls)
    lines.extend(rule.render() for rule in source.rules)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _StateLayout:
    label: str | None
    rules: tuple[Rule, ...]


def _split_states(rules: tuple[Rule, ...]) -> list[_StateLayout]:
    states: list[_StateLayout] = []
    current: list[Rule] = []
    current_label: str | None = None
    for rule in rules:
        if rule.label is not None and (current or current_label is not None):
            states.append(_StateLayout(current_label, tuple(current)))
            current = [rule]
            current_label = rule.label
        else:
            if rule.label is not None:
                current_label = rule.label
            current.append(rule)
    states.append(_StateLayout(current_label, tuple(current)))
    return states


def _resolve_value(value: Value, config: GameConfig) -> Operand:
    if isinstance(value, ConstAction):
        return Operand.action(value.action)
    if isinstance(value, ConstInt):
        return Operand.const(value.value)
    resolved = config.N - value.offset
    if resolved < 0:
        raise DslError(f"N-{value.offset} is negative at N={config.N}")
    return Operand.const(resolved)


def _term_width(term: Term, widths: dict[str, int], config: GameConfig) -> int:
    if term.field in OBS_FIELD_NAMES:
        return 2
    counter_width = widths[term.field]
    value = term.value
    if isinstance(value, ConstInt):
        other = bit_width(value.value)
    elif isinstance(value, HorizonMinus):
        other = bit_width(max(config.N - value.offset, 0))
    else:
        other = 2
    return max(counter_width, other)


def compile(  # noqa: A001 - deliberate: this is the module's compile entry point
    source: StrategySource,
    config: GameConfig,
    diagnostics: list[str] | None = None,
) -> StrategyProgram:
    """Compile a parsed source against a game config.

    Deterministic. The returned program's ``worst_tick_cost`` is the largest
    compare total any single tick can request: the maximum over states of
    the sum of guard widths along a full scan of the state's rules.
    Unreachable rules (after an unconditional rule in the same state) are
    reported through ``diagnostics`` when a list is supplied.
    """
    counter_widths = {decl.name: decl.width for decl in source.decls}
    counter_index = {decl.name: i for i, decl in enumerate(source.decls)}
    states = _split_states(source.rules)
    state_index = {state.label: i for i, state in enumerate(states) if state.label is not None}

    # First pass: fixed sizes so every jump target is known up front.
    # Rule slot = guard compares + play/inc statements + trailing transfer:
    # a goto becomes HALT then JUMP (end the tick, resume in the target
    # state); a fired rule without goto jumps to the state's epilogue HALT,
    # or falls into it when it is the state's last rule.
    rule_sizes: list[list[int]] = []
    state_sizes: list[int] = []
    for state in states:
        sizes = []
        for index, rule in enumerate(state.rules):
            size = len(rule.guard)
            has_goto = any(isinstance(stmt, Goto) for stmt in rule.stmts)
            size += sum(1 for stmt in rule.stmts if not isinstance(stmt, Goto))
            if has_goto:
                size += 2  # HALT + JUMP
            elif index < len(state.rules) - 1:
                size += 1  # JUMP to the epilogue
            sizes.append(size)
        rule_sizes.append(sizes)
        state_sizes.append(sum(sizes) + 2)  # epilogue: HALT + JUMP back

    state_starts: list[int] = []
    offset = 0
    for size in state_sizes:
        state_starts.append(offset)
        offset += size

    # Second pass: emit instructions against the precomputed layout.
    instructions: list[Instruction] = []
    layout: list[tuple] = []
    worst = 0
    for si, state in enumerate(states):
        epilogue = state_starts[si] + state_sizes[si] - 2
        rule_starts: list[int] = []
        scan_cost = 0
        fired = False
        for ri, rule in enumerate(state.rules):
            if fired and diagnostics is not None:
                diagnostics.append(
                    f"rule {ri + 1} of state {state.label or 'start'!s} is unreachable"
                )
            rule_start = len(instructions)
            rule_starts.append(rule_start)
            on_false = rule_start + rule_sizes[si][ri] if ri < len(state.rules) - 1 else epilogue
            for term in rule.guard:
                scan_cost += _term_width(term, counter_widths, config)
                if term.field in OBS_FIELD_NAMES:
                    lhs = Operand.obs(term.field)
                else:
                    lhs = Operand.reg(counter_index[term.field])
                instructions.append(
                    vm.compare(lhs, term.op, _resolve_value(term.value, config), on_false)
                )
            goto_stmt: Goto | None = None
            for stmt in rule.stmts:
                if isinstance(stmt, Play):
                    instructions.append(vm.emit(stmt.action))
                elif isinstance(stmt, Inc):
                    instructions.append(vm.increment(counter_index[stmt.counter]))
                else:
                    goto_stmt = stmt
            if goto_stmt is not None:
                instructions.append(vm.halt())
                instructions.append(vm.jump(state_starts[state_index[goto_stmt.label]]))
            elif ri < len(state.rules) - 1:
                instructions.append(vm.jump(epilogue))
            if not rule.guard:
                fired = True
        assert len(instructions) == epilogue, "layout drift between compiler passes"
        instructions.append(vm.halt())
        instructions.append(vm.jump(state_starts[si]))
        layout.append((state.label, state_starts[si], tuple(rule_starts), epilogue))
        worst = max(worst, scan_cost)

    program = StrategyProgram(
        name=source.name,
        instructions=tuple(instructions),
        reg_widths=tuple(decl.width for decl in source.decls),
        reg_names=tuple(decl.name for decl in source.decls),
        worst_tick_cost=worst,
        source=print_source(source),
        layout=tuple(layout),
    )
    problems = vm.validate_program(program)
    if problems:
        raise DslError("internal compile error: " + "; ".join(problems))
    return program

# ---------------------------------------------------------------------------
# Decompilation
# ---------------------------------------------------------------------------

def decompile(program: StrategyProgram) -> StrategySource:
    """Reconstruct a source tree from a program compiled by this module.

    Uses the layout table the compiler attached; hand-assembled programs
    cannot be decompiled. Horizon expressions come back as the constants
    they were resolved to, so recompiling the result against the same
    config reproduces the instruction stream exactly.
    """
    if not program.layout:
        raise DslError("program carries no layout table; it was not compiled here")

    ins = program.instructions
    label_by_start = {start: label for label, start, _, _ in program.layout}

    def operand_to_field(operand: Operand) -> str:
        if operand.kind is vm.OperandKind.OBS:
            return str(operand.value)
        if operand.kind is vm.OperandKind.REG:
            return program.reg_names[operand.value]  # type: ignore[index]
        raise DslError("compare left side is neither observation nor counter")

    def operand_to_value(operand: Operand) -> Value:
        if operand.kind is vm.OperandKind.CONST_ACTION:
            return ConstAction(operand.value)  # type: ignore[arg-type]
        if operand.kind is vm.OperandKind.CONST_INT:
            return ConstInt(operand.value)  # type: ignore[arg-type]
        raise DslError("compare right side is not a constant")

    rules: list[Rule] = []
    for label, _start, rule_starts, epilogue in program.layout:
        boundaries = list(rule_starts[1:]) + [epilogue]
        for ri, rule_start in enumerate(rule_starts):
            end = boundaries[ri]
            pos = rule_start
            guard: list[Term] = []
            while pos < end and ins[pos].opcode is vm.Opcode.COMPARE:
                guard.append(Term(
                    operand_to_field(ins[pos].lhs),
                    ins[pos].op,
                    operand_to_value(ins[pos].rhs),
                ))
                pos += 1
            stmts: list[Stmt] = []
            while pos < end:
                op = ins[pos].opcode
                if op is vm.Opcode.EMIT:
                    stmts.append(Play(ins[pos].action))
                    pos += 1
                elif op is vm.Opcode.INCREMENT:
                    stmts.append(Inc(program.reg_names[ins[pos].reg]))
                    pos += 1
                elif op is vm.Opcode.JUMP and ins[pos].target == epilogue:
                    pos += 1  # early hop to the shared tick end
                elif op is vm.Opcode.HALT and pos + 1 < end \
                        and ins[pos + 1].opcode is vm.Opcode.JUMP:
                    target = ins[pos + 1].target
                    target_label = label_by_start.get(target)
                    if target_label is None:
                        raise DslError(f"goto lands at {target}, which starts no state")
                    stmts.append(Goto(target_label))
                    pos += 2
                else:
                    raise DslError(f"unexpected instruction at {pos} while decompiling")
            if not stmts:
                raise DslError(f"rule at {rule_start} has no statements")
            rules.append(Rule(label if ri == 0 else None, tuple(guard), tuple(stmts)))

    decls = tuple(
        Decl(name, width) for name, width in zip(program.reg_names, program.reg_widths)
    )
    return StrategySource(program.name, decls, tuple(rules))
