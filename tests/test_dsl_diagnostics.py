"""Every diagnostic of the strategy language, pinned: for each malformed
source, the message, line and column of the ``DslError`` it raises.

The corpus covers each ``raise`` in ``boundedpd.dsl`` and the lexical
corners a column depends on: tabs, comments, labels, ``N-`` offsets,
line-break characters other than ``\\n``, and an empty source.
"""

import pytest

from boundedpd import dsl
from boundedpd.dsl import DslError, compile as compile_source, decompile, parse
from boundedpd.game import Action, GameConfig
from boundedpd.vm import StrategyProgram, emit, halt

H = "strategy X\n"
C = "strategy X\ncounter i: 4 bits\n"

PARSE_ERRORS = [
    # The header.
    ("", "expected 'strategy <name>'", 1, 1),
    ("   \n\t\n", "expected 'strategy <name>'", 1, 1),
    ("# only a comment\n\n", "expected 'strategy <name>'", 1, 1),
    ("strategy\n", "unexpected end of line", 1, 9),
    ("program X\nalways play C\n", "expected 'strategy', got 'program'", 1, 1),
    ("strategy 9\nalways play C\n", "expected strategy name", 1, 10),
    ("strategy if\nalways play C\n", "expected strategy name", 1, 10),
    ("strategy :\nalways play C\n", "expected strategy name", 1, 10),
    ("strategy X Y\nalways play C\n", "unexpected input after strategy name", 1, 12),
    ("\n# lead\n  strategy X extra\n", "unexpected input after strategy name", 3, 14),
    ("strategy X\n", "strategy has no rules", 1, 1),
    ("strategy X\n\n# nothing\n\n", "strategy has no rules", 4, 1),
    # Declarations.
    (H + "always play C\ncounter i: 2 bits\n", "counter declarations must precede rules", 3, 1),
    (H + "counter 3: 2 bits\nalways play C\n", "expected counter name", 2, 9),
    (H + "counter opp: 2 bits\nalways play C\n", "expected counter name", 2, 9),
    (H + "counter i: 2 bits\ncounter i: 3 bits\nalways play C\n", "duplicate counter 'i'", 3, 9),
    (H + "counter i 2 bits\nalways play C\n", "expected ':', got '2'", 2, 11),
    (H + "counter i\n", "expected ':'", 2, 10),
    (H + "counter i: x bits\nalways play C\n", "expected counter width in bits", 2, 12),
    (H + "counter i: \u00b2 bits\nalways play C\n", "expected counter width in bits", 2, 12),
    (H + "counter i: 40 bits\nalways play C\n", "counter width 40 outside 1..32", 2, 12),
    (H + "counter i: 0 bits\nalways play C\n", "counter width 0 outside 1..32", 2, 12),
    (H + "counter i: 2 bytes\nalways play C\n", "expected 'bits', got 'bytes'", 2, 14),
    (H + "counter i: 2\n", "expected 'bits'", 2, 13),
    (H + "counter i: 2 bits extra\nalways play C\n", "unexpected input after declaration", 2, 19),
    # Labels and rule heads.
    (H + "a: always play C\na: always play D\n", "duplicate label 'a'", 3, 1),
    (C + "i: always play C\n", "label 'i' collides with a counter", 3, 1),
    (H + "a:\n", "expected 'if' or 'always'", 2, 3),
    (H + "a: # only a label\n", "expected 'if' or 'always'", 2, 3),
    (H + "a: b: always play C\n", "expected 'if' or 'always', got 'b'", 2, 4),
    (H + "play C\n", "expected 'if' or 'always', got 'play'", 2, 1),
    # Guards.
    (H + "if\n", "unexpected end of line", 2, 3),
    (H + "if them == C then play C\n", "unknown field 'them'", 2, 4),
    (H + "if opp = C then play C\n", "expected comparison operator, got '='", 2, 8),
    (H + "if opp\n", "unexpected end of line", 2, 7),
    (H + "if opp == \n", "unexpected end of line", 2, 10),
    (H + "if opp == x then play C\n", "expected action, integer, or N, got 'x'", 2, 11),
    (C + "if i == \u00b2 then play C\n", "expected action, integer, or N, got '\u00b2'", 3, 9),
    (C + "if i >= N-x then play C\n", "expected integer after 'N-'", 3, 11),
    (C + "if i >= N-\u00b2 then play C\n", "expected integer after 'N-'", 3, 11),
    (C + "if i >= N-\n", "unexpected end of line", 3, 11),
    (H + "if opp == 3 then play C\n", "observation fields compare against actions only", 2, 11),
    (H + "if opp == N then play C\n", "observation fields compare against actions only", 2, 11),
    (H + "if opp < C then play C\n", "ordering comparison is not defined on actions", 2, 8),
    (C + "if i == C then play C\n", "counters compare against integers only", 3, 9),
    (H + "if opp == C play C\n", "expected 'then', got 'play'", 2, 13),
    (H + "if opp == C\n", "expected 'then'", 2, 12),
    (H + "if opp == C and\n", "unexpected end of line", 2, 16),
    (H + "if opp == C and own then play C\n", "expected comparison operator, got 'then'", 2, 21),
    # Statements.
    (H + "always play X\n", "expected action, got 'X'", 2, 13),
    (H + "always play\n", "unexpected end of line", 2, 12),
    (H + "always play C play D\n", "a rule may play at most once", 2, 15),
    (H + "always inc j\n", "unknown counter 'j'", 2, 12),
    (C + "always inc\n", "unexpected end of line", 3, 11),
    (H + "always goto 5\n", "expected label name", 2, 13),
    (H + "always goto if\n", "expected label name", 2, 13),
    (H + "loop: always goto loop play C\n", "goto must be the last statement of a rule", 2, 24),
    (H + "always jump C\n", "expected 'play', 'inc', or 'goto', got 'jump'", 2, 8),
    (H + "always\n", "rule has no statements", 2, 7),
    (H + "if opp == C then\n", "rule has no statements", 2, 17),
    (H + "always play C\nalways goto nowhere\n", "goto to unknown label 'nowhere'", 3, 13),
    # Comments, tabs, spacing and line breaks.
    (H + "always play C # goto nowhere\nalways play X # bad\n", "expected action, got 'X'", 3, 13),
    (H + "\tif\topp ==\tX then play C\n", "expected action, integer, or N, got 'X'", 2, 12),
    (H + "\t\talways  play C  goto  \tnowhere  # trailing\n",
     "goto to unknown label 'nowhere'", 2, 26),
    (C + "if i >= N - 2 and opp == C then play D inc i goto b\nb: always play Q\n",
     "expected action, got 'Q'", 4, 16),
    ("strategy X\r\nalways play C\r\nalways play Z\r\n", "expected action, got 'Z'", 3, 13),
    (H + "always play C\u2028always play Z\n", "expected action, got 'Z'", 3, 13),
    (H + "always play \u00e9\n", "expected action, got '\u00e9'", 2, 13),
]


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS,
                         ids=[repr(case[0]) for case in PARSE_ERRORS])
def test_parse_error_is_pinned(text, message, line, col):
    with pytest.raises(DslError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


COMPILE_ERRORS = [
    (C + "if i >= N-20 then play D inc i\nalways play C inc i\n", 5,
     "N-20 is negative at N=5", 3, 9),
    (C + "if i >= N and opp == C then play D\nb: if i < N-9 then play C\n", 8,
     "N-9 is negative at N=8", 4, 11),
    (C + "always play C\nb:\t if  i >=  N-6 then play D\n", 5,
     "N-6 is negative at N=5", 4, 15),
]


@pytest.mark.parametrize("text, n, message, line, col", COMPILE_ERRORS,
                         ids=[repr(case[0]) for case in COMPILE_ERRORS])
def test_compile_error_is_pinned(text, n, message, line, col):
    source = parse(text)
    with pytest.raises(DslError) as err:
        compile_source(source, GameConfig(N=n))
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_internal_compile_error_is_pinned(monkeypatch):
    # The compiler checks its own output; a layout bug surfaces as this.
    monkeypatch.setattr(dsl.vm, "validate_program", lambda program: ["a", "b"])
    with pytest.raises(DslError) as err:
        compile_source(parse(H + "always play C\n"), GameConfig(N=5))
    assert (err.value.message, err.value.line, err.value.col) == (
        "internal compile error: a; b", 1, 1)


def test_decompile_of_a_hand_assembled_program_is_pinned():
    with pytest.raises(DslError) as err:
        decompile(StrategyProgram("hand", (emit(Action.C), halt())))
    assert (err.value.message, err.value.line, err.value.col) == (
        "program carries no source; it was not compiled here", 1, 1)


def test_decimal_digits_outside_ascii_stay_accepted():
    # An integer is what int() reads: any run of decimal digits. A
    # superscript digit is a digit but not a decimal one, so it is refused
    # (above) with a position instead of crashing int().
    source = parse("strategy X\ncounter i: \u0663 bits\nif i >= N-\u0661 then play D\n"
                   "always play C inc i\n")
    assert source.decls[0].width == 3
    assert source.rules[0].guard[0].value.offset == 1
