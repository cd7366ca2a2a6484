"""Round trip of random syntax trees through the printer and the parser.

A random ``StrategySource`` (counters, labels, multi-term guards, ``N-k``
values, gotos) is printed with ``print_source``; the text is then made
messy with extra spaces, tabs, blank lines and ``#`` comments. Parsing it
must give the tree back, and compiling it the same program.
"""

from hypothesis import given, settings, strategies as st

from boundedpd.dsl import (
    KEYWORDS,
    ConstAction,
    ConstInt,
    Decl,
    Goto,
    HorizonMinus,
    Inc,
    Play,
    Rule,
    StrategySource,
    Term,
    compile as compile_source,
    parse,
    print_source,
)
from boundedpd.game import Action, GameConfig
from boundedpd.vm import CmpOp

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name not in KEYWORDS)
ACTIONS = st.sampled_from(list(Action))
MAX_OFFSET = 6


@st.composite
def sources(draw):
    names = draw(st.lists(NAMES, unique=True, max_size=7))
    split = draw(st.integers(0, len(names)))
    counters, labels = names[:split], names[split:]
    decls = tuple(Decl(name, draw(st.integers(1, 32))) for name in counters)

    def term():
        field = draw(st.sampled_from(["opp", "own"] + counters))
        if field in ("opp", "own"):
            return Term(field, draw(st.sampled_from([CmpOp.EQ, CmpOp.NE])),
                        ConstAction(draw(ACTIONS)))
        value = draw(st.one_of(st.builds(ConstInt, st.integers(0, 5000)),
                               st.builds(HorizonMinus, st.integers(0, MAX_OFFSET))))
        return Term(field, draw(st.sampled_from(list(CmpOp))), value)

    def stmts():
        body = [Inc(name) for name in draw(st.lists(st.sampled_from(counters), max_size=2))
                ] if counters else []
        if draw(st.booleans()):
            body.insert(draw(st.integers(0, len(body))), Play(draw(ACTIONS)))
        if labels and (not body or draw(st.booleans())):
            body.append(Goto(draw(st.sampled_from(labels))))
        if not body:
            body.append(Play(draw(ACTIONS)))
        return tuple(body)

    # Each label starts one state; unlabeled rules join the state before.
    heads = [None] * draw(st.integers(0, 2)) + labels
    rules = []
    for label in heads:
        for i in range(draw(st.integers(1, 3))):
            guard = tuple(term() for _ in range(draw(st.integers(0, 3))))
            rules.append(Rule(label if i == 0 else None, guard, stmts()))
    if not rules:
        rules.append(Rule(None, (), stmts()))
    return StrategySource(draw(NAMES), decls, tuple(rules))


SPACE = st.text(alphabet=" \t", min_size=1, max_size=3)
COMMENT = st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                         blacklist_characters="\x85"), max_size=12)


@st.composite
def messy(draw, text):
    """``text`` with every separating space widened, indentation, trailing
    comments, ``N-k`` spread over three tokens, and blank and comment lines."""
    out = []
    for line in text.splitlines():
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(st.sampled_from(["", draw(SPACE)]))
                       + draw(st.sampled_from(["", "#" + draw(COMMENT)])))
        words = line.split(" ")
        if draw(st.booleans()):
            words = [word.replace("N-", "N - ") for word in words]
        line = "".join(word + draw(SPACE) for word in words[:-1]) + words[-1]
        if draw(st.booleans()):
            line = draw(SPACE) + line
        if draw(st.booleans()):
            line += draw(SPACE) + "#" + draw(COMMENT)
        out.append(line)
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n# end\n"]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_printed_and_mangled_trees_parse_back(data):
    tree = data.draw(sources())
    printed = print_source(tree)
    assert parse(printed) == tree
    noisy = data.draw(messy(printed))
    again = parse(noisy)
    assert again == tree
    config = GameConfig(N=data.draw(st.integers(MAX_OFFSET, 5000)), k=2)
    expected = compile_source(tree, config)
    program = compile_source(again, config)
    assert program.instructions == expected.instructions
    assert program.worst_tick_cost == expected.worst_tick_cost
    assert program.source == printed
