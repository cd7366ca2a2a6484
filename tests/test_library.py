"""Catalog integrity: every builtin compiles and costs what it claims;
the resolver turns every kind of strategy reference into a program."""

import hashlib
import random as random_module
import re
from enum import Enum

import pytest

from boundedpd import dsl
from boundedpd.analysis import enumerate_candidates
from boundedpd.game import Action, GameConfig, INTRO_TABLE, Mode, counter_width_for
from boundedpd.library import (
    BUILTIN_NAMES,
    UnknownStrategyError,
    catalog,
    counting_defector_source,
    counting_defector_tree,
    get,
    modes,
    resolve,
    source_text,
)
from boundedpd.match import run_match
from boundedpd.population import run_population
from boundedpd.vm import reset, tick

from test_cli import run_cli
from test_vm import random_program

C, D, W, O = Action.C, Action.D, Action.W, Action.O
CFG = GameConfig(N=16, k=4)

#: Worst tick costs as README's table documents them; CountingDefector's is
#: the width of the horizon counter.
DOCUMENTED_COSTS = {"GRIM": 2, "OFT": 2, "TFT": 2, "AllC": 0, "AllD": 0, "AllW": 0,
                    "CountingDefector": counter_width_for(CFG.N)}


def measured_worst_cost(name: str, config: GameConfig) -> int:
    """Worst observed per-tick cost across matches with assorted partners."""
    program = get(name, config)
    worst = 0
    partners = [get(n, config) for n in ("AllC", "AllD", "AllW", "TFT")]
    for partner in partners:
        mine, theirs = reset(program), reset(partner)
        my_last = their_last = None
        for _ in range(config.N):
            mine, my_action = tick(mine, program, their_last, my_last, config.k)
            theirs, their_action = tick(theirs, partner, my_last, their_last, config.k)
            my_last, their_last = my_action, their_action
            worst = max(worst, mine.tick_cost)
    return worst


class TestCatalog:
    def test_every_entry_compiles(self):
        programs = catalog(CFG)
        assert set(programs) == set(BUILTIN_NAMES)
        for program in programs.values():
            assert len(program.instructions) > 0

    @pytest.mark.parametrize("name", list(BUILTIN_NAMES))
    def test_documented_cost_matches_compiler_and_measurement(self, name):
        program = catalog(CFG)[name]
        assert program.worst_tick_cost == DOCUMENTED_COSTS[name]
        assert measured_worst_cost(name, CFG) <= DOCUMENTED_COSTS[name]
        if name in ("GRIM", "OFT", "TFT"):
            # The single action compare is actually exercised.
            assert measured_worst_cost(name, CFG) == 2

    def test_only_an_opting_out_program_is_opd_only(self):
        assert {name: modes(program) for name, program in catalog(CFG).items()} == {
            name: (Mode.OPD,) if name == "OFT" else (Mode.FTPD, Mode.OPD)
            for name in BUILTIN_NAMES
        }

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownStrategyError):
            get("Sneaky", CFG)

    def test_counting_defector_horizon_cost(self):
        config = GameConfig(N=1000, k=2)
        assert get("CountingDefector", config).worst_tick_cost == 10

    def test_counting_defector_needs_room(self):
        with pytest.raises(ValueError):
            counting_defector_source(2)

    def test_counting_defector_source_shape(self):
        text = counting_defector_source(8)
        assert text.count("always play C inc n") == 6
        assert "if n >= N-2 then play D" in text


#: Horizons at which the compiled builtins are pinned: every small N, and
#: CountingDefector lengths around the 1 024 states past which a program
#: has more distinct JUMP targets than a small cache holds.
PIN_HORIZONS = (*range(3, 71), 200, 1023, 1024, 1025, 2000, 5000)


def _plain(value):
    """``value`` with every enum member replaced by its name, so that a
    repr does not depend on how a Python version prints enums."""
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, tuple):
        return tuple([_plain(item) for item in value])
    return value


def program_digest(programs) -> tuple[int, str]:
    """The count of ``programs`` and a sha256 over each one's instructions,
    register widths, worst tick cost and source, in order."""
    digest = hashlib.sha256()
    count = 0
    for program in programs:
        fields = (program.instructions, program.reg_widths,
                  program.worst_tick_cost, program.source)
        digest.update(repr(_plain(fields)).encode())
        count += 1
    return count, digest.hexdigest()


class TestPinnedPrograms:
    """The compiler's output, pinned: how a program is built may change,
    the program may not."""

    def test_builtins_are_pinned(self):
        programs = (get(name, GameConfig(N=n, k=2))
                    for n in PIN_HORIZONS for name in BUILTIN_NAMES)
        assert program_digest(programs) == (
            518, "ada38017f171210d04e31ba40be32b6bc3ae3ff4d86cdc565e55df7d050bd0ca")

    @pytest.mark.parametrize("mode, expected", [
        (Mode.FTPD, (543, "f9aaea3eb65530209f28664371012794d7f0907db466fc9abcc6ac0e9b83e1b4")),
        (Mode.OPD, (828, "b33a26c86ae6f7388cd66e4fcf615d0b03f20826ec988357cf593da0856d80b0")),
    ])
    def test_search_candidates_are_pinned(self, mode, expected):
        config = GameConfig(N=8, k=2, mode=mode)
        assert program_digest(enumerate_candidates(config, 6)) == expected


class TestCountingDefectorTree:
    """The tree ``get`` compiles is the one its text parses to, and the
    program is the one the text compiles to."""

    @pytest.mark.parametrize("n", PIN_HORIZONS)
    def test_the_text_parses_to_the_tree(self, n):
        assert dsl.parse(counting_defector_source(n)) == counting_defector_tree(n)

    @pytest.mark.parametrize("n", PIN_HORIZONS)
    def test_get_compiles_what_the_text_compiles_to(self, n):
        config = GameConfig(N=n, k=2)
        text = source_text("CountingDefector", config)
        assert get("CountingDefector", config) == dsl.compile(dsl.parse(text), config)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_horizon_below_three_is_refused(self, n):
        message = "CountingDefector needs a horizon of at least 3 ticks"
        for build in (counting_defector_tree, counting_defector_source):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(n)
        with pytest.raises(ValueError, match=f"^{message}$"):
            get("CountingDefector", GameConfig(N=n, k=2))
        code, out, err = run_cli(["match", "CountingDefector", "GRIM", "--N", str(n)])
        assert (code, out, err) == (2, "", f"boundedpd: {message}\n")


class TestBehaviorContracts:
    def test_grim_is_cooperative_at_every_tested_horizon(self):
        for n in (2, 5, 17, 64):
            config = GameConfig(N=n, k=2)
            grim = get("GRIM", config)
            trace = run_match(grim, grim, config, INTRO_TABLE)
            assert trace.totals == (n * INTRO_TABLE.R, n * INTRO_TABLE.R)

    def test_tft_against_itself_cooperates(self):
        for n in (3, 10, 40):
            config = GameConfig(N=n, k=2)
            tft = get("TFT", config)
            trace = run_match(tft, tft, config, INTRO_TABLE)
            assert trace.a1 == trace.a2 == [C] * n

    def test_oft_never_defects(self):
        # Against builtins and random machines alike, OFT only ever plays
        # C or O.
        rng = random_module.Random(77)
        config = GameConfig(N=15, mode=Mode.OPD, t=1, k=2, seed=1)
        oft = get("OFT", config)
        opponents = [get(n, config) for n in BUILTIN_NAMES if n != "CountingDefector"]
        opponents += [random_program(rng) for _ in range(20)]
        for opponent in opponents:
            trace = run_population([("OFT", oft), ("opp", opponent)], config,
                                   INTRO_TABLE, initial_pairing=[(0, 1)])
            assert D not in trace.a1  # OFT, player 0, is every row's first seat

    def test_counting_defector_realizes_its_trace(self):
        for n, k in ((8, 2), (16, 3), (32, 4)):
            config = GameConfig(N=n, k=k)
            trace = run_match(get("CountingDefector", config), get("GRIM", config),
                              config, INTRO_TABLE)
            actions = "".join(a.value for a in trace.a1)
            assert actions == "C" * (n - 2) + "WD"


class TestResolve:
    def test_a_program_comes_back_unchanged(self):
        program = random_program(random_module.Random(3))
        assert resolve(program, CFG) is program

    def test_a_builtin_name_is_the_builtin(self):
        assert resolve("GRIM", CFG) == get("GRIM", CFG)

    def test_a_file_resolves_under_base_dir(self, tmp_path):
        (tmp_path / "mine.pdstrat").write_text("strategy Mine\nalways play D\n")
        program = resolve("mine.pdstrat", CFG, base_dir=tmp_path)
        assert program.name == "Mine"
        assert resolve(str(tmp_path / "mine.pdstrat"), CFG) == program

    def test_a_missing_file_is_refused_by_name(self, tmp_path):
        with pytest.raises(ValueError, match="no builtin or strategy file named 'Sneaky'"):
            resolve("Sneaky", CFG, base_dir=tmp_path)

    def test_a_compile_error_names_the_file_and_position(self, tmp_path):
        (tmp_path / "bad.pdstrat").write_text("strategy Bad\nif opp == then play C\n")
        path = re.escape(str(tmp_path / "bad.pdstrat"))
        with pytest.raises(ValueError, match=rf"^{path}:2:\d+: "):
            resolve("bad.pdstrat", CFG, base_dir=tmp_path)
