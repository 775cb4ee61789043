"""System model, validation, recognition, enumeration and text format."""

from __future__ import annotations

import random
from dataclasses import fields, replace
from itertools import product

import pytest

import oracles
from conftest import make_f1, make_trivial
from generators import random_fis
from fiskit.errors import FormatError, UnknownLetter, UnknownTransition
from fiskit.fis import (
    FIS,
    Scenario,
    Transition,
    check_scenario,
    enumerate_language,
    format_fis,
    iter_accepted,
    parse_fis,
    recognize,
    recognize_with_transition,
    render_scenario,
)
from fiskit.grids import grid
from fiskit.pcp import PcpInstance, compile_pcp, format_pcp, parse_pcp, witness_from_solution
from fiskit.tiles import fis_to_tiles, format_tiles, parse_tiles


F1 = make_f1()
T1 = F1.transitions[0]
# one broken rule each: the names a field of f1 gains, and the diagnostic
MALFORMED = {
    "letter-border": ({"alphabet": ("#",)}, 'BadLetter "#"'),
    "letter-space": ({"alphabet": ("x y",)}, 'BadLetter "x y"'),
    "letter-empty": ({"alphabet": ("",)}, 'BadLetter ""'),
    "state-space": ({"states": ("x y",)}, 'BadState "x y"'),
    "class-empty": ({"classes": ("",)}, 'BadClass ""'),
    "letter-twice": ({"alphabet": ("a",)}, 'DuplicateLetter "a"'),
    "state-twice": ({"states": ("1",)}, 'DuplicateState "1"'),
    "class-twice": ({"classes": ("A",)}, 'DuplicateClass "A"'),
    "transition-twice": ({"transitions": (T1,)}, f"DuplicateTransition {T1}"),
    "initial-state": ({"initial_states": ("9",)}, 'UndeclaredState "9" in initial_states'),
    "final-state": ({"final_states": ("9",)}, 'UndeclaredState "9" in final_states'),
    "initial-class": ({"initial_classes": ("Z",)}, 'UndeclaredClass "Z" in initial_classes'),
    "final-class": ({"final_classes": ("Z",)}, 'UndeclaredClass "Z" in final_classes'),
    **{f"transition-{role}": ({"transitions": (t,)}, f'{tag} "{name}" in {t}')
       for role, t, tag, name in (
           ("north", Transition("9", "A", "a", "B", "2"), "UndeclaredState", "9"),
           ("south", Transition("1", "A", "a", "B", "9"), "UndeclaredState", "9"),
           ("west", Transition("1", "Z", "a", "B", "2"), "UndeclaredClass", "Z"),
           ("east", Transition("1", "A", "a", "Z", "2"), "UndeclaredClass", "Z"),
           ("letter", Transition("1", "A", "z", "B", "2"), "UndeclaredLetter", "z"),
           ("border", Transition("1", "A", "#", "B", "2"), "UndeclaredLetter", "#"))},
}
# a file splits or drops a name that is not a token, so it spells the others only
SPELLED = [case for case in MALFORMED if not case.endswith(("-space", "-empty"))]


def extended(more: dict) -> dict:
    """The fields of f1, each key of ``more`` with its names appended."""
    return {field.name: getattr(F1, field.name) + more.get(field.name, ())
            for field in fields(FIS)}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_system_is_not_constructed(case):
    more, diagnostic = MALFORMED[case]
    with pytest.raises(ValueError) as exc:
        FIS(**extended(more))
    assert str(exc.value) == diagnostic


@pytest.mark.parametrize("case", SPELLED)
def test_a_malformed_system_file_is_a_format_error(case):
    more, diagnostic = MALFORMED[case]
    f = extended(more)
    text = "".join(f"{key}: {' '.join(f[key])}\n" for key in f if key != "transitions")
    text += "".join(f"trans: {' '.join(t)}\n" for t in f["transitions"])
    with pytest.raises(FormatError) as exc:
        parse_fis(text)
    assert str(exc.value) == diagnostic


def test_each_broken_rule_has_its_diagnostic(f1):
    t = Transition("9", "Z", "z", "A", "1")
    with pytest.raises(ValueError) as exc:
        replace(f1, transitions=(t,))
    assert str(exc.value) == "; ".join([
        f'UndeclaredState "9" in {t}', f'UndeclaredClass "Z" in {t}',
        f'UndeclaredLetter "z" in {t}'])


# what no file can spell: a name that is not hashable, a transition
# not of five names, such as a string of five characters; the
# diagnostic quotes it as the other rules do
UNSPELLABLE = {
    "letter-list": ({"alphabet": (["a"],)}, 'BadLetter "[\'a\']"'),
    "state-dict": ({"states": ({},)}, 'BadState "{}"'),
    "class-list-twice": ({"classes": (["Z"], ["Z"])}, 'BadClass "[\'Z\']"; BadClass "[\'Z\']"'),
    "initial-state-list": ({"initial_states": (["1"],)},
                           'UndeclaredState "[\'1\']" in initial_states'),
    "transition-list-name": (
        {"transitions": (("1", "A", ["a"], "B", "2"),)},
        'UndeclaredLetter "[\'a\']" in ' + str(Transition("1", "A", ["a"], "B", "2"))),
    "transition-short": ({"transitions": (("1", "A", "a", "B"),)},
                         "BadTransition ('1', 'A', 'a', 'B')"),
    "transition-long": ({"transitions": (tuple(T1) + ("2",),)},
                        "BadTransition ('1', 'A', 'a', 'B', '2', '2')"),
    "transition-int": ({"transitions": (7,)}, "BadTransition 7"),
    "transition-str": ({"transitions": ("1AaB2",)}, "BadTransition '1AaB2'"),
}


@pytest.mark.parametrize("case", UNSPELLABLE)
def test_an_unspellable_system_is_a_malformed_one(case):
    more, diagnostic = UNSPELLABLE[case]
    with pytest.raises(ValueError) as exc:
        FIS(**extended(more))
    assert str(exc.value) == diagnostic


@pytest.mark.parametrize("t", [T1[:4], (*T1, "2"), 7, ("1", "A", ["a"], "B", "2"), "1AaB2"],
                         ids=["short", "long", "int", "list-name", "str"])
def test_tracking_what_is_no_transition_is_unknown(f1, diag1, t):
    with pytest.raises(UnknownTransition):
        recognize_with_transition(f1, diag1, t)


def test_unused_elements_are_reported_not_rejected(f1):
    extended = FIS(
        alphabet=f1.alphabet + ("d",), states=f1.states + ("9",),
        classes=f1.classes, transitions=f1.transitions,
        initial_states=f1.initial_states, initial_classes=f1.initial_classes,
        final_states=f1.final_states, final_classes=f1.final_classes,
    )
    assert recognize(extended, grid([["a"]])) is not None


def test_recognize_single_cell(f1, diag1):
    sc = recognize(f1, diag1)
    assert sc is not None
    assert sc.b_n == ("1",) and sc.b_w == ("A",)
    assert sc.b_s == ("2",) and sc.b_e == ("B",)
    assert check_scenario(f1, sc) == []


def test_recognize_rejects(f1):
    assert recognize(f1, grid([["b"]])) is None
    assert recognize(f1, grid([["a", "a"]])) is None


def test_recognize_diagonal_two(f1, diag2):
    sc = recognize(f1, diag2)
    assert sc is not None
    assert check_scenario(f1, sc) == []
    assert oracles.accepts(f1, diag2)


def test_recognize_diagonal_three_borders(f1, diag3):
    sc = recognize(f1, diag3)
    assert sc is not None
    assert sc.b_n == ("1", "1", "1")
    assert tuple(t.south for t in sc.cell_runs[0]) == ("2", "1", "1")
    assert sc.b_s == ("2", "2", "2")
    assert sc.b_e == ("B", "B", "B")
    assert check_scenario(f1, sc) == []


def test_unknown_letter(f1):
    with pytest.raises(UnknownLetter):
        recognize(f1, grid([["d"]]))


def test_recognize_with_transition(f1, diag3, diag1):
    t = Transition("2", "A", "c", "A", "2")
    sc = recognize_with_transition(f1, diag3, t)
    assert sc is not None
    assert t in {x for row in sc.cell_runs for x in row}
    # accepted grid, but the requested transition cannot fire on it
    assert recognize_with_transition(f1, diag1, t) is None
    with pytest.raises(UnknownTransition):
        recognize_with_transition(f1, diag1, Transition("9", "A", "a", "B", "2"))


def tamper(sc, i, j, t):
    """``sc`` with cell (i, j) run by ``t``."""
    runs = [list(run) for run in sc.cell_runs]
    runs[i][j] = Transition(*t)
    return Scenario(grid=sc.grid, cell_runs=tuple(map(tuple, runs)))


def test_scenario_replay_catches_tampering(f1, diag2):
    swapped = tamper(recognize(f1, diag2), 0, 0, ("2", "A", "a", "B", "2"))
    assert swapped.b_n == ("2", "1")
    assert check_scenario(f1, swapped) == [
        "cell (0,0) uses undeclared transition "
        "Transition(north='2', west='A', letter='a', east='B', south='2')",
        'b_n[0]="2" is not an initial state']


def test_scenario_replay_checks_shape_declarations_and_letters(f1, diag2):
    sc = recognize(f1, diag2)
    assert check_scenario(f1, Scenario(sc.grid, sc.cell_runs[:1])) == [
        "cell_runs shape is not 2x2"]
    assert check_scenario(replace(f1, transitions=f1.transitions[:2]), sc) == [
        "cell (1,0) uses undeclared transition "
        "Transition(north='2', west='A', letter='c', east='A', south='2')"]
    assert check_scenario(f1, Scenario(grid([["a", "c"], ["c", "a"]]), sc.cell_runs)) == [
        "cell (0,1) letter 'b' != grid 'c'"]


@pytest.mark.parametrize("i, j, t, problem", [
    (1, 0, ("1", "A", "c", "A", "2"), "cell (1,0) north '1' != incoming '2'"),
    (1, 1, ("1", "B", "a", "B", "2"), "cell (1,1) west 'B' != incoming 'A'"),
    (0, 0, ("2", "A", "a", "B", "2"), 'b_n[0]="2" is not an initial state'),
    (1, 0, ("2", "B", "c", "A", "2"), 'b_w[1]="B" is not an initial class'),
    (1, 1, ("1", "A", "a", "B", "1"), 'b_s[1]="1" is not a final state'),
    (0, 1, ("1", "B", "b", "A", "1"), 'b_e[0]="A" is not a final class'),
])
def test_scenario_replay_names_each_broken_rule(f1, diag2, i, j, t, problem):
    # every transition is declared, so each tampered cell breaks one rule
    loose = replace(f1, transitions=product(f1.states, f1.classes, f1.alphabet,
                                            f1.classes, f1.states))
    assert check_scenario(loose, tamper(recognize(f1, diag2), i, j, t)) == [problem]


def test_enumerate_language_diagonals(f1, diag1, diag2, diag3):
    assert enumerate_language(f1, 3, 3) == [diag1, diag2, diag3]


def test_enumerate_language_matches_brute_force(f1):
    assert enumerate_language(f1, 3, 3) == oracles.language(f1, 3, 3)


def test_enumerate_language_respects_bounds(f1, diag1):
    assert enumerate_language(f1, 1, 3) == [diag1]
    assert enumerate_language(f1, 2, 1) == [diag1]


def test_enumerate_language_empty_without_transitions(f1):
    empty = FIS(
        alphabet=f1.alphabet, states=f1.states, classes=f1.classes,
        transitions=(), initial_states=f1.initial_states,
        initial_classes=f1.initial_classes, final_states=f1.final_states,
        final_classes=f1.final_classes,
    )
    assert enumerate_language(empty, 2, 2) == []


def test_render_scenario_layout(f1, diag3):
    text = render_scenario(recognize(f1, diag3))
    lines = text.splitlines()
    assert len(lines) == 7
    assert lines[0].split() == ["1", "1", "1"]
    assert lines[1].split() == ["A", "a", "B", "b", "B", "b", "B"]
    assert lines[2].split() == ["2", "1", "1"]
    assert lines[6].split() == ["2", "2", "2"]


def test_render_scenario_pads_each_column_to_its_widest_name():
    p = PcpInstance(x=("ab", "b"), y=("a", "bb"))
    sc = recognize(compile_pcp(p), witness_from_solution(p, (1, 2)))
    assert render_scenario(sc) == (
        "  s               s               s\n"
        "A a      B(1,1)   b      A        b      A\n"
        "  a(1,1)          a(1,2)          a(2,1)\n"
        "A a      A        b      C(2,1)   b      A\n"
        "  c(1,1)          c(1,2)          c(2,2)\n"
        "A $      M(1,1,0) $      M(1,0,0) $      M(1,0,0)\n"
        "  c(0,0)          c(0,2)          c(2,2)\n"
        "A $      A        $      M(2,1,1) $      M(2,0,0)\n"
        "  c(0,0)          c(0,0)          c(0,0)\n")


def test_exactly_one_scenario_for_deterministic_systems(f1):
    # one initial state, one initial class, at most one transition per
    # (north, west, letter): accepted grids have exactly one scenario
    for g in oracles.all_grids(f1.alphabet, 2, 2):
        n = len(oracles.all_scenarios(f1, g))
        assert n <= 1
        assert (n == 1) == (recognize(f1, g) is not None)


def test_text_format_round_trip(f1):
    assert parse_fis(format_fis(f1)) == f1


def test_text_format_parses_comments_and_blanks(f1):
    # every key format and .pcp take blank and "#" lines anywhere
    for value, write, read in ((f1, format_fis, parse_fis),
                               (fis_to_tiles(f1), format_tiles, parse_tiles),
                               (PcpInstance(x=("ab", "b"), y=("a", "bb")), format_pcp, parse_pcp)):
        lines = write(value).splitlines()
        text = "# diagonal recognizer\n\n" + "\n\n  # between lines\n".join(lines) + "\n#"
        assert read(text) == value


def test_text_format_errors():
    # a line is named by its number in the file, comments and blank lines counted
    for bad in ("alphabets: a", "trans: 1 A a B", "just some words"):
        with pytest.raises(FormatError, match="^line 3: "):
            parse_fis(f"# a system\n\n{bad}\nalphabet: a\n")


def test_text_format_allows_empty_sections(f1):
    empty_finals = format_fis(f1).replace("final_states: 2", "final_states:")
    parsed = parse_fis(empty_finals)
    assert parsed.final_states == ()


def test_engine_matches_oracle_on_random_systems():
    rng = random.Random(20260814)
    for _ in range(25):
        f = random_fis(rng)
        assert enumerate_language(f, 2, 2) == oracles.language(f, 2, 2)


def test_recognition_matches_oracle_on_random_systems():
    rng = random.Random(4127)
    for _ in range(15):
        f = random_fis(rng)
        for g in oracles.all_grids(f.alphabet, 2, 2):
            sc = recognize(f, g)
            assert (sc is not None) == oracles.accepts(f, g)
            if sc is not None:
                assert check_scenario(f, sc) == []


def test_everything_is_deterministic(f1, diag3):
    assert recognize(f1, diag3) == recognize(f1, diag3)
    assert enumerate_language(f1, 3, 3) == enumerate_language(f1, 3, 3)
    assert render_scenario(recognize(f1, diag3)) == render_scenario(recognize(f1, diag3))


def test_iter_accepted_depth_is_not_limited_by_recursion():
    # one walk level per cell: 1x1100 is deeper than the default
    # recursion limit
    got = list(iter_accepted(make_trivial(), 1, 1100))
    assert len(got) == 1100
    assert got[-1] == grid([["a"] * 1100])
