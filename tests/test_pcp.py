"""Instances, the solver, the compilers and their witness grids."""

from __future__ import annotations

import hashlib
import random
import re

import pytest

import oracles
from fiskit.errors import (
    FormatError,
    IndexOutOfRange,
    InvalidSolution,
    ReservedSymbolCollision,
)
from fiskit.fis import format_fis, recognize, recognize_with_transition, validate
from fiskit.grids import grid, h_compose, v_compose
from fiskit.pcp import (
    MARKER,
    PcpInstance,
    a_state,
    check_solution,
    compile_pcp,
    compile_pcp_probe,
    format_pcp,
    pad_transition,
    parse_pcp,
    probe_transition,
    probe_witness,
    solve_pcp,
    witness_from_solution,
)

P_UNIT = PcpInstance(x=("a",), y=("a",))
P_TWO = PcpInstance(x=("ab", "b"), y=("a", "bb"))
P_NEG = PcpInstance(x=("ab",), y=("ba",))

SOLVABLE = [
    (P_UNIT, (1,)),
    (P_TWO, (1, 2)),
    (PcpInstance(x=("a", "ba"), y=("ab", "a")), (1, 2)),
    (PcpInstance(x=("aa", "b"), y=("a", "ab")), (1, 2)),
]
UNSOLVABLE = [
    P_NEG,
    PcpInstance(x=("a",), y=("aa",)),
    PcpInstance(x=("b", "a"), y=("a", "b")),
]


def test_instance_validation():
    with pytest.raises(ValueError):
        PcpInstance(x=("a",), y=("a", "b"))
    with pytest.raises(ValueError):
        PcpInstance(x=("",), y=("a",))
    with pytest.raises(ReservedSymbolCollision):
        PcpInstance(x=("a$",), y=("a",))
    with pytest.raises(ReservedSymbolCollision):
        PcpInstance(x=("a",), y=("a",), alphabet=("a", "$"))
    with pytest.raises(ValueError, match=re.escape("alphabet is missing letters ['b']")):
        PcpInstance(x=("a",), y=("b",), alphabet=("a",))


def test_alphabet_inferred_sorted():
    assert PcpInstance(x=("ba",), y=("ab",)).alphabet == ("a", "b")


def test_check_solution():
    assert check_solution(P_TWO, (1, 2))
    assert not check_solution(P_TWO, (2, 1))
    assert not check_solution(P_TWO, ())
    with pytest.raises(IndexOutOfRange):
        check_solution(P_TWO, (0,))
    with pytest.raises(IndexOutOfRange):
        check_solution(P_TWO, (3,))


@pytest.mark.parametrize("p,expected", [
    (P_UNIT, (1,)),
    (P_TWO, (1, 2)),
    (P_NEG, None),
])
def test_solve_examples(p, expected):
    assert solve_pcp(p, 6) == expected


def test_solver_matches_brute_force():
    for p, _ in SOLVABLE:
        assert solve_pcp(p, 5) == oracles.shortest_solution(p.x, p.y, 5)
    for p in UNSOLVABLE:
        assert solve_pcp(p, 5) is None
        assert oracles.shortest_solution(p.x, p.y, 5) is None


def test_solutions_found_are_solutions():
    for p, sol in SOLVABLE:
        found = solve_pcp(p, 6)
        assert found is not None
        assert check_solution(p, found)
        assert len(found) <= len(sol)


def test_compiled_sizes():
    s = compile_pcp(P_TWO)
    assert len(s.states) == 13
    assert len(s.classes) == 15
    assert validate(s) == []


def test_compiled_names_render_by_position():
    s = compile_pcp(P_TWO)
    assert "a(1,2)" in s.states and "c(0,0)" in s.states
    assert "B(1,1)" in s.classes and "C(2,1)" in s.classes
    assert "M(1,0,0)" in s.classes
    assert s.initial_states == ("s",) and s.initial_classes == ("A",)
    assert s.final_states == ("c(0,0)",)
    assert set(s.final_classes) == {"A", "M(1,0,0)", "M(2,0,0)"}


def test_unit_instance_row_one_transitions():
    s = compile_pcp(P_UNIT)
    spell = [t for t in s.transitions if t.north == "s"]
    assert spell == [("s", "A", "a", "A", "a(1,1)")]


def test_exactly_one_pad_transition():
    assert pad_transition() == ("c(0,0)", "A", MARKER, "A", "c(0,0)")
    for p, _ in SOLVABLE:
        assert compile_pcp(p).transitions.count(pad_transition()) == 1


def test_marker_joins_the_alphabet_last():
    assert compile_pcp(P_TWO).alphabet == ("a", "b", MARKER)


def test_marker_is_read_exactly_below_the_spelling_rows():
    # the spelling rows leave s or a(i,j) states; every other compiled
    # transition reads the marker, so a marker row never spells
    for p, _ in SOLVABLE:
        transitions = compile_pcp(p).transitions
        spelled = {"s"} | {a_state(i, j) for i in range(1, p.pairs + 1)
                           for j in range(1, len(p.x[i - 1]) + 1)}
        for t in transitions:
            assert (t.letter == MARKER) != (t.north in spelled), t
        assert transitions.count(pad_transition()) == 1


def test_probe_extension_counts():
    for p, _ in SOLVABLE:
        base = compile_pcp(p)
        probe = compile_pcp_probe(p)
        assert len(probe.transitions) == len(base.transitions) + 4 + p.pairs
        assert probe.final_states == ("q",)
        assert probe.final_classes == ("T",)
        assert probe.initial_states == base.initial_states
        assert probe.initial_classes == base.initial_classes
        extra = set(probe.transitions) - set(base.transitions)
        assert all(t.letter == MARKER for t in extra)
        assert probe_transition() in extra
        assert validate(probe) == []


def random_instances(rng: random.Random, count: int) -> list[PcpInstance]:
    """Instances of 1-5 pairs, words of 1-4 letters, over alphabets of
    1-3 letters declared in a drawn order."""
    out = []
    for _ in range(count):
        alphabet = rng.sample("abc", rng.randint(1, 3))
        words = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            for _ in range(2 * rng.randint(1, 5))]
        out.append(PcpInstance(words[0::2], words[1::2], alphabet))
    return out


def test_compiled_bytes_are_pinned():
    # declaration order decides canonical scenarios, so both compilers
    # must keep writing the same systems byte for byte
    digest = hashlib.sha256()
    for p in random_instances(random.Random(17), 300):
        digest.update(format_fis(compile_pcp(p)).encode())
        digest.update(format_fis(compile_pcp_probe(p)).encode())
    assert digest.hexdigest() == (
        "e4a852245f60d8aec76fec0f19c3c622f61135b2e5e95e470094985da1ae07c6")


def test_compiled_names_are_shared():
    # each name is one string object, the one the system declares
    for p in [*random_instances(random.Random(18), 20), P_UNIT, P_TWO]:
        for f in (compile_pcp(p), compile_pcp_probe(p)):
            states = {id(s): s for s in f.states}
            classes = {id(c): c for c in f.classes}
            for t in f.transitions:
                assert id(t.north) in states and id(t.south) in states, t
                assert id(t.west) in classes and id(t.east) in classes, t
            for s in (*f.initial_states, *f.final_states):
                assert id(s) in states, s
            for c in (*f.initial_classes, *f.final_classes):
                assert id(c) in classes, c
            assert len(set(f.transitions)) == len(f.transitions)


def test_witness_shapes():
    w = witness_from_solution(P_TWO, (1, 2))
    assert w.cells == (
        ("a", "b", "b"),
        ("a", "b", "b"),
        ("$", "$", "$"),
        ("$", "$", "$"),
    )
    pw = probe_witness(P_UNIT, (1,))
    assert pw.cells == (
        ("a", "$"),
        ("a", "$"),
        ("$", "$"),
        ("$", "$"),
    )


def test_witness_rejects_non_solutions():
    with pytest.raises(InvalidSolution):
        witness_from_solution(P_TWO, (2, 1))
    with pytest.raises(InvalidSolution):
        witness_from_solution(P_TWO, ())
    with pytest.raises(IndexOutOfRange):
        witness_from_solution(P_TWO, (7,))


def test_witnesses_are_accepted():
    for p, sol in SOLVABLE:
        s = compile_pcp(p)
        assert recognize(s, witness_from_solution(p, sol)) is not None


def test_vertical_pumping_of_witnesses():
    for p, sol in SOLVABLE:
        s = compile_pcp(p)
        w = witness_from_solution(p, sol)
        pumped = v_compose(w, grid([[MARKER] * w.cols]))
        assert recognize(s, pumped) is not None


def test_doubled_solutions_need_their_own_witness():
    # appending a solution to itself is again a solution and its witness
    # is accepted, but the side-by-side doubling of the original witness
    # is not: it lacks the extra marker rows the longer solution needs
    for p, sol in SOLVABLE:
        s = compile_pcp(p)
        assert check_solution(p, sol + sol)
        assert recognize(s, witness_from_solution(p, sol + sol)) is not None
        w = witness_from_solution(p, sol)
        assert recognize(s, h_compose(w, w)) is None


def test_probe_fires_only_at_the_padded_corner():
    for p, sol in SOLVABLE:
        probe = compile_pcp_probe(p)
        pw = probe_witness(p, sol)
        sc = recognize_with_transition(probe, pw, probe_transition())
        assert sc is not None
        fired = [(i, j) for i, row in enumerate(sc.cell_runs)
                 for j, t in enumerate(row) if t == probe_transition()]
        assert fired == [(pw.rows - 1, pw.cols - 1)]


def test_probe_system_still_accepts_nothing_unsolvable():
    for p in UNSOLVABLE:
        probe = compile_pcp_probe(p)
        pw_shape_rows = 4  # smallest conceivable witness is 4x2
        assert recognize(probe, grid([["$", "$"]] * pw_shape_rows)) is None


def test_text_round_trip():
    for p, _ in SOLVABLE:
        assert parse_pcp(format_pcp(p)) == p


def test_parse_without_alphabet_line():
    assert parse_pcp("ab a\nb bb\n") == P_TWO


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_pcp("")
    with pytest.raises(FormatError):
        parse_pcp("ab\n")
    with pytest.raises(FormatError):
        parse_pcp("ab a\nalphabet: a b\n")
    with pytest.raises(FormatError):
        parse_pcp("a$ a\n")
