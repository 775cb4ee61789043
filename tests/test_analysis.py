"""Bounded searches, finiteness evidence and the structural checker."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from fiskit.analysis import (
    CheckResult,
    bounded_accessibility,
    bounded_emptiness,
    finiteness_evidence,
    format_finiteness_report,
    format_structural_report,
    structural_check,
    _carry_streams,
    _stream_mismatch,
    _x_blocks,
    _y_chunks,
)
from fiskit.errors import NotReductionScenario, UnknownTransition
from fiskit.fis import (
    FIS,
    Transition,
    check_scenario,
    enumerate_language,
    first_accepted,
    iter_accepted,
    recognize,
)
from fiskit.grids import grid, v_compose
from fiskit.pcp import (
    PcpInstance,
    c_state,
    compile_pcp,
    compile_pcp_probe,
    pad_transition,
    parse_pcp,
    probe_transition,
    solve_pcp,
    witness_from_solution,
)
from fiskit.tiles import fis_to_tiles, ts_language
from generators import random_fis

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
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


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (-2, 3)])
def test_every_search_refuses_bounds_below_one(f1, rows, cols):
    # no grid size fits such a bound, so an empty search is no verdict
    lazy = iter_accepted(f1, rows, cols)  # a generator: refused at its first item
    searches = [
        lambda: first_accepted(f1, rows, cols),
        lambda: enumerate_language(f1, rows, cols),
        lambda: ts_language(fis_to_tiles(f1), rows, cols),
        lambda: bounded_emptiness(f1, rows, cols),
        lambda: bounded_accessibility(compile_pcp_probe(P_UNIT), probe_transition(), rows, cols),
        lambda: finiteness_evidence(compile_pcp(P_UNIT), rows, cols),
        lambda: next(lazy),
    ]
    for search in searches:
        with pytest.raises(ValueError, match=r"^bounds must be at least 1x1$"):
            search()


def test_emptiness_unit_instance():
    found = bounded_emptiness(compile_pcp(P_UNIT), 4, 4)
    assert found is not None
    w, sc = found
    assert w.cells == (("a",), ("a",), ("$",))
    assert check_scenario(compile_pcp(P_UNIT), sc) == []


def test_emptiness_unsolvable_instance():
    assert bounded_emptiness(compile_pcp(P_NEG), 6, 8) is None


def test_emptiness_plain_recognizer(f1, diag1):
    w, sc = bounded_emptiness(f1, 1, 1)
    assert w == diag1
    assert check_scenario(f1, sc) == []


def test_emptiness_agrees_with_solver():
    for p, sol in SOLVABLE:
        assert solve_pcp(p, 4) == sol
        w = witness_from_solution(p, sol)
        found = bounded_emptiness(compile_pcp(p), w.rows, w.cols)
        assert found is not None and found[0] == w
        assert bounded_emptiness(compile_pcp(p), w.rows - 1, w.cols) is None
        if w.cols > 1:
            assert bounded_emptiness(compile_pcp(p), w.rows, w.cols - 1) is None
    for p in UNSOLVABLE:
        assert solve_pcp(p, 4) is None
        assert bounded_emptiness(compile_pcp(p), 5, 6) is None


def test_emptiness_stable_under_larger_bounds():
    for p, _ in SOLVABLE:
        small = bounded_emptiness(compile_pcp(p), 4, 3)
        large = bounded_emptiness(compile_pcp(p), 7, 8)
        assert small is not None and small[0] == large[0]


def test_accessibility_probe_positive():
    found = bounded_accessibility(compile_pcp_probe(P_UNIT), probe_transition(), 5, 3)
    assert found is not None
    w, sc = found
    assert w.cells == (("a", "$"), ("a", "$"), ("$", "$"), ("$", "$"))
    assert probe_transition() in {t for row in sc.cell_runs for t in row}


def test_accessibility_probe_negative():
    assert bounded_accessibility(compile_pcp_probe(P_NEG), probe_transition(), 6, 9) is None


def test_accessibility_plain_recognizer(f1, diag1):
    t = Transition("1", "A", "a", "B", "2")
    found = bounded_accessibility(f1, t, 1, 1)
    assert found is not None and found[0] == diag1


def test_accessibility_requires_declared_transition(f1):
    with pytest.raises(UnknownTransition):
        bounded_accessibility(f1, Transition("9", "A", "a", "B", "2"), 1, 1)


def test_accessibility_mirrors_emptiness_one_row_and_column_up():
    probe = probe_transition()
    for p, _ in SOLVABLE:
        for rows, cols in [(3, 2), (4, 3), (5, 4), (6, 5)]:
            acc = bounded_accessibility(compile_pcp_probe(p), probe, rows, cols)
            emp = bounded_emptiness(compile_pcp(p), rows - 1, cols - 1)
            assert (acc is None) == (emp is None)
    for p in UNSOLVABLE:
        assert bounded_accessibility(compile_pcp_probe(p), probe, 5, 6) is None


def test_finiteness_witness_and_pump():
    rep = finiteness_evidence(compile_pcp(P_UNIT), 5, 4)
    assert not rep.empty_within_bounds
    assert (rep.witness.rows, rep.witness.cols) == (3, 1)
    assert rep.pumps is True
    text = format_finiteness_report(rep)
    assert "witness: 3x1" in text and "pumps: yes" in text


def test_finiteness_empty_within_bounds():
    rep = finiteness_evidence(compile_pcp(P_NEG), 6, 8)
    assert rep.empty_within_bounds
    assert rep.witness is None and rep.pumps is None
    assert "witness: none" in format_finiteness_report(rep)


def test_finiteness_reports_on_foreign_systems(f1):
    # the loop check is exact on any system, so none is refused: the
    # diagonal system's width 1 holds the 1x1 grid only, and the probe
    # system pumps as the system it extends does
    rep = finiteness_evidence(f1, 2, 2)
    assert ((rep.witness.rows, rep.witness.cols), rep.pumps) == ((1, 1), False)
    assert format_finiteness_report(rep).splitlines()[2:] == [
        "pumps: no", "verdict: nonempty; the witness's width has finitely many heights"]
    rep = finiteness_evidence(compile_pcp_probe(P_UNIT), 5, 5)
    assert ((rep.witness.rows, rep.witness.cols), rep.pumps) == ((4, 2), True)


def test_finiteness_reports_where_the_padding_law_fails():
    # no pad transition, A not initial or not final: each gets a report
    pad = pad_transition()
    no_pad = FIS(alphabet=("x",), states=("s", pad.north), classes=("A",),
                 transitions=(Transition("s", "A", "x", "A", pad.north),),
                 initial_states=("s",), initial_classes=("A",),
                 final_states=(pad.north,), final_classes=("A",))
    rep = finiteness_evidence(no_pad, 3, 3)
    assert ((rep.witness.rows, rep.witness.cols), rep.pumps) == ((1, 1), False)
    f = compile_pcp(P_UNIT)
    for g in (replace(f, initial_classes=f.classes[1:2]),
              replace(f, final_classes=f.final_classes[1:])):
        rep = finiteness_evidence(g, 3, 3)
        assert (rep.witness, rep.pumps) == (None, None)


def test_finiteness_holds_beyond_the_compiled_final_classes():
    # an extra final class changes no verdict
    f = compile_pcp(P_UNIT)
    rep = finiteness_evidence(replace(f, classes=f.classes + ("Z",),
                                      final_classes=f.final_classes + ("Z",)),
                              5, 4)
    assert rep == finiteness_evidence(f, 5, 4)
    assert rep.pumps


def test_padding_law_extends_every_witness_by_two_rows():
    # where the padding law holds, a row of pad cells maps the row of
    # pad.north states to itself, so the witness's width pumps
    pad = pad_transition()
    rng = random.Random(20261019)
    witnesses = 0
    for _ in range(150):
        f = random_fis(rng)
        emit = [t._replace(south=pad.north) for t in f.transitions if rng.random() < 0.5]
        g = FIS(alphabet=f.alphabet + (pad.letter,), states=f.states + (pad.north,),
                classes=f.classes,
                transitions=tuple(dict.fromkeys([*f.transitions, *emit, pad])),
                initial_states=f.initial_states,
                initial_classes=tuple(dict.fromkeys(f.initial_classes + (pad.west,))),
                final_states=(pad.north,),
                final_classes=tuple(dict.fromkeys(f.final_classes + (pad.east,))))
        rep = finiteness_evidence(g, 3, 3)
        if rep.witness is not None:
            witnesses += 1
            pad_rows = grid([[pad.letter] * rep.witness.cols] * 2)
            assert rep.pumps
            assert recognize(g, v_compose(rep.witness, pad_rows)) is not None
    assert witnesses >= 10


def test_finiteness_pumps_on_compiled_demo_instances():
    for name in ("unit.pcp", "two_words.pcp"):
        p = parse_pcp((DATA / name).read_text())
        rep = finiteness_evidence(compile_pcp(p), 6, 8)
        assert rep.witness is not None and rep.pumps


def test_structural_unit_witness():
    _, sc = bounded_emptiness(compile_pcp(P_UNIT), 4, 4)
    rep = structural_check(P_UNIT, sc)
    assert rep.ok
    assert rep.x_indices == (1,) and rep.y_indices == (1,)
    assert sc.b_e == ("A", "A", "M(1,0,0)")
    text = format_structural_report(rep)
    assert "overall: pass" in text and "x-indices: 1" in text


def test_structural_two_word_witness():
    w = witness_from_solution(P_TWO, (1, 2))
    sc = recognize(compile_pcp(P_TWO), w)
    rep = structural_check(P_TWO, sc)
    assert rep.ok
    assert rep.x_indices == (1, 2) and rep.y_indices == (1, 2)
    souths = tuple(t.south for t in sc.cell_runs[1])
    assert souths == ("c(1,1)", "c(1,2)", "c(2,2)")
    # the two index streams of the second row's southern border
    assert tuple(int(s[2]) for s in souths) == (1, 1, 2)
    assert tuple(int(s[4]) for s in souths) == (1, 2, 2)


def test_structural_passes_on_every_bounded_witness():
    for p, _ in SOLVABLE:
        f = compile_pcp(p)
        seen = 0
        for w in iter_accepted(f, 5, 4):
            rep = structural_check(p, recognize(f, w))
            assert rep.ok, (p.x, p.y, w.cells, format_structural_report(rep))
            seen += 1
        assert seen >= 2  # the witness and at least one padded variant


def test_structural_rejects_foreign_scenarios(f1, diag1):
    sc = recognize(f1, diag1)
    with pytest.raises(NotReductionScenario):
        structural_check(P_UNIT, sc)


def test_word_factorization_failure_positions():
    xs, err = _x_blocks(P_TWO, ("a(1,1)", "a(1,2)", "a(2,2)"), ("a", "b", "b"))
    assert xs is None and "column 3" in err
    xs, err = _x_blocks(P_TWO, ("a(1,1)",), ("a",))
    assert xs is None and "truncated" in err
    ys, err = _y_chunks(P_TWO, (2, 2, 1), ("b", "b", "b"))
    assert ys is None and "column 3" in err and "letters" in err
    ys, err = _y_chunks(P_TWO, (2,), ("b",))
    assert ys is None and "truncated" in err


def test_carry_stream_failure_texts():
    pair_of = {c_state(i, j): (i, j) for i in range(3) for j in range(3)}

    def carry(souths, xs, ys):
        # rows 2 to m as structural_check passes them
        pairs = [[pair_of.get(s) for s in row] for row in souths]
        first = _stream_mismatch(P_TWO, pairs[0], xs, ys, 0)
        return _carry_streams(P_TWO, souths, pairs, xs, ys, first)

    sc = recognize(compile_pcp(P_TWO), witness_from_solution(P_TWO, (1, 2)))
    souths = [[t.south for t in run] for run in sc.cell_runs[1:]]
    assert souths[1] == ["c(0,0)", "c(0,2)", "c(2,2)"]
    assert carry(souths, [2, 1], [2, 1]) == CheckResult(
        False, "row 2: first stream [1, 1, 2] differs from [2, 1, 1]")
    assert carry(souths, [1, 2], [1, 2]) == CheckResult(True, "k=2")
    assert carry(souths, [1, 2], [2, 1]) == CheckResult(
        False, "x words [1, 2] differ from y words [2, 1]")
    assert carry(souths[:2], [1, 2], [1, 2]) == CheckResult(
        False, "3 rows cannot host 2 reduction rows")
    # below row 2: a state that is no pair state, and a second stream
    # with one letter more reduced than the first step consumed
    assert carry([souths[0], souths[1], ["c(0,0)", "a(1,1)", "c(0,0)"]], [1, 2], [1, 2]) \
        == CheckResult(False, "row 4 column 2: 'a(1,1)' is not a pair state")
    assert carry([souths[0], ["c(0,0)", "c(0,0)", "c(2,2)"], souths[2]], [1, 2], [1, 2]) \
        == CheckResult(False, "row 3: second stream [0, 0, 2] differs from [0, 2, 2]")


def test_check_result_defaults():
    assert CheckResult(True).detail == ""
