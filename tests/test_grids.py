"""Grid construction, composition, borders, windows and text format."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from fiskit.errors import (
    ColumnMismatch,
    FormatError,
    InvalidGrid,
    InvalidLetter,
    RowMismatch,
    WindowTooLarge,
    ZeroIteration,
)
from fiskit.grids import (
    BORDER,
    border,
    check_letter,
    format_grid,
    grid,
    h_compose,
    h_iterate,
    parse_grid,
    subgrids,
    v_compose,
    v_iterate,
)

letters = st.sampled_from(["a", "b"])
small_grids = st.integers(1, 3).flatmap(
    lambda q: st.lists(
        st.lists(letters, min_size=q, max_size=q), min_size=1, max_size=3
    )
).map(grid)


def test_construction_and_shape():
    g = grid([["a", "b"], ["c", "a"]])
    assert (g.rows, g.cols) == (2, 2)
    assert g.cells[1][0] == "c"
    assert g.letters == {"a", "b", "c"}
    assert g.row_text(0) == "ab"


def test_empty_grids_are_rejected():
    with pytest.raises(InvalidGrid):
        grid([])
    with pytest.raises(InvalidGrid):
        grid([[]])


def test_ragged_rows_are_rejected():
    with pytest.raises(InvalidGrid):
        grid([["a", "b"], ["a"]])


def test_bad_letters_are_rejected():
    with pytest.raises(InvalidLetter):
        grid([["#"]])
    with pytest.raises(InvalidLetter):
        grid([["a b"]])
    with pytest.raises(InvalidLetter):
        grid([[""]])


def test_letter_check_rejects_exactly_the_whitespace_code_points():
    for c in map(chr, range(0x110000)):
        token = "x" + c + "y"
        if c.isspace():
            with pytest.raises(InvalidLetter):
                check_letter(token)
        else:
            assert check_letter(token) == token


def test_v_compose_stacks_rows():
    top = grid([["a", "b"]])
    bottom = grid([["c", "a"], ["c", "c"]])
    assert v_compose(top, bottom).cells == (("a", "b"), ("c", "a"), ("c", "c"))


def test_h_compose_joins_columns():
    left = grid([["a"], ["c"]])
    right = grid([["b", "b"], ["a", "b"]])
    assert h_compose(left, right).cells == (("a", "b", "b"), ("c", "a", "b"))


def test_compose_mismatches():
    with pytest.raises(ColumnMismatch):
        v_compose(grid([["a"]]), grid([["a", "b"]]))
    with pytest.raises(RowMismatch):
        h_compose(grid([["a"]]), grid([["a"], ["b"]]))


def test_iterates():
    g = grid([["a", "b"]])
    assert v_iterate(g, 3).cells == (("a", "b"),) * 3
    assert h_iterate(g, 2).cells == (("a", "b", "a", "b"),)
    assert v_iterate(g, 1) == g
    with pytest.raises(ZeroIteration):
        v_iterate(g, 0)
    with pytest.raises(ZeroIteration):
        h_iterate(g, -1)


def test_border_frames_with_reserved_symbol():
    bg = border(grid([["a"]]))
    assert bg.cells == (
        ("#", "#", "#"),
        ("#", "a", "#"),
        ("#", "#", "#"),
    )
    assert (bg.rows, bg.cols) == (3, 3)


def test_subgrids_of_smallest_bordered_grid():
    bg = border(grid([["a"]]))
    windows = subgrids(bg, 2, 2)
    assert len(windows) == 4
    assert set(windows) == {
        (("#", "#"), ("#", "a")),
        (("#", "#"), ("a", "#")),
        (("#", "a"), ("#", "#")),
        (("a", "#"), ("#", "#")),
    }


def test_subgrids_window_count():
    bg = border(grid([["a", "b", "b"], ["c", "a", "b"]]))  # bordered 4x5
    assert len(subgrids(bg, 2, 2)) == 3 * 4


def test_subgrids_too_large():
    bg = border(grid([["a"]]))
    with pytest.raises(WindowTooLarge):
        subgrids(bg, 4, 2)
    with pytest.raises(WindowTooLarge):
        subgrids(bg, 2, 0)


same_width_triples = st.integers(1, 3).flatmap(
    lambda q: st.tuples(*[
        st.lists(st.lists(letters, min_size=q, max_size=q),
                 min_size=1, max_size=2).map(grid)
        for _ in range(3)
    ])
)


@given(same_width_triples)
def test_v_compose_associative(gs):
    a, b, c = gs
    assert v_compose(v_compose(a, b), c) == v_compose(a, v_compose(b, c))


@given(small_grids, st.integers(1, 3))
def test_iterate_sizes(g, k):
    assert v_iterate(g, k).rows == k * g.rows
    assert h_iterate(g, k).cols == k * g.cols


@given(small_grids, st.integers(2, 3))
def test_iterate_unfolds(g, k):
    assert v_iterate(g, k) == v_compose(g, v_iterate(g, k - 1))
    assert h_iterate(g, k) == h_compose(g, h_iterate(g, k - 1))


@given(small_grids, st.integers(1, 2), st.integers(1, 2))
def test_subgrids_multiset_size(g, r, s):
    bg = border(g)
    assert len(subgrids(bg, r, s)) == (bg.rows - r + 1) * (bg.cols - s + 1)


@given(small_grids)
def test_border_only_frame_is_reserved(g):
    bg = border(g)
    for i, row in enumerate(bg.cells):
        for j, cell in enumerate(row):
            on_frame = i in (0, bg.rows - 1) or j in (0, bg.cols - 1)
            assert (cell == BORDER) == on_frame


def test_text_round_trip():
    g = grid([["a", "b", "b"], ["c", "a", "b"], ["c", "c", "a"]])
    assert parse_grid(format_grid(g)) == g


def test_parse_single_token_rows_split_per_character():
    assert parse_grid("ab\ncc\n") == grid([["a", "b"], ["c", "c"]])


def test_parse_stops_at_blank_line():
    assert parse_grid("a b\n\nc c\n") == grid([["a", "b"]])


def test_parse_skips_leading_blank_lines():
    assert parse_grid("\n\na b\n") == grid([["a", "b"]])


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_grid("\n\n")
    with pytest.raises(FormatError):
        parse_grid("a b\nc\n")
    with pytest.raises(FormatError):
        parse_grid("a #\n")


@given(small_grids)
def test_format_parse_round_trip(g):
    assert parse_grid(format_grid(g)) == g
