"""Grid construction, composition, borders, windows and text format."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from fiskit.errors import (
    ColumnMismatch,
    FormatError,
    InvalidGrid,
    InvalidLetter,
    RowMismatch,
)
from fiskit.grids import (
    BORDER,
    check_letter,
    format_grid,
    grid,
    h_compose,
    parse_grid,
    v_compose,
    windows,
)

letters = st.sampled_from(["a", "b"])


def grids_over(cells):
    """Grids of one to three rows and columns with letters from ``cells``."""
    return st.integers(1, 3).flatmap(
        lambda q: st.lists(
            st.lists(cells, min_size=q, max_size=q), min_size=1, max_size=3
        )
    ).map(grid)


small_grids = grids_over(letters)


def test_construction_and_shape():
    g = grid([["a", "b"], ["c", "a"]])
    assert (g.rows, g.cols) == (2, 2)
    assert g.cells[1][0] == "c"


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


def framed(g):
    """The bordered grid, read back from the corners of its windows."""
    m, q = g.rows, g.cols
    ws = windows(g)
    return tuple(
        tuple(
            ws[min(i, m) * (q + 1) + min(j, q)][i - min(i, m)][j - min(j, q)]
            for j in range(q + 2)
        )
        for i in range(m + 2)
    )


def test_border_frames_with_reserved_symbol():
    assert framed(grid([["a"]])) == (
        ("#", "#", "#"),
        ("#", "a", "#"),
        ("#", "#", "#"),
    )


def test_subgrids_of_smallest_bordered_grid():
    # the four windows of the bordered 1x1 grid, in row-major order
    assert windows(grid([["a"]])) == [
        (("#", "#"), ("#", "a")),
        (("#", "#"), ("a", "#")),
        (("#", "a"), ("#", "#")),
        (("a", "#"), ("#", "#")),
    ]


def test_subgrids_window_count():
    g = grid([["a", "b", "b"], ["c", "a", "b"]])  # bordered 4x5
    assert len(windows(g)) == 3 * 4


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


@given(small_grids)
def test_subgrids_multiset_size(g):
    assert len(windows(g)) == (g.rows + 1) * (g.cols + 1)


@given(small_grids)
def test_border_only_frame_is_reserved(g):
    # window p's cell (di, dj) is cell (p // (q+1) + di, p % (q+1) + dj) of the framed grid
    for p, window in enumerate(windows(g)):
        i, j = divmod(p, g.cols + 1)
        for di, row in enumerate(window):
            for dj, cell in enumerate(row):
                on_frame = i + di in (0, g.rows + 1) or j + dj in (0, g.cols + 1)
                assert (cell == BORDER) == on_frame
                if not on_frame:
                    assert cell == g.cells[i + di - 1][j + dj - 1]


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


@given(grids_over(st.sampled_from(["a", "b", "ab", "#a"])))
@example(grid([["ab"]]))
@example(grid([["#a"], ["b"]]))
def test_format_parse_round_trip(g):
    # a one-column row is written as one token, which reads back split
    # per character, so only one-character letters survive there
    try:
        text = format_grid(g)
    except FormatError:
        assert g.cols == 1 and any(len(a) > 1 for (a,) in g.cells)
    else:
        assert parse_grid(text) == g
