"""Rectangular grids of letters and the operations used everywhere else.

A grid is a non-empty rectangular array of letters.  A letter is any
token (:func:`is_token`) except the reserved border symbol ``#`` which
only ever appears in the frame added by :func:`border`.

Canonical grid order lives here too: :func:`sizes` lists the sizes in
the order in which every language, of a system or of a tile system, is
enumerated.  So do the rules of the text formats: tokens, comment
lines and ``key: tokens`` documents (:func:`read_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import (
    ColumnMismatch,
    FormatError,
    InvalidGrid,
    InvalidLetter,
    RowMismatch,
    WindowTooLarge,
    ZeroIteration,
)

BORDER = "#"

Cells = tuple[tuple[str, ...], ...]


def is_token(tok: object) -> bool:
    """Whether ``tok`` is a token of the text formats: a non-empty string
    that whitespace does not split (``str.split`` and ``str.isspace``
    agree on every code point)."""
    return isinstance(tok, str) and tok.split() == [tok]


def check_tokens(tokens: Iterable[str]) -> None:
    """Raise :class:`FormatError` unless each of ``tokens`` is a token,
    testing each distinct one once: a writer's check that its reader
    will give back every token it writes."""
    if bad := [tok for tok in set(tokens) if not is_token(tok)]:
        raise FormatError(f"tokens {sorted(map(repr, bad))} cannot be serialized")


def check_letter(token: str) -> str:
    """Return ``token`` if it is a valid letter, raise otherwise."""
    if not is_token(token):
        raise InvalidLetter(f"letter {token!r} is not a non-empty string without whitespace")
    if token == BORDER:
        raise InvalidLetter(f"letter {token!r} is the reserved border symbol")
    return token


@dataclass(frozen=True)
class Grid:
    """An m x q array of letters, m >= 1 and q >= 1, stored row-major."""

    cells: Cells

    def __post_init__(self) -> None:
        if not self.cells or not self.cells[0]:
            raise InvalidGrid("grids must have at least one row and one column")
        width = len(self.cells[0])
        if any(len(row) != width for row in self.cells):
            raise InvalidGrid("grid rows must all have the same length")
        for cell in dict.fromkeys(chain.from_iterable(self.cells)):  # each letter once
            check_letter(cell)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def letters(self) -> frozenset[str]:
        """The set of letters that occur in the grid."""
        return frozenset(c for row in self.cells for c in row)

    def row_text(self, i: int) -> str:
        """Row i (0-based) as the concatenation of its letters."""
        return "".join(self.cells[i])

    def __str__(self) -> str:
        return format_grid(self)


def grid(rows: Iterable[Sequence[str]]) -> Grid:
    """Build a :class:`Grid` from any nested sequence of letters."""
    return Grid(tuple(tuple(row) for row in rows))


def grid_over(alphabet: Sequence[str]) -> Callable[[Iterable[Sequence[str]]], Grid]:
    """:func:`grid` for non-empty rectangular rows of letters drawn from
    ``alphabet``, such as a search builds.

    The alphabet is checked once, here.  When every letter passes, the
    constructor returned skips the per-cell check; otherwise it is
    :func:`grid`, which raises on the first grid showing a bad letter.
    """
    try:
        for a in alphabet:
            check_letter(a)
    except InvalidLetter:
        return grid
    return _prechecked_grid


def _prechecked_grid(rows: Iterable[Sequence[str]]) -> Grid:
    g = object.__new__(Grid)
    object.__setattr__(g, "cells", tuple(tuple(row) for row in rows))
    return g


def sizes(max_rows: int, max_cols: int) -> list[tuple[int, int]]:
    """Grid sizes within the bounds in canonical order: area, then rows."""
    return sorted(((m, q) for m in range(1, max_rows + 1) for q in range(1, max_cols + 1)),
                  key=lambda mq: (mq[0] * mq[1], mq[0]))


def v_compose(top: Grid, bottom: Grid) -> Grid:
    """Stack two grids vertically; they must agree on column count."""
    if top.cols != bottom.cols:
        raise ColumnMismatch(f"{top.cols} columns vs {bottom.cols}")
    return Grid(top.cells + bottom.cells)


def h_compose(left: Grid, right: Grid) -> Grid:
    """Join two grids side by side; they must agree on row count."""
    if left.rows != right.rows:
        raise RowMismatch(f"{left.rows} rows vs {right.rows}")
    return Grid(tuple(a + b for a, b in zip(left.cells, right.cells)))


def v_iterate(g: Grid, k: int) -> Grid:
    """``g`` stacked on itself ``k`` times, k >= 1."""
    if k < 1:
        raise ZeroIteration("iteration count must be at least 1")
    return Grid(g.cells * k)


def h_iterate(g: Grid, k: int) -> Grid:
    """``g`` joined to itself side by side ``k`` times, k >= 1."""
    if k < 1:
        raise ZeroIteration("iteration count must be at least 1")
    return Grid(tuple(row * k for row in g.cells))


@dataclass(frozen=True)
class BorderedGrid:
    """A grid wrapped in a one-cell frame of the border symbol.

    ``cells`` holds the full (m+2) x (q+2) array including the frame.
    """

    inner: Grid
    cells: Cells

    def __post_init__(self) -> None:
        m, q = self.inner.rows, self.inner.cols
        if len(self.cells) != m + 2 or any(len(r) != q + 2 for r in self.cells):
            raise InvalidGrid("bordered cells must be (rows+2) x (cols+2)")
        for i, row in enumerate(self.cells):
            for j, cell in enumerate(row):
                on_frame = i in (0, m + 1) or j in (0, q + 1)
                want = BORDER if on_frame else self.inner.cells[i - 1][j - 1]
                if cell != want:
                    raise InvalidGrid(f"bordered cell ({i},{j}) should be {want!r}")

    @property
    def rows(self) -> int:
        return self.inner.rows + 2

    @property
    def cols(self) -> int:
        return self.inner.cols + 2


def border(g: Grid) -> BorderedGrid:
    """Frame ``g`` with the border symbol on all four sides."""
    q = g.cols
    frame_row = (BORDER,) * (q + 2)
    cells = (frame_row,)
    for row in g.cells:
        cells += ((BORDER,) + row + (BORDER,),)
    cells += (frame_row,)
    return BorderedGrid(g, cells)


Window = Cells


def subgrids(bg: BorderedGrid, r: int, s: int) -> list[Window]:
    """All contiguous r x s windows of ``bg`` in row-major order.

    The result is the full multiset; deduplicate with ``set`` for
    membership tests.  Windows may contain the border symbol, so they
    are plain cell arrays rather than :class:`Grid` values.
    """
    if r < 1 or s < 1:
        raise WindowTooLarge("window sides must be at least 1")
    if r > bg.rows or s > bg.cols:
        raise WindowTooLarge(
            f"window {r}x{s} does not fit in {bg.rows}x{bg.cols}"
        )
    out: list[Window] = []
    for i in range(bg.rows - r + 1):
        for j in range(bg.cols - s + 1):
            out.append(tuple(row[j : j + s] for row in bg.cells[i : i + r]))
    return out


def content_lines(text: str) -> list[tuple[int, str]]:
    """The lines of a document that carry content, stripped and numbered
    from 1; blank lines and lines starting with ``#`` are comments."""
    return [(n, line) for n, raw in enumerate(text.splitlines(), 1)
            if (line := raw.strip()) and not line.startswith("#")]


def read_keys(text: str, counts: dict[str, int | None]) -> dict[str, list]:
    """Read a document of ``key: tokens`` lines into lists by key.

    ``counts`` holds every key the document may use.  The tokens of all
    lines of a key whose count is ``None`` join one list; any other key
    gives a list of exactly that many tokens per line.  A line without
    ``:``, with an unknown key or with the wrong number of tokens is a
    :class:`FormatError` naming its number.
    """
    doc: dict[str, list] = {key: [] for key in counts}
    for n, line in content_lines(text):
        key, sep, rest = line.partition(":")
        key, tokens = key.strip(), rest.split()
        if not sep or key not in counts:
            raise FormatError(f"line {n}: expected 'key: ...' with a key in {list(counts)}")
        count = counts[key]
        if count is None:
            doc[key].extend(tokens)
        elif len(tokens) == count:
            doc[key].append(tokens)
        else:
            raise FormatError(f"line {n}: {key} needs {count} tokens")
    return doc


def parse_grid(text: str) -> Grid:
    """Read one grid from text.

    One grid row per line, cells separated by single spaces.  A row
    that is a single token with no spaces is split per character.  A
    blank line terminates the grid; leading blank lines are skipped.
    """
    lines = text.splitlines()
    rows: list[tuple[str, ...]] = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            if rows:
                break
            continue
        if " " in stripped:
            rows.append(tuple(stripped.split()))
        else:
            rows.append(tuple(stripped))
    if not rows:
        raise FormatError("no grid rows found")
    try:
        return Grid(tuple(rows))
    except (InvalidGrid, InvalidLetter) as exc:
        raise FormatError(str(exc)) from exc


def format_grid(g: Grid) -> str:
    """Render a grid in the text format accepted by :func:`parse_grid`."""
    return "\n".join(" ".join(row) for row in g.cells) + "\n"
