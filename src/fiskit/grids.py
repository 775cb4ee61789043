"""Rectangular grids of letters and the operations used everywhere else.

A grid is a non-empty rectangular array of letters.  A letter is any
token (:func:`is_token`) except the reserved border symbol ``#`` which
only ever appears in the frame that :func:`windows` reads.

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
)

BORDER = "#"

Cells = tuple[tuple[str, ...], ...]


def is_token(tok: object) -> bool:
    """Whether ``tok`` is a token of the text formats: a non-empty string
    that whitespace does not split (``str.split`` and ``str.isspace``
    agree on every code point)."""
    return isinstance(tok, str) and tok.split() == [tok]


def check_tokens(tokens: Iterable[str]) -> None:
    """Raise :class:`FormatError` unless each of ``tokens`` is a token: a
    writer's check that its reader will give back every token it writes.
    Strings joined by single spaces split back into themselves exactly
    when each is a token, so one join and one split test them all."""
    tokens = list(tokens)
    try:
        if " ".join(tokens).split() == tokens:
            return
    except TypeError:  # a token that is not a string
        pass
    bad = {repr(tok) for tok in tokens if not is_token(tok)}
    raise FormatError(f"tokens {sorted(bad)} cannot be serialized")


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


def windows(g: Grid) -> list[tuple[tuple[str, str], tuple[str, str]]]:
    """The (m+1) x (q+1) 2x2 windows of ``g`` framed with the border
    symbol on all four sides, in row-major order, each ``((nw, ne), (sw,
    se))``.  The result is the full multiset; deduplicate with ``set``
    for membership tests."""
    frame = (BORDER,) * (g.cols + 2)
    rows = [frame, *((BORDER, *row, BORDER) for row in g.cells), frame]
    return [((top[j], top[j + 1]), (bottom[j], bottom[j + 1]))
            for top, bottom in zip(rows, rows[1:]) for j in range(g.cols + 1)]


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
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line[0] == "#":
            continue  # a blank line or a comment, as in content_lines
        key, sep, rest = line.partition(":")
        key, tokens = key.strip(), rest.split()
        count = counts.get(key, ...)  # a count is an int or None, never ...
        if not sep or count is ...:
            raise FormatError(f"line {n}: expected 'key: ...' with a key in {list(counts)}")
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
    """Render a grid in the text format accepted by :func:`parse_grid`.

    A one-column grid writes each row as one token, which reads back
    split per character, so a letter longer than one character there
    raises :class:`FormatError`.
    """
    if g.cols == 1 and any(len(letter) > 1 for (letter,) in g.cells):
        raise FormatError("a one-column grid of multi-character letters cannot be serialized")
    return "\n".join(" ".join(row) for row in g.cells) + "\n"
