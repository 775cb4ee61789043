"""Rectangular grids of letters and the operations used everywhere else.

A grid is a non-empty rectangular array of letters.  A letter
(:func:`is_letter`) is any token (:func:`is_token`) except the reserved
border symbol ``#``, which only ever appears in the frame around a grid
that the tiles of :mod:`fiskit.tiles` show.

Canonical grid order lives here too: :func:`sizes` lists the sizes in
the order in which every language, of a system or of a tile system, is
enumerated.  So do the rules of the text formats: tokens, comment
lines and ``key: tokens`` documents (:func:`read_keys`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import FormatError

BORDER = "#"

Cells = tuple[tuple[str, ...], ...]


def is_token(tok: object) -> bool:
    """Whether ``tok`` is a token of the text formats: a non-empty string
    that whitespace does not split (``str.split`` and ``str.isspace``
    agree on every code point)."""
    return isinstance(tok, str) and tok.split() == [tok]


def is_letter(token: object) -> bool:
    """Whether ``token`` is a letter: a token other than ``#``."""
    return is_token(token) and token != BORDER


def check_letter(token: str) -> str:
    """Return ``token`` if it is a letter, else raise ``ValueError``."""
    if not is_letter(token):
        raise ValueError(f"letter {token!r} is the reserved border symbol" if token == BORDER
                         else f"letter {token!r} is not a non-empty string without whitespace")
    return token


@dataclass(frozen=True)
class Grid:
    """An m x q array of letters, m >= 1 and q >= 1, stored row-major;
    any other ``cells`` raise ``ValueError``."""

    cells: Cells

    def __post_init__(self) -> None:
        if not self.cells or not self.cells[0]:
            raise ValueError("grids must have at least one row and one column")
        width = len(self.cells[0])
        if any(len(row) != width for row in self.cells):
            raise ValueError("grid rows must all have the same length")
        try:
            cells = dict.fromkeys(chain.from_iterable(self.cells))  # each letter once
        except TypeError:  # an unhashable cell, which check_letter refuses
            cells = chain.from_iterable(self.cells)
        for cell in cells:
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


def unchecked_grid(rows: Iterable[Sequence[str]]) -> Grid:
    """:func:`grid` without its checks, for the rows a search builds:
    non-empty, rectangular and drawn from a system's alphabet, whose
    letters its constructor checked."""
    g = object.__new__(Grid)
    object.__setattr__(g, "cells", tuple(tuple(row) for row in rows))
    return g


def sizes(max_rows: int, max_cols: int) -> list[tuple[int, int]]:
    """Grid sizes within the bounds in canonical order: area, then rows.

    Every bounded search starts here, so this is where a bound below 1
    is refused: no size fits it, and an empty search is no verdict."""
    if max_rows < 1 or max_cols < 1:
        raise ValueError("bounds must be at least 1x1")
    return sorted(((m, q) for m in range(1, max_rows + 1) for q in range(1, max_cols + 1)),
                  key=lambda mq: (mq[0] * mq[1], mq[0]))


def v_compose(top: Grid, bottom: Grid) -> Grid:
    """Stack two grids vertically; they must agree on column count, else
    ``ValueError``."""
    if top.cols != bottom.cols:
        raise ValueError(f"{top.cols} columns vs {bottom.cols}")
    return Grid(top.cells + bottom.cells)


def h_compose(left: Grid, right: Grid) -> Grid:
    """Join two grids side by side; they must agree on row count, else
    ``ValueError``."""
    if left.rows != right.rows:
        raise ValueError(f"{left.rows} rows vs {right.rows}")
    return Grid(tuple(a + b for a, b in zip(left.cells, right.cells)))


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
    except ValueError as exc:
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
