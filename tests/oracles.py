"""Independent reference implementations used to cross-check the library.

Everything here favours obviousness over speed: recognition replays
scenarios by exhaustive backtracking over per-cell choices, language
enumeration tries every grid wholesale, and tile-system recognition
enumerates whole preimage grids.  None of it shares code with the
frontier engine.
"""

from __future__ import annotations

import itertools

from fiskit.fis import FIS, Transition
from fiskit.grids import BORDER, Grid, grid


def all_scenarios(f: FIS, g: Grid) -> list[dict]:
    """Every accepting scenario of ``f`` on ``g`` by brute backtracking.

    Each scenario is ``{"cells": [[Transition]], "b_n": [...], "b_w": [...]}``.
    """
    m, q = g.rows, g.cols
    found: list[dict] = []
    cells: list[list[Transition]] = [[None] * q for _ in range(m)]
    b_n: list[str] = [None] * q
    b_w: list[str] = [None] * m

    def walk(i: int, j: int, prev_souths, cur_souths, west):
        if j == q:
            if cells[i][q - 1].east not in f.final_classes:
                return
            if i == m - 1:
                if all(s in f.final_states for s in cur_souths):
                    found.append({
                        "cells": [row[:] for row in cells],
                        "b_n": b_n[:], "b_w": b_w[:],
                    })
                return
            walk(i + 1, 0, cur_souths, [], None)
            return
        norths = f.initial_states if i == 0 else (prev_souths[j],)
        wests = f.initial_classes if j == 0 else (west,)
        for n in norths:
            if i == 0:
                b_n[j] = n
            for w in wests:
                if j == 0:
                    b_w[i] = w
                for t in f.transitions:
                    if t.north == n and t.west == w and t.letter == g.cells[i][j]:
                        cells[i][j] = t
                        walk(i, j + 1, prev_souths, cur_souths + [t.south], t.east)
        cells[i][j] = None

    walk(0, 0, None, [], None)
    return found


def accepts(f: FIS, g: Grid) -> bool:
    return bool(all_scenarios(f, g))


def reachable_rows(f: FIS, q: int, rows: int, using: Transition | None = None) -> list[set]:
    """The rows of south states after each of ``rows`` rows of width
    ``q``, over any letters, by walking every row run: the north border
    initial, each row's west class initial and east class final, the
    south border free.  Entry ``r - 1`` holds ``(fired, souths)`` for
    the runs over ``r`` rows, ``fired`` whether ``using`` fired."""
    states, classes = set(f.states), set(f.classes)
    moves = [t for t in f.transitions if t.letter in f.alphabet
             and t.north in states and t.south in states
             and t.west in classes and t.east in classes]
    out: list[set] = []
    layer = {(False, None)}  # None: the north border, not drawn yet
    for _ in range(rows):
        nxt: set = set()

        def walk(j: int, fired: bool, above, west, souths: list) -> None:
            if j == q:
                if west in f.final_classes:
                    nxt.add((fired, tuple(souths)))
                return
            norths = f.initial_states if above is None else (above[j],)
            wests = f.initial_classes if j == 0 else (west,)
            for t in moves:
                if t.north in norths and t.west in wests:
                    walk(j + 1, fired or t == using, above, t.east, souths + [t.south])

        for fired, above in layer:
            walk(0, fired, above, None, [])
        out.append(nxt)
        layer = nxt
    return out


def sizes(max_rows: int, max_cols: int) -> list[tuple[int, int]]:
    """Grid shapes within bounds in canonical order: area, then rows."""
    out = [(m, q)
           for m in range(1, max_rows + 1)
           for q in range(1, max_cols + 1)]
    out.sort(key=lambda mq: (mq[0] * mq[1], mq[0]))
    return out


def all_grids(alphabet, m: int, q: int):
    """Every m x q grid over the alphabet, row-major lexicographic."""
    for flat in itertools.product(alphabet, repeat=m * q):
        yield grid(flat[r * q:(r + 1) * q] for r in range(m))


def language(f: FIS, max_rows: int, max_cols: int) -> list[Grid]:
    """Accepted grids within bounds by testing every grid wholesale."""
    out = []
    for m, q in sizes(max_rows, max_cols):
        for g in all_grids(f.alphabet, m, q):
            if accepts(f, g):
                out.append(g)
    return out


def bordered_windows(g: Grid) -> list[tuple]:
    """All 2x2 windows of ``g`` framed by the border symbol."""
    m, q = g.rows, g.cols
    full = [[BORDER] * (q + 2)]
    for row in g.cells:
        full.append([BORDER, *row, BORDER])
    full.append([BORDER] * (q + 2))
    out = []
    for i in range(m + 1):
        for j in range(q + 1):
            out.append((tuple(full[i][j:j + 2]), tuple(full[i + 1][j:j + 2])))
    return out


def local_accepts(delta, g: Grid) -> bool:
    """Local-language membership: every framed 2x2 window is in delta."""
    return all(w in delta for w in bordered_windows(g))


def shortest_solution(x, y, max_k: int):
    """First solution by trying every index sequence, shortest and
    lexicographically least first."""
    n = len(x)
    for k in range(1, max_k + 1):
        for seq in itertools.product(range(1, n + 1), repeat=k):
            xcat = "".join(x[i - 1] for i in seq)
            ycat = "".join(y[i - 1] for i in seq)
            if xcat == ycat:
                return seq
    return None


def ts_accepts_by_preimages(source_alphabet, mapping, delta, g: Grid) -> bool:
    """Tile-system membership by enumerating whole preimage grids."""
    m, q = g.rows, g.cols
    pre = {a: [b for b in source_alphabet if mapping[b] == a] for a in set(mapping.values())}
    options = []
    for row in g.cells:
        for a in row:
            if a not in pre or not pre[a]:
                return False
            options.append(pre[a])
    for flat in itertools.product(*options):
        cand = grid(flat[r * q:(r + 1) * q] for r in range(m))
        if local_accepts(delta, cand):
            return True
    return False
