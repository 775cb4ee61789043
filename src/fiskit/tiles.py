"""Tile systems: local languages plus a letter-to-letter projection.

A local language over an alphabet V' is given by a set of 2x2 tiles;
a grid belongs to it when every 2x2 window of its bordered version is
a tile of the set.  A tile system adds a projection h from V' onto a
target alphabet V and recognizes the h-images of a local language.
Tile systems and finite interactive systems recognize the same grid
languages; :func:`fis_to_tiles` and :func:`tiles_to_fis` realize the
two directions of that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import FormatError, UnknownLetter
from .fis import FIS, Transition, live_transitions
from .grids import BORDER, Cells, Grid, border, check_letter, grid_over, sizes, subgrids, walk

Cells2 = tuple[tuple[str, str], tuple[str, str]]


@dataclass(frozen=True)
class Tile:
    """A 2x2 array of letters, the border symbol permitted."""

    cells: Cells2

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(tuple(r) for r in self.cells))
        if len(self.cells) != 2 or any(len(r) != 2 for r in self.cells):
            raise ValueError("tiles are 2x2")
        for row in self.cells:
            for cell in row:
                if cell != BORDER:
                    check_letter(cell)

    @property
    def nw(self) -> str:
        return self.cells[0][0]

    @property
    def ne(self) -> str:
        return self.cells[0][1]

    @property
    def sw(self) -> str:
        return self.cells[1][0]

    @property
    def se(self) -> str:
        return self.cells[1][1]

    def token(self) -> str:
        """A whitespace-free name usable as a state or class, distinct
        for distinct tiles."""
        nw, ne, sw, se = map(quote, (self.nw, self.ne, self.sw, self.se))
        return f"[{nw},{ne}/{sw},{se}]"


def quote(name: str) -> str:
    """``name`` with ``\\``, ``,`` and ``/`` escaped by a backslash, so a
    token joined from quoted names by ``,`` and ``/`` names one tuple."""
    return name.replace("\\", "\\\\").replace(",", "\\,").replace("/", "\\/")


def tile(nw: str, ne: str, sw: str, se: str) -> Tile:
    return Tile(((nw, ne), (sw, se)))


def _tile(nw: str, ne: str, sw: str, se: str) -> Tile:
    """:func:`tile` without the letter check, for letters already
    checked: a :class:`LocalLanguage` checks its alphabet and that every
    tile letter is in it or is the border symbol."""
    t = object.__new__(Tile)
    object.__setattr__(t, "cells", ((nw, ne), (sw, se)))
    return t


@dataclass(frozen=True)
class LocalLanguage:
    """An alphabet and the set of 2x2 windows its grids may show."""

    alphabet: tuple[str, ...]
    delta: tuple[Tile, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        for a in self.alphabet:  # a local letter "#" would pass for the frame
            check_letter(a)
        object.__setattr__(self, "delta", tuple(dict.fromkeys(
            t if isinstance(t, Tile) else Tile(t) for t in self.delta)))
        ok = set(self.alphabet) | {BORDER}
        for t in self.delta:
            for row in t.cells:
                for cell in row:
                    if cell not in ok:
                        raise ValueError(f"tile letter {cell!r} not in the alphabet")


def local_member(ll: LocalLanguage, w: Grid) -> bool:
    """Whether every bordered 2x2 window of ``w`` is a tile of ``ll``."""
    known = set(ll.alphabet)
    for row in w.cells:
        for cell in row:
            if cell not in known:
                raise UnknownLetter(f"letter {cell!r} is not in the alphabet")
    windows = set(subgrids(border(w), 2, 2))
    tiles = {t.cells for t in ll.delta}
    return windows <= tiles


@dataclass(frozen=True)
class TileSystem:
    """A local language over V' with a total projection h: V' -> V."""

    local: LocalLanguage
    target: tuple[str, ...]
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "mapping", tuple(tuple(p) for p in self.mapping))
        h = dict(self.mapping)
        targets = set(self.target)
        sources = set(self.local.alphabet)
        for source in self.local.alphabet:
            if source not in h:
                raise ValueError(f"projection undefined on {source!r}")
        for source, out in self.mapping:
            if source not in sources:
                raise ValueError(f"projection defined on unknown letter {source!r}")
            if out not in targets:
                raise ValueError(f"projection image {out!r} not in the target alphabet")

    @property
    def h(self) -> dict[str, str]:
        return dict(self.mapping)

    @cached_property
    def _engine(self) -> _TsEngine:
        """The system compiled once, as for ``FIS._engine``."""
        return _TsEngine(self)


# ---------------------------------------------------------------------------
# recognition: frontier search over preimage letters

class _TsEngine:
    """Sliding-window propagation over the bordered preimage grid.

    Cells of the bordered preimage are chosen in row-major order; a
    frontier keeps the last (cols + 3) chosen cells, exactly the ones
    future windows still touch.  When a cell completes a window, the
    window must be a declared tile; frontiers are deduplicated so whole
    preimage grids are never enumerated.  One engine serves every search
    on its system (``TileSystem._engine``); it keeps only the window
    table, and each search its own frontiers.
    """

    def __init__(self, ts: TileSystem):
        self.targets = frozenset(ts.target)
        self.grid = grid_over(ts.target)
        self.allowed: dict[tuple[str, str, str], set[str]] = {}
        for (nw, ne), (sw, se) in (t.cells for t in ts.local.delta):
            self.allowed.setdefault((nw, ne, sw), set()).add(se)
        self.pre: dict[str, tuple[str, ...]] = {}
        for source, out in ts.mapping:
            self.pre[out] = self.pre.get(out, ()) + (source,)
        # a choice: (target letter or None on the frame, preimage options,
        # whether the cell completes a window: not in top row or left column)
        self.letters = tuple((name, self.pre.get(name, ()), True) for name in ts.target)
        self.opens = ((None, (BORDER,), False),)
        self.closes = ((None, (BORDER,), True),)

    def iter_size(self, m: int, q: int, cells: Cells | None = None) -> Iterator[Grid]:
        """Grids of the target language, row-major lexicographic order.

        With ``cells`` (an m x q array of target letters) given, only
        that grid is tried, so it is yielded exactly when recognized.
        """
        L = q + 3
        allowed = self.allowed
        opens, closes = self.opens, self.closes
        choices = [opens] * (q + 2)
        for r in range(m):
            row = ([self.letters] * q if cells is None
                   else [((a, self.pre.get(a, ()), True),) for a in cells[r]])
            choices += [opens, *row, closes]
        choices += [opens] + [closes] * (q + 1)

        def step(_p: int, fronts, choice):
            _name, options, check = choice
            nxt = set()
            for f in fronts:
                if check:
                    ok = allowed.get((f[0], f[1], f[-1]))
                    if not ok:
                        continue
                    opts = [v for v in options if v in ok]
                else:
                    opts = options
                for v in opts:
                    nf = f + (v,)
                    if len(nf) > L:
                        nf = nf[1:]
                    nxt.add(nf)
            return nxt

        make = self.grid
        for chosen, _states in walk({()}, choices, step):
            names = [name for name, _, _ in chosen if name is not None]
            yield make(names[r * q:(r + 1) * q] for r in range(m))


def ts_recognize(ts: TileSystem, w: Grid) -> bool:
    """Whether some preimage of ``w`` lies in the local language.

    Preimage letters are chosen cell by cell inside the window
    propagation; equivalent to, but far cheaper than, enumerating the
    preimage grids wholesale.
    """
    eng = ts._engine
    for row in w.cells:
        for cell in row:
            if cell not in eng.targets:
                raise UnknownLetter(f"letter {cell!r} is not in the target alphabet")
    return next(eng.iter_size(w.rows, w.cols, w.cells), None) is not None


def ts_language(ts: TileSystem, max_rows: int, max_cols: int) -> list[Grid]:
    """All recognized grids within bounds, in canonical order
    (area, then rows, then row-major letter order)."""
    eng = ts._engine
    return [w for m, q in sizes(max_rows, max_cols) for w in eng.iter_size(m, q)]


# ---------------------------------------------------------------------------
# the two conversions

def fis_to_tiles(f: FIS) -> TileSystem:
    """A tile system recognizing the same language as ``f``.

    The local alphabet has one letter per transition; a grid of the
    local language is exactly a scenario of ``f`` written cell by cell,
    and the projection keeps the letter the transition reads.  Border
    tiles carry the initial and final conditions, interior tiles the
    state and class stitching.
    """
    ts_list = live_transitions(f)
    tokens = ["(" + ",".join(map(quote, t)) + ")" for t in ts_list]
    mapping = tuple((tok, t.letter) for tok, t in zip(tokens, ts_list))

    ini_s = set(f.initial_states)
    ini_c = set(f.initial_classes)
    fin_s = set(f.final_states)
    fin_c = set(f.final_classes)

    delta: list[Tile] = [_tile(BORDER, BORDER, BORDER, BORDER)]
    pairs = list(zip(tokens, ts_list))

    for tok, t in pairs:  # north-west corner
        if t.north in ini_s and t.west in ini_c:
            delta.append(_tile(BORDER, BORDER, BORDER, tok))
    for tok, t in pairs:  # north-east corner
        if t.north in ini_s and t.east in fin_c:
            delta.append(_tile(BORDER, BORDER, tok, BORDER))
    for tok, t in pairs:  # south-west corner
        if t.west in ini_c and t.south in fin_s:
            delta.append(_tile(BORDER, tok, BORDER, BORDER))
    for tok, t in pairs:  # south-east corner
        if t.south in fin_s and t.east in fin_c:
            delta.append(_tile(tok, BORDER, BORDER, BORDER))

    for tok1, t1 in pairs:  # north edge
        for tok2, t2 in pairs:
            if t1.north in ini_s and t2.north in ini_s and t1.east == t2.west:
                delta.append(_tile(BORDER, BORDER, tok1, tok2))
    for tok1, t1 in pairs:  # west edge
        for tok2, t2 in pairs:
            if t1.west in ini_c and t2.west in ini_c and t1.south == t2.north:
                delta.append(_tile(BORDER, tok1, BORDER, tok2))
    for tok1, t1 in pairs:  # east edge
        for tok2, t2 in pairs:
            if t1.east in fin_c and t2.east in fin_c and t1.south == t2.north:
                delta.append(_tile(tok1, BORDER, tok2, BORDER))
    for tok1, t1 in pairs:  # south edge
        for tok2, t2 in pairs:
            if t1.south in fin_s and t2.south in fin_s and t1.east == t2.west:
                delta.append(_tile(tok1, tok2, BORDER, BORDER))

    # interior: left column pairs against compatible right column pairs
    verticals = [(i, j) for i, (_, a) in enumerate(pairs)
                 for j, (_, b) in enumerate(pairs) if a.south == b.north]
    by_wests: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for i, j in verticals:
        by_wests.setdefault((ts_list[i].west, ts_list[j].west), []).append((i, j))
    for i, j in verticals:
        for k, l in by_wests.get((ts_list[i].east, ts_list[j].east), ()):
            delta.append(_tile(tokens[i], tokens[k], tokens[j], tokens[l]))

    return TileSystem(
        local=LocalLanguage(alphabet=tuple(tokens), delta=tuple(delta)),
        target=f.alphabet,
        mapping=mapping,
    )


def tiles_to_fis(ts: TileSystem) -> FIS:
    """A system recognizing the same language as ``ts``.

    States and classes are the tiles themselves.  A cell whose window
    is T emits the windows one step east and one step south; matching
    those emissions against the neighbours' windows reproduces the
    window discipline, and tiles showing the frame on an outer side
    become the initial and final sets.  A transition whose emissions
    close both final borders must additionally find the bottom-right
    corner window in the tile set, which no neighbour would otherwise
    check.
    """
    delta = ts.local.delta
    h = ts.h
    tok = {t: t.token() for t in delta}
    tile_set = set(delta)

    init_states = tuple(tok[t] for t in delta if (t.nw, t.ne) == (BORDER, BORDER))
    init_classes = tuple(tok[t] for t in delta if (t.nw, t.sw) == (BORDER, BORDER))
    fin_states = tuple(tok[t] for t in delta if (t.sw, t.se) == (BORDER, BORDER))
    fin_classes = tuple(tok[t] for t in delta if (t.ne, t.se) == (BORDER, BORDER))

    east_of: dict[tuple[str, str], list[Tile]] = {}
    south_of: dict[tuple[str, str], list[Tile]] = {}
    for t in delta:
        east_of.setdefault((t.nw, t.sw), []).append(t)
        south_of.setdefault((t.nw, t.ne), []).append(t)

    trans: list[Transition] = []
    for t in delta:
        if t.se == BORDER:
            continue
        letter = h[t.se]
        corner_window = _tile(t.se, BORDER, BORDER, BORDER)
        for e in east_of.get((t.ne, t.se), ()):
            for s in south_of.get((t.sw, t.se), ()):
                closes_final = (e.ne, e.se) == (BORDER, BORDER) and \
                    (s.sw, s.se) == (BORDER, BORDER)
                if closes_final and corner_window not in tile_set:
                    continue
                trans.append(Transition(tok[t], tok[t], letter, tok[e], tok[s]))

    names = tuple(tok[t] for t in delta)
    return FIS(
        alphabet=ts.target,
        states=names,
        classes=names,
        transitions=tuple(trans),
        initial_states=init_states,
        initial_classes=init_classes,
        final_states=fin_states,
        final_classes=fin_classes,
    )


# ---------------------------------------------------------------------------
# text format

def parse_tiles(text: str) -> TileSystem:
    """Read a tile system.

    Keys: ``alphabet:`` (local letters), ``target:``, ``map: source
    target`` and ``tile: p q / r s``.  Lines starting with ``#`` are
    comments except inside tile rows, where ``#`` is the border symbol.
    """
    alphabet: list[str] = []
    target: list[str] = []
    mapping: list[tuple[str, str]] = []
    tiles_: list[Tile] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'key: ...'")
        key = key.strip()
        tokens = rest.split()
        if key == "alphabet":
            alphabet.extend(tokens)
        elif key == "target":
            target.extend(tokens)
        elif key == "map":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: map needs 'source target'")
            mapping.append((tokens[0], tokens[1]))
        elif key == "tile":
            if len(tokens) != 5 or tokens[2] != "/":
                raise FormatError(f"line {lineno}: tile needs 'p q / r s'")
            tiles_.append(tile(tokens[0], tokens[1], tokens[3], tokens[4]))
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
    try:
        return TileSystem(
            local=LocalLanguage(alphabet=tuple(alphabet), delta=tuple(tiles_)),
            target=tuple(target),
            mapping=tuple(mapping),
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_tiles(ts: TileSystem) -> str:
    """Render a tile system in the format of :func:`parse_tiles`."""
    lines = ["alphabet: " + " ".join(ts.local.alphabet),
             "target: " + " ".join(ts.target)]
    lines += [f"map: {a} {b}" for a, b in ts.mapping]
    lines += [f"tile: {t.nw} {t.ne} / {t.sw} {t.se}" for t in ts.local.delta]
    return "\n".join(lines) + "\n"
