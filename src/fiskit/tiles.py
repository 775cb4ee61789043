"""Tile systems: local languages plus a letter-to-letter projection.

A local language over an alphabet V' is given by a set of 2x2 tiles;
a grid belongs to it when every 2x2 window of its bordered version is
a tile of the set.  A tile system adds a projection h from V' onto a
target alphabet V and recognizes the h-images of a local language.
Tile systems and finite interactive systems recognize the same grid
languages; :func:`fis_to_tiles` and :func:`tiles_to_fis` realize the
two directions of that equivalence.  Searches on a tile system run on
the frontier engine of :mod:`fiskit.fis` over the system that
:func:`tiles_to_fis` gives, built only as far as they reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError, UnknownLetter
from .fis import FIS, Transition, TransitionTable, live_transitions
from .grids import BORDER, Grid, border, check_letter, subgrids

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
            if h[source] != out:
                raise ValueError(f"projection maps {source!r} to both {out!r} and {h[source]!r}")

    @property
    def h(self) -> dict[str, str]:
        return dict(self.mapping)

    @cached_property
    def _engine(self):
        """The system of :func:`tiles_to_fis` compiled once, as for
        ``FIS._engine``, its transitions derived on first request."""
        return _PairTable(self).compile()


class _PairTable(TransitionTable):
    """The pair-state system of a tile system, numbered for the engine.

    A cell whose window is the tile ``(nw, ne / sw, se)`` reads the
    state ``(nw, ne)`` and the class ``(nw, sw)``, emits the class
    ``(ne, se)`` and the state ``(sw, se)``, and reads ``h(se)``.  The
    frame makes ``(#, #)`` initial.  Windows the cells miss lie on the
    east and south frame: a state ``(x, y)`` is final when ``(x, y / #,
    #)`` is a tile.  A cell of the last column, a closing cell, emits the
    class ``C(ne, se)``, but only if ``(ne, # / se, #)`` is a tile; no
    cell reads such a class, and only they are final.  Closing cells
    read and emit flagged states ``F(..)``, initial as ``F(#, #)``, and
    a flagged final state also needs the bottom-right corner tile
    ``(y, # / #, #)``.  Each tile gives at most two transitions.

    With ``#`` as 0 and the distinct local letters from 1, ``k`` ids in
    all, the pair ``(x, y)`` is ``x * k + y``, and a flagged state or a
    closing class adds ``k * k``.  An entry is derived from the window
    table on first request (``__missing__``), so searching a large tile
    system builds only the transitions it reaches.
    """

    def __init__(self, ts: TileSystem):
        local = [BORDER, *dict.fromkeys(ts.local.alphabet)]
        lid = {a: i for i, a in enumerate(local)}
        self.quoted = [quote(a) for a in local]
        tid, h = {a: i for i, a in enumerate(dict.fromkeys(ts.target))}, ts.h
        self.h = [0] + [tid[h[a]] for a in local[1:]]
        k = self.k = len(local)
        kk = self.kk = k * k
        # (nw, ne, sw) -> se ids, in tuples of ints, which the cyclic
        # collector stops tracking: a large table slows no later collection
        windows: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self.windows = windows
        south, fin_classes = [], []  # tiles on the south frame; final classes
        for (nw, ne), (sw, se) in (t.cells for t in ts.local.delta):
            nw, ne, sw, se = lid[nw], lid[ne], lid[sw], lid[se]
            windows[nw, ne, sw] = windows.get((nw, ne, sw), ()) + (se,)
            if sw == se == 0:
                south.append((nw, ne))
            if ne == se == 0:
                fin_classes.append(kk + nw * k + sw)
        fin_states = [nw * k + ne for nw, ne in south]
        fin_states += [kk + nw * k + ne for nw, ne in south if self.has(ne, 0, 0, 0)]
        super().__init__(tid, 2 * kk, 2 * kk, ((0, kk), (0,)), (fin_states, fin_classes))

    def has(self, nw: int, ne: int, sw: int, se: int) -> bool:
        return se in self.windows.get((nw, ne, sw), ())

    def name(self, pair: int, flag: str) -> str:
        """``(x,y)`` from quoted letters, with ``flag`` (``F`` for a
        state, ``C`` for a class) in front when flagged."""
        x, y = divmod(pair % self.kk, self.k)
        return f"{flag if pair >= self.kk else ''}({self.quoted[x]},{self.quoted[y]})"

    def __missing__(self, key: tuple[int, int]) -> list[tuple[int, int, int, int]]:
        n, w = key
        k, kk = self.k, self.kk
        closing = n >= kk
        nw, ne = divmod(n % kk, k)
        out = self[key] = []
        if w >= kk or w // k != nw:
            return out
        sw, flag = w % k, kk if closing else 0
        for se in self.windows.get((nw, ne, sw), ()):
            if se == 0 or closing and not self.has(ne, 0, se, 0):
                continue
            e, s = flag + ne * k + se, flag + sw * k + se
            out.append((self.h[se], e, s, len(self.names)))
            self.names.append(Transition(self.name(n, "F"), self.name(w, "C"),
                                         self.alphabet[self.h[se]],
                                         self.name(e, "C"), self.name(s, "F")))
        return out


def ts_recognize(ts: TileSystem, w: Grid) -> bool:
    """Whether some preimage of ``w`` lies in the local language: the
    depth-first search of ``recognize`` on the system of
    :func:`tiles_to_fis`, so preimage letters are chosen cell by cell
    and whole preimage grids are never enumerated."""
    eng = ts._engine
    for row in w.cells:
        for cell in row:
            if cell not in eng.letter_id:
                raise UnknownLetter(f"letter {cell!r} is not in the target alphabet")
    return eng.scenario(w, None) is not None


def ts_language(ts: TileSystem, max_rows: int, max_cols: int) -> list[Grid]:
    """All recognized grids within bounds, in canonical order
    (area, then rows, then row-major letter order)."""
    return list(ts._engine.accepted(max_rows, max_cols))


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
    """A system recognizing the same language as ``ts``: the pair-state
    construction of Giammarresi and Restivo, spelled out in
    :class:`_PairTable`.  A state is a pair of local letters side by
    side, a class a pair one above the other, named ``(x,y)``,
    ``F(x,y)`` or ``C(x,y)`` from letters quoted by :func:`quote`.
    Searches on ``ts`` run on this system without building it whole."""
    table = _PairTable(ts)
    k, kk = table.k, table.kk
    for nw, ne, sw in table.windows:
        for north in (nw * k + ne, kk + nw * k + ne):
            table[north, nw * k + sw]
    trans = tuple(table.names)
    init_s, fin_s = (tuple(table.name(i, "F") for i in ids)
                     for ids in (table.initial_states, table.final_states))
    init_c, fin_c = (tuple(table.name(i, "C") for i in ids)
                     for ids in (table.initial_classes, table.final_classes))
    return FIS(
        alphabet=tuple(table.alphabet),
        states=tuple(dict.fromkeys([*init_s, *fin_s, *(x for t in trans for x in (t.north, t.south))])),
        classes=tuple(dict.fromkeys([*init_c, *fin_c, *(x for t in trans for x in (t.west, t.east))])),
        transitions=trans,
        initial_states=init_s,
        initial_classes=init_c,
        final_states=fin_s,
        final_classes=fin_c,
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
