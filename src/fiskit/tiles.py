"""Tile systems: local languages plus a letter-to-letter projection.

A local language over an alphabet V' is given by a set of 2x2 tiles;
a grid belongs to it when every 2x2 window of its bordered version is
a tile of the set.  A tile is the plain tuple ``((nw, ne), (sw, se))``
of its letters, the border symbol permitted, and no other form is
accepted; :class:`LocalLanguage` is where tiles enter and are checked,
and it keeps the one tile index and the set of distinct tile rows.
A tile system adds a projection h from V' onto a target alphabet V and
recognizes the h-images of a local language.
Tile systems and finite interactive systems recognize the same grid
languages; :func:`fis_to_tiles` and :func:`tiles_to_fis` realize the
two directions of that equivalence.  Searches on a tile system run on
the frontier engine of :mod:`fiskit.fis` over the system that
:func:`tiles_to_fis` gives, built only as far as they reach: there is
no window table, and each window a search needs is derived from the
distinct rows and looked up in the tile index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count

from .errors import FormatError, InvalidLetter, UnknownLetter
from .fis import FIS, Engine, Transition
from .grids import BORDER, Grid, check_letter, read_keys, windows

# a 2x2 array of letters ((nw, ne), (sw, se)), the border symbol
# permitted; the cyclic collector stops tracking tuples of strings, so
# a large tile set adds no work to later collections
Tile = tuple[tuple[str, str], tuple[str, str]]
_FRAME = (BORDER, BORDER)  # the bottom row of a tile on the south frame


def quote(name: str) -> str:
    """``name`` with ``\\``, ``,`` and ``/`` escaped by a backslash, so a
    token joined from quoted names by ``,`` and ``/`` names one tuple."""
    return name.replace("\\", "\\\\").replace(",", "\\,").replace("/", "\\/")


@dataclass(frozen=True)
class LocalLanguage:
    """An alphabet and the set of 2x2 windows its grids may show.

    Tiles come as ``((nw, ne), (sw, se))`` tuples only.  The pass that
    deduplicates them leaves the one tile index, ``_index``, each
    distinct tile to its place in ``delta``, and ``_rows``, the set of
    distinct tile rows, which the shape and letter checks read.
    Membership tests and the tile engine read these, never the tiles whole.
    """

    alphabet: tuple[str, ...]
    delta: tuple[Tile, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        for a in self.alphabet:  # a local letter "#" would pass for the frame
            check_letter(a)
        places, delta = count(), tuple(self.delta)
        try:  # a list is unhashable, and a tile that is no sequence has no rows
            index = dict(zip(delta, places))
            rows = frozenset(chain.from_iterable(index))  # tiles share rows: fewer to read
        except TypeError:
            raise ValueError("tiles are 2x2 tuples") from None
        # the shape, read off the distinct tiles and rows in C loops
        if not ({*map(type, index), *map(type, rows)} <= {tuple}
                and {*map(len, index), *map(len, rows)} <= {2}):
            raise ValueError("tiles are 2x2 tuples")
        if len(index) < next(places):  # a repeated tile kept its last place
            # the index keeps the first of equal tiles, so a tuple subclass
            # after an equal tile, or in a row of one, shows only here
            if not {*map(type, delta), *map(type, chain.from_iterable(delta))} <= {tuple}:
                raise ValueError("tiles are 2x2 tuples")
            index = dict(zip(index, count()))
        object.__setattr__(self, "delta", tuple(index))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_rows", rows)
        if bad := set(chain.from_iterable(rows)) - {*self.alphabet, BORDER}:
            cell = next(c for t in self.delta for row in t for c in row if c in bad)
            raise ValueError(f"tile letter {cell!r} not in the alphabet")


def local_member(ll: LocalLanguage, w: Grid) -> bool:
    """Whether every bordered 2x2 window of ``w`` is a tile of ``ll``."""
    known = set(ll.alphabet)
    for row in w.cells:
        for cell in row:
            if cell not in known:
                raise UnknownLetter(f"letter {cell!r} is not in the alphabet")
    return all(window in ll._index for window in windows(w))


@dataclass(frozen=True)
class TileSystem:
    """A local language over V' with a total projection h: V' -> V."""

    local: LocalLanguage
    target: tuple[str, ...]
    mapping: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "mapping", tuple(tuple(p) for p in self.mapping))
        for a in self.target:
            check_letter(a)
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
        return _PairTable(self)


class _PairTable(Engine):
    """The pair-state system of a tile system, as a frontier engine.

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
    closing class adds ``k * k``.  As every closing class emitted is
    final, the final classes are the range of flagged pairs.

    There is no window table.  The engine keeps the distinct tile rows
    by their first letter, and an entry is derived on first request
    (:meth:`entry`): each row ``(sw, se)`` names a candidate, the
    tile index tells whether ``(nw, ne / sw, se)`` is a tile and where,
    and the moves follow tile order.  Compiling reads the distinct rows,
    not the tiles, and a search builds only the entries it reaches.
    ``names`` holds each transition as its ids ``(n, w, e, s)``, which
    searches never name; :meth:`spell` names one for :func:`tiles_to_fis`.
    """

    def __init__(self, ts: TileSystem):
        local = self.local = [BORDER, *dict.fromkeys(ts.local.alphabet)]
        lid = self.lid = {a: i for i, a in enumerate(local)}
        self.quoted = [quote(a) for a in local]
        tid, h = {a: i for i, a in enumerate(dict.fromkeys(ts.target))}, ts.h
        self.h = [0] + [tid[h[a]] for a in local[1:]]
        k = self.k = len(local)
        kk = self.kk = k * k
        index = self.index = ts.local._index
        self.east = [(a, BORDER) for a in local]  # tile rows on the east frame
        # (row, id of y) for each row (x, y) by x, and the rows on the south frame
        after, south = [[] for _ in local], []
        for row in ts.local._rows:
            x, y = lid[row[0]], lid[row[1]]
            if y:  # a window's se is never the frame
                after[x].append((row, y))
            if (row, _FRAME) in index:
                south.append(x * k + y)
        self.after = [tuple(a) for a in after]  # which the cyclic collector lets go
        super().__init__(tid, 2 * kk, 2 * kk, ((0, kk), (0,)), (self.finals(south), ()))
        self.fin_classes = range(kk, 2 * kk)  # a range needs no k^2 set

    def finals(self, south: list[int]) -> list[int]:
        """The final states: the pairs ``south`` of the tiles ``(x, y / #,
        #)``, then flagged those that have the corner tile ``(y, # / #, #)``."""
        return south + [self.kk + p for p in south if (self.east[p % self.k], _FRAME) in self.index]

    def name(self, pair: int, flag: str) -> str:
        """``(x,y)`` from quoted letters, with ``flag`` (``F`` for a
        state, ``C`` for a class) in front when flagged."""
        x, y = divmod(pair % self.kk, self.k)
        return f"{flag if pair >= self.kk else ''}({self.quoted[x]},{self.quoted[y]})"

    def spell(self, record: tuple[int, int, int, int]) -> Transition:
        """The transition of ``record``, ids ``(n, w, e, s)`` from ``names``."""
        n, w, e, s = record
        return Transition(self.name(n, "F"), self.name(w, "C"), self.letters[self.h[s % self.k]],
                          self.name(e, "C"), self.name(s, "F"))

    def entry(self, n: int, w: int) -> list[tuple[int, int, int, int]]:
        if (out := self.entries.get((n, w))) is not None:
            return out
        k, kk = self.k, self.kk
        closing = n >= kk
        nw, ne = divmod(n % kk, k)
        out = self.entries[n, w] = []
        if w >= kk or w // k != nw:
            return out
        sw, flag = w % k, kk if closing else 0
        top, index, east = (self.local[nw], self.local[ne]), self.index, self.east
        for _at, se in sorted((at, se) for row, se in self.after[sw]  # in tile order
                              if (at := index.get((top, row))) is not None):
            if closing and (east[ne], east[se]) not in index:
                continue
            e, s = flag + ne * k + se, flag + sw * k + se
            out.append((self.h[se], e, s, len(self.names)))
            self.names.append((n, w, e, s))
        return out


def ts_recognize(ts: TileSystem, w: Grid) -> bool:
    """Whether some preimage of ``w`` lies in the local language: the
    depth-first run of ``recognize`` on the system of :func:`tiles_to_fis`,
    left unnamed; preimage letters are chosen cell by cell and whole
    preimage grids are never enumerated.  A letter outside the target
    alphabet is an ``UnknownLetter``, raised by the engine."""
    return ts._engine.run(w, None) is not None


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
    ts_list = f.transitions
    tokens = ["(" + ",".join(map(quote, t)) + ")" for t in ts_list]
    mapping = tuple((tok, t.letter) for tok, t in zip(tokens, ts_list))

    ini_s = set(f.initial_states)
    ini_c = set(f.initial_classes)
    fin_s = set(f.final_states)
    fin_c = set(f.final_classes)

    # transitions by the class they read and by the state they read, in
    # transition order; rows[i][k] is the tile row of transitions i and k
    # side by side, built once and shared by every tile showing it
    right: dict[str, list[int]] = {}
    below: dict[str, list[int]] = {}
    for k, t in enumerate(ts_list):
        right.setdefault(t.west, []).append(k)
        below.setdefault(t.north, []).append(k)
    rows = [{k: (tok, tokens[k]) for k in right.get(t.east, ())}
            for tok, t in zip(tokens, ts_list)]
    pairs = list(enumerate(ts_list))

    BB = (BORDER, BORDER)
    delta: list[Tile] = [(BB, BB)]
    delta += [(BB, (BORDER, tokens[i])) for i, t in pairs  # north-west corner
              if t.north in ini_s and t.west in ini_c]
    delta += [(BB, (tokens[i], BORDER)) for i, t in pairs  # north-east corner
              if t.north in ini_s and t.east in fin_c]
    delta += [((BORDER, tokens[i]), BB) for i, t in pairs  # south-west corner
              if t.west in ini_c and t.south in fin_s]
    delta += [((tokens[i], BORDER), BB) for i, t in pairs  # south-east corner
              if t.south in fin_s and t.east in fin_c]

    delta += [(BB, rows[i][k]) for i, t in pairs if t.north in ini_s  # north edge
              for k in right.get(t.east, ()) if ts_list[k].north in ini_s]
    delta += [((BORDER, tokens[i]), (BORDER, tokens[j]))  # west edge
              for i, t in pairs if t.west in ini_c
              for j in below.get(t.south, ()) if ts_list[j].west in ini_c]
    delta += [((tokens[i], BORDER), (tokens[j], BORDER))  # east edge
              for i, t in pairs if t.east in fin_c
              for j in below.get(t.south, ()) if ts_list[j].east in fin_c]
    delta += [(rows[i][k], BB) for i, t in pairs if t.south in fin_s  # south edge
              for k in right.get(t.east, ()) if ts_list[k].south in fin_s]

    # interior: left column pairs against compatible right column pairs
    verticals = [(i, j) for i, t in pairs for j in below.get(t.south, ())]
    by_wests: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for i, j in verticals:
        by_wests.setdefault((ts_list[i].west, ts_list[j].west), []).append((i, j))
    for i, j in verticals:
        top, bottom = rows[i], rows[j]
        delta += [(top[k], bottom[l])
                  for k, l in by_wests.get((ts_list[i].east, ts_list[j].east), ())]

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
    Searches on ``ts`` run on this system without building it whole;
    written whole, it takes one walk over the tiles, which requests the
    entries in first-tile order and gives the final states and classes
    in tile order, so the output follows the order of the tiles."""
    table = _PairTable(ts)
    k, kk, lid = table.k, table.kk, table.lid
    south, east = [], []
    for (nw, ne), (sw, se) in ts.local.delta:
        nw, ne, sw, se = lid[nw], lid[ne], lid[sw], lid[se]
        table.entry(nw * k + ne, nw * k + sw)
        table.entry(kk + nw * k + ne, nw * k + sw)
        if sw == se == 0:
            south.append(nw * k + ne)
        if ne == se == 0:
            east.append(kk + nw * k + sw)
    trans = tuple(map(table.spell, table.names))
    init_s, fin_s = (tuple(table.name(i, "F") for i in ids)
                     for ids in (table.init_states, table.finals(south)))
    init_c, fin_c = (tuple(table.name(i, "C") for i in ids)
                     for ids in (table.init_classes, east))
    return FIS(
        alphabet=tuple(table.letters),
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

    Lines are ``key: tokens`` (:func:`fiskit.grids.read_keys`), the keys
    ``alphabet:`` (local letters), ``target:``, ``map: source target``
    and ``tile: p q / r s``.  Only a whole line starting with ``#`` is
    a comment, so ``#`` inside a tile row is the border symbol.
    """
    doc = read_keys(text, {"alphabet": None, "target": None, "map": 2, "tile": 5})
    if bad := [t for t in doc["tile"] if t[2] != "/"]:
        raise FormatError(f"tile needs 'p q / r s', not {' '.join(bad[0])!r}")
    try:
        return TileSystem(
            local=LocalLanguage(alphabet=doc["alphabet"], delta=[
                ((nw, ne), (sw, se)) for nw, ne, _, sw, se in doc["tile"]]),
            target=doc["target"],
            mapping=doc["map"],
        )
    except (ValueError, InvalidLetter) as exc:
        raise FormatError(str(exc)) from exc


def format_tiles(ts: TileSystem) -> str:
    """Render a tile system in the format of :func:`parse_tiles`; its
    letters are tokens, as :class:`LocalLanguage` and :class:`TileSystem`
    check, so it reads back."""
    lines = ["alphabet: " + " ".join(ts.local.alphabet),
             "target: " + " ".join(ts.target)]
    lines += [f"map: {a} {b}" for a, b in ts.mapping]
    lines += [f"tile: {nw} {ne} / {sw} {se}" for (nw, ne), (sw, se) in ts.local.delta]
    return "\n".join(lines) + "\n"
