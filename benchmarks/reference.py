"""Reference answers that the frontier engine did not compute.

* Membership in a system: a column-by-column sweep.  It carries the set
  of east-class vectors across each column boundary and walks each
  column top to bottom, the transpose of the engine's row-major
  frontiers.
* Bounded languages of small systems: the same sweep with the letters
  of each column chosen by exhaustive search.  Where the system has at
  most two letters (every random system of tile-equivalence),
  ``tests/oracles.py`` (every grid tested by brute backtracking) must
  agree as well.
* Tile-system languages: every local grid over the source alphabet by
  exhaustive search with 2x2 window checks, projected and sorted.
* Compiled PCP systems: exhaustive search over index sequences.  The
  compiled language is the set of grids W / W / $^r for which some
  solution with at most r indices spells W, and the probe system
  accepts exactly those grids padded by one marker column and row.
* The diagonal and universal systems: their languages are known from
  construction.

Grids are lists of rows of letters; languages are lists of grids in
canonical order (area, then rows, then row-major letters in alphabet
order).
"""

from __future__ import annotations

import itertools
import json

from workloads import (
    MARKER,
    PCP_LETTERS,
    diagonal_rows,
    grid_text,
    pcp_solutions,
    probe_rows,
    witness_rows,
)

PCP_ALPHABET = PCP_LETTERS + (MARKER,)


def canonical(grids, alphabet) -> list:
    order = {a: i for i, a in enumerate(alphabet)}
    key = lambda g: (len(g) * len(g[0]), len(g), tuple(order[a] for r in g for a in r))
    return [list(map(list, g)) for g in sorted({tuple(map(tuple, g)) for g in grids}, key=key)]


def sizes(max_rows: int, max_cols: int):
    return sorted(((m, q) for m in range(1, max_rows + 1) for q in range(1, max_cols + 1)),
                  key=lambda mq: (mq[0] * mq[1], mq[0]))


# -- systems, by column sweep ------------------------------------------------------

class Sweep:
    def __init__(self, f: dict):
        self.moves: dict[tuple, list] = {}
        for n, w, a, e, s in dict.fromkeys(map(tuple, f["transitions"])):
            self.moves.setdefault((n, w, a), []).append((e, s))
        self.init_s, self.init_c = tuple(f["initial_states"]), tuple(f["initial_classes"])
        self.fin_s, self.fin_c = set(f["final_states"]), set(f["final_classes"])

    def column(self, vectors, letters) -> set:
        """East vectors after one more column reading ``letters`` top to bottom."""
        out = set()
        for vec in vectors:
            cur = {((), n) for n in self.init_s}
            for i, a in enumerate(letters):
                wests = self.init_c if vec is None else (vec[i],)
                cur = {(east + (e,), s)
                       for east, n in cur for w in wests
                       for e, s in self.moves.get((n, w, a), ())}
                if not cur:
                    break
            out |= {east for east, s in cur if s in self.fin_s}
        return out

    def final(self, vectors) -> bool:
        return any(all(e in self.fin_c for e in v) for v in vectors)

    def accepts(self, rows) -> bool:
        vectors = {None}
        for j in range(len(rows[0])):
            vectors = self.column(vectors, [r[j] for r in rows])
            if not vectors:
                return False
        return self.final(vectors)

    def language(self, alphabet, max_rows: int, max_cols: int) -> list:
        found = []
        for m, q in sizes(max_rows, max_cols):
            def rec(cols, vectors):
                if len(cols) == q:
                    if self.final(vectors):
                        found.append([[cols[j][i] for j in range(q)] for i in range(m)])
                    return
                for col in itertools.product(alphabet, repeat=m):
                    nxt = self.column(vectors, col)
                    if nxt:
                        rec(cols + [col], nxt)
            rec([], {None})
        return canonical(found, alphabet)


def oracle_language(f: dict, max_rows: int, max_cols: int) -> list:
    """``tests/oracles.py``'s wholesale enumeration of the same language."""
    import oracles
    from fiskit.fis import FIS, Transition
    fis = FIS(alphabet=f["alphabet"], states=f["states"], classes=f["classes"],
              transitions=tuple(Transition(*t) for t in f["transitions"]),
              initial_states=f["initial_states"], initial_classes=f["initial_classes"],
              final_states=f["final_states"], final_classes=f["final_classes"])
    return [[list(r) for r in g.cells] for g in oracles.language(fis, max_rows, max_cols)]


def fis_language(f: dict, max_rows: int, max_cols: int) -> list:
    lang = Sweep(f).language(f["alphabet"], max_rows, max_cols)
    if len(f["alphabet"]) <= 2 and oracle_language(f, max_rows, max_cols) != lang:
        raise AssertionError(f"reference sweep disagrees with tests/oracles.py on {f}")
    return lang


# -- tile systems ------------------------------------------------------------------

def tiles_language(ts: dict, max_rows: int, max_cols: int) -> list:
    allowed = {tuple(map(tuple, t)) for t in ts["tiles"]}
    h = dict(map(tuple, ts["mapping"]))
    found = set()
    for m, q in sizes(max_rows, max_cols):
        full = [["#"] * (q + 2) for _ in range(m + 2)]

        def ok(i, j):  # the window whose bottom-right cell is (i, j)
            return ((full[i - 1][j - 1], full[i - 1][j]), (full[i][j - 1], full[i][j])) in allowed

        def rec(p):
            if p == m * q:
                found.add(tuple(tuple(h[full[i][j]] for j in range(1, q + 1))
                                for i in range(1, m + 1)))
                return
            i, j = divmod(p, q)
            i, j = i + 1, j + 1
            for a in ts["alphabet"]:
                full[i][j] = a
                if (ok(i, j) and (j < q or ok(i, j + 1)) and (i < m or ok(i + 1, j))
                        and (i < m or j < q or ok(i + 1, j + 1))):
                    rec(p + 1)
            full[i][j] = "#"

        rec(0)
    return canonical(found, ts["target"])


# -- compiled PCP systems --------------------------------------------------------------

def pcp_accepts(x, y, rows) -> bool:
    m = len(rows)
    if m < 3 or rows[0] != rows[1] or any(a not in PCP_LETTERS for a in rows[0]):
        return False
    if any(a != MARKER for r in rows[2:] for a in r):
        return False
    word = "".join(rows[0])
    return any("".join(x[i - 1] for i in s) == word
               for s in pcp_solutions(x, y, m - 2, len(word)))


def pcp_probe_accepts(x, y, rows) -> bool:
    if len(rows) < 2 or len(rows[0]) < 2:
        return False
    if any(a != MARKER for a in rows[-1]) or any(r[-1] != MARKER for r in rows):
        return False
    return pcp_accepts(x, y, [r[:-1] for r in rows[:-1]])


def pcp_language(x, y, max_rows: int, max_cols: int) -> list:
    out = []
    for s in pcp_solutions(x, y, max_rows - 2, max_cols):
        base = witness_rows(x, s)
        for extra in range(max_rows - len(base) + 1):
            out.append(base + [[MARKER] * len(base[0])] * extra)
    return canonical(out, PCP_ALPHABET)


def pcp_first(x, y, max_rows: int, max_cols: int, probe: bool):
    """The canonically first accepted grid within bounds, or ``None``."""
    pad = 1 if probe else 0
    cands = [witness_rows(x, s)
             for s in pcp_solutions(x, y, max_rows - 2 - pad, max_cols - pad)]
    if probe:
        cands = [probe_rows(g) for g in cands]
    return canonical(cands, PCP_ALPHABET)[0] if cands else None


# -- answers per query -----------------------------------------------------------------

def answer(data: dict, q: dict):
    spec = data["spec"]
    op = q["op"]
    if op in ("recognize", "recognize_t", "pcp-tiles", "ts-recognize"):
        rows = spec[q["grid"]]
        name = q["sys"]
        if op in ("pcp-tiles", "ts-recognize"):
            return pcp_accepts(spec[name]["x"], spec[name]["y"], rows)
        if name == "diag":
            return rows == diagonal_rows(len(rows)) and (op == "recognize" or len(rows) >= 2)
        if name == "universal":
            return True
        if name.endswith(".probe"):
            p = spec[name[:-len(".probe")]]
            return pcp_probe_accepts(p["x"], p["y"], rows)
        if name in data["pcp"]:
            return pcp_accepts(spec[name]["x"], spec[name]["y"], rows)
        return Sweep(spec[name]).accepts(rows)
    if op in ("check-empty", "check-access"):
        p = spec[q["pcp"]]
        g = pcp_first(p["x"], p["y"], q["rows"], q["cols"], q["probe"])
        if g is None:
            word = "EMPTY" if op == "check-empty" else "INACCESSIBLE"
            return {"code": 1, "stdout": f"{word}-WITHIN-BOUNDS\n"}
        return {"code": 0, "stdout": grid_text(g)}
    if op == "check-structure":
        p = spec[q["pcp"]]
        return {"code": 0 if pcp_accepts(p["x"], p["y"], spec[q["grid"]]) else 1}
    if op == "enumerate":
        if "sys" in q:  # the universal system accepts every grid
            lang = canonical([[list(c[r * n:(r + 1) * n]) for r in range(m)]
                              for m, n in sizes(q["rows"], q["cols"])
                              for c in itertools.product("ab", repeat=m * n)], ("a", "b"))
        else:
            p = spec[q["pcp"]]
            lang = pcp_language(p["x"], p["y"], q["rows"], q["cols"])
        return {"code": 0, "stdout": "".join(grid_text(g) + "\n" for g in lang)}
    if op == "fis-to-tiles":
        return fis_language(spec[q["sys"]], 3, 3)
    if op == "tiles-to-fis":
        return tiles_language(spec[q["tiles"]], 3, 3)
    raise ValueError(f"unknown query op {op!r}")


def answers(data: dict) -> list[list]:
    """Reference answer of every query, aligned with ``data['rounds']``;
    a query that repeats is answered once."""
    memo: dict = {}

    def get(q):
        key = json.dumps(q, sort_keys=True)
        if key not in memo:
            memo[key] = answer(data, q)
        return memo[key]

    return [[get(q) for q in rnd] for rnd in data["rounds"]]
