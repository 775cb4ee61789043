"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python and never imports ``fiskit``: the same
seed gives byte-identical input texts on any commit, and the program
under test only ever sees the generated texts.  Each generator returns
a JSON-able dict with the input texts (``fis``, ``pcp``, ``tiles``,
``grids``) and a list of rounds of queries; the structured ``spec``
entries next to the texts are what the reference answers are computed
from.

Rounds have a fixed composition for every seed, so a run that stops
part-way through a round still measures nearly the same mix on any
seed; only the concrete systems, instances and grids vary.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import statistics
import random
from collections import Counter

MARKER = "$"
PCP_LETTERS = ("a", "b")
# Characters for drawn names.  The documented formats allow any
# non-empty whitespace-free token (letters must not be the lone border
# symbol ``#``), so punctuation that the conversions use inside their
# own tokens (``,``, ``/``, ``(``, ``[``) is included on purpose.
NAME_CHARS = "abcdxyz0123456789,/()[]{}.;:-+*'!?#"

DIAGONAL = {
    "alphabet": ("a", "b", "c"), "states": ("1", "2"), "classes": ("A", "B"),
    "transitions": (("1", "A", "a", "B", "2"), ("1", "B", "b", "B", "1"),
                    ("2", "A", "c", "A", "2")),
    "initial_states": ("1",), "initial_classes": ("A",),
    "final_states": ("2",), "final_classes": ("B",),
}
DIAGONAL_PROBE = ("2", "A", "c", "A", "2")  # fires on every n x n diagonal, n >= 2

# ROADMAP item 2's universal system: 3 states, 2 classes, 2 letters and
# all 72 transitions, every state and class initial and final.
UNIVERSAL = {
    "alphabet": ("a", "b"), "states": ("1", "2", "3"), "classes": ("A", "B"),
    "transitions": tuple(itertools.product("123", "AB", "ab", "AB", "123")),
    "initial_states": ("1", "2", "3"), "initial_classes": ("A", "B"),
    "final_states": ("1", "2", "3"), "final_classes": ("A", "B"),
}

# ROADMAP item 2's fixed instance a/baa, ab/aa, bba/bb; solution 3 2 3 1.
ROADMAP_PCP = (("a", "ab", "bba"), ("baa", "aa", "bb"))
ROADMAP_SOLUTION = (3, 2, 3, 1)
PROBE = ("s", "Q", MARKER, "T", "q")  # fiskit.pcp.probe_transition()

# Bounded-decide instances are drawn with bounds up to 8 x 12; the
# column bound is then lowered until the frontier proxy below is at
# most this, so that no query runs for seconds.  The proxy reads the
# instance only, never the program, so inputs do not depend on the
# commit under test.
FRONTIER_PROXY_LIMIT = 2000


# -- text formats ------------------------------------------------------------

def fis_text(f: dict) -> str:
    keys = ("alphabet", "states", "classes", "initial_states",
            "initial_classes", "final_states", "final_classes")
    lines = [(k + ": " + " ".join(f[k])).rstrip() for k in keys]
    lines += ["trans: " + " ".join(t) for t in f["transitions"]]
    return "\n".join(lines) + "\n"


def pcp_text(x, y) -> str:
    lines = ["alphabet: " + " ".join(PCP_LETTERS)]
    lines += [f"{a} {b}" for a, b in zip(x, y)]
    return "\n".join(lines) + "\n"


def grid_text(rows) -> str:
    return "\n".join(" ".join(r) for r in rows) + "\n"


def tiles_text(ts: dict) -> str:
    lines = ["alphabet: " + " ".join(ts["alphabet"]),
             "target: " + " ".join(ts["target"])]
    lines += [f"map: {a} {b}" for a, b in ts["mapping"]]
    lines += [f"tile: {nw} {ne} / {sw} {se}" for (nw, ne), (sw, se) in ts["tiles"]]
    return "\n".join(lines) + "\n"


# -- drawing -------------------------------------------------------------------

def draw_names(rng: random.Random, k: int, letters: bool = False) -> tuple[str, ...]:
    out: list[str] = []
    while len(out) < k:
        name = "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 3)))
        if name in out or (letters and name == "#"):
            continue
        out.append(name)
    return tuple(out)


def random_fis(rng: random.Random) -> dict:
    """A small system in the shape of the test generators, punctuated
    names.  At most two letters: with three, a system that accepts
    nearly every grid has about 21,000 grids within 3x3, and whether a
    run meets one would decide its peak memory."""
    states = draw_names(rng, rng.randint(1, 3))
    classes = draw_names(rng, rng.randint(1, 3))
    alphabet = draw_names(rng, rng.randint(1, 2), letters=True)
    trans: list[tuple] = []
    for _ in range(rng.randint(2, 8)):
        t = (rng.choice(states), rng.choice(classes), rng.choice(alphabet),
             rng.choice(classes), rng.choice(states))
        if t not in trans:
            trans.append(t)

    def pick(pool):
        return tuple(x for x in pool if rng.random() < 0.6)

    return {"alphabet": alphabet, "states": states, "classes": classes,
            "transitions": tuple(trans),
            "initial_states": pick(states) or states[:1],
            "initial_classes": pick(classes) or classes[:1],
            "final_states": pick(states), "final_classes": pick(classes)}


def dense_fis(rng: random.Random, density: float) -> dict:
    """3 states, 2 classes, 2 letters, each of the 72 transitions kept
    with probability ``density``; punctuated names."""
    states = draw_names(rng, 3)
    classes = draw_names(rng, 2)
    alphabet = draw_names(rng, 2, letters=True)
    trans = tuple(t for t in itertools.product(states, classes, alphabet, classes, states)
                  if rng.random() < density)
    return {"alphabet": alphabet, "states": states, "classes": classes,
            "transitions": trans,
            "initial_states": states[:2], "initial_classes": classes,
            "final_states": states[1:], "final_classes": classes}


def random_tile_system(rng: random.Random) -> dict:
    """Windows of a few random bordered grids, then perturbed, as in the
    test generators; punctuated local and target letters."""
    sources = draw_names(rng, rng.randint(1, 3), letters=True)
    target = draw_names(rng, rng.randint(1, 2), letters=True)
    mapping = tuple((s, rng.choice(target)) for s in sources)
    tiles: list[tuple] = []
    for _ in range(rng.randint(1, 3)):
        m, q = rng.randint(1, 2), rng.randint(1, 2)
        full = [["#"] * (q + 2)]
        full += [["#"] + [rng.choice(sources) for _ in range(q)] + ["#"] for _ in range(m)]
        full += [["#"] * (q + 2)]
        for i in range(m + 1):
            for j in range(q + 1):
                t = ((full[i][j], full[i][j + 1]), (full[i + 1][j], full[i + 1][j + 1]))
                if t not in tiles:
                    tiles.append(t)
    for _ in range(rng.randint(0, 2)):
        if tiles and rng.random() < 0.5:
            tiles.pop(rng.randrange(len(tiles)))
        else:
            pool = sources + ("#",)
            t = ((rng.choice(pool), rng.choice(pool)), (rng.choice(pool), rng.choice(pool)))
            if t not in tiles:
                tiles.append(t)
    return {"alphabet": sources, "target": target, "mapping": mapping,
            "tiles": tuple(tiles[:20])}


def random_pcp(rng: random.Random, pairs: tuple[int, int]):
    n = rng.randint(*pairs)
    word = lambda: "".join(rng.choice(PCP_LETTERS) for _ in range(rng.randint(1, 3)))
    return tuple(word() for _ in range(n)), tuple(word() for _ in range(n))


def pcp_solutions(x, y, max_k: int, max_len: int) -> list[tuple[int, ...]]:
    """Every solution with at most ``max_k`` indices and solution string
    at most ``max_len`` letters, by exhaustive search over index
    sequences (a prefix is extended while one side is a prefix of the
    other, since no other prefix can be completed)."""
    out: list[tuple[int, ...]] = []

    def rec(seq, xs, ys):
        if seq and xs == ys:
            out.append(tuple(seq))
        if len(seq) == max_k:
            return
        for i in range(len(x)):
            nx, ny = xs + x[i], ys + y[i]
            if len(nx) > max_len or len(ny) > max_len:
                continue
            if nx.startswith(ny) or ny.startswith(nx):
                seq.append(i + 1)
                rec(seq, nx, ny)
                seq.pop()

    rec([], "", "")
    return out


def solvable_pcp(rng: random.Random, max_k: int = 4, max_len: int = 10):
    """A random instance with a solution within the limits, and its
    shortest (then least) solution."""
    while True:
        x, y = random_pcp(rng, (2, 3))
        sols = pcp_solutions(x, y, max_k, max_len)
        if sols:
            return x, y, min(sols, key=lambda s: (len(s), s))


def frontier_proxy(x, y, cols: int) -> int:
    """Factorization paths of the first row plus pairs of paths (x side,
    y side) spelling a common second row, summed over widths up to
    ``cols``: a rough count of the frontiers a bounded search over the
    compiled system meets."""
    def step(words, st, ch):
        if st is None or st[1] == len(words[st[0]]):
            return [(i, 1) for i, w in enumerate(words) if w[0] == ch]
        i, j = st
        return [(i, j + 1)] if words[i][j] == ch else []

    cx, cp, total = Counter({None: 1}), Counter({(None, None): 1}), 0
    for _ in range(cols):
        nx, np_ = Counter(), Counter()
        for ch in PCP_LETTERS:
            for s, c in cx.items():
                for t in step(x, s, ch):
                    nx[t] += c
            for (sx, sy), c in cp.items():
                for a in step(x, sx, ch):
                    for b in step(y, sy, ch):
                        np_[(a, b)] += c
        cx, cp = nx, np_
        total += sum(cx.values()) + sum(cp.values())
    return total


def witness_rows(x, sol) -> list[list[str]]:
    word = "".join(x[i - 1] for i in sol)
    return [list(word), list(word)] + [[MARKER] * len(word) for _ in sol]


def probe_rows(rows) -> list[list[str]]:
    return [r + [MARKER] for r in rows] + [[MARKER] * (len(rows[0]) + 1)]


def near_miss(rng: random.Random, rows, letters) -> list[list[str]]:
    """One letter flipped to another letter of ``letters``, or one row dropped."""
    rows = [list(r) for r in rows]
    if len(rows) > 1 and rng.random() < 0.3:
        del rows[rng.randrange(len(rows))]
        return rows
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = rng.choice([a for a in letters if a != rows[i][j]])
    return rows


def diagonal_rows(n: int, cols: int | None = None) -> list[list[str]]:
    cols = n if cols is None else cols
    return [["a" if i == j else "b" if j > i else "c" for j in range(cols)]
            for i in range(n)]


# -- workloads -----------------------------------------------------------------

class Inputs:
    """Named input texts plus their structured specs, and query rounds."""

    def __init__(self, workload: str):
        self.data = {"workload": workload, "fis": {}, "pcp": {},
                     "tiles": {}, "grids": {}, "spec": {}, "rounds": []}

    def fis(self, name: str, f: dict) -> str:
        self.data["fis"][name] = fis_text(f)
        self.data["spec"][name] = f
        return name

    def pcp(self, name: str, x, y) -> str:
        self.data["pcp"][name] = pcp_text(x, y)
        self.data["spec"][name] = {"x": x, "y": y}
        return name

    def tiles(self, name: str, ts: dict) -> str:
        self.data["tiles"][name] = tiles_text(ts)
        self.data["spec"][name] = ts
        return name

    def grid(self, rows) -> str:
        name = f"g{len(self.data['grids'])}"
        self.data["grids"][name] = grid_text(rows)
        self.data["spec"][name] = [list(r) for r in rows]
        return name


def membership(seed: int, rounds: int = 16) -> dict:
    rng = random.Random(f"membership:{seed}")
    inp = Inputs("membership")
    inp.fis("diag", DIAGONAL)
    inp.fis("universal", UNIVERSAL)
    # high densities: the frontier count then depends on the grid size
    # far more than on which transitions were drawn
    dense = [inp.fis(f"dense{i}", dense_fis(rng, d))
             for i, d in enumerate((0.8, 0.85, 0.9, 0.95))]
    pcps = []
    for i in range(3):
        x, y, sol = solvable_pcp(rng)
        pcps.append((inp.pcp(f"p{i}", x, y), x, sol))
    sizes = ((2, 6), (2, 7), (2, 8), (3, 6)) * 2
    mid_diagonal = inp.grid(diagonal_rows(33))

    for r in range(rounds):
        qs = []
        # Per round: 9 cheap compiled-PCP queries, 14 diagonal queries
        # with n spread evenly over 10..62, 8 on the 33 x 33 diagonal,
        # and 9 dense or universal ones.  About 15 of the 40 cost less
        # than the 33 x 33 diagonal, so the median falls in that block
        # of equal costs: the spread ones' costs grow with n, and a
        # median among them would move with n's random offsets.  The
        # 90th percentile falls among the dense 2x7 grids.
        qs += [{"op": "recognize", "sys": "diag", "grid": mid_diagonal}] * 8
        for k in range(14):
            n = 10 + (50 * k) // 13 + rng.randint(0, 2)
            kind = k % 5
            rows = diagonal_rows(n, n + 1 if kind == 2 else n)
            if kind in (1, 4):  # a flip in the last row: the whole grid is read
                j = rng.randrange(n)
                rows[-1][j] = rng.choice([a for a in "abc" if a != rows[-1][j]])
            if kind < 3:
                qs.append({"op": "recognize", "sys": "diag", "grid": inp.grid(rows)})
            else:
                qs.append({"op": "recognize_t", "sys": "diag", "grid": inp.grid(rows),
                           "trans": DIAGONAL_PROBE})
        letters = PCP_LETTERS + (MARKER,)
        for i, (name, x, sol) in enumerate(pcps):
            base = witness_rows(x, sol)
            for rows in (base, near_miss(rng, base, letters)):
                qs.append({"op": "recognize", "sys": name, "grid": inp.grid(rows)})
            probe = probe_rows(base)
            if (r + i) % 2:
                probe = near_miss(rng, probe, letters)
            qs.append({"op": "recognize_t", "sys": name + ".probe",
                       "grid": inp.grid(probe), "trans": PROBE})
        for k, (m, q) in enumerate(sizes):
            f = inp.data["spec"][dense[(k + r) % len(dense)]]
            rows = [[rng.choice(f["alphabet"]) for _ in range(q)] for _ in range(m)]
            qs.append({"op": "recognize", "sys": dense[(k + r) % len(dense)],
                       "grid": inp.grid(rows)})
        rows = [[rng.choice("ab") for _ in range(8)] for _ in range(2)]
        qs.append({"op": "recognize", "sys": "universal", "grid": inp.grid(rows)})
        rng.shuffle(qs)
        inp.data["rounds"].append(qs)
    return inp.data


def bounded_decide(seed: int, rounds: int = 48) -> dict:
    rng = random.Random(f"bounded-decide:{seed}")
    inp = Inputs("bounded-decide")
    inp.fis("universal", UNIVERSAL)
    inp.pcp("roadmap", *ROADMAP_PCP)

    def decision_instance(tag: str):
        x, y = random_pcp(rng, (2, 4))
        rows, cols = rng.randint(3, 8), rng.randint(3, 12)
        while cols > 3 and frontier_proxy(x, y, cols) > FRONTIER_PROXY_LIMIT:
            cols -= 1
        return inp.pcp(tag, x, y), rows, cols

    for r in range(rounds):
        qs = []
        for k in range(5):
            name, rows, cols = decision_instance(f"e{r}.{k}")
            qs.append({"op": "check-empty", "pcp": name, "probe": False,
                       "rows": rows, "cols": cols})
        for k in range(4):
            name, rows, cols = decision_instance(f"a{r}.{k}")
            qs.append({"op": "check-access", "pcp": name, "probe": True,
                       "rows": rows, "cols": cols})
        for k in range(4):
            x, y, sol = solvable_pcp(rng)
            name = inp.pcp(f"s{r}.{k}", x, y)
            rows = witness_rows(x, sol)
            if k % 2:
                rows = near_miss(rng, rows, PCP_LETTERS + (MARKER,))
            qs.append({"op": "check-structure", "pcp": name, "grid": inp.grid(rows)})
        x, y, sol = solvable_pcp(rng, max_k=2, max_len=5)
        qs.append({"op": "enumerate", "pcp": inp.pcp(f"n{r}", x, y), "probe": False,
                   "rows": rng.randint(3, 5), "cols": rng.randint(3, 6)})
        qs.append({"op": "enumerate", "sys": "universal", "rows": 2, "cols": 4})
        # a fixed, mid-cost query taking a fifth of each round: the 90th
        # percentile then falls among equal costs, not in the random tail
        qs += [{"op": "check-empty", "pcp": "roadmap", "probe": False,
                "rows": 6, "cols": 9}] * 4
        rng.shuffle(qs)
        inp.data["rounds"].append(qs)
    return inp.data


def tile_equivalence(seed: int, rounds: int = 30) -> dict:
    rng = random.Random(f"tile-equivalence:{seed}")
    inp = Inputs("tile-equivalence")
    inp.pcp("roadmap", *ROADMAP_PCP)
    inp.fis("diag", DIAGONAL)
    witness = witness_rows(ROADMAP_PCP[0], ROADMAP_SOLUTION)
    for r in range(rounds):
        qs = []
        # The random queries' costs spread widely, so a quantile that fell
        # among them would move with the seed.  10 fixed fis-to-tiles on
        # the diagonal system cost about as much as the median random
        # one, and a quarter of the round is cheaper: the median falls
        # inside the fixed block.  Above 90% of the round's 31 queries
        # lie the conversion and about half of the 4 ts_recognize
        # queries, so the 90th percentile is near their median.
        qs += [{"op": "fis-to-tiles", "sys": "diag"}] * 10
        for k in range(10):
            qs.append({"op": "fis-to-tiles", "sys": inp.fis(f"f{r}.{k}", random_fis(rng))})
        for k in range(6):
            qs.append({"op": "tiles-to-fis",
                       "tiles": inp.tiles(f"t{r}.{k}", random_tile_system(rng))})
        rows = [witness] + [near_miss(rng, witness, PCP_LETTERS + (MARKER,)) for _ in range(3)]
        qs += [{"op": "ts-recognize", "sys": "roadmap", "grid": inp.grid(g)} for g in rows]
        rng.shuffle(qs)
        # the conversion comes first: the ts_recognize queries use its result
        qs.insert(0, {"op": "pcp-tiles", "sys": "roadmap", "grid": inp.grid(witness)})
        inp.data["rounds"].append(qs)
    return inp.data


# -- input properties ------------------------------------------------------------

def system_key(q: dict) -> str:
    if "pcp" in q:
        return q["pcp"] + (".probe" if q.get("probe") else "")
    return q.get("sys") or q["tiles"]


def states_and_cols(data: dict, q: dict) -> tuple[int, int]:
    spec = data["spec"]
    name = q.get("pcp") or q.get("sys") or q.get("tiles")
    probe = bool(q.get("probe")) or name.endswith(".probe")
    name = name[:-len(".probe")] if name.endswith(".probe") else name
    s = spec[name]
    if "x" in s:  # compiled PCP: s, a(i,j) per x letter, c(i,j) per index pair
        states = 1 + sum(map(len, s["x"])) + (len(s["x"]) + 1) ** 2 + probe
    elif "tiles" in s:
        states = len(s["tiles"])  # tiles_to_fis: one state per tile
    else:
        states = len(s["states"])
    if "cols" in q:
        cols = q["cols"]
    elif "grid" in q:
        cols = len(spec[q["grid"]][0])
    else:
        cols = 3
    return states, cols


def token_collision(data: dict, q: dict) -> bool:
    """Whether two distinct elements get the same name in the conversion."""
    spec = data["spec"]
    if q["op"] == "fis-to-tiles":
        trans = set(map(tuple, spec[q["sys"]]["transitions"]))
        return len({"(" + ",".join(t) + ")" for t in trans}) < len(trans)
    tiles = {tuple(map(tuple, t)) for t in spec[q["tiles"]]["tiles"]}
    return len({f"[{a},{b}/{c},{d}]" for (a, b), (c, d) in tiles}) < len(tiles)


def input_counters(data: dict, refs: list, executed: list) -> dict:
    """Properties of the queries a run executed, given as (query index,
    tiles made or None), so that a change can state what share of a
    workload has the property it relies on."""
    queries = [q for rnd in data["rounds"] for q in rnd]
    seen: set = set()
    repeats = solvable = unsolvable = collisions = conversions = 0
    max_cols, proxy, tiles = 0, 0.0, []
    for k, made in executed:
        q = queries[k]
        key = system_key(q)
        repeats += key in seen
        seen.add(key)
        if q["op"] in ("check-empty", "check-access"):
            solvable += refs[k]["code"] == 0
            unsolvable += refs[k]["code"] == 1
        states, cols = states_and_cols(data, q)
        max_cols = max(max_cols, cols)
        proxy = max(proxy, cols * math.log10(max(states, 1)))
        if q["op"] in ("fis-to-tiles", "tiles-to-fis"):
            conversions += 1
            collisions += token_collision(data, q)
        if made is not None:
            tiles.append(made)
    n = len(executed)
    return {
        "input.repeat_frac": repeats / n,
        "input.solvable": solvable,
        "input.unsolvable": unsolvable,
        "input.max_cols": max_cols,
        "input.frontier_proxy_log10": proxy,
        "input.tiles_per_conversion": statistics.fmean(tiles) if tiles else 0.0,
        "input.token_collision_frac": collisions / conversions if conversions else 0.0,
    }


WORKLOADS = {"membership": membership, "bounded-decide": bounded_decide,
             "tile-equivalence": tile_equivalence}


def generate(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](seed)


def digest(data) -> str:
    """SHA-256 of the canonical JSON form of generated inputs or of a
    language given as a list of grids."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
