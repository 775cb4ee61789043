"""Post correspondence instances and their compilation to recognizers.

An instance is a pair of equal-length lists of non-empty words.  A
solution is a non-empty index sequence i_1..i_k with

    x_{i_1} ... x_{i_k}  ==  y_{i_1} ... y_{i_k}.

:func:`compile_pcp` builds a system whose language is non-empty exactly
when the instance has a solution: the accepted grids spell a solution
string on their first two rows and then reduce the two index streams to
nothing on rows of the marker letter ``$``.  :func:`compile_pcp_probe`
extends that system so that a single designated transition (the probe)
can fire in some accepting scenario exactly when a solution exists.
Because solvability is undecidable, emptiness and accessibility for
these systems are undecidable too; the bounded searches in
:mod:`fiskit.analysis` explore them at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormatError, IndexOutOfRange, InvalidSolution
from .fis import FIS, Transition
from .grids import Grid, check_letter, content_lines, grid, h_compose, is_token, v_compose

MARKER = "$"


@dataclass(frozen=True)
class PcpInstance:
    """Word pairs (x[i], y[i]); letters are single characters.

    ``alphabet`` fixes the letter declaration order used by compiled
    systems, each letter once; when omitted it is inferred as the sorted
    set of letters occurring in the words.
    """

    x: tuple[str, ...]
    y: tuple[str, ...]
    alphabet: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        if not self.x or len(self.x) != len(self.y):
            raise ValueError("need equally many x and y words, at least one pair")
        for word in self.x + self.y:
            if not is_token(word):
                raise ValueError(f"word {word!r} is not a non-empty string without whitespace")
        inferred = sorted(set("".join(self.x + self.y)))
        alphabet = tuple(self.alphabet) or tuple(inferred)
        if MARKER in inferred or MARKER in alphabet:
            raise ValueError(f"the marker {MARKER!r} cannot be an instance letter")
        for a in (*inferred, *alphabet):
            check_letter(a)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"alphabet {alphabet} repeats a letter")
        if missing := set(inferred) - set(alphabet):
            raise ValueError(f"alphabet is missing letters {sorted(missing)}")
        object.__setattr__(self, "alphabet", alphabet)

    @property
    def pairs(self) -> int:
        return len(self.x)


def check_solution(p: PcpInstance, indices) -> bool:
    """Whether the index sequence is a solution of ``p``."""
    indices = tuple(indices)
    for i in indices:
        if not 1 <= i <= p.pairs:
            raise IndexOutOfRange(f"index {i} outside 1..{p.pairs}")
    if not indices:
        return False
    xcat = "".join(p.x[i - 1] for i in indices)
    ycat = "".join(p.y[i - 1] for i in indices)
    return xcat == ycat


def solve_pcp(p: PcpInstance, max_k: int):
    """Shortest solution with at most ``max_k`` indices, or ``None``.

    Breadth-first search over index sequences; a sequence is extended
    only while one concatenation is a prefix of the other, and distinct
    sequences with the same unmatched overhang are merged keeping the
    first.  Among shortest solutions the lexicographically least index
    sequence is returned.  A bound below 1 is a ``ValueError``.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, not {max_k}")
    n = p.pairs
    # (indices, overhang, sign): sign +1 when the x side is ahead by
    # `overhang`, -1 when the y side is ahead, 0 only at the start
    level = [((), "", 0)]
    seen: set[tuple[str, int]] = set()
    for _ in range(max_k):
        nxt = []
        for indices, over, sign in level:
            for i in range(1, n + 1):
                # unmatched text of each side beyond the common prefix
                if sign >= 0:
                    s_x, s_y = over + p.x[i - 1], p.y[i - 1]
                else:
                    s_x, s_y = p.x[i - 1], over + p.y[i - 1]
                if len(s_x) >= len(s_y):
                    if not s_x.startswith(s_y):
                        continue
                    nover, nsign = s_x[len(s_y):], 1
                else:
                    if not s_y.startswith(s_x):
                        continue
                    nover, nsign = s_y[len(s_x):], -1
                cand = indices + (i,)
                if not nover:
                    return cand
                key = (nover, nsign)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((cand, nover, nsign))
        level = nxt
    return None


# -- state and class names of compiled systems ------------------------------

def a_state(i: int, j: int) -> str:
    return f"a({i},{j})"


def c_state(i: int, j: int) -> str:
    return f"c({i},{j})"


def m_class(i: int, j: int, k: int) -> str:
    return f"M({i},{j},{k})"


def compile_pcp(p: PcpInstance) -> FIS:
    """The recognizer whose language is non-empty iff ``p`` is solvable.

    Accepted grids have the shape

        x-concatenation   of a solution
        y-concatenation   (the same string)
        $ rows            one per solution index, plus optional extras

    The first row records which x word each column belongs to, the
    second row records the same for y words; the remaining rows consume
    the two index streams pair by pair, and any mismatch between them
    leaves a cell with no applicable transition.

    Each state and class name is spelled once, by :func:`a_state`,
    :func:`c_state` and :func:`m_class` where they apply, and every
    transition shares the string object ``states`` or ``classes`` holds.
    """
    return FIS(**_reduction(p))


def _reduction(p: PcpInstance) -> dict:
    """The fields of :func:`compile_pcp`, its names spelled once each."""
    n, xs, ys = p.pairs, p.x, p.y
    words = list(zip(range(1, n + 1), xs, ys))

    # name tables by position (a[i][j] is a(i,j+1)); a word-boundary
    # position of the first two rows collapses to the shared class A
    A = "A"
    a = {i: [a_state(i, j) for j in range(1, len(x) + 1)] for i, x, _ in words}
    c = [[c_state(i, j) for j in range(n + 1)] for i in range(n + 1)]
    bx = {i: [A, *(f"B({i},{j})" for j in range(1, len(x))), A] for i, x, _ in words}
    cy = {i: [A, *(f"C({i},{k})" for k in range(1, len(y))), A] for i, _, y in words}
    m = {i: [[m_class(i, j, k) for k in range(len(y) + 1)] for j in range(len(x) + 1)]
         for i, x, y in words}
    s, c00 = "s", c[0][0]

    states = [s, *(name for i, _, _ in words for name in a[i]), *itertools.chain(*c)]
    classes = [A, *(name for i, _, _ in words for name in bx[i][1:-1]),
               *(name for i, _, _ in words for name in cy[i][1:-1]),
               *(name for i, _, _ in words for row in m[i] for name in row)]

    # first row: spell x word i letter by letter
    trans = [Transition(s, bx[i][j], letter, bx[i][j + 1], a[i][j])
             for i, x, _ in words for j, letter in enumerate(x)]

    # second row: spell letter k of y word i under letter g of x word j,
    # allowed only when the two letters agree; under[letter] lists the
    # (j, a(j,g)) spelling it
    under: dict[str, list[tuple[int, str]]] = {}
    for j, x, _ in words:
        for g, letter in enumerate(x):
            under.setdefault(letter, []).append((j, a[j][g]))
    trans += [Transition(north, cy[i][k - 1], letter, cy[i][k], c[j][i])
              for i, _, y in words for k, letter in enumerate(y, 1)
              for j, north in under.get(letter, ())]

    # marker cell where both index streams are already exhausted, as
    # pad_transition() spells it
    trans.append(Transition(c00, A, MARKER, A, c00))

    # open the reduction of pair i: both streams reach word i together,
    # or only one stream has it while the other is exhausted
    trans += [Transition(c[i][i], A, MARKER, m[i][len(x) - 1][len(y) - 1], c00)
              for i, x, y in words]
    trans += [Transition(c[i][0], A, MARKER, m[i][len(x) - 1][len(y)], c00)
              for i, x, y in words]
    trans += [Transition(c[0][i], A, MARKER, m[i][len(x)][len(y) - 1], c00)
              for i, x, y in words]

    # carry a partially consumed pair eastwards; each side either copies
    # an entry once unloaded, eats one more occurrence of word i, or skips
    # a zero while still loaded -- any other stream entry leaves the cell
    # stuck.  A move is (stream entry j, letters left k, entry passed
    # south, letters left east).
    def carry_side(i: int, word: str) -> list[tuple[int, int, int, int]]:
        return [(j, 0, j, 0) if k == 0 else (j, k, 0, k - (j == i))
                for j in range(n + 1) for k in range(len(word) + 1) if k == 0 or j in (0, i)]

    for i, x, y in words:
        mi = m[i]
        trans += [Transition(c[j1][j2], mi[k1][k2], MARKER, mi[r1][r2], c[m1][m2])
                  for (j1, k1, m1, r1), (j2, k2, m2, r2) in itertools.product(
                      carry_side(i, x), carry_side(i, y))]

    # every transition above differs from the others in its north state
    # or west class, or in its south state, so none repeats
    return dict(alphabet=p.alphabet + (MARKER,), states=states, classes=classes,
                transitions=trans, initial_states=(s,), initial_classes=(A,),
                final_states=(c00,), final_classes=(A, *(m[i][0][0] for i, _, _ in words)))


def pad_transition() -> Transition:
    """The marker cell of :func:`compile_pcp` where both index streams
    are already exhausted; the only transition of the rows below a
    finished reduction."""
    return Transition(c_state(0, 0), "A", MARKER, "A", c_state(0, 0))


def probe_transition() -> Transition:
    """The designated transition of :func:`compile_pcp_probe`.

    It is accessible (fires in some accepting scenario) exactly when
    the compiled instance has a solution.
    """
    return Transition("s", "Q", MARKER, "T", "q")


def compile_pcp_probe(p: PcpInstance) -> FIS:
    """Extend :func:`compile_pcp` for accessibility questions.

    The extension accepts exactly the grids of the base system padded
    by one marker column and one marker row; the bottom-right cell of
    such a grid is parsed by the probe transition, and no other
    accepting scenario can fire it.  Its names are shared as in
    :func:`compile_pcp`.
    """
    f = _reduction(p)
    (s,), (A,), (c00,) = f["initial_states"], f["initial_classes"], f["final_states"]
    _, Q, _, T, q = probe_transition()
    f["transitions"] += [
        Transition(s, A, MARKER, T, s),
        *[Transition(s, m00, MARKER, T, s) for m00 in f["final_classes"][1:]],
        Transition(c00, A, MARKER, Q, q),
        Transition(c00, Q, MARKER, Q, q),
        Transition(s, Q, MARKER, T, q),
    ]
    f["states"].append(q)
    f["classes"] += [Q, T]
    return FIS(**{**f, "final_states": (q,), "final_classes": (T,)})


def witness_from_solution(p: PcpInstance, indices) -> Grid:
    """The canonical accepted grid encoding a solution.

    Two rows spelling the solution string followed by one marker row
    per solution index.
    """
    indices = tuple(indices)
    if not check_solution(p, indices):
        raise InvalidSolution(f"{indices} does not solve the instance")
    word = "".join(p.x[i - 1] for i in indices)
    rows = [list(word), list(word)]
    rows += [[MARKER] * len(word) for _ in indices]
    return grid(rows)


def probe_witness(p: PcpInstance, indices) -> Grid:
    """The witness grid on which the probe transition fires.

    The base witness padded by one marker column on the right and one
    marker row at the bottom; the probe parses the bottom-right cell.
    """
    base = witness_from_solution(p, indices)
    padded = h_compose(base, grid([[MARKER]] * base.rows))
    return v_compose(padded, grid([[MARKER] * padded.cols]))


def parse_pcp(text: str) -> PcpInstance:
    """Read an instance: one ``x y`` pair per line after an optional
    first ``alphabet:`` line fixing the letter order.  Blank lines and
    lines starting with ``#`` are comments (:func:`content_lines`)."""
    lines = content_lines(text)
    alphabet = ""
    if lines and lines[0][1].startswith("alphabet:"):
        alphabet = lines.pop(0)[1].partition(":")[2]
    pairs = []
    for n, line in lines:
        if len(pair := line.split()) != 2:
            raise FormatError(f"line {n}: expected 'x y', got {line!r}")
        pairs.append(pair)
    if not pairs:
        raise FormatError("no word pairs found")
    try:
        return PcpInstance(*zip(*pairs), alphabet=alphabet.split())
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_pcp(p: PcpInstance) -> str:
    """Render an instance in the text format of :func:`parse_pcp`.  Its
    words and letters are tokens, as :class:`PcpInstance` checks, and
    only the first line may be the ``alphabet:`` line, so it reads back."""
    lines = ["alphabet: " + " ".join(p.alphabet)]
    lines += [f"{x} {y}" for x, y in zip(p.x, p.y)]
    return "\n".join(lines) + "\n"
