"""Bounded searches and structural examination of reduction scenarios.

Emptiness and accessibility of a transition are undecidable for these
systems, so the procedures here are bounded surrogates: they search all
grid sizes up to given limits, deterministically, and report what they
find.  For systems produced by :func:`fiskit.pcp.compile_pcp` the found
scenarios have a rigid shape (two rows spelling a word equation, then
marker rows reducing it); :func:`structural_check` verifies that shape
claim by claim, reading each compiled name by comparing it with the
names :mod:`fiskit.pcp` writes.  :func:`finiteness_evidence` confirms
that a found witness pumps vertically, on any system where the padding
law holds for :func:`fiskit.pcp.pad_transition`, so a nonempty
language is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAReductionFis, NotReductionScenario
from .fis import (
    FIS,
    Scenario,
    Transition,
    check_scenario,
    first_accepted,
    live_transitions,
    recognize,
)
from .grids import Grid, grid, v_compose
from .pcp import MARKER, PcpInstance, a_state, c_state, compile_pcp, m_class, pad_transition


@dataclass(frozen=True)
class SearchBounds:
    """Inclusive limits on grid rows and columns for bounded searches."""

    max_rows: int
    max_cols: int

    def __post_init__(self) -> None:
        if self.max_rows < 1 or self.max_cols < 1:
            raise ValueError("bounds must be at least 1x1")


def bounded_emptiness(f: FIS, b: SearchBounds) -> tuple[Grid, Scenario] | None:
    """The canonically first accepted grid within bounds, with its
    scenario, or ``None`` when the language is empty within bounds.

    Canonical order: smallest area, then fewest rows, then row-major
    letters by alphabet declaration order.  Letters are chosen inside
    frontier propagation, so grids are never enumerated one by one.
    """
    return first_accepted(f, b.max_rows, b.max_cols)


def bounded_accessibility(f: FIS, t: Transition,
                          b: SearchBounds) -> tuple[Grid, Scenario] | None:
    """The canonically first accepted grid within bounds whose scenario
    uses ``t``, with such a scenario, or ``None``."""
    return first_accepted(f, b.max_rows, b.max_cols, using=t)


# ---------------------------------------------------------------------------
# finiteness evidence

@dataclass(frozen=True)
class FinitenessReport:
    """Outcome of the witness-and-pump probe behind :func:`finiteness_evidence`."""

    bounds: SearchBounds
    witness: Grid | None
    pumped: Grid | None
    pumped_accepted: bool | None

    @property
    def empty_within_bounds(self) -> bool:
        return self.witness is None

    @property
    def verdict(self) -> str:
        if self.witness is None:
            return "empty within bounds"
        if self.pumped_accepted:
            return "nonempty; a padding row extends every witness, so the language is infinite"
        return "nonempty, but the padded witness was rejected"


def finiteness_evidence(f_s: FIS, b: SearchBounds) -> FinitenessReport:
    """Search for a witness and confirm it extends by one padding row.

    The padding law needs the pad transition ``p = pad_transition()``
    to be live, the final states to be exactly ``{p.north}``, ``p.west``
    to be an initial class and ``p.east`` a final class.  Then a row of
    ``p`` cells extends every accepted grid, and so does the next such
    row.  A system that fails one of these raises
    :class:`NotAReductionFis`, which names it.
    """
    pad = pad_transition()
    for holds, what in (
            (pad in live_transitions(f_s), f"the pad transition {' '.join(pad)} is not live"),
            (set(f_s.final_states) == {pad.north}, f"the final states are not just {pad.north}"),
            (pad.west in f_s.initial_classes, f"{pad.west} is not an initial class"),
            (pad.east in f_s.final_classes, f"{pad.east} is not a final class")):
        if not holds:
            raise NotAReductionFis(f"no padding law: {what}")
    found = bounded_emptiness(f_s, b)
    if found is None:
        return FinitenessReport(b, None, None, None)
    w, _ = found
    pumped = v_compose(w, grid([[pad.letter] * w.cols]))
    accepted = recognize(f_s, pumped) is not None
    return FinitenessReport(b, w, pumped, accepted)


def format_finiteness_report(rep: FinitenessReport) -> str:
    lines = [f"bounds: {rep.bounds.max_rows}x{rep.bounds.max_cols}"]
    if rep.witness is None:
        lines.append("witness: none")
    else:
        lines.append(f"witness: {rep.witness.rows}x{rep.witness.cols}")
        lines.append(f"pumped: {rep.pumped.rows}x{rep.pumped.cols}")
        lines.append(f"pumped-accepted: {'yes' if rep.pumped_accepted else 'no'}")
    lines.append(f"verdict: {rep.verdict}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structural examination of reduction scenarios

@dataclass(frozen=True)
class CheckResult:
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class StructuralReport:
    """Verdicts over one accepting scenario of a compiled reduction
    system, one ``(name, result)`` claim each in report order; failing
    verdicts carry the witnessing positions."""

    claims: tuple[tuple[str, CheckResult], ...]
    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for _, c in self.claims)


def _x_blocks(p: PcpInstance, souths, letters) -> tuple[list[int] | None, str]:
    """Word indices spelled by the first row, from its south states."""
    starts = {a_state(i, 1): i for i in range(1, p.pairs + 1)}
    xs: list[int] = []
    pos, q = 0, len(souths)
    while pos < q:
        i = starts.get(souths[pos])
        if i is None:
            return None, f"column {pos + 1}: {souths[pos]!r} does not open a word"
        word = p.x[i - 1]
        for off, ch in enumerate(word):
            if pos + off >= q:
                return None, f"column {q}: word {i} truncated at the border"
            if souths[pos + off] != a_state(i, off + 1):
                return None, (f"column {pos + off + 1}: "
                              f"{souths[pos + off]!r} breaks word {i}")
            if letters[pos + off] != ch:
                return None, (f"column {pos + off + 1}: letter "
                              f"{letters[pos + off]!r} differs from word {i}")
        xs.append(i)
        pos += len(word)
    return xs, ""


def _y_chunks(p: PcpInstance, seconds, letters) -> tuple[list[int] | None, str]:
    """Word indices spelled by the second row, from its south index stream."""
    ys: list[int] = []
    pos, q = 0, len(seconds)
    while pos < q:
        j = seconds[pos]
        if not 1 <= j <= len(p.y):
            return None, f"column {pos + 1}: word index {j} out of range"
        word = p.y[j - 1]
        if pos + len(word) > q:
            return None, f"column {q}: word {j} truncated at the border"
        if list(seconds[pos:pos + len(word)]) != [j] * len(word):
            return None, f"column {pos + 1}: index run shorter than word {j}"
        if "".join(letters[pos:pos + len(word)]) != word:
            return None, f"column {pos + 1}: letters differ from word {j}"
        ys.append(j)
        pos += len(word)
    return ys, ""


def _failures(fails: list[str]) -> CheckResult:
    return CheckResult(not fails, "; ".join(fails[:3]))


def structural_check(p: PcpInstance, sc: Scenario,
                     compiled: FIS | None = None) -> StructuralReport:
    """Verify, claim by claim, that an accepting scenario of the
    compiled system for ``p`` has the reduction shape.

    Raises :class:`NotReductionScenario` unless ``sc`` replays as an
    accepting scenario of ``compile_pcp(p)``; a caller that already
    holds that system passes it as ``compiled``.  Compiled names are
    read by comparing them with the names ``compile_pcp`` writes.
    """
    if compiled is None:
        compiled = compile_pcp(p)
    problems = check_scenario(compiled, sc)
    if problems:
        raise NotReductionScenario("; ".join(problems[:3]))

    m, q = sc.grid.rows, sc.grid.cols
    cells = sc.grid.cells
    souths = [[t.south for t in run] for run in sc.cell_runs]
    pair_of = {c_state(i, j): (i, j) for i in range(p.pairs + 1) for j in range(p.pairs + 1)}
    pairs = [[pair_of.get(s) for s in row] for row in souths[1:]]

    fails = [f"only {m} rows"] if m < 3 else []
    fails += [f"north border column {i + 1} is {s!r}"
              for i, s in enumerate(sc.b_n) if s != "s"]
    fails += [f"west border row {i + 1} is {c!r}"
              for i, c in enumerate(sc.b_w) if c != "A"]
    fails += [f"south border column {i + 1} is {s!r}"
              for i, s in enumerate(souths[-1]) if s != c_state(0, 0)]
    frame = _failures(fails)

    xs = ys = None
    if m >= 2:
        xs, x_err = _x_blocks(p, souths[0], cells[0])
        if None in pairs[0]:
            y_err = f"column {pairs[0].index(None) + 1}: not a pair state"
        else:
            ys, y_err = _y_chunks(p, [b for _, b in pairs[0]], cells[1])
        spell_fails = []
        if cells[0] != cells[1]:
            t = next(i for i in range(q) if cells[0][i] != cells[1][i])
            spell_fails.append(f"rows 1 and 2 differ at column {t + 1}")
        if xs is None:
            spell_fails.append("row 1: " + x_err)
        if ys is None:
            spell_fails.append("row 2: " + y_err)
        spelling = CheckResult(not spell_fails, "; ".join(spell_fails))
    else:
        spelling = CheckResult(False, "fewer than two rows")

    marker_rows = _failures([f"row {r} column {t + 1}: letter {cells[r - 1][t]!r}"
                             for r in range(3, m + 1) for t in range(q)
                             if cells[r - 1][t] != MARKER])
    if xs is None or ys is None:
        index_streams = carry_streams = tail_rows = east_border = CheckResult(
            False, "word factorization not derivable")
    else:
        why = _stream_mismatch(p, pairs[0], xs, ys, 0)
        index_streams = CheckResult(not why, why)
        carry_streams = _carry_streams(p, souths[1:], pairs, xs, ys, why)
        pad = pad_transition()
        tail_rows = _failures([f"row {r} column {t + 1}"
                               for r in range(len(xs) + 3, m + 1) for t in range(q)
                               if sc.cell_runs[r - 1][t] != pad])
        want_e = ("A", "A") + tuple(m_class(i, 0, 0) for i in xs) \
            + ("A",) * max(0, m - len(xs) - 2)
        east_border = CheckResult(True, "") if sc.b_e == want_e else CheckResult(
            False, f"east border {sc.b_e} differs from {want_e}")

    claims = (("frame", frame), ("spelling", spelling), ("index-streams", index_streams),
              ("marker-rows", marker_rows), ("carry-streams", carry_streams),
              ("tail-rows", tail_rows), ("east-border", east_border))
    return StructuralReport(claims, tuple(xs or ()), tuple(ys or ()))


def _carry_streams(p: PcpInstance, souths, pairs, xs: list[int], ys: list[int],
                   first: str) -> CheckResult:
    """Each marker row consumes one solution pair: the south border of
    row p+2 starts with as many zeros as letters already reduced and
    then repeats the remaining word indices, on both stream components.

    ``souths[r]`` holds the south states of row ``r + 2`` and
    ``pairs[r]`` their index pairs, ``None`` where a state is no pair
    state; ``first`` is the comparison of row 2, step 0, as
    :func:`_stream_mismatch` gives it."""
    if xs != ys:
        return CheckResult(False, f"x words {xs} differ from y words {ys}")
    k = len(xs)
    if len(pairs) < k + 1:
        return CheckResult(False, f"{len(pairs) + 1} rows cannot host {k} reduction rows")
    for step in range(k + 1):
        row = pairs[step]
        if None in row:
            t = row.index(None)
            return CheckResult(False, f"row {step + 2} column {t + 1}: "
                                      f"{souths[step][t]!r} is not a pair state")
        why = _stream_mismatch(p, row, xs, ys, step) if step else first
        if why:
            return CheckResult(False, f"row {step + 2}: {why}")
    return CheckResult(True, f"k={k}")


def _stream_mismatch(p: PcpInstance, pairs, xs: list[int], ys: list[int],
                     step: int) -> str:
    """Why a row's two index streams, after ``step`` reductions, differ
    from the word factorization ``xs``/``ys``; ``""`` when they agree."""
    alpha = sum(len(p.x[i - 1]) for i in xs[:step])
    beta = sum(len(p.y[j - 1]) for j in ys[:step])
    want_first = [0] * alpha + [i for i in xs[step:] for _ in p.x[i - 1]]
    want_second = [0] * beta + [j for j in ys[step:] for _ in p.y[j - 1]]
    got_first = [a for a, _ in pairs]
    got_second = [b for _, b in pairs]
    if got_first != want_first:
        return f"first stream {got_first} differs from {want_first}"
    if got_second != want_second:
        return f"second stream {got_second} differs from {want_second}"
    return ""


def format_structural_report(rep: StructuralReport) -> str:
    lines = []
    for name, check in rep.claims:
        status = "pass" if check.ok else "FAIL"
        lines.append(f"{name}: {status}" + (f" {check.detail}" if check.detail
                                            and not check.ok else ""))
    if rep.x_indices:
        lines.append("x-indices: " + " ".join(map(str, rep.x_indices)))
    if rep.y_indices:
        lines.append("y-indices: " + " ".join(map(str, rep.y_indices)))
    lines.append(f"overall: {'pass' if rep.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
