"""Runs one workload in this process: set-up, closed loop, verification.

Started by ``run.py`` as a child process with an address-space limit,
so that a frontier blow-up fails one query instead of the run.  One
client sends each query only after the previous one has finished, in
one thread, because a command-line user waits for each verdict.

Reads the generated inputs and their reference answers from ``--input``
and writes every measured figure to ``--output`` as JSON.

The end-to-end times are scaled to a reference host.  A shared host's
single-thread speed drifts by up to 2x, within seconds as well as over
minutes, and every time of a run moves with it, whatever the workload.
So a fixed pure-Python kernel is timed between queries (outside the
timed phase), and each time measured at ``t`` is multiplied by
(``CALIBRATION_REF_S`` over the kernel's median time within
``CALIBRATION_WINDOW_S`` of ``t``) to the power
``CALIBRATION_EXPONENT``.  The unscaled figures are reported next to
the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import digest

SETUP_REPS = 5
QUERY_LIMIT_S = 10.0
CALIBRATION_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 1.0
# about the kernel's median time on the host the benchmark was defined
# on (2-core Intel Xeon at 2.1 GHz, Python 3.11)
CALIBRATION_REF_S = 0.0025
# On that host a workload's time moved with about the 0.5th to 0.7th
# power of the kernel's time (log-log slopes over 8 to 13 runs per
# workload, correlation 0.92 to 0.94): the kernel feels the host's
# contention more than fiskit's code does.  Changing either constant
# makes figures from before and after the change incomparable.
CALIBRATION_EXPONENT = 0.6
TRACE_ROUNDS = {"membership": 2, "bounded-decide": 3, "tile-equivalence": 2}
MODULES = ("grids", "fis", "pcp", "analysis", "tiles", "cli")
API = {
    "grids": ("parse_grid",),
    "fis": ("parse_fis", "format_fis", "recognize", "recognize_with_transition",
            "enumerate_language"),
    "pcp": ("parse_pcp", "compile_pcp", "compile_pcp_probe"),
    "tiles": ("parse_tiles", "fis_to_tiles", "tiles_to_fis", "ts_language", "ts_recognize"),
    "cli": ("main",),
}


class QueryTimeout(Exception):
    """Raised in a query that runs past QUERY_LIMIT_S."""


def _alarm(_signum, _frame):
    raise QueryTimeout(f"over the {QUERY_LIMIT_S:.0f} s query limit")


# built once, so that timing the kernel allocates nothing that could
# make its time depend on the state of the heap
_KERNEL_TABLE = {(k, k & 7): k * 3 for k in range(1024)}


def kernel() -> int:
    """A fixed loop of the operations fiskit's engines spend their time
    on: small tuples as keys, dict lookups, integer arithmetic."""
    acc = 0
    table = _KERNEL_TABLE
    for i in range(12000):
        k = (i * 7919) & 1023
        acc = (acc + table.get((k, i & 7), i)) & 0xFFFFF
    return acc


class HostSpeed:
    """Times of ``kernel`` taken during a run, to scale other times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)

    def sample(self) -> None:
        """Best of three timings, with the cyclic collector off so that
        the size of fiskit's heap does not enter them."""
        gc.disable()
        try:
            best = min(self._time() for _ in range(3))
        finally:
            gc.enable()
        self.samples.append((perf_counter(), best))

    @staticmethod
    def _time() -> float:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0

    def due(self) -> bool:
        return not self.samples or perf_counter() - self.samples[-1][0] >= CALIBRATION_EVERY_S

    def factor(self, t: float) -> float:
        """What a time measured at ``t`` is multiplied by."""
        near = [k for u, k in self.samples if abs(u - t) <= CALIBRATION_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda uk: abs(uk[0] - t))[1]]
        return (CALIBRATION_REF_S / statistics.median(near)) ** CALIBRATION_EXPONENT


def import_fiskit() -> dict:
    """A fresh import of every fiskit module, as a new process would do."""
    for name in [n for n in sys.modules if n == "fiskit" or n.startswith("fiskit.")]:
        del sys.modules[name]
    importlib.import_module("fiskit")
    return {m: importlib.import_module("fiskit." + m) for m in MODULES}


def make_api(mods: dict, wrap=None) -> SimpleNamespace:
    fns = {name: getattr(mods[m], name) for m, names in API.items() for name in names}
    return SimpleNamespace(**{k: wrap(f) if wrap else f for k, f in fns.items()})


def queries_of(data: dict) -> list[dict]:
    return [q for rnd in data["rounds"] for q in rnd]


def setup(data: dict, api, files: Path) -> dict:
    """Parse and compile every input the queries use; returns name -> object.

    For bounded-decide the compiled systems are also written to
    ``files`` in the system format, because its queries run the CLI.
    """
    objs = {name: api.parse_fis(text) for name, text in data["fis"].items()}
    objs.update({name: api.parse_grid(text) for name, text in data["grids"].items()})
    objs.update({name: api.parse_tiles(text) for name, text in data["tiles"].items()})
    cli = data["workload"] == "bounded-decide"
    for name, text in data["pcp"].items():
        objs["pcp:" + name] = api.parse_pcp(text)
        if cli:
            (files / f"{name}.pcp").write_text(text, encoding="utf-8")
    for q in queries_of(data):
        name = q.get("pcp") or q.get("sys", "")
        probe = q.get("probe") or name.endswith(".probe")
        base = name[:-len(".probe")] if name.endswith(".probe") else name
        key = base + (".probe" if probe else "")
        if "pcp:" + base in objs and key not in objs and q["op"] != "check-structure":
            p = objs["pcp:" + base]
            objs[key] = api.compile_pcp_probe(p) if probe else api.compile_pcp(p)
            if cli:
                (files / f"{key}.fis").write_text(api.format_fis(objs[key]), encoding="utf-8")
    if cli:
        for name, f in data["fis"].items():
            (files / f"{name}.fis").write_text(f, encoding="utf-8")
    return objs


def cli_argv(q: dict, files: Path) -> list[str]:
    op = q["op"]
    if op == "check-structure":
        return [op, "--pcp", str(files / f"{q['pcp']}.pcp"),
                "--grid", str(files / f"{q['grid']}.grid")]
    name = q.get("sys") or q["pcp"] + (".probe" if q.get("probe") else "")
    argv = [op, "--fis", str(files / f"{name}.fis"),
            "--max-rows", str(q["rows"]), "--max-cols", str(q["cols"])]
    if op == "check-access":
        argv[3:3] = ["--trans", "s Q $ T q"]
    return argv


def run_query(api, objs: dict, q: dict, files: Path):
    op = q["op"]
    if op == "recognize":
        return api.recognize(objs[q["sys"]], objs[q["grid"]])
    if op == "recognize_t":
        return api.recognize_with_transition(objs[q["sys"]], objs[q["grid"]], tuple(q["trans"]))
    if op == "fis-to-tiles":
        f = objs[q["sys"]]
        ts = api.fis_to_tiles(f)
        return len(ts.local.delta), api.enumerate_language(f, 3, 3), api.ts_language(ts, 3, 3)
    if op == "tiles-to-fis":
        ts = objs[q["tiles"]]
        back = api.tiles_to_fis(ts)
        return len(back.transitions), api.ts_language(ts, 3, 3), api.enumerate_language(back, 3, 3)
    if op == "pcp-tiles":  # keeps the tile system for the ts-recognize queries
        objs.pop(q["sys"] + ".tiles", None)
        ts = objs[q["sys"] + ".tiles"] = api.fis_to_tiles(objs[q["sys"]])
        return len(ts.local.delta), api.ts_recognize(ts, objs[q["grid"]])
    if op == "ts-recognize":
        return api.ts_recognize(objs[q["sys"] + ".tiles"], objs[q["grid"]])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.main(cli_argv(q, files))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def closed_loop(api, objs, queries, files, check, pause=contextlib.nullcontext,
                seconds=None, count=None, first=0, speed=None):
    """Run queries in order from index ``first``, each after the previous
    one finished, for ``seconds`` or for ``count`` queries, checking each
    output with ``check`` (inside ``pause()``) before the next query
    starts.  With ``speed``, the kernel is timed after a check whenever
    it is due.

    Returns the wall time without the checks and kernel timings, and one
    outcome per query: (query index, start, latency, why it failed or
    None, tiles it made or None).
    """
    outcomes = []
    checking = 0.0
    start = perf_counter()
    i = first
    while (perf_counter() - start - checking < seconds) if count is None else i < first + count:
        k = i % len(queries)
        out = err = None
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
            out = run_query(api, objs, queries[k], files)
        except QueryTimeout as exc:
            err = str(exc)
        except MemoryError:
            err = "out of memory (address-space limit)"
        except Exception as exc:  # a crash fails this query, not the run
            err = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
        with pause():
            why = check(k, out, err)
            if speed is not None and speed.due():
                speed.sample()
        made = out[0] if err is None and queries[k]["op"] in ("fis-to-tiles", "pcp-tiles") else None
        outcomes.append((k, t0, t1 - t0, why, made))
        checking += perf_counter() - t1
        i += 1
    return perf_counter() - start - checking, outcomes


# -- verification ----------------------------------------------------------------

def cells(grids) -> list:
    return [[list(r) for r in g.cells] for g in grids]


class Verifier:
    """Checks outputs against the reference answers, and replays every
    returned witness: ``check_scenario`` on its scenario, and
    ``check_solution`` on the indices that ``structural_check`` reads
    from it."""

    def __init__(self, mods, objs, queries, refs):
        self.m, self.objs, self.queries, self.refs = mods, objs, queries, refs

    def scenario_ok(self, f, sc, grid, trans=None) -> bool:
        return (not self.m["fis"].check_scenario(f, sc) and sc.grid.cells == grid.cells
                and (trans is None or any(trans in row for row in sc.cell_runs)))

    def structure_ok(self, p, sc) -> bool:
        rep = self.m["analysis"].structural_check(p, sc)
        return rep.ok and self.m["pcp"].check_solution(p, rep.x_indices)

    def witness_ok(self, q: dict, text: str) -> bool:
        fis, pcp, grids = self.m["fis"], self.m["pcp"], self.m["grids"]
        p = self.objs["pcp:" + q["pcp"]]
        g = grids.parse_grid(text)
        if q["op"] == "check-access":
            f = self.objs[q["pcp"] + ".probe"]
            sc = fis.recognize_with_transition(f, g, pcp.probe_transition())
            if sc is None or not self.scenario_ok(f, sc, g, pcp.probe_transition()):
                return False
            g = grids.grid(r[:-1] for r in g.cells[:-1])
        f = self.objs.get(q["pcp"]) or pcp.compile_pcp(p)
        sc = fis.recognize(f, g)
        return sc is not None and self.scenario_ok(f, sc, g) and self.structure_ok(p, sc)

    def problem(self, q: dict, ref, out) -> str | None:
        """Why ``out`` is wrong, or None when it is right."""
        op = q["op"]
        if op in ("recognize", "recognize_t"):
            if (out is not None) != ref:
                return f"{'accepted' if out is not None else 'rejected'}, reference says otherwise"
            trans = self.m["fis"].Transition(*q["trans"]) if op == "recognize_t" else None
            if out is not None and not self.scenario_ok(self.objs[q["sys"]], out,
                                                        self.objs[q["grid"]], trans):
                return "returned scenario does not replay"
            return None
        if op in ("fis-to-tiles", "tiles-to-fis"):
            _n, first, second = out
            if {digest(cells(first)), digest(cells(second))} != {ref}:
                return "3x3 languages differ from the reference"
            return None
        if op in ("pcp-tiles", "ts-recognize"):
            got = out[1] if op == "pcp-tiles" else out
            return None if got == ref else f"ts_recognize gave {got}, reference {ref}"
        if out["code"] != ref["code"]:
            return f"exit code {out['code']}, reference {ref['code']}: {out['stderr'].strip()}"
        if op == "check-structure":
            if out["code"] == 0:
                text = out["stdout"]
                line = next((l for l in text.splitlines() if l.startswith("x-indices:")), "")
                idx = tuple(int(t) for t in line.split()[1:])
                if not text.endswith("overall: pass\n") or not self.m["pcp"].check_solution(
                        self.objs["pcp:" + q["pcp"]], idx):
                    return "structural report does not show a solution"
            return None
        if out["stdout"] != ref["stdout"]:
            return "output differs from the reference"
        if op != "enumerate" and out["code"] == 0 and not self.witness_ok(q, out["stdout"]):
            return "returned witness does not replay"
        return None

    def check(self, k: int, out, err) -> str | None:
        return err if err is not None else self.problem(self.queries[k], self.refs[k], out)


def latency_figures(lats: list[float], total: float) -> dict:
    ms = [lat * 1000 for lat in lats]
    return {
        "queries_per_s": len(ms) / total,
        "query_ms.p50": statistics.median(ms),
        "query_ms.p90": (statistics.quantiles(ms, n=10, method="inclusive")[8]
                         if len(ms) > 1 else ms[0]),
    }


# -- main ------------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--files", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    files = Path(args.files)
    for name, text in data["grids"].items():
        (files / f"{name}.grid").write_text(text, encoding="utf-8")
    sys.path.insert(0, args.src)
    signal.signal(signal.SIGALRM, _alarm)

    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPS):
        speed.sample()
        t0 = perf_counter()
        mods = import_fiskit()
        objs = setup(data, make_api(mods), files)
        setups.append((t0, perf_counter() - t0))
    speed.sample()

    queries, refs = queries_of(data), data["refs"]
    result: dict = {
        "setup_s": statistics.median(dt * speed.factor(t0 + dt / 2) for t0, dt in setups),
        "setup_reps": SETUP_REPS,
        "unscaled": {"setup_s": statistics.median(dt for _t0, dt in setups)},
    }

    check = Verifier(mods, objs, queries, refs).check
    if args.trace:
        count = sum(len(r) for r in data["rounds"][:TRACE_ROUNDS[data["workload"]]])
        wall_a, plain = closed_loop(make_api(mods), objs, queries, files, check, count=count)
        tracer = tracing.Tracer()
        tracer.install(mods)
        api = make_api(mods, tracer.wrap)
        setup(data, api, files)
        first = len(tracer.spans)
        wall_b, outcomes = closed_loop(api, objs, queries, files, check, tracer.paused,
                                       count=count)
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans)
        self_sum = sum(tracing.self_times(tracer.spans)[first:])
        own_a = wall_a - sum(lat for _k, _t, lat, _o, _e in plain)
        layers.update({
            "trace.wall_s": wall_b,
            "trace.untraced_wall_s": wall_a,
            "trace.overhead_s": wall_b - wall_a,
            "trace.unaccounted_s": wall_b - self_sum - own_a,
        })
        if args.spans:
            tracer.write(args.spans)
        result["layers"] = layers
        outcomes = plain + outcomes
    else:
        # the first round warms caches and allocator arenas; its outputs
        # are checked like the others but it is not timed
        warm = len(data["rounds"][0])
        _wall, warmup = closed_loop(make_api(mods), objs, queries, files, check, count=warm)
        speed.sample()
        wall, timed = closed_loop(make_api(mods), objs, queries, files, check,
                                  seconds=args.seconds, first=warm, speed=speed)
        speed.sample()
        raw = [lat for _k, _t, lat, _o, _e in timed]
        scaled = [lat * speed.factor(t + lat / 2) for _k, t, lat, _o, _e in timed]
        result.update(latency_figures(scaled, sum(scaled)))
        result["unscaled"].update(latency_figures(raw, wall))
        result.update({
            "wall_s": wall,
            "timed": len(timed),
            "host_speed": CALIBRATION_REF_S / statistics.median(k for _u, k in speed.samples),
        })
        outcomes = warmup + timed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["failures"] = [{"query": queries[k], "why": why}
                          for k, _t, _lat, why, _made in outcomes if why is not None]
    result["executed"] = [(k, made) for k, _t, _lat, _why, made in outcomes]
    Path(args.output).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
