"""fiskit benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload membership --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/fiskit`` and
``tests/oracles.py`` must be there).  The run generates its inputs from
the seed, computes their reference answers, then starts
``worker.py`` as a child process that sets up, runs the closed loop and
checks every output.  With ``--trace 0`` it reports the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see ``BENCHMARK.json``).
Every metric is printed on its own line with its unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Scratch files go to ``.fiskit-bench/`` under the checkout and are
removed at the end, except the span files of traced runs, kept in
``.fiskit-bench/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The worker may use this much address space; beyond it an allocation
# fails and only the query that made it counts as failed.
ADDRESS_SPACE_BYTES = 2 << 30
RUN_LIMIT_S = 170


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def fail(message: str) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = monotonic()

    root = Path.cwd()
    src, tests = root / "src", root / "tests"
    spec_path = root / "BENCHMARK.json"
    for need in (src / "fiskit" / "__init__.py", tests / "oracles.py", spec_path):
        if not need.is_file():
            return fail(f"{need.relative_to(root)} not found; run from a fiskit checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    data = workloads.generate(args.workload, args.seed)
    sys.path[:0] = [str(src), str(tests)]
    import reference  # imports tests/oracles.py, hence fiskit
    refs = [r for rnd in reference.answers(data) for r in rnd]
    # the worker gets the input texts, and languages only as digests,
    # so that reference data adds little to its memory
    job = {k: data[k] for k in ("workload", "fis", "pcp", "tiles", "grids", "rounds")}
    job["refs"] = [workloads.digest(r) if isinstance(r, list) else r for r in refs]

    scratch = root / ".fiskit-bench"
    run_dir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    files = run_dir / "files"
    files.mkdir(parents=True, exist_ok=True)
    spans = scratch / "trace" / f"{args.workload}-seed{args.seed}.tsv"
    if args.trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
    try:
        (run_dir / "input.json").write_text(json.dumps(job), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--input", str(run_dir / "input.json"), "--output", str(run_dir / "out.json"),
               "--files", str(files), "--src", str(src),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", str(spans)]
        # One worker process with one thread, whatever the core count: a
        # CLI user waits for each verdict, so the loop has one client.
        child = subprocess.Popen(cmd, cwd=root, preexec_fn=limit_address_space)
        try:
            code = child.wait(timeout=max(1.0, RUN_LIMIT_S - (monotonic() - started)))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            return fail(f"worker did not finish within {RUN_LIMIT_S} s")
        if code != 0:
            return fail(f"worker exited with code {code}")
        result = json.loads((run_dir / "out.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    return report(args, data, refs, spec, wanted, result, spans if args.trace else None)


def report(args, data, refs, spec, wanted, result, spans) -> int:
    n, failed = len(result["executed"]), len(result["failures"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"inputs {workloads.digest(data)[:16]}")
    figures = dict(result.get("layers", {}))
    figures.update(workloads.input_counters(data, refs, result["executed"]))
    figures["setup_s"] = result["setup_s"]
    figures["peak_rss_mb"] = result["peak_rss_mb"]
    figures["failed_frac"] = failed / n
    unscaled = result["unscaled"]
    notes = {"setup_s": f"median of {result['setup_reps']} set-ups; "
                        f"unscaled {unscaled['setup_s']:.6g}",
             "failed_frac": f"{failed} of {n} queries"}
    if not args.trace:
        timed = result["timed"]
        for key in ("queries_per_s", "query_ms.p50", "query_ms.p90"):
            figures[key] = result[key]
            notes[key] = f"n={timed}; unscaled {unscaled[key]:.6g}"
        notes["queries_per_s"] = (f"{timed} timed queries in {result['wall_s']:.3f} s wall; "
                                  f"unscaled {unscaled['queries_per_s']:.6g}")
        print(f"host speed {result['host_speed']:.4g} x the reference host")
    shown = [m["name"] for m in wanted]
    if not args.trace:
        shown.append("failed_frac")
    shown += [k for k in sorted(figures) if k.startswith("input.") and k not in shown]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in shown:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {figures.get(name, 0.0):.6g} {units.get(name, '1')}{note}")
    if args.trace:  # 10 ms of slack for timer and scheduling noise
        ok = abs(figures["trace.unaccounted_s"]) <= abs(figures["trace.overhead_s"]) + 0.01
        print(f"trace.accounted {ok}  (spans in {spans})")
    for f in result["failures"]:
        q = f["query"]
        names = [q[k].removesuffix(".probe") for k in ("sys", "pcp", "tiles", "grid") if k in q]
        texts = {name: data[kind][name] for name in names
                 for kind in ("fis", "pcp", "tiles", "grids") if name in data[kind]}
        print("FAILED " + json.dumps({"why": f["why"], "query": q, "texts": texts}))
    metrics = {m["name"]: {"value": figures.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
