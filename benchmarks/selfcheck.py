"""Self-check of the benchmark itself, not of fiskit.

    python3 benchmarks/selfcheck.py

From the root of a checkout, checks that:

* the same seed generates byte-identical inputs and another seed does not;
* a short untraced run of every workload prints every end-to-end metric
  of ``BENCHMARK.json`` with its unit, and a short traced run every
  per-layer metric, each with all outputs correct;
* in the traced runs the spans' self times plus the benchmark's own
  untraced time account for the traced wall time within the tracing
  overhead;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, a
  run fails without printing a result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SECONDS = "1"


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, f"{HERE.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 7), workloads.generate(name, 7)
        if workloads.digest(a) != workloads.digest(b):
            problems.append(f"{name}: seed 7 gave different inputs twice")
        if workloads.digest(a) == workloads.digest(workloads.generate(name, 8)):
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")

    for name in workloads.WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(["--workload", name, "--seed", "7", "--seconds", SECONDS,
                        "--trace", trace], root)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.splitlines()
            printed = {parts[0]: parts[2] for parts in map(str.split, lines[:-1])
                       if len(parts) >= 3}
            final = json.loads(lines[-1])
            if not final["correct"] or final["failed"]:
                problems.append(f"{where}: {final['failed']} failed queries")
            for m in spec[group]:
                if printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
                if final["metrics"].get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing from the result line")
            if trace == "1" and not any(l.startswith("trace.accounted True") for l in lines):
                problems.append(f"{where}: self times do not account for the traced wall time")

    bare = root / ".fiskit-bench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = run(["--workload", "membership", "--seed", "7", "--seconds", SECONDS,
                "--trace", "0"], bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a run without the program succeeded or printed a result")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
