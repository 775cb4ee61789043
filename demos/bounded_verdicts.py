# The undecidable questions, asked politely within bounds: emptiness,
# finiteness evidence and probe-transition accessibility, run on one
# solvable and one unsolvable instance side by side.
# Run as: python3 demos/bounded_verdicts.py

from pathlib import Path

from fiskit import (
    bounded_accessibility,
    bounded_emptiness,
    compile_pcp,
    compile_pcp_probe,
    finiteness_evidence,
    format_finiteness_report,
    format_grid,
    parse_pcp,
    probe_transition,
)

data = Path(__file__).parent / "data"
solvable = parse_pcp((data / "unit.pcp").read_text())
hopeless = parse_pcp((data / "mismatch.pcp").read_text())  # ab vs ba

for name, p in (("unit", solvable), ("mismatch", hopeless)):
    print(f"== instance {name}: x={p.x} y={p.y}")
    f = compile_pcp(p)

    found = bounded_emptiness(f, 6, 8)
    if found is None:
        print("emptiness: no accepted grid within 6x8")
    else:
        print("emptiness: first accepted grid")
        print(format_grid(found[0]), end="")

    # the report decides exactly whether the witness's width has accepted
    # grids of unboundedly many heights; here it has, as $-rows pump
    print(format_finiteness_report(finiteness_evidence(f, 6, 8)),
          end="")

    # the probe extension makes "is this transition ever used" the same
    # question as emptiness of the unextended system
    f1 = compile_pcp_probe(p)
    hit = bounded_accessibility(f1, probe_transition(), 6, 9)
    if hit is None:
        print("probe: unreachable within 6x9")
    else:
        print(f"probe: reached in a {hit[0].rows}x{hit[0].cols} grid")
    print()
