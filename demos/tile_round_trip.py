# Systems and tile systems recognize the same grid languages; both
# directions of the conversion, checked against each other on the
# diagonal language.
# Run as: python3 demos/tile_round_trip.py

from pathlib import Path

from fiskit import (
    enumerate_language,
    fis_to_tiles,
    format_grid,
    parse_fis,
    tiles_to_fis,
    ts_language,
    ts_recognize,
)

data = Path(__file__).parent / "data"
f = parse_fis((data / "diagonal.fis").read_text())

ts = fis_to_tiles(f)
print("local alphabet (one letter per transition):")
for name in ts.local.alphabet:
    print(" ", name, "->", ts.h[name])
print("tiles:", len(ts.local.delta))

# a few of them, written as in a .tiles file: the all-border tile, a
# corner, an interior tile
for (nw, ne), (sw, se) in (ts.local.delta[0], ts.local.delta[1], ts.local.delta[-1]):
    print(f"  {nw} {ne} / {sw} {se}")

# the tile system accepts exactly the grids the system does
want = enumerate_language(f, 3, 3)
got = ts_language(ts, 3, 3)
print("languages agree up to 3x3:", want == got)
for g in got:
    print(format_grid(g))

# and back again: pairs of adjacent local letters become the states
# and the classes of a system with the same language
f2 = tiles_to_fis(ts)
print("round-tripped system:", len(f2.states), "states,",
      len(f2.transitions), "transitions")
print("still the same language:", enumerate_language(f2, 3, 3) == want)

# spot check single grids through the other entry point
print("1x1 [a] accepted by tiles:", ts_recognize(ts, want[0]))
