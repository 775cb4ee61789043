"""Seeded random instances shared by the test modules."""

from __future__ import annotations

import itertools
import random

from fiskit.fis import FIS, Transition
from fiskit.grids import BORDER, grid, windows
from fiskit.tiles import LocalLanguage, Tile, TileSystem


def random_fis(rng: random.Random, states=("1", "2", "3"), classes=("A", "B", "C"),
               alphabet=("a", "b", "c")) -> FIS:
    """A small random system drawing names from the given pools; with
    three-name pools the ``rng`` calls do not depend on the names."""
    states = states[: rng.randint(1, len(states))]
    classes = classes[: rng.randint(1, len(classes))]
    alphabet = alphabet[: rng.randint(1, len(alphabet))]
    seen, trans = set(), []
    for _ in range(rng.randint(0, 8)):
        t = Transition(rng.choice(states), rng.choice(classes),
                       rng.choice(alphabet), rng.choice(classes),
                       rng.choice(states))
        if t not in seen:
            seen.add(t)
            trans.append(t)
    pick = lambda pool: tuple(x for x in pool if rng.random() < 0.6)
    return FIS(
        alphabet=alphabet, states=states, classes=classes,
        transitions=tuple(trans),
        initial_states=pick(states) or (states[0],),
        initial_classes=pick(classes) or (classes[0],),
        final_states=pick(states), final_classes=pick(classes),
    )


def dense_fis(rng: random.Random, density: float, final_states=("2", "3")) -> FIS:
    """3 states, 2 classes, 2 letters, each of the 72 transitions kept
    with probability ``density``; the first two states and both classes
    are initial, both classes final.  By default the first-declared
    state is not final, so a search that tries moves in declaration
    order meets non-final souths first."""
    states, classes, alphabet = ("1", "2", "3"), ("A", "B"), ("a", "b")
    return FIS(
        alphabet=alphabet, states=states, classes=classes,
        transitions=tuple(t for t in itertools.product(states, classes, alphabet, classes, states)
                          if rng.random() < density),
        initial_states=states[:2], initial_classes=classes,
        final_states=final_states, final_classes=classes,
    )


def random_tile_system(rng: random.Random, sources=("p", "q", "r"),
                       target=("x", "y")) -> TileSystem:
    """Window sets seeded from a few random grids, then perturbed.

    Purely random tile sets are almost always empty languages, so the
    tiles come from actual bordered windows; dropping and adding a few
    keeps rejection paths exercised.  Local letters come from
    ``sources`` and target letters from ``target``.
    """
    sources = sources[: rng.randint(1, len(sources))]
    target = target[: rng.randint(1, len(target))]
    mapping = tuple((s, rng.choice(target)) for s in sources)

    tiles: list[Tile] = []
    seen: set[Tile] = set()
    for _ in range(rng.randint(1, 3)):
        m, q = rng.randint(1, 2), rng.randint(1, 2)
        g = grid([[rng.choice(sources) for _ in range(q)] for _ in range(m)])
        for t in windows(g):
            if t not in seen:
                seen.add(t)
                tiles.append(t)
    for _ in range(rng.randint(0, 2)):
        if tiles and rng.random() < 0.5:
            tiles.pop(rng.randrange(len(tiles)))
        else:
            cells = tuple(tuple(rng.choice(sources + (BORDER,)) for _ in range(2))
                          for _ in range(2))
            t = tuple(cells)
            if t not in seen:
                seen.add(t)
                tiles.append(t)
    del tiles[20:]

    return TileSystem(
        local=LocalLanguage(alphabet=sources, delta=tuple(tiles)),
        target=target,
        mapping=mapping,
    )
