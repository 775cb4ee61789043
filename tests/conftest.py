"""Shared fixtures: the three-transition diagonal recognizer and grids."""

from __future__ import annotations

import pytest

from fiskit.fis import FIS, Transition
from fiskit.grids import grid


def make_f1() -> FIS:
    """Recognizer of square grids with ``a`` on the diagonal, ``b``
    above it and ``c`` below it."""
    return FIS(
        alphabet=("a", "b", "c"),
        states=("1", "2"),
        classes=("A", "B"),
        transitions=(
            Transition("1", "A", "a", "B", "2"),
            Transition("1", "B", "b", "B", "1"),
            Transition("2", "A", "c", "A", "2"),
        ),
        initial_states=("1",),
        initial_classes=("A",),
        final_states=("2",),
        final_classes=("B",),
    )


def make_trivial() -> FIS:
    """One letter, one state and one class: every grid is accepted."""
    return FIS(
        alphabet=("a",),
        states=("s",),
        classes=("C",),
        transitions=(Transition("s", "C", "a", "C", "s"),),
        initial_states=("s",),
        initial_classes=("C",),
        final_states=("s",),
        final_classes=("C",),
    )


@pytest.fixture
def f1() -> FIS:
    return make_f1()


def diagonal(n: int):
    """The n x n grid with a on the diagonal, b above, c below."""
    return grid(
        ["a" if i == j else "b" if j > i else "c" for j in range(n)]
        for i in range(n)
    )


@pytest.fixture
def diag1():
    return diagonal(1)


@pytest.fixture
def diag2():
    return diagonal(2)


@pytest.fixture
def diag3():
    return diagonal(3)
