"""Seeded random sequents for the `search` workload.

Only the standard library's `random.Random(seed)` drives the choices, so a
seed names one list of sequents on every machine and Python version that
keeps `random`'s documented seeding.  The program under test receives only
the finished `Sequent` values.
"""

from __future__ import annotations

import random

from hooplog import (
    ALL_THEORIES,
    ONE,
    ZERO,
    Imp,
    Neg,
    Nor,
    SDisj,
    SImp,
    Sequent,
    Tensor,
    Var,
    WConj,
)

# Weighted so that the core connectives of the kernel dominate while every
# derived connective still occurs.
_BINARY = (Imp,) * 5 + (Tensor,) * 3 + (WConj, SDisj, SImp, Nor)
_NAMES = ("A", "B", "C")


def _formula(rng: random.Random, size: int, names: tuple[str, ...]):
    """A formula of `size` nodes: variables, constants and connectives."""
    if size <= 1:
        r = rng.random()
        if r < 0.1:
            return ONE
        if r < 0.15:
            return ZERO
        return Var(rng.choice(names))
    if size == 2 or rng.random() < 0.15:
        return Neg(_formula(rng, size - 1, names))
    left = rng.randint(1, size - 2)
    return rng.choice(_BINARY)(
        _formula(rng, left, names), _formula(rng, size - 1 - left, names)
    )


def random_sequent(rng: random.Random, k: int):
    """The k-th (theory, sequent) of a list: 2-3 variables, formula sizes
    1-6, 0-2 context formulas.  Theory, context length and goal size cycle
    with k, so that every list has the same share of each and lists of
    different seeds cost about the same; the rest is drawn."""
    names = _NAMES[: rng.randint(2, 3)]
    theory = ALL_THEORIES[k % 9]
    n_context = (k // 9) % 3
    goal_size = 1 + (k // 27) % 6
    context = tuple(
        _formula(rng, rng.randint(1, 6), names) for _ in range(n_context)
    )
    return theory, Sequent(context, _formula(rng, goal_size, names))


def sequents(seed: int, count: int):
    rng = random.Random(seed)
    return [random_sequent(rng, k) for k in range(count)]
