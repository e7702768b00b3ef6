"""Seeded order-spec generator for the benchmark.

Same contract as the test suite's random specs: a uniformly random
permutation of the pair set, then a fair coin decides each potential class
boundary (linear orders keep every boundary). Drawing from the same numpy
Generator, it consumes the same numbers in the same order as the test
helpers, so it yields the same specs. Specs come out as JSON-ready dicts in
the program's spec format; the program only ever sees them as files.
"""
from __future__ import annotations

import numpy as np


def complete_pairs(n: int) -> list[list[int]]:
    return [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def bipartite_pairs(n: int, m: int) -> list[list[int]]:
    return [[i, j] for i in range(1, n + 1) for j in range(1, m + 1)]


def _classes(rng: np.random.Generator, pairs: list, linear: bool) -> list:
    perm = [pairs[k] for k in rng.permutation(len(pairs))]
    if linear:
        return [[p] for p in perm]
    # one bulk draw yields the same coins as one scalar draw per pair
    coins = rng.integers(0, 2, size=len(perm) - 1)
    classes = [[perm[0]]]
    for p, coin in zip(perm[1:], coins):
        if coin == 1:
            classes.append([])
        classes[-1].append(p)
    return classes


def random_preorder(rng: np.random.Generator, n: int) -> dict:
    return {"kind": "complete", "n": n,
            "classes": _classes(rng, complete_pairs(n), linear=False)}


def random_linear_order(rng: np.random.Generator, n: int) -> dict:
    return {"kind": "complete", "n": n,
            "classes": _classes(rng, complete_pairs(n), linear=True)}


def random_bipartite_preorder(rng: np.random.Generator, n: int,
                              m: int) -> dict:
    return {"kind": "bipartite", "n": n, "m": m,
            "classes": _classes(rng, bipartite_pairs(n, m), linear=False)}


def num_pairs(spec: dict) -> int:
    n = spec["n"]
    return n * spec["m"] if spec["kind"] == "bipartite" else n * (n - 1) // 2


def expected_dim(spec: dict) -> int:
    """The dimension the paper's constructions reach: min(n, m) for
    bipartite specs, n-2 for linear orders on n >= 3 points, else n-1."""
    n = spec["n"]
    if spec["kind"] == "bipartite":
        return min(n, spec["m"])
    if n >= 3 and all(len(c) == 1 for c in spec["classes"]):
        return n - 2
    return n - 1
