"""Shared fixtures: reference specs, random spec generators, and the
acceptance summary printed at the end of the run."""
import sys

import numpy as np
import pytest

from ordembed.orders import OrderSpec, bipartite_pairs, complete_pairs

# Generator contract: uniform random permutation of the pair set, then a
# fair coin decides each potential class boundary (linear orders keep all
# boundaries). Covers single-class and all-singleton shapes.


def random_preorder(rng: np.random.Generator, n: int) -> OrderSpec:
    pairs = complete_pairs(n)
    perm = [pairs[k] for k in rng.permutation(len(pairs))]
    classes = [[perm[0]]]
    for p in perm[1:]:
        if rng.integers(0, 2) == 1:
            classes.append([])
        classes[-1].append(p)
    return OrderSpec("complete", n, tuple(tuple(c) for c in classes))


def random_linear_order(rng: np.random.Generator, n: int) -> OrderSpec:
    pairs = complete_pairs(n)
    perm = [pairs[k] for k in rng.permutation(len(pairs))]
    return OrderSpec("complete", n, tuple((p,) for p in perm))


def random_bipartite_preorder(rng: np.random.Generator, n: int,
                              m: int) -> OrderSpec:
    pairs = bipartite_pairs(n, m)
    perm = [pairs[k] for k in rng.permutation(len(pairs))]
    classes = [[perm[0]]]
    for p in perm[1:]:
        if rng.integers(0, 2) == 1:
            classes.append([])
        classes[-1].append(p)
    return OrderSpec("bipartite", n, tuple(tuple(c) for c in classes), m=m)


def random_bipartite_linear(rng: np.random.Generator, n: int,
                            m: int) -> OrderSpec:
    pairs = bipartite_pairs(n, m)
    perm = [pairs[k] for k in rng.permutation(len(pairs))]
    return OrderSpec("bipartite", n, tuple((p,) for p in perm), m=m)


def one_spec_per_realizer(seed: int) -> tuple[OrderSpec, ...]:
    """A preorder, a linear order and a bipartite preorder."""
    rng = np.random.default_rng(seed)
    return (random_preorder(rng, 5), random_linear_order(rng, 5),
            random_bipartite_preorder(rng, 3, 4))


def rank(spec: OrderSpec, pair) -> int:
    """Class rank of pair, read from spec.ranks; a complete pair may be
    given as (j, i)."""
    i, j = pair
    if spec.kind == "complete" and i > j:
        i, j = j, i
    return int(spec.ranks[spec.pair_set().index((i, j))])


def count_calls(monkeypatch, fn) -> list:
    """Replace fn in every ordembed namespace that binds it with a wrapper
    that records the arguments of each call; return the record."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "ordembed" or name.startswith("ordembed.")) and \
                getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.fixture
def preorder4_spec() -> OrderSpec:
    # (1,2) < (2,3) == (1,3) < (3,4) == (2,4) < (1,4)
    return OrderSpec("complete", 4, (
        ((1, 2),), ((2, 3), (1, 3)), ((3, 4), (2, 4)), ((1, 4),)))


@pytest.fixture
def bip32_spec() -> OrderSpec:
    # (2,1) < (2,2) == (1,1) == (3,1) == (3,2) < (1,2) on B_{3,2}
    return OrderSpec("bipartite", 3, (
        ((2, 1),), ((2, 2), (1, 1), (3, 1), (3, 2)), ((1, 2),)), m=2)


def reflected_simplex_gap(n: int) -> float:
    """Coordinate oracle for the two-apex configuration: build a unit
    regular simplex on n-2 vertices, place the two points at unit distance
    from every vertex on both sides of its affine span, measure their gap."""
    v = n - 2
    verts = np.eye(v) / np.sqrt(2.0)
    c = verts.mean(axis=0)
    circum = float(np.linalg.norm(verts[0] - c))
    u = np.ones(v) / np.sqrt(v)
    t = float(np.sqrt(1.0 - circum * circum))
    apex1, apex2 = c + t * u, c - t * u
    for vertex in verts:
        assert abs(np.linalg.norm(apex1 - vertex) - 1.0) < 1e-12
        assert abs(np.linalg.norm(apex2 - vertex) - 1.0) < 1e-12
    return float(np.linalg.norm(apex1 - apex2))


def fd_gradient(spec, config, margin, floor, h=1e-6):
    """Central finite differences of stress_loss over every coordinate."""
    from ordembed.counterexamples import stress_loss
    from ordembed.schoenberg import PointConfig

    blocks = [config.P] if config.Q is None else [config.P, config.Q]
    X0 = np.vstack(blocks)
    npts = len(config.P)

    def as_config(X):
        if config.Q is None:
            return PointConfig(dim=config.dim, P=X)
        return PointConfig(dim=config.dim, P=X[:npts], Q=X[npts:])

    g = np.zeros_like(X0)
    for idx in np.ndindex(*X0.shape):
        Xp = X0.copy()
        Xp[idx] += h
        Xm = X0.copy()
        Xm[idx] -= h
        fp, _ = stress_loss(spec, as_config(Xp), margin, floor)
        fm, _ = stress_loss(spec, as_config(Xm), margin, floor)
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def first_verified_restart(spec, cfg):
    """A plain loop over the falsifier's restarts: the index and
    configuration of the first whose descent ends below FEASIBLE_LOSS and
    verifies, or (None, None)."""
    from ordembed import counterexamples, verifier
    from ordembed.schoenberg import PointConfig

    terms = counterexamples._StressTerms(spec, cfg.dim, cfg.margin, cfg.floor)
    tol = counterexamples.VERIFY_TOL
    for r in range(cfg.restarts):
        X0 = np.random.default_rng([cfg.seed, r]).standard_normal(
            (terms.n_points, cfg.dim))
        f, X, _ = counterexamples._descend(terms, X0, cfg.iters)
        config = PointConfig.from_rows(X, spec.n, spec.kind)
        if (f < counterexamples.FEASIBLE_LOSS
                and verifier.verify(config, spec, tol_abs=tol,
                                    tol_rel=tol).matched):
            return r, config
    return None, None


ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((num, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, passed, detail in sorted(ACCEPTANCE_RESULTS):
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {word} - {detail}")
