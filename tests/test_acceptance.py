"""Acceptance gate: nine shipping criteria, one pass/fail line each.

Every test records its verdict through conftest.record_criterion before
asserting, so the terminal summary always lists all nine lines even when
one of them fails.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import (fd_gradient, random_bipartite_preorder,
                      random_linear_order, random_preorder, record_criterion,
                      reflected_simplex_gap)
import ordembed
from ordembed import (constructions, counterexamples, orders, schoenberg,
                      verifier)
from ordembed.counterexamples import FalsifierConfig
from ordembed.schoenberg import PointConfig


def _finish(num: int, fails: list, detail: str) -> None:
    record_criterion(num, not fails, detail if not fails else "; ".join(fails[:4]))
    assert not fails, fails


def test_criterion_1_preorder_upper_bound():
    rng = np.random.default_rng(1001)
    fails = []
    worst_ratio = float("inf")
    t0 = time.perf_counter()
    for n in range(3, 9):
        for _ in range(200):
            spec = random_preorder(rng, n)
            report = constructions.realize_preorder_complete(spec)
            check = verifier.verify(report.config, spec)
            if report.config.dim != n - 1:
                fails.append(f"dim {report.config.dim} != {n - 1}")
            if not check.matched:
                fails.append(f"verify mismatch at n={n}")
            if not check.margin >= report.epsilon / 2:
                fails.append(f"margin {check.margin} < eps/2 at n={n}")
            elif np.isfinite(check.margin):
                worst_ratio = min(worst_ratio, check.margin / report.epsilon)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        fails.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(1, fails, f"1200 preorders realized in R^(n-1), min margin/eps "
                      f"{worst_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_2_linear_upper_bound():
    rng = np.random.default_rng(1002)
    fails = []
    t0 = time.perf_counter()
    for n in range(3, 9):
        for _ in range(200):
            spec = random_linear_order(rng, n)
            report = constructions.realize(spec)
            check = verifier.verify(report.config, spec)
            if report.config.dim != n - 2:
                fails.append(f"dim {report.config.dim} != {n - 2}")
            if not check.matched:
                fails.append(f"verify mismatch at n={n}")
            i, j = spec.classes[0][0]
            dmin = schoenberg.distances_of(report.config)[i - 1, j - 1]
            if not 0.0 < dmin < 1.0:
                fails.append(f"min pair distance {dmin} outside (0,1) at n={n}")
            if not check.distinctness > 0.0:
                fails.append(f"coincident points at n={n}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        fails.append(f"runtime {elapsed:.1f}s >= 120s")
    _finish(2, fails, f"1200 linear orders realized in R^(n-2), min pair "
                      f"in (0,1), all points distinct, {elapsed:.1f}s")


def test_criterion_3_bipartite_upper_bound():
    rng = np.random.default_rng(1003)
    fails = []
    least_cross = float("inf")
    t0 = time.perf_counter()
    for n in range(2, 7):
        for m in range(2, 7):
            for _ in range(200):
                spec = random_bipartite_preorder(rng, n, m)
                report = constructions.realize(spec)
                check = verifier.verify(report.config, spec)
                if report.config.dim != min(n, m):
                    fails.append(f"dim {report.config.dim} != {min(n, m)}")
                if not check.matched:
                    fails.append(f"verify mismatch at ({n},{m})")
                least_cross = min(least_cross, check.distinctness)
                if not check.distinctness >= 1.0 - 1e-9:
                    fails.append(f"cross distance {check.distinctness} < 1")
    elapsed = time.perf_counter() - t0
    _finish(3, fails, f"5000 bipartite preorders realized in R^min(n,m), "
                      f"least P-to-Q distance {least_cross:.12f}, {elapsed:.1f}s")


def test_criterion_4_schoenberg_round_trip():
    rng = np.random.default_rng(1004)
    fails = []
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 10))
        config = PointConfig(dim=d, P=rng.standard_normal((n, d)))
        D = schoenberg.distances_of(config)
        D = D / D.max()
        back = schoenberg.distances_of(
            schoenberg.factor_points(schoenberg.gram_from_distances(D, base=n),
                                     dim=d))
        worst = max(worst, float(np.abs(back - D).max()))
    if worst > 1e-8:
        fails.append(f"round-trip error {worst:.3e} > 1e-8")
    _finish(4, fails, f"200 configs (n<=10, d<=9), max distance error "
                      f"{worst:.2e} <= 1e-8")


def test_criterion_5_gram_limit():
    # the epsilon -> 0 limit of every construction is the regular simplex;
    # its doubled Gram is I + J exactly, with minimal eigenvalue 1
    fails = []
    worst = 0.0
    for n in range(2, 9):
        pairs = tuple(orders.complete_pairs(n))
        spec = orders.OrderSpec("complete", n, (pairs,))
        D = constructions.perturbed_distances(spec, 0.0)
        L = 2.0 * schoenberg.gram_from_distances(D, base=n).matrix
        k = n - 1
        if not np.array_equal(L, np.eye(k) + np.ones((k, k))):
            fails.append(f"doubled limit Gram differs from I+J at n={n}")
        if n >= 3:
            err = abs(schoenberg.min_eigenvalue(L) - 1.0)
            worst = max(worst, err)
            if err > 1e-9:
                fails.append(f"min eigenvalue off by {err:.2e} at n={n}")
    _finish(5, fails, f"doubled limit Gram equals I+J exactly (diag 2, "
                      f"off-diag 1) for n=2..8; min eig 1 within {worst:.1e}")


def test_criterion_6_closed_form_bound():
    fails = []
    b3 = counterexamples.simplex_diameter_bound(3)
    b4 = counterexamples.simplex_diameter_bound(4)
    if b3 != 2.0:
        fails.append(f"bound(3) = {b3!r} != 2.0")
    if abs(b4 - np.sqrt(3.0)) > 1e-12:
        fails.append(f"bound(4) off sqrt(3) by {abs(b4 - np.sqrt(3.0)):.2e}")
    worst = 0.0
    for n in range(3, 9):
        err = abs(counterexamples.simplex_diameter_bound(n)
                  - reflected_simplex_gap(n))
        worst = max(worst, err)
        if err > 1e-12:
            fails.append(f"coordinate oracle disagrees by {err:.2e} at n={n}")
    _finish(6, fails, f"bound(3)=2, bound(4)=sqrt(3); reflected-simplex "
                      f"oracle agrees within {worst:.1e} for n=3..8")


FALSIFIER_LEGS = (
    ("d4_linear", 4, 1),
    ("diameter_preorder", 3, 1),
    ("diameter_preorder", 4, 2),
    ("diameter_preorder", 5, 3),
    ("block_linear", 4, 1),
    ("block_linear", 5, 2),
    ("bip_cyclic_linear", 3, 1),
    ("bip_cyclic_linear", 4, 2),
    ("bip_affine_preorder", 3, 2),
    ("bip_affine_preorder", 4, 3),
)


def test_criterion_7_falsifier_legs():
    fails = []
    weakest = float("inf")
    t0 = time.perf_counter()
    for name, n, lo in FALSIFIER_LEGS:
        spec = counterexamples.gallery(name, n)
        rep_lo = counterexamples.falsify(spec, FalsifierConfig(dim=lo))
        if rep_lo.feasible or rep_lo.best_loss < 1e-6:
            fails.append(f"{name}({n}) not refuted at d={lo}: "
                         f"loss {rep_lo.best_loss:.3e}")
        weakest = min(weakest, rep_lo.best_loss)
        rep_hi = counterexamples.falsify(spec, FalsifierConfig(dim=lo + 1))
        if not rep_hi.feasible or rep_hi.best_loss >= 1e-10:
            fails.append(f"{name}({n}) not recovered at d={lo + 1}: "
                         f"loss {rep_hi.best_loss:.3e}")
        built = constructions.realize(spec)
        if not verifier.verify(built.config, spec).matched:
            fails.append(f"{name}({n}) constructive realizer fails verify")
        if name != "bip_cyclic_linear" and built.config.dim != lo + 1:
            # constructions land exactly one dimension above each refuted one
            fails.append(f"{name}({n}) construction dim {built.config.dim} "
                         f"!= {lo + 1}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        fails.append(f"runtime {elapsed:.1f}s >= 600s")
    _finish(7, fails, f"20 falsifier legs at 100 restarts / 5000 iters: "
                      f"weakest refutation loss {weakest:.2e}, feasible one "
                      f"dimension up, cross-checked, {elapsed:.0f}s")


def test_criterion_8_gradient_correctness():
    rng = np.random.default_rng(1008)
    fails = []
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        if rng.integers(0, 2) == 1:
            spec = random_preorder(rng, int(rng.integers(3, 7)))
            config = PointConfig(dim=d, P=rng.standard_normal((spec.n, d)))
        else:
            spec = random_bipartite_preorder(rng, int(rng.integers(2, 6)),
                                             int(rng.integers(2, 6)))
            config = PointConfig(dim=d,
                                 P=rng.standard_normal((spec.n, d)),
                                 Q=rng.standard_normal((spec.m, d)))
        _, grad = counterexamples.stress_loss(spec, config)
        fd = fd_gradient(spec, config, counterexamples.MARGIN,
                         counterexamples.FLOOR)
        rel = float(np.abs(grad - fd).max()) / max(float(np.abs(fd).max()),
                                                   1e-12)
        worst = max(worst, rel)
        if rel > 1e-5:
            fails.append(f"gradient off by {rel:.2e}")
    _finish(8, fails, f"100 instances, worst relative gradient error "
                      f"{worst:.2e} <= 1e-5")


def test_criterion_9_determinism(preorder4_spec, tmp_path):
    fails = []
    spec_a = tmp_path / "preorder4.json"
    orders.save(preorder4_spec, str(spec_a))
    spec_b = tmp_path / "diameter4.json"
    orders.save(counterexamples.gallery("diameter_preorder", 4), str(spec_b))
    # the fresh interpreters import the package these tests imported
    src = str(Path(ordembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run_once(tag: str) -> bytes:
        d = tmp_path / tag
        d.mkdir()
        pts = d / "points.json"
        chunks = []
        jobs = (
            (["realize", str(spec_a), str(pts)], 0),
            (["verify", str(spec_a), str(pts)], 0),
            (["induce", str(pts)], 0),
            (["falsify", str(spec_b), str(d / "lo.json"), "--dim", "2",
              "--restarts", "20", "--iters", "1500", "--seed", "0"], 1),
            (["falsify", str(spec_b), str(d / "hi.json"), "--dim", "3",
              "--restarts", "20", "--iters", "1500", "--seed", "0"], 0),
        )
        for argv, want_rc in jobs:
            proc = subprocess.run([sys.executable, "-m", "ordembed.cli"]
                                  + argv, capture_output=True, env=env)
            if proc.returncode != want_rc:
                fails.append(f"{argv[0]} exited {proc.returncode}, "
                             f"wanted {want_rc}")
            chunks.append(proc.stdout)
        for name in ("points.json", "lo.json", "hi.json"):
            chunks.append((d / name).read_bytes())
        return b"".join(chunks)

    first = run_once("one")
    second = run_once("two")
    if first != second:
        fails.append("seed-0 reruns differ")
    _finish(9, fails, "realize/verify/induce/falsify stdout and artifacts "
                      "byte-identical across two seed-0 runs in fresh "
                      "interpreters")
