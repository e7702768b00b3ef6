import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (FALSIFIER_LEGS, fd_gradient, first_verified_restart,
                      random_bipartite_preorder, random_linear_order,
                      random_preorder, rank, reflected_simplex_gap)
from ordembed import cli, counterexamples, orders, schoenberg, verifier
from ordembed.constructions import realize, realize_preorder_complete
from ordembed.counterexamples import (FalsifierConfig, falsify, gallery,
                                      infeasible_dimension,
                                      simplex_diameter_bound, stress_loss)
from ordembed.errors import (BadSize, NonFiniteEntry, ShapeMismatch,
                             UnknownName)
from ordembed.orders import OrderSpec, complete_pairs
from ordembed.schoenberg import MAX_PAIRS, PointConfig

STOP_REASONS = {"converged", "stall", "no_step", "zero_gradient", "cap"}


def test_gallery_names_and_validation():
    with pytest.raises(UnknownName):
        gallery("nope", 4)
    for name, n in [("d4_linear", 4), ("block_linear", 5),
                    ("diameter_preorder", 4), ("bip_cyclic_linear", 3),
                    ("bip_affine_preorder", 4)]:
        orders.validate(gallery(name, n))


def test_gallery_size_limits():
    with pytest.raises(BadSize):
        gallery("d4_linear", 5)
    with pytest.raises(BadSize):
        gallery("block_linear", 3)
    with pytest.raises(BadSize):
        gallery("diameter_preorder", 2)
    with pytest.raises(BadSize):
        gallery("bip_cyclic_linear", 2)
    with pytest.raises(BadSize):
        gallery("bip_affine_preorder", 2)
    # past d4_linear, each admissible range ends at the last size within
    # the pair cap
    for name, pairs in [("block_linear", lambda n: n * (n - 1) // 2),
                        ("diameter_preorder", lambda n: n * (n - 1) // 2),
                        ("bip_cyclic_linear", lambda n: n * n),
                        ("bip_affine_preorder", lambda n: n * n)]:
        top = counterexamples.FAMILIES[name][1][-1]
        assert pairs(top) <= MAX_PAIRS < pairs(top + 1)
        with pytest.raises(BadSize, match=name):
            gallery(name, top + 1)


def test_gallery_deterministic():
    for name, n in [("d4_linear", 4), ("block_linear", 6),
                    ("bip_cyclic_linear", 4), ("bip_affine_preorder", 5)]:
        assert gallery(name, n) == gallery(name, n)


def test_d4_linear_audit():
    spec = gallery("d4_linear", 4)
    assert spec.is_linear() and spec.num_classes == 6
    assert rank(spec, (1, 2)) < rank(spec, (1, 3))
    assert rank(spec, (2, 4)) < rank(spec, (3, 4))
    for p in complete_pairs(4):
        if p != (1, 4):
            assert rank(spec, p) < rank(spec, (1, 4))


def test_block_linear_audit():
    for n in (4, 5, 6):
        spec = gallery("block_linear", n)
        assert spec.is_linear()
        tail = {n - 2, n - 1, n}
        low = [(i, j) for i in range(1, n - 2) for j in sorted(tail)]
        mid = [(a, b) for a in sorted(tail) for b in sorted(tail) if a < b]
        top = [(i, j) for i in range(1, n - 2) for j in range(i + 1, n - 2)]
        for a in low:
            for b in mid:
                assert rank(spec, a) < rank(spec, b)
        for b in mid:
            for c in top:
                assert rank(spec, b) < rank(spec, c)


def test_diameter_preorder_audit():
    spec = gallery("diameter_preorder", 4)
    assert spec.classes[0] == ((3, 4),)
    assert frozenset(spec.classes[1]) == frozenset(
        p for p in complete_pairs(4) if p != (3, 4))
    assert spec.num_classes == 2
    assert gallery("diameter_preorder", 7).classes[0] == ((6, 7),)


def test_bip_cyclic_audit():
    for n in (3, 4, 5):
        spec = gallery("bip_cyclic_linear", n)
        assert spec.is_linear()
        assert spec.num_classes == n * n
        for col in range(1, n + 1):
            rows = [((col - 1 + k) % n) + 1 for k in range(n)]
            for a, b in zip(rows, rows[1:]):
                assert rank(spec, (a, col)) < rank(spec, (b, col))


def test_bip_cyclic_3_quoted_chains():
    spec = gallery("bip_cyclic_linear", 3)
    chains = [[(1, 1), (2, 1), (3, 1)], [(2, 2), (3, 2), (1, 2)],
              [(3, 3), (1, 3), (2, 3)]]
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert rank(spec, a) < rank(spec, b)


def test_bip_affine_audit():
    for n in (3, 4, 5, 6):
        spec = gallery("bip_affine_preorder", n)
        row1 = {rank(spec, (1, j)) for j in range(1, n + 1)}
        row2 = {rank(spec, (2, j)) for j in range(1, n + 1)}
        assert len(row1) == 1 and len(row2) == 1
        assert rank(spec, (1, 1)) < rank(spec, (2, 1))
        for i in range(3, n):
            cut = n + 2 - i
            lo = {rank(spec, (i, j)) for j in range(1, cut + 1)}
            hi = {rank(spec, (i, j)) for j in range(cut + 1, n + 1)}
            assert len(lo) == 1 and len(hi) == 1
            assert min(lo) < min(hi)
        for j in range(1, n):
            assert rank(spec, (n, j)) < rank(spec, (n, j + 1))


def test_infeasible_dimension_builds_nothing(monkeypatch):
    def refuse(n):
        raise AssertionError(f"built the family at n = {n}")
    _, sizes, dim = counterexamples.FAMILIES["block_linear"]
    monkeypatch.setitem(counterexamples.FAMILIES, "block_linear",
                        (refuse, sizes, dim))
    assert infeasible_dimension("block_linear", 800) == 797
    with pytest.raises(BadSize):
        infeasible_dimension("block_linear", 3)
    with pytest.raises(UnknownName):
        infeasible_dimension("nope", 4)


def test_infeasible_dimension_table():
    assert infeasible_dimension("d4_linear", 4) == 1
    assert infeasible_dimension("block_linear", 5) == 2
    assert infeasible_dimension("diameter_preorder", 4) == 2
    assert infeasible_dimension("bip_cyclic_linear", 4) == 2
    assert infeasible_dimension("bip_affine_preorder", 4) == 3


def test_falsifier_legs_dimensions_are_the_gallery_table():
    assert [dim for _, _, dim in FALSIFIER_LEGS] == [
        infeasible_dimension(name, n) for name, n, _ in FALSIFIER_LEGS]


def test_simplex_diameter_bound_values():
    assert simplex_diameter_bound(3) == 2.0
    assert abs(simplex_diameter_bound(4) - np.sqrt(3.0)) < 1e-12
    with pytest.raises(BadSize):
        simplex_diameter_bound(2)


def test_simplex_diameter_bound_limit():
    prev = simplex_diameter_bound(3)
    for n in range(4, 40):
        cur = simplex_diameter_bound(n)
        assert np.sqrt(2.0) < cur < prev
        prev = cur


def test_simplex_diameter_bound_vs_coordinate_oracle():
    for n in range(3, 11):
        assert abs(simplex_diameter_bound(n)
                   - reflected_simplex_gap(n)) < 1e-12


def test_stress_loss_zero_on_ordered_line():
    # distances 1, 2.4, 1.4 already respect the spec with room to spare
    spec = OrderSpec("complete", 3, (((1, 2),), ((2, 3),), ((1, 3),)))
    config = PointConfig(dim=1, P=np.array([[0.0], [1.0], [2.4]]))
    loss, grad = stress_loss(spec, config, margin=0.05, floor=0.05)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((3, 1)))


def test_stress_loss_single_pair_no_constraints():
    spec = OrderSpec("complete", 2, (((1, 2),),))
    config = PointConfig(dim=3, P=np.array([[0.0, 0, 0], [0.5, 1, -2]]))
    loss, grad = stress_loss(spec, config)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((2, 3)))


def test_stress_loss_hand_computed_violation():
    # collinear 0, 1, 3 against the reversed order: normalized squared
    # distances are 3/14, 12/14, 27/14, so both hinge steps are violated
    spec = OrderSpec("complete", 3, (((1, 3),), ((2, 3),), ((1, 2),)))
    config = PointConfig(dim=1, P=np.array([[0.0], [1.0], [3.0]]))
    margin = 0.05
    h1 = margin + 27.0 / 14.0 - 12.0 / 14.0
    h2 = margin + 12.0 / 14.0 - 3.0 / 14.0
    expected = h1 * h1 + h2 * h2
    loss, _ = stress_loss(spec, config, margin=margin, floor=0.05)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_stress_loss_floor_activates_on_collapse():
    spec = OrderSpec("complete", 3, (tuple(complete_pairs(3)),))
    P = np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 0.0]])
    loss, _ = stress_loss(spec, PointConfig(dim=2, P=P),
                          margin=0.05, floor=0.05)
    assert loss > 1e-4


def test_stress_loss_near_zero_on_construction_outputs():
    rng = np.random.default_rng(50)
    for _ in range(12):
        if rng.integers(0, 2) == 1:
            spec = random_preorder(rng, int(rng.integers(3, 7)))
        else:
            spec = random_bipartite_preorder(rng, int(rng.integers(2, 5)),
                                             int(rng.integers(2, 5)))
        report = realize(spec)
        loss, _ = stress_loss(spec, report.config, margin=1e-9, floor=1e-9)
        assert loss < 1e-20


def test_stress_loss_shape_mismatch(bip32_spec):
    config = PointConfig(dim=2, P=np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        stress_loss(bip32_spec, config)


@pytest.mark.parametrize("margin, floor", [
    ("x", 0.05), (-1.0, 0.05), (0.0, 0.05), (np.nan, 0.05), (True, 0.05),
    (0.05, None), (0.05, -1.0), (0.05, np.inf), (1e200, 0.05)])
def test_stress_loss_refuses_what_falsifier_config_refuses(margin, floor):
    # a margin of -1.0 read a loss of 0 for a config that violates nothing,
    # and "x" escaped as numpy's ValueError
    spec = OrderSpec("complete", 3, (((1, 2),), ((2, 3),), ((1, 3),)))
    config = PointConfig(dim=1, P=np.array([[0.0], [1.0], [2.4]]))
    with pytest.raises(BadSize) as want:
        FalsifierConfig(dim=1, margin=margin, floor=floor)
    with pytest.raises(BadSize) as got:
        stress_loss(spec, config, margin=margin, floor=floor)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stress_loss_not_finite_raises_without_warning():
    spec = OrderSpec("complete", 3, (((1, 2), (1, 3), (2, 3)),))
    # a NaN coordinate; coincident points, whose mean squared distance is
    # 0; squares that overflow
    for P in ([[np.nan], [0.0], [1.0]], [[2.0], [2.0], [2.0]],
              [[1e200], [-1e200], [0.0]]):
        with pytest.raises(NonFiniteEntry):
            stress_loss(spec, PointConfig(dim=1, P=np.array(P)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_float32_margin_is_checked_without_an_overflow_warning():
    # compared in float32, SHIFT_MAX (1.16e77) overflowed its cast
    spec = OrderSpec("complete", 3, (((1, 2),), ((2, 3),), ((1, 3),)))
    config = PointConfig(dim=1, P=np.array([[0.0], [1.0], [2.4]]))
    margin = np.float32(0.05)
    FalsifierConfig(dim=1, margin=margin)
    loss, grad = stress_loss(spec, config, margin=margin)
    want_loss, want_grad = stress_loss(spec, config, margin=float(margin))
    assert loss == want_loss and np.array_equal(grad, want_grad)


def test_stress_gradient_vs_finite_differences_sample():
    rng = np.random.default_rng(51)
    for _ in range(20):
        if rng.integers(0, 2) == 1:
            spec = random_preorder(rng, int(rng.integers(3, 6)))
            npts = spec.n
            config = PointConfig(dim=3, P=rng.standard_normal((npts, 3)))
        else:
            spec = random_bipartite_preorder(rng, int(rng.integers(2, 5)),
                                             int(rng.integers(2, 5)))
            config = PointConfig(dim=3,
                                 P=rng.standard_normal((spec.n, 3)),
                                 Q=rng.standard_normal((spec.m, 3)))
        _, grad = stress_loss(spec, config)
        fd = fd_gradient(spec, config, counterexamples.MARGIN,
                         counterexamples.FLOOR)
        denom = max(float(np.abs(fd).max()), 1e-12)
        assert float(np.abs(grad - fd).max()) / denom < 1e-5


def test_falsifier_config_validation():
    with pytest.raises(BadSize):
        FalsifierConfig(dim=0)
    with pytest.raises(BadSize):
        FalsifierConfig(dim=1, restarts=0)
    with pytest.raises(BadSize):
        FalsifierConfig(dim=1, iters=0)
    with pytest.raises(BadSize):
        FalsifierConfig(dim=1, margin=0.0)
    with pytest.raises(BadSize, match="seed must be >= 0"):
        FalsifierConfig(dim=1, seed=-1)


def test_falsifier_config_refuses_non_integer_sizes():
    for name in ("dim", "restarts", "iters", "seed"):
        for value in (1.5, 2.0, True, "3", None):
            with pytest.raises(BadSize, match="must be integers"):
                FalsifierConfig(**{"dim": 1, name: value})
    config = FalsifierConfig(dim=np.int64(2), restarts=np.int32(3), seed=0)
    assert config.dim == 2 and config.restarts == 3


def test_falsify_feasible_case_verifies():
    spec = gallery("diameter_preorder", 3)
    report = falsify(spec, FalsifierConfig(dim=2, restarts=10, iters=2000))
    assert report.feasible
    assert report.best_loss < 1e-10
    assert verifier.verify(report.best_config, spec,
                           tol_abs=1e-5, tol_rel=1e-5).matched


def test_falsify_infeasible_case():
    spec = gallery("diameter_preorder", 4)
    report = falsify(spec, FalsifierConfig(dim=2, restarts=10, iters=2000))
    assert not report.feasible
    assert report.best_loss > 1e-6
    assert report.restarts == 10
    assert len(report.per_restart_losses) == 10


def test_falsify_deterministic():
    spec = gallery("d4_linear", 4)
    cfg = FalsifierConfig(dim=1, restarts=4, iters=400, seed=0)
    a = falsify(spec, cfg)
    b = falsify(spec, cfg)
    assert a.per_restart_losses == b.per_restart_losses
    assert (a.feasible, a.best_loss) == (b.feasible, b.best_loss)
    assert np.array_equal(a.best_config.P, b.best_config.P)


def test_falsify_report_json(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    orders.save(gallery("diameter_preorder", 3), str(spec_path))
    cli.main(["falsify", str(spec_path), str(tmp_path / "report.json"),
              "--dim", "1", "--restarts", "3", "--iters", "300"])
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"feasible", "verdict", "best_loss", "restarts",
                         "per_restart_losses", "per_restart_stops"}
    assert data["restarts"] == 3
    assert len(data["per_restart_losses"]) == 3
    assert len(data["per_restart_stops"]) == 3
    for stop in data["per_restart_stops"]:
        assert set(stop) == {"reason", "iters"}
        assert stop["reason"] in STOP_REASONS
        assert 0 <= stop["iters"] <= 300


def test_falsify_cross_check_with_construction():
    spec = gallery("diameter_preorder", 4)
    built = realize_preorder_complete(spec)
    assert built.config.dim == 3
    assert verifier.verify(built.config, spec).matched
    probe = falsify(spec, FalsifierConfig(dim=3, restarts=10, iters=2000))
    assert probe.feasible


# float.hex of every seed-0 restart loss as the stress kernel written term
# by term computed it; a kernel that rounds any step differently moves at
# least one of these
TRAJECTORIES = (
    ("diameter_preorder", 4, 2, ("0x1.47ae147af7e11p-9",
                                 "0x1.00d0422d8a1f3p-2",
                                 "0x1.47ae147ae147cp-9")),
    ("bip_cyclic_linear", 3, 1, ("0x1.b05421b4d9d62p-6",
                                 "0x1.19da7b17ce088p-6",
                                 "0x1.856f18c5c539bp-6")),
    ("bip_affine_preorder", 3, 2, ("0x1.3c76fa9846ddfp-9",
                                   "0x1.30e987a7a319ap-9",
                                   "0x1.b7275d832de04p-9")),
)


@pytest.mark.parametrize("name, n, dim, hexes", TRAJECTORIES,
                         ids=[f"{t[0]}-{t[1]}-d{t[2]}" for t in TRAJECTORIES])
def test_falsify_trajectories_are_bit_identical(name, n, dim, hexes):
    report = falsify(gallery(name, n),
                     FalsifierConfig(dim=dim, restarts=3, iters=500))
    assert not report.feasible
    assert tuple(float.hex(f) for f in report.per_restart_losses) == hexes


def _fingerprint(report) -> bytes:
    """A falsify report's verdict, restart losses (as float.hex), stops
    and best configuration (as raw bytes)."""
    losses = [f.hex() for f in report.per_restart_losses]
    stops = [tuple(s) for s in report.per_restart_stops]
    return (repr((report.verdict, losses, stops)).encode()
            + report.best_config.rows().tobytes())


# SHA-256 over the _fingerprint of all 20 criterion-7 legs (lo, then lo + 1)
# at the benchmark's falsify settings, 2 restarts x 5000 iterations with
# seed 0, as the serial restart loop computed them
LEGS_DIGEST = ("ba98db9cd68842bd9ccee877b3a2a1b7"
               "93ce085646be9378f2c2e6108d9ee7dd")


def test_falsify_legs_digest_is_pinned():
    digest = hashlib.sha256()
    for name, n, lo in FALSIFIER_LEGS:
        spec = gallery(name, n)
        for dim in (lo, lo + 1):
            digest.update(_fingerprint(falsify(
                spec, FalsifierConfig(dim=dim, restarts=2, iters=5000))))
    assert digest.hexdigest() == LEGS_DIGEST


forks = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                           reason="falsify forks only where it reads the "
                                  "CPU affinity")


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs falsify sees, which sets its worker count."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(k)))
    return set_cpus


@forks
def test_falsify_report_does_not_depend_on_worker_count(cpus):
    # a refuted, an undecided (cap) and a feasible search
    verdicts = set()
    for name, n, dim, restarts, iters in (
            ("diameter_preorder", 4, 2, 5, 2000),
            ("bip_cyclic_linear", 3, 1, 4, 300),
            ("bip_affine_preorder", 3, 3, 7, 3000)):
        spec = gallery(name, n)
        cfg = FalsifierConfig(dim=dim, restarts=restarts, iters=iters)
        prints = set()
        for workers in (1, 2, 3):
            cpus(workers)
            report = falsify(spec, cfg)
            prints.add(_fingerprint(report))
        assert len(prints) == 1, f"{name}({n}) at d={dim}"
        verdicts.add(report.verdict)
    assert verdicts == {"refuted", "undecided", "feasible"}


@forks
def test_forked_falsify_is_the_first_verified_restart(cpus):
    cpus(3)
    rng = np.random.default_rng([7, 1])
    cfg = FalsifierConfig(dim=2, restarts=5, iters=2000)
    firsts = []
    for _ in range(8):
        spec = random_bipartite_preorder(rng, 3, 3)
        first, witness = first_verified_restart(spec, cfg)
        report = falsify(spec, cfg)
        if first is None:
            assert not report.feasible and report.restarts == cfg.restarts
        else:
            assert report.feasible and report.restarts == first + 1
            assert np.array_equal(report.best_config.P, witness.P)
            assert np.array_equal(report.best_config.Q, witness.Q)
        firsts.append(first)
    # witnesses from each of the three workers, and searches that run
    # every restart
    assert None in firsts
    assert {r % 3 for r in firsts if r is not None} == {0, 1, 2}


@forks
@pytest.mark.parametrize("reports", [0, 1])
def test_falsify_runs_a_dead_workers_restarts_itself(cpus, monkeypatch,
                                                     reports):
    spec = gallery("diameter_preorder", 4)
    cfg = FalsifierConfig(dim=2, restarts=7, iters=500)
    cpus(1)
    serial = _fingerprint(falsify(spec, cfg))
    descend = counterexamples._descend
    parent = os.getpid()
    done = []

    def dying(*args):
        # a child reports `reports` restarts, then dies
        if os.getpid() != parent:
            if len(done) == reports:
                os._exit(1)
            done.append(None)
        return descend(*args)

    monkeypatch.setattr(counterexamples, "_descend", dying)
    cpus(3)
    assert _fingerprint(falsify(spec, cfg)) == serial


@forks
def test_falsify_runs_the_restarts_itself_when_fork_fails(cpus,
                                                          monkeypatch):
    spec = gallery("diameter_preorder", 4)
    cfg = FalsifierConfig(dim=2, restarts=5, iters=500)
    cpus(1)
    serial = _fingerprint(falsify(spec, cfg))
    fds = sorted(os.listdir("/proc/self/fd"))

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(3)
    assert _fingerprint(falsify(spec, cfg)) == serial
    assert sorted(os.listdir("/proc/self/fd")) == fds


class _VerifyFailed(Exception):
    pass


def _raise(*args, **kwargs):
    raise _VerifyFailed


@forks
@pytest.mark.parametrize("path", ["refuted", "early_stop", "raises"])
def test_falsify_leaves_no_process_or_descriptor(cpus, monkeypatch, path):
    cpus(3)
    fds = sorted(os.listdir("/proc/self/fd"))
    if path == "refuted":
        report = falsify(gallery("diameter_preorder", 4),
                         FalsifierConfig(dim=2, restarts=6, iters=2000))
        assert report.verdict == "refuted"
    else:
        cfg = FalsifierConfig(dim=2, restarts=6, iters=2000)
        spec = gallery("diameter_preorder", 3)
        if path == "early_stop":
            report = falsify(spec, cfg)
            assert report.feasible and report.restarts < cfg.restarts
        else:
            monkeypatch.setattr(counterexamples.verifier, "verify", _raise)
            # raised's traceback keeps falsify's frame, and so its pipes,
            # alive through the checks below: only a close frees them
            with pytest.raises(_VerifyFailed) as raised:  # noqa: F841
                falsify(spec, cfg)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_falsify_witness_is_first_verified_restart():
    rng = np.random.default_rng([7, 3])
    cfg = FalsifierConfig(dim=3, restarts=3, iters=3000)
    firsts = []
    for _ in range(10):
        spec = random_bipartite_preorder(rng, 3, 3)
        first, witness = first_verified_restart(spec, cfg)
        report = falsify(spec, cfg)
        assert report.verdict == "feasible"
        assert report.restarts == first + 1
        assert len(report.per_restart_stops) == first + 1
        assert np.array_equal(report.best_config.P, witness.P)
        assert np.array_equal(report.best_config.Q, witness.Q)
        firsts.append(first)
    # the early stop is exercised past restart 0 too
    assert max(firsts) > 0


def test_falsify_stop_reasons_and_verdicts():
    spec = gallery("diameter_preorder", 4)
    capped = falsify(spec, FalsifierConfig(dim=2, restarts=2, iters=5))
    assert capped.verdict == "undecided" and not capped.feasible
    assert capped.per_restart_stops == (("cap", 5), ("cap", 5))
    found = falsify(spec, FalsifierConfig(dim=3, restarts=5, iters=3000))
    assert found.verdict == "feasible" and found.feasible
    assert found.per_restart_stops[-1].reason == "converged"
    refuted = falsify(spec, FalsifierConfig(dim=2, restarts=4, iters=2000))
    assert refuted.verdict == "refuted" and refuted.restarts == 4
    for stop in refuted.per_restart_stops:
        assert stop.reason in STOP_REASONS - {"cap", "converged"}
        assert 0 < stop.iters < 2000


def test_falsify_low_loss_without_witness_is_undecided(monkeypatch):
    # a restart below FEASIBLE_LOSS whose configuration fails verification
    # decides nothing, and the search goes on through every restart
    monkeypatch.setattr(counterexamples.verifier, "verify",
                        lambda *args, **kwargs: verifier.VerifyReport(
                            "mismatch", None, 0.0, 0.0))
    report = falsify(gallery("diameter_preorder", 3),
                     FalsifierConfig(dim=2, restarts=3, iters=3000))
    assert report.verdict == "undecided"
    assert report.restarts == 3
    assert report.best_loss < counterexamples.FEASIBLE_LOSS


# Random specs that the realizers build in dimension d must read feasible at
# d. Sizes are the largest at which recall was 100% for 10 seeded specs at
# 5 restarts x 3000 iterations (every witness within the first 2 restarts);
# one size up, recall fell to 90% (preorder, n=8), 50% (linear, n=7) and
# 80% (bipartite, 5x5).
CALIBRATION = (
    ("preorder", random_preorder, 7),
    ("linear", random_linear_order, 6),
    ("bipartite", lambda rng, n: random_bipartite_preorder(rng, n, n), 4),
)


@pytest.mark.parametrize("kind, make, n", CALIBRATION,
                         ids=[c[0] for c in CALIBRATION])
def test_falsify_recall_at_realized_dimension(kind, make, n):
    rng = np.random.default_rng([7, n])
    for _ in range(10):
        spec = make(rng, n)
        dim = realize(spec).config.dim
        report = falsify(spec, FalsifierConfig(dim=dim, restarts=2,
                                               iters=3000))
        assert report.verdict == "feasible", f"{kind} n={n} at d={dim}"


def test_descend_stops_when_no_step_decreases(monkeypatch):
    # the loss is infinite at every point but the start, so backtracking
    # halves the step below MIN_STEP and the restart stops before its
    # first step
    terms = counterexamples._StressTerms(gallery("d4_linear", 4), 1,
                                         counterexamples.MARGIN,
                                         counterexamples.FLOOR)
    X = np.random.default_rng(60).standard_normal((4, 1))
    real = counterexamples._loss_only

    def never_lower(terms, at):
        loss, parts = real(terms, at)
        return (loss if at is X else np.inf), parts

    monkeypatch.setattr(counterexamples, "_loss_only", never_lower)
    f, Y, stop = counterexamples._descend(terms, X, 100)
    assert stop == counterexamples.RestartStop("no_step", 0)
    assert Y is X and f > counterexamples.STOP_LOSS


def _differing_rows_broadcast(R):
    return np.nonzero(np.triu((R[:, None, :] != R[None, :, :]).any(axis=2),
                              1))


def test_differing_rows_matches_broadcast_in_bounded_memory():
    rng = np.random.default_rng(13)
    # few distinct rows, each repeated, and repeated columns
    patterns = rng.integers(1, 4, size=(5, 7))
    R = patterns[rng.integers(0, 5, size=40)][:, rng.integers(0, 7, size=30)]
    for M in (R, R.T, R[:1], np.ones((6, 3), dtype=np.int64)):
        got = counterexamples._differing_rows(M)
        want = _differing_rows_broadcast(M)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the n x n x m broadcast peaks at 64 MB here
    big = rng.integers(1, 3, size=(400, 400))
    tracemalloc.start()
    try:
        counterexamples._differing_rows(big)
        counterexamples._differing_rows(big.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("spec", [
    OrderSpec("complete", 4, (tuple(complete_pairs(4)),)),
    OrderSpec("bipartite", 2, (tuple(orders.bipartite_pairs(2, 3)),), m=3)],
    ids=["complete", "bipartite"])
def test_stress_terms_refuse_a_spec_over_the_pair_cap(monkeypatch, spec):
    # the cap is checked before the cache is read, so a shape cached
    # under the real cap is refused too
    schoenberg.pair_index(spec.n, spec.m)
    monkeypatch.setattr(schoenberg, "MAX_PAIRS", 5)
    config = PointConfig(dim=2, P=np.zeros((spec.n, 2)),
                         Q=None if spec.m is None else np.zeros((spec.m, 2)))
    with pytest.raises(BadSize, match="^6 pairs exceed the cap of 5$"):
        falsify(spec, FalsifierConfig(dim=2, restarts=1, iters=1))
    with pytest.raises(BadSize, match="^6 pairs exceed the cap of 5$"):
        stress_loss(spec, config)
