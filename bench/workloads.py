"""The benchmark's four workloads.

Each workload builds its inputs from the seed into a work directory,
warms up on a tiny input, and returns the ops of one pass. An op is one
call a user waits on (a CLI subcommand run in-process, or one library
call) plus a check of its output; the runner times the call, not the
check. A pass is replayed whole, so every run weighs the same mix of ops.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import ordembed
from ordembed import cli, orders

# The ten criterion-7 gallery legs: (family, n, largest refuted dimension).
LEGS = (
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
# Criterion 7 runs 100 restarts; two is the fewest at which every leg is
# still recovered at lo+1 (bip_cyclic_linear(4) needs its second restart).
# The 5000-iteration cap and seed 0 are criterion 7's.
FALSIFY_FLAGS = ("--restarts", "2", "--iters", "5000", "--seed", "0")
REFUTE_GATE = 1e-6

# verify_nearmiss: one witness search at n=100 took up to 11 s on a 2-core
# Xeon VM, which leaves too few samples per run, so sizes stop at 70.
NEARMISS = (("linear", 40), ("preorder", 50), ("linear", 60),
            ("preorder", 70))
NEARMISS_STRATA = 3


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    kind: str                               # realize|verify|induce|falsify
    pairs: int                              # distance pairs of its spec
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right


@dataclass
class Workload:
    ops: list[Op]
    facts: dict                             # deterministic evidence


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in this process; return exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _write(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    return str(path)


def _fresh(work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _cli_ok(argv: list[str], want: int = 0) -> str:
    code, out, err = cli_call(argv)
    if code != want:
        raise SetupError(f"{argv[0]} exited {code}: {err.strip()}")
    return out


def _expect(code_want: int, test: Callable[[str], str | None]):
    def check(result) -> str | None:
        code, out, err = result
        if code != code_want:
            return f"exit {code}, wanted {code_want}: {err.strip()[:200]}"
        return test(out)
    return check


# ---------------------------------------------------------------------------
# realize_large

def _cli_roundtrip_ops(spec: dict, spec_path: str, cfg_path: str) -> list[Op]:
    dim = gen.expected_dim(spec)
    induced = orders.to_json(orders.canonical(orders.from_json_dict(spec)))
    pairs = gen.num_pairs(spec)

    def dim_ok(out):
        got = json.loads(out)["dim"]
        return None if got == dim else f"dim {got}, wanted {dim}"

    def matched(out):
        verdict = json.loads(out)["verdict"]
        return None if verdict == "match" else f"verdict {verdict}"

    def canonical(out):
        return None if out.rstrip("\n") == induced else "induced order differs"

    return [
        Op("realize", pairs,
           lambda: cli_call(["realize", spec_path, cfg_path]),
           _expect(0, dim_ok)),
        Op("verify", pairs,
           lambda: cli_call(["verify", spec_path, cfg_path]),
           _expect(0, matched)),
        Op("induce", pairs, lambda: cli_call(["induce", cfg_path]),
           _expect(0, canonical)),
    ]


def _run_now(ops: list[Op]) -> None:
    for op in ops:
        problem = op.check(op.call())
        if problem:
            raise SetupError(f"warm-up {op.kind}: {problem}")


def realize_large(rng: np.random.Generator, work: Path) -> Workload:
    work = _fresh(work)
    specs = [gen.random_linear_order(rng, 150), gen.random_preorder(rng, 150),
             gen.random_linear_order(rng, 300), gen.random_preorder(rng, 300),
             gen.random_bipartite_preorder(rng, 100, 100)]
    ops = []
    for k, spec in enumerate(specs):
        ops += _cli_roundtrip_ops(spec, _write(work / f"spec{k}.json", spec),
                                  str(work / f"points{k}.json"))
    tiny = gen.random_linear_order(rng, 6)
    _run_now(_cli_roundtrip_ops(tiny, _write(work / "warm.json", tiny),
                                str(work / "warm_points.json")))
    return Workload(ops, {})


# ---------------------------------------------------------------------------
# roundtrip_small

def roundtrip_small(rng: np.random.Generator, work: Path) -> Workload:
    work = _fresh(work)
    specs = [gen.random_preorder(rng, n) for n in range(3, 9)
             for _ in range(20)]
    specs += [gen.random_linear_order(rng, n) for n in range(3, 9)
              for _ in range(20)]
    specs += [gen.random_bipartite_preorder(rng, n, m) for n in range(2, 7)
              for m in range(2, 7) for _ in range(8)]
    path = work / "specs.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in specs),
                    encoding="utf-8")
    parsed = [orders.from_json(line)
              for line in path.read_text(encoding="utf-8").splitlines()]
    ops = []
    for raw, spec in zip(specs, parsed):
        ops += _library_ops(spec, gen.expected_dim(raw), gen.num_pairs(raw))
    _run_now(ops[:40])
    return Workload(ops, {})


def _library_ops(spec, dim: int, pairs: int) -> list[Op]:
    held = {}

    def realize():
        held.clear()
        held["config"] = ordembed.realize(spec).config
        return held["config"]

    def dim_ok(config):
        return None if config.dim == dim else f"dim {config.dim}, wanted {dim}"

    def matched(report):
        return None if report.matched else f"verdict {report.verdict}"

    return [Op("realize", pairs, realize, dim_ok),
            Op("verify", pairs, lambda: ordembed.verify(held["config"], spec),
               matched)]


# ---------------------------------------------------------------------------
# falsify_legs

def falsify_legs(rng: np.random.Generator, work: Path) -> Workload:
    work = _fresh(work)
    facts = {"refute_loss": {}}
    ops = []
    # the seed only orders the legs; the falsifier's own seed stays 0
    for leg in rng.permutation(len(LEGS)):
        name, n, lo = LEGS[leg]
        spec_path = str(work / f"{name}_{n}.json")
        _cli_ok(["gallery", name, str(n), spec_path])
        pairs = gen.num_pairs(json.loads(Path(spec_path).read_text()))
        for dim in (lo, lo + 1):
            out_path = work / f"{name}_{n}_d{dim}.json"
            argv = ["falsify", spec_path, str(out_path), "--dim", str(dim),
                    *FALSIFY_FLAGS]
            ops.append(Op("falsify", pairs, lambda argv=argv: cli_call(argv),
                          _falsify_check(f"{name}({n})", dim, dim == lo,
                                         out_path, facts)))
    warm = str(work / "warm.json")
    _cli_ok(["gallery", "diameter_preorder", "3", warm])
    _cli_ok(["falsify", warm, str(work / "warm_out.json"), "--dim", "1",
             "--restarts", "1", "--iters", "50"], want=1)
    return Workload(ops, facts)


def _falsify_check(leg: str, dim: int, refute: bool, out_path: Path,
                   facts: dict):
    first: list[bytes] = []

    def test(out):
        report = json.loads(out)
        if refute:
            if report["feasible"] or report["best_loss"] < REFUTE_GATE:
                return (f"{leg} not refuted at d={dim}: "
                        f"loss {report['best_loss']:.3e}")
            facts["refute_loss"][leg] = report["best_loss"]
        # seed-0 reports must repeat byte for byte on every pass
        written = out.encode() + out_path.read_bytes()
        if not first:
            first.append(written)
        elif written != first[0]:
            return f"{leg} d={dim} report bytes differ from the first pass"
        return None

    return _expect(1 if refute else 0, test)


# ---------------------------------------------------------------------------
# verify_nearmiss

def _witness_depth(lex: dict, a: list, b: list) -> int:
    """Lex index of the outer pair at which the verifier's witness search
    stops once classes a and b trade places: the smallest pair of either
    class that has a lex-later partner in the other."""
    top_a = max(lex[p] for p in a)
    top_b = max(lex[p] for p in b)
    return min([lex[p] for p in a if lex[p] < top_b]
               + [lex[p] for p in b if lex[p] < top_a])


def _realized(work: Path, tag: str, spec: dict) -> tuple[str, np.ndarray]:
    spec_path = _write(work / f"spec{tag}.json", spec)
    cfg_path = str(work / f"points{tag}.json")
    _cli_ok(["realize", spec_path, cfg_path])
    return cfg_path, np.asarray(json.loads(Path(cfg_path).read_text())["P"])


def verify_nearmiss(rng: np.random.Generator, work: Path) -> Workload:
    work = _fresh(work)
    ops = []
    for k, (shape, n) in enumerate(NEARMISS):
        make = (gen.random_linear_order if shape == "linear"
                else gen.random_preorder)
        spec = make(rng, n)
        ops += _nearmiss_ops(rng, work, str(k), spec,
                             *_realized(work, str(k), spec))
    tiny = gen.random_linear_order(rng, 8)
    _run_now(_nearmiss_ops(rng, work, "warm", tiny,
                           *_realized(work, "warm", tiny), strata=1))
    return Workload(ops, {})


def _nearmiss_ops(rng, work: Path, tag: str, spec: dict, cfg_path: str,
                  P: np.ndarray, strata: int = NEARMISS_STRATA) -> list[Op]:
    """Swap two adjacent classes so that the witness search stops at fixed
    fractions of the pair list (the centres of `strata` equal slices).
    Which classes that is depends on the seeded order; how long the search
    runs does not, so runs on different seeds do the same work."""
    classes = [[tuple(p) for p in c] for c in spec["classes"]]
    lex = {p: i for i, p in enumerate(sorted(p for c in classes for p in c))}
    depth = np.array([_witness_depth(lex, classes[k], classes[k + 1])
                      for k in range(len(classes) - 1)])
    total = len(lex)
    ops = []
    for s in range(strata):
        miss = np.abs(depth - (s + 0.5) * total / strata)
        k = int(rng.choice(np.flatnonzero(miss == miss.min())))
        swapped = classes[:k] + [classes[k + 1], classes[k]] + classes[k + 2:]
        rank = {p: r for r, c in enumerate(swapped) for p in c}
        near = dict(spec, classes=[[list(p) for p in c] for c in swapped])
        near_path = _write(work / f"near{tag}_{s}.json", near)
        ops.append(Op("verify", total,
                      lambda p=near_path: cli_call(["verify", p, cfg_path]),
                      _expect(1, _witness_check(rank, P))))
    return ops


def _witness_check(rank: dict, P: np.ndarray):
    scale = float(np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2).max())
    tol = 1e-9 + 1e-9 * scale     # the verifier's default tolerances

    def test(out):
        report = json.loads(out)
        if report["verdict"] != "mismatch" or not report["witness"]:
            return f"verdict {report['verdict']} without a witness"
        a, b = (tuple(w) for w in report["witness"])
        da = float(np.linalg.norm(P[a[0] - 1] - P[a[1] - 1]))
        db = float(np.linalg.norm(P[b[0] - 1] - P[b[1] - 1]))
        want = np.sign(rank[a] - rank[b])
        got = 0 if abs(da - db) <= tol else np.sign(da - db)
        if want == got:
            return f"witness {a}, {b} is ordered alike by spec and points"
        return None

    return test


WORKLOADS = {
    "realize_large": realize_large,
    "roundtrip_small": roundtrip_small,
    "falsify_legs": falsify_legs,
    "verify_nearmiss": verify_nearmiss,
}
