"""End-to-end command-line tests, run in process through cli.main."""
import argparse
import builtins
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (count_calls, first_verified_restart,
                      one_spec_per_realizer,
                      random_bipartite_preorder, random_linear_order,
                      random_preorder)
from ordembed import (cli, constructions, counterexamples, orders, schoenberg,
                      verifier)
from ordembed.errors import BadSize
from ordembed.orders import OrderSpec
from ordembed.schoenberg import PointConfig


def _spec_file(spec, tmp_path, name="spec.json"):
    path = tmp_path / name
    orders.save(spec, str(path))
    return str(path)


def _diag(capsys):
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    return json.loads(err)


def test_realize_writes_config_report_and_csv(preorder4_spec, tmp_path, capsys):
    spec_path = _spec_file(preorder4_spec, tmp_path)
    out = tmp_path / "points.json"
    csv = tmp_path / "points.csv"
    rc = cli.main(["realize", spec_path, str(out), "--csv", str(csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 3
    assert report["epsilon"] > 0
    assert report["margin"] > 0
    assert all(e > 0 for e in report["min_eigenvalues"])

    config = schoenberg.load_config(str(out))
    assert config.dim == 3 and config.P.shape == (4, 3)
    assert verifier.verify(config, preorder4_spec).matched

    lines = csv.read_text().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 5
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # .17g round-trips doubles exactly
    assert np.array_equal(parsed, config.P)


def test_realize_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["realize", str(bad), str(tmp_path / "o.json")])
    assert rc == 2
    diag = _diag(capsys)
    assert "error" in diag and "message" in diag


def test_realize_rejects_broken_partition(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"kind": "complete", "n": 3,'
                    ' "classes": [[[1, 2]], [[1, 3]]]}')
    rc = cli.main(["realize", str(path), str(tmp_path / "o.json")])
    assert rc == 2
    assert _diag(capsys)["error"] == "MissingPair"


def test_realize_missing_file_exits_two(tmp_path, capsys):
    rc = cli.main(["realize", str(tmp_path / "absent.json"),
                   str(tmp_path / "o.json")])
    assert rc == 2
    assert _diag(capsys)["error"] == "SpecError"


def test_realize_epsilon_exhaustion_exits_three(preorder4_spec, tmp_path,
                                                capsys):
    # one step at a non-metric perturbation cannot succeed
    spec_path = _spec_file(preorder4_spec, tmp_path)
    out = tmp_path / "o.json"
    rc = cli.main(["realize", spec_path, str(out),
                   "--epsilon", "1e6", "--max-steps", "1"])
    assert rc == 3
    assert _diag(capsys)["error"] == "EpsilonExhausted"
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["1e200", "1e308"])
def test_realize_overflowing_epsilon_exits_two(epsilon, preorder4_spec,
                                               bip32_spec, tmp_path, capsys):
    # squared target distances overflow: one NonFiniteEntry line on stderr
    # and no numpy warning before it
    out = tmp_path / "o.json"
    for spec in (preorder4_spec, bip32_spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["realize", _spec_file(spec, tmp_path), str(out),
                           "--epsilon", epsilon])
        assert rc == 2
        assert not caught, [str(w.message) for w in caught]
        assert _diag(capsys)["error"] == "NonFiniteEntry"
        assert not out.exists()


@pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf"])
def test_realize_nonpositive_eta_exits_two(eta, tmp_path, capsys):
    # complete, linear and bipartite specs alike
    out = tmp_path / "o.json"
    for spec in one_spec_per_realizer(5):
        rc = cli.main(["realize", _spec_file(spec, tmp_path), str(out),
                       "--eta", eta])
        assert rc == 2
        diag = _diag(capsys)
        assert diag["error"] == "BadSize"
        assert diag["message"] == ("eta must be a positive number within "
                                   f"float range, got {float(eta)!r}")
        assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--epsilon", "0"], ["--epsilon", "inf"], ["--shrink", "2"],
    ["--max-steps", "0"]], ids=["epsilon", "epsilon-inf", "shrink",
                                "max-steps"])
def test_realize_bad_search_flag_exits_two(flags, preorder4_spec, tmp_path,
                                           capsys):
    rc = cli.main(["realize", _spec_file(preorder4_spec, tmp_path),
                   str(tmp_path / "o.json"), *flags])
    assert rc == 2
    assert _diag(capsys)["error"] == "BadSize"


@pytest.mark.parametrize("output", ["realize", "csv", "gallery", "falsify"])
def test_unwritable_output_exits_two(output, preorder4_spec, tmp_path,
                                     capsys):
    spec_path = _spec_file(preorder4_spec, tmp_path)
    ok, missing = str(tmp_path / "o.json"), str(tmp_path / "absent" / "o")
    argv = {
        "realize": ["realize", spec_path, missing],
        "csv": ["realize", spec_path, ok, "--csv", missing],
        "gallery": ["gallery", "d4_linear", "4", missing],
        "falsify": ["falsify", spec_path, missing, "--dim", "2",
                    "--restarts", "1", "--iters", "10"],
    }[output]
    capsys.readouterr()
    assert cli.main(argv) == 2
    # the one stderr line is the diagnostic: no traceback
    diag = json.loads(capsys.readouterr().err)
    assert issubclass(getattr(builtins, diag["error"]), OSError)
    assert missing in diag["message"]


def test_realize_self_verification_gate(preorder4_spec, tmp_path, capsys):
    # an absurd tolerance merges every class, so the self-check must trip
    spec_path = _spec_file(preorder4_spec, tmp_path)
    out = tmp_path / "o.json"
    rc = cli.main(["realize", spec_path, str(out), "--tol-abs", "10"])
    assert rc == 4
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["dim"] == 3
    # the self-check merged every class; the margin is the realized one
    assert report["margin"] == constructions.realize(preorder4_spec).margin
    assert "self-verification failed" in json.loads(captured.err)["message"]
    assert out.exists()


def test_realize_reads_distances_once(monkeypatch, preorder4_spec,
                                     bip32_spec, tmp_path, capsys):
    # on a match the self-check's class gaps are the report's margin, so
    # the command computes the distances once
    calls = count_calls(monkeypatch, schoenberg.pair_distances)
    single = OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)),))
    rng = np.random.default_rng(44)
    specs = (preorder4_spec, single, bip32_spec, random_linear_order(rng, 7),
             random_bipartite_preorder(rng, 4, 3))
    for k, spec in enumerate(specs):
        path = _spec_file(spec, tmp_path, f"spec{k}.json")
        del calls[:]
        assert cli.main(["realize", path, str(tmp_path / "o.json")]) == 0
        assert len(calls) == 1
        margin = json.loads(capsys.readouterr().out)["margin"]
        want = constructions.realize(spec).margin  # inf is written null
        assert margin == (want if math.isfinite(want) else None)


def test_verify_match_exits_zero(preorder4_spec, tmp_path, capsys):
    spec_path = _spec_file(preorder4_spec, tmp_path)
    config = constructions.realize(preorder4_spec).config
    pts = tmp_path / "pts.json"
    schoenberg.save_config(config, str(pts))
    rc = cli.main(["verify", spec_path, str(pts)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "match"
    assert report["margin"] > 0


def test_verify_mismatch_exits_one(preorder4_spec, tmp_path, capsys):
    single = OrderSpec("complete", 4, (tuple(orders.complete_pairs(4)),))
    config = constructions.realize(single).config
    pts = tmp_path / "pts.json"
    schoenberg.save_config(config, str(pts))
    rc = cli.main(["verify", _spec_file(preorder4_spec, tmp_path), str(pts)])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "mismatch"
    assert report["witness"] is not None


def test_verify_shape_mismatch_exits_two(preorder4_spec, tmp_path, capsys):
    config = PointConfig(2, np.zeros((3, 2)))
    pts = tmp_path / "pts.json"
    schoenberg.save_config(config, str(pts))
    rc = cli.main(["verify", _spec_file(preorder4_spec, tmp_path), str(pts)])
    assert rc == 2
    assert _diag(capsys)["error"] == "ShapeMismatch"


def test_induce_collinear_line(tmp_path, capsys):
    config = PointConfig(1, np.array([[0.0], [1.0], [3.0]]))
    pts = tmp_path / "pts.json"
    schoenberg.save_config(config, str(pts))
    rc = cli.main(["induce", str(pts)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {"kind": "complete", "n": 3,
                   "classes": [[[1, 2]], [[2, 3]], [[1, 3]]]}


def test_induce_tolerance_merges_classes(tmp_path, capsys):
    config = PointConfig(1, np.array([[0.0], [1.0], [3.0]]))
    pts = tmp_path / "pts.json"
    schoenberg.save_config(config, str(pts))
    rc = cli.main(["induce", str(pts), "--tol-abs", "10"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["classes"] == [[[1, 2], [1, 3], [2, 3]]]


@pytest.mark.parametrize("option", ["--tol-abs", "--tol-rel"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_verify_and_induce_refuse_a_bad_tolerance(option, value,
                                                 preorder4_spec, tmp_path,
                                                 capsys):
    # a negative tolerance splits every tie, a NaN or infinite one merges
    # every class: both are refused, not turned into a wrong order
    config = PointConfig(1, np.array([[0.0], [1.0], [2.0], [4.0]]))
    pts = str(tmp_path / "pts.json")
    schoenberg.save_config(config, pts)
    spec_path = _spec_file(preorder4_spec, tmp_path)
    for argv in (["induce", pts], ["verify", spec_path, pts]):
        assert cli.main([*argv, option, value]) == 2
        diag = _diag(capsys)
        assert diag["error"] == "BadSize"
        assert diag["message"] == (
            f"{option[2:].replace('-', '_')} must be nonnegative and within "
            f"float range, got {float(value)!r}")


@pytest.mark.parametrize("option", ["--tol-abs", "--tol-rel"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_realize_refuses_a_bad_tolerance_before_writing(option, value,
                                                        preorder4_spec,
                                                        tmp_path, capsys):
    out, csv = tmp_path / "o.json", tmp_path / "o.csv"
    rc = cli.main(["realize", _spec_file(preorder4_spec, tmp_path), str(out),
                   "--csv", str(csv), option, value])
    assert rc == 2
    assert _diag(capsys)["error"] == "BadSize"
    assert not out.exists() and not csv.exists()


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, preorder4_spec,
                                                 tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    etas = []
    realize = constructions.realize

    def spy(spec, eta=constructions.ETA, search=None):
        etas.append(eta)
        return realize(spec, eta=eta, search=search)

    monkeypatch.setattr(constructions, "realize", spy)
    spec_path = _spec_file(preorder4_spec, tmp_path)
    out = str(tmp_path / "o.json")
    assert cli.main(["realize", spec_path, out, "--eta", "1e-3"]) == 0
    after_first = len(built)
    assert after_first > 0
    assert cli.main(["realize", spec_path, out]) == 0
    assert etas == [1e-3, constructions.ETA]

    line = PointConfig(1, np.array([[0.0], [1.0], [3.0]]))
    pts = str(tmp_path / "pts.json")
    schoenberg.save_config(line, pts)
    capsys.readouterr()
    assert cli.main(["induce", pts, "--tol-abs", "10"]) == 0
    merged = capsys.readouterr().out
    assert cli.main(["induce", pts]) == 0
    assert json.loads(merged)["classes"] == [[[1, 2], [1, 3], [2, 3]]]
    assert json.loads(capsys.readouterr().out)["classes"] == [
        [[1, 2]], [[2, 3]], [[1, 3]]]

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", spec_path])
    assert excinfo.value.code == 2
    assert cli.main(["verify", spec_path, out]) == 0
    assert len(built) == after_first


def test_falsify_negative_seed_exits_two(preorder4_spec, tmp_path, capsys):
    out = tmp_path / "o.json"
    rc = cli.main(["falsify", _spec_file(preorder4_spec, tmp_path), str(out),
                   "--dim", "2", "--seed", "-1"])
    assert rc == 2
    diag = _diag(capsys)
    assert diag == {"error": "BadSize", "message": "seed must be >= 0"}
    assert not out.exists()


def test_induce_bipartite_round_trip(bip32_spec, tmp_path, capsys):
    config = constructions.realize(bip32_spec).config
    pts = tmp_path / "pts.json"
    schoenberg.save_config(config, str(pts))
    rc = cli.main(["induce", str(pts)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == orders.to_json(orders.canonical(bip32_spec)) + "\n"


def test_induce_missing_file_exits_two(tmp_path, capsys):
    rc = cli.main(["induce", str(tmp_path / "absent.json")])
    assert rc == 2
    # every fault in a points file, an unreadable one too, is ShapeMismatch
    assert _diag(capsys)["error"] == "ShapeMismatch"


def test_gallery_writes_spec(tmp_path, capsys):
    out = tmp_path / "d4.json"
    rc = cli.main(["gallery", "d4_linear", "4", str(out)])
    assert rc == 0
    loaded = orders.load(str(out))
    want = counterexamples.gallery("d4_linear", 4)
    assert loaded.kind == want.kind and loaded.n == want.n
    assert loaded.classes == want.classes


def test_gallery_unknown_name_exits_two(tmp_path, capsys):
    rc = cli.main(["gallery", "nonsense", "4", str(tmp_path / "o.json")])
    assert rc == 2
    assert _diag(capsys)["error"] == "UnknownName"


def test_gallery_bad_size_exits_two(tmp_path, capsys):
    rc = cli.main(["gallery", "d4_linear", "5", str(tmp_path / "o.json")])
    assert rc == 2
    assert _diag(capsys)["error"] == "BadSize"


def test_falsify_feasible_exits_zero(tmp_path, capsys):
    spec = counterexamples.gallery("diameter_preorder", 3)
    out = tmp_path / "report.json"
    rc = cli.main(["falsify", _spec_file(spec, tmp_path), str(out),
                   "--dim", "2", "--restarts", "6", "--iters", "3000"])
    assert rc == 0
    line = capsys.readouterr().out
    assert out.read_text() == line
    report = json.loads(line)
    assert report["feasible"] is True
    assert report["verdict"] == "feasible"
    assert report["best_loss"] < counterexamples.FEASIBLE_LOSS
    # the search stops at the first verified witness, so the restarts that
    # ran are those up to and including it
    first, _ = first_verified_restart(
        spec, counterexamples.FalsifierConfig(dim=2, restarts=6, iters=3000))
    assert report["restarts"] == len(report["per_restart_losses"])
    assert report["restarts"] == len(report["per_restart_stops"])
    assert report["restarts"] == first + 1


def test_falsify_infeasible_exits_one(tmp_path, capsys):
    spec = counterexamples.gallery("d4_linear", 4)
    out = tmp_path / "report.json"
    rc = cli.main(["falsify", _spec_file(spec, tmp_path), str(out),
                   "--dim", "1", "--restarts", "4", "--iters", "2000"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert report["best_loss"] > 1e-6


def test_falsify_bad_dim_exits_two(preorder4_spec, tmp_path, capsys):
    rc = cli.main(["falsify", _spec_file(preorder4_spec, tmp_path),
                   str(tmp_path / "o.json"), "--dim", "0"])
    assert rc == 2
    assert _diag(capsys)["error"] == "BadSize"


@pytest.mark.parametrize("option, value", [
    ("--margin", "nan"), ("--margin", "inf"), ("--floor", "nan"),
    ("--floor", "inf")])
def test_falsify_non_finite_margin_or_floor_exits_two(
        option, value, preorder4_spec, tmp_path, capsys):
    rc = cli.main(["falsify", _spec_file(preorder4_spec, tmp_path),
                   str(tmp_path / "o.json"), "--dim", "2", option, value])
    assert rc == 2
    assert _diag(capsys)["error"] == "BadSize"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("option", ["--margin", "--floor"])
def test_falsify_margin_or_floor_past_shift_max_exits_two(option, tmp_path,
                                                         capsys):
    # past SHIFT_MAX the stress loss can overflow: at 1e154 it did, and
    # with --floor falsify ended in a traceback; at the bound a run
    # completes with no floating-point warning
    spec = _spec_file(counterexamples.gallery("diameter_preorder", 3),
                      tmp_path)
    out = tmp_path / "o.json"
    argv = ["falsify", spec, str(out), "--dim", "2", "--restarts", "1",
            "--iters", "10", option]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + [repr(counterexamples.SHIFT_MAX)]) == 1
    capsys.readouterr()
    out.unlink()
    for value in (np.nextafter(counterexamples.SHIFT_MAX, np.inf), 1e154):
        assert cli.main(argv + [repr(float(value))]) == 2
        assert _diag(capsys) == {
            "error": "BadSize",
            "message": "margin and floor must be at most 1.16e+77"}
        assert not out.exists()


def test_falsify_huge_dim_is_refused_before_allocating(preorder4_spec,
                                                       tmp_path, capsys):
    # the stress arrays grow with pairs times dim; a dim that no memory
    # holds is refused by the pair cap, before anything is allocated
    rc = cli.main(["falsify", _spec_file(preorder4_spec, tmp_path),
                   str(tmp_path / "o.json"), "--dim", "10000000000000"])
    assert rc == 2
    assert _diag(capsys)["error"] == "BadSize"
    assert not (tmp_path / "o.json").exists()


def test_falsify_requires_dim(preorder4_spec, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["falsify", _spec_file(preorder4_spec, tmp_path),
                  str(tmp_path / "o.json")])
    assert excinfo.value.code == 2


def test_falsify_deterministic(tmp_path, capsys):
    spec = counterexamples.gallery("diameter_preorder", 3)
    spec_path = _spec_file(spec, tmp_path)
    lines = []
    for name in ("a.json", "b.json"):
        rc = cli.main(["falsify", spec_path, str(tmp_path / name),
                       "--dim", "1", "--restarts", "3", "--iters", "500"])
        assert rc == 1
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_realize_induce_round_trip_batch(tmp_path, capsys):
    rng = np.random.default_rng(1234)
    specs = []
    for n in (3, 4, 5):
        specs.extend(random_preorder(rng, n) for _ in range(4))
        specs.extend(random_linear_order(rng, n) for _ in range(3))
        specs.extend(random_bipartite_preorder(rng, n, int(rng.integers(2, 5)))
                     for _ in range(3))
    assert len(specs) == 30
    for k, spec in enumerate(specs):
        spec_path = _spec_file(spec, tmp_path, f"s{k}.json")
        pts = tmp_path / f"p{k}.json"
        assert cli.main(["realize", spec_path, str(pts)]) == 0
        capsys.readouterr()
        assert cli.main(["induce", str(pts)]) == 0
        out = capsys.readouterr().out
        assert out == orders.to_json(orders.canonical(spec)) + "\n"


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.sampled_from(["preorder", "linear", "bipartite"]),
       n=st.integers(2, 7), m=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_induce_prints_the_canonical_spec(shape, n, m, seed, tmp_path,
                                          capsys):
    rng = np.random.default_rng(seed)
    spec = {"preorder": lambda: random_preorder(rng, n),
            "linear": lambda: random_linear_order(rng, n),
            "bipartite": lambda: random_bipartite_preorder(rng, n, m)}[shape]()
    pts = str(tmp_path / "pts.json")
    assert cli.main(["realize", _spec_file(spec, tmp_path), pts]) == 0
    capsys.readouterr()
    assert cli.main(["induce", pts]) == 0
    assert capsys.readouterr().out == (
        orders.to_json(orders.canonical(spec)) + "\n")


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 100000],
                         ids=["not-utf8", "deep"])
@pytest.mark.parametrize("command, role", [
    ("realize", "spec"), ("verify", "spec"), ("verify", "points"),
    ("induce", "points"), ("falsify", "spec")])
def test_undecodable_or_deep_file_exits_two(content, command, role, tmp_path,
                                            capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    pts = tmp_path / "pts.json"
    pts.write_text('{"dim": 1, "P": [[0.0], [1.0]]}')
    spec = str(bad) if role == "spec" else _spec_file(
        OrderSpec("complete", 2, (((1, 2),),)), tmp_path)
    points = str(bad) if role == "points" else str(pts)
    out = str(tmp_path / "out.json")
    argv = {"realize": [spec, out], "verify": [spec, points],
            "induce": [points], "falsify": [spec, out, "--dim", "1"]}
    assert cli.main([command, *argv[command]]) == 2
    want = "SpecError" if role == "spec" else "ShapeMismatch"
    assert _diag(capsys)["error"] == want


@pytest.mark.parametrize("text", [
    '{"kind": "complete", "n": 3, "classes": 5}',
    '{"kind": "complete", "n": 3, "classes": [5]}',
    '{"kind": "complete", "n": 3, "classes": null}',
    '{"kind": "complete", "n": 2.9, "classes": [[[1, 2]]]}',
    '{"kind": "complete", "n": "2", "classes": [[[1, 2]]]}',
    '{"kind": "complete", "n": true, "classes": [[[1, 2]]]}',
    '{"kind": "complete", "n": 2, "classes": [[[1, 1.7]]]}',
    '{"kind": "complete", "n": 2, "classes": [[[true, 2]]]}',
    '{"kind": "bipartite", "n": 1, "m": 1.5, "classes": [[[1, 1]]]}',
    '{"kind": "bipartite", "n": 1, "m": false, "classes": [[[1, 1]]]}',
    '{"kind": "complete", "n": 3, "m": 7,'
    ' "classes": [[[1, 2], [1, 3], [2, 3]]]}',
], ids=["classes-int", "class-int", "classes-null", "n-float", "n-string",
        "n-bool", "index-float", "index-bool", "m-float", "m-bool",
        "complete-m"])
def test_realize_rejects_hostile_spec(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    rc = cli.main(["realize", str(path), str(tmp_path / "o.json")])
    assert rc == 2
    assert _diag(capsys)["error"] == "SpecError"


def test_induce_one_point_exits_two(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text('{"dim": 2, "P": [[0, 0]]}')
    rc = cli.main(["induce", str(pts)])
    assert rc == 2
    assert _diag(capsys)["error"] == "ShapeMismatch"


@pytest.mark.parametrize("text, error", [
    ('{"dim": 1e400, "P": [[0.0], [1.0]]}', "ShapeMismatch"),
    ('{"dim": 1, "P": [[0], [1' + '0' * 400 + ']]}', "NonFiniteEntry"),
    ('{"dim": 2.7, "P": [[0, 0], [1, 1]]}', "ShapeMismatch"),
    ('{"dim": true, "P": [[0], [1]]}', "ShapeMismatch"),
    ('{"dim": "2", "P": [[0, 0], [1, 1]]}', "ShapeMismatch"),
    ('{"dim": 1, "P": [[1e308], [-1e308]]}', "NonFiniteEntry"),
    ('{"dim": 2, "P": [[1e200, 1e200], [3, 4]]}', "NonFiniteEntry"),
], ids=["dim-overflow", "coordinate-overflow", "dim-fraction", "dim-bool",
        "dim-string", "distance-overflow", "square-overflow"])
def test_verify_and_induce_reject_overflowing_points(text, error, tmp_path,
                                                     capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(text)
    spec = _spec_file(OrderSpec("complete", 2, (((1, 2),),)), tmp_path)
    for argv in (["verify", spec, str(pts)], ["induce", str(pts)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == error


def test_spec_index_past_the_int_digit_limit_exits_two(tmp_path, capsys):
    # int() refuses more than 4300 digits with a plain ValueError
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "complete", "n": 3, "classes": [[[1, 2'
                    + "0" * 4999 + ']]]}')
    pts = tmp_path / "pts.json"
    pts.write_text('{"dim": 1, "P": [[0], [1], [3]]}')
    out = str(tmp_path / "out.json")
    for argv in (["realize", str(spec), out], ["verify", str(spec), str(pts)],
                 ["falsify", str(spec), out, "--dim", "1"]):
        assert cli.main(argv) == 2
        diag = _diag(capsys)
        assert diag["error"] == "SpecError"
        assert diag["message"].startswith("invalid JSON: Exceeds the limit")


def test_quadratic_inputs_are_refused_before_allocating(tmp_path, capsys):
    # 1550 one-dimensional points take 20 kB of JSON but 1,200,475 pairs,
    # and a gallery size is one number: both are refused before anything
    # per pair is allocated
    n = (1 + math.isqrt(1 + 8 * schoenberg.MAX_PAIRS)) // 2 + 1
    assert n * (n - 1) // 2 > schoenberg.MAX_PAIRS
    pts = tmp_path / "line.json"
    schoenberg.save_config(
        PointConfig(dim=1, P=np.arange(n, dtype=float)[:, None]), str(pts))
    out = str(tmp_path / "o.json")
    tracemalloc.start()
    try:
        for argv in (["induce", str(pts)],
                     ["gallery", "block_linear", "100000", out],
                     ["gallery", "bip_cyclic_linear", "100000", out]):
            assert cli.main(argv) == 2
            assert _diag(capsys)["error"] == "BadSize"
        with pytest.raises(BadSize, match="exceed the cap"):
            schoenberg.pair_distances(PointConfig(
                dim=1, P=np.zeros((1096, 1)), Q=np.zeros((1096, 1))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert not (tmp_path / "o.json").exists()


def test_realize_refuses_a_spec_over_the_pair_cap(monkeypatch, tmp_path,
                                                  capsys):
    spec = _spec_file(OrderSpec("complete", 4, (tuple(
        orders.complete_pairs(4)),)), tmp_path)
    monkeypatch.setattr(schoenberg, "MAX_PAIRS", 5)
    assert cli.main(["realize", spec, str(tmp_path / "o.json")]) == 2
    assert _diag(capsys) == {"error": "BadSize",
                             "message": "6 pairs exceed the cap of 5"}


def test_realize_one_class_report_is_strict_json(tmp_path, capsys):
    single = OrderSpec("complete", 3, (tuple(orders.complete_pairs(3)),))
    rc = cli.main(["realize", _spec_file(single, tmp_path),
                   str(tmp_path / "o.json")])
    assert rc == 0

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["margin"] is None


def test_realize_rejects_one_class_spec_without_building_pairs(
        monkeypatch, tmp_path, capsys):
    # n=3000 has about 4.5M pairs; naming the first missing one must not
    # enumerate them
    def refuse(*_):
        raise AssertionError("pair universe built")

    monkeypatch.setattr(orders, "complete_pairs", refuse)
    path = tmp_path / "spec.json"
    path.write_text('{"kind": "complete", "n": 3000, "classes": [[[1, 2]]]}')
    rc = cli.main(["realize", str(path), str(tmp_path / "o.json")])
    assert rc == 2
    diag = _diag(capsys)
    assert diag["error"] == "MissingPair"
    assert diag["message"] == "pair (1, 3) not covered"


# boundary guard: every generated input file ends in a documented exit
# code with a one-line diagnostic, never in an exception out of cli.main
_EXIT_CODES = {"realize": {0, 2, 3, 4}, "verify": {0, 1, 2},
               "induce": {0, 2}, "falsify": {0, 1, 2}}
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(allow_nan=False), st.text(max_size=3),
                  st.lists(st.integers(-1, 4), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=2))


def _retype(draw, doc, keys):
    """Drop a key or give it a value of the wrong type, or neither."""
    for key in draw(st.lists(st.sampled_from(keys), max_size=1)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_JUNK)
    return doc


@st.composite
def _documents(draw):
    """A spec and a configuration of its shape. The spec partitions its
    pair set, then gets out-of-range indices, repeated, missing or ragged
    pairs and empty classes; the configuration gets ragged or missing
    rows; either may then lose a key or get a value of the wrong type."""
    kind = draw(st.sampled_from(["complete", "bipartite"]))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pairs = (orders.complete_pairs(n) if kind == "complete"
             else orders.bipartite_pairs(n, m))
    pairs = [list(p) for p in draw(st.permutations(pairs))]
    classes = []
    for p in pairs:
        if not classes or draw(st.booleans()):
            classes.append([])
        classes[-1].append(p)
    faults = st.sampled_from(
        [None, "index", "repeat", "missing", "ragged", "empty"])
    for fault in draw(st.lists(faults, max_size=2)):
        if fault == "empty" or (fault and not any(classes)):
            classes.insert(draw(st.integers(0, len(classes))), [])
        elif fault == "index":
            pair = draw(st.sampled_from(pairs))
            pair[draw(st.integers(0, 1))] = draw(
                st.sampled_from([0, -1, n + 1, m + 1, 10**6]))
        elif fault == "repeat":
            draw(st.sampled_from(classes)).append(
                list(draw(st.sampled_from(pairs))))
        elif fault == "missing":
            cls = draw(st.sampled_from([c for c in classes if c]))
            cls.pop(draw(st.integers(0, len(cls) - 1)))
        elif fault == "ragged":
            draw(st.sampled_from(pairs)).append(1)
    spec = {"kind": kind, "n": n, "classes": classes}

    dim = draw(st.integers(1, 4))
    rows = st.lists(st.floats(-10, 10), min_size=dim, max_size=dim)
    config = {"dim": dim, "P": draw(st.lists(rows, min_size=n, max_size=n))}
    if kind == "bipartite":
        spec["m"] = m
        config["Q"] = draw(st.lists(rows, min_size=m, max_size=m))
    faults = st.sampled_from([None, "ragged", "missing"])
    for fault in draw(st.lists(faults, max_size=1)):
        if fault == "ragged":
            config["P"].append([0.0] * (dim + 1))
        elif fault == "missing":
            config["P"].pop()
    return (_retype(draw, spec, ["kind", "n", "m", "classes"]),
            _retype(draw, config, ["dim", "P", "Q"]))


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=_documents())
def test_generated_inputs_end_in_documented_exit_codes(docs, tmp_path,
                                                        capsys):
    spec, pts = tmp_path / "spec.json", tmp_path / "pts.json"
    spec.write_text(json.dumps(docs[0]))
    pts.write_text(json.dumps(docs[1]))
    out = str(tmp_path / "out.json")
    for argv in (["realize", str(spec), out],
                 ["verify", str(spec), str(pts)],
                 ["induce", str(pts)],
                 ["falsify", str(spec), out, "--dim", "2",
                  "--restarts", "1", "--iters", "20"]):
        capsys.readouterr()
        rc = cli.main(argv)
        assert rc in _EXIT_CODES[argv[0]]
        if rc in (2, 3):
            assert "error" in json.loads(capsys.readouterr().err)
