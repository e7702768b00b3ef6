"""End-to-end command-line tests, run in process through cli.main."""
import json

import numpy as np
import pytest

from conftest import (random_bipartite_preorder, random_linear_order,
                      random_preorder)
from ordembed import (cli, constructions, counterexamples, orders, schoenberg,
                      verifier)
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


def test_realize_self_verification_gate(preorder4_spec, tmp_path, capsys):
    # an absurd tolerance merges every class, so the self-check must trip
    spec_path = _spec_file(preorder4_spec, tmp_path)
    out = tmp_path / "o.json"
    rc = cli.main(["realize", spec_path, str(out), "--tol-abs", "10"])
    assert rc == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out)["dim"] == 3
    assert "self-verification failed" in json.loads(captured.err)["message"]
    assert out.exists()


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
    assert _diag(capsys)["error"] == "SpecError"


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
    assert report["best_loss"] < counterexamples.FEASIBLE_LOSS
    assert report["restarts"] == 6
    assert len(report["per_restart_losses"]) == 6


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
], ids=["classes-int", "class-int", "classes-null", "n-float", "n-string",
        "n-bool", "index-float", "index-bool", "m-float", "m-bool"])
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
], ids=["dim-overflow", "coordinate-overflow"])
def test_verify_and_induce_reject_overflowing_points(text, error, tmp_path,
                                                     capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(text)
    spec = _spec_file(OrderSpec("complete", 2, (((1, 2),),)), tmp_path)
    for argv in (["verify", spec, str(pts)], ["induce", str(pts)]):
        assert cli.main(argv) == 2
        assert _diag(capsys)["error"] == error


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
