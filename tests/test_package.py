import ast
import math
import reprlib
import sys
import warnings
from functools import partial
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ordembed
from conftest import (random_bipartite_linear, random_bipartite_preorder,
                      random_linear_order, random_preorder)
from ordembed.errors import BadIndex, BadSize


def test_numpy_is_the_only_runtime_dependency():
    # scipy and hypothesis may be installed where the tests run, so an
    # import of either from the package would pass every other test
    found = []
    for path in sorted(Path(ordembed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    assert found
    assert [(name, module) for name, module in found
            if module.split(".")[0] not in sys.stdlib_module_names
            and module.split(".")[0] != "numpy"] == []


def test_every_exported_name_resolves():
    assert [name for name in ordembed.__all__
            if not hasattr(ordembed, name)] == []


_SPEC = ordembed.OrderSpec("complete", 3, [[(1, 2)], [(1, 3)], [(2, 3)]])
_CONFIG = ordembed.PointConfig(dim=2, P=np.eye(3, 2))
_GRAM = ordembed.GramMatrix(matrix=np.eye(2), base=1)


@pytest.mark.parametrize("call, error", [
    (lambda: ordembed.EpsilonSearch(initial="a"), BadSize),
    (lambda: ordembed.EpsilonSearch(initial=0.1, shrink_factor="a"), BadSize),
    (lambda: ordembed.EpsilonSearch(initial=0.1, max_steps=1.5), BadSize),
    (lambda: ordembed.EpsilonSearch(initial=0.1, max_steps=True), BadSize),
    (lambda: ordembed.realize(_SPEC, eta="x"), BadSize),
    (lambda: ordembed.verify(_CONFIG, _SPEC, tol_abs="x"), BadSize),
    (lambda: ordembed.FalsifierConfig(dim=1, margin="x"), BadSize),
    (lambda: ordembed.gallery("diameter_preorder", 3.0), BadSize),
    (lambda: ordembed.infeasible_dimension("diameter_preorder", 3.0),
     BadSize),
    (lambda: ordembed.gram_from_distances(
        ordembed.distances_of(_CONFIG), "1"), BadIndex),
    (lambda: ordembed.simplex_diameter_bound("5"), BadSize),
    (lambda: ordembed.factor_points(_GRAM, "x"), BadSize),
    (lambda: ordembed.factor_points(_GRAM, 1.5), BadSize),
    (lambda: ordembed.factor_points(_GRAM, True), BadSize),
    (lambda: ordembed.factor_points(_GRAM, -1), BadSize),
    (lambda: ordembed.factor_points(_GRAM, ordembed.schoenberg.MAX_PAIRS),
     BadSize),
    (lambda: ordembed.factor_points(ordembed.GramMatrix(
        matrix=np.eye(2), base=0), 2), BadIndex),
    (lambda: ordembed.complete_pairs(None), BadSize),
    (lambda: ordembed.complete_pairs(2 ** 70), BadSize),
    (lambda: ordembed.bipartite_pairs(2, 1.5), BadSize),
    (lambda: ordembed.bipartite_pairs(1, 2 ** 70), BadSize),
    (lambda: ordembed.perturbed_distances(_SPEC, "x"), BadSize),
    (lambda: ordembed.realize(_SPEC, eta=10 ** 400), BadSize),
    (lambda: ordembed.verify(_CONFIG, _SPEC, tol_rel=10 ** 400), BadSize),
    (lambda: ordembed.simplex_diameter_bound(10 ** 400), BadSize),
    (lambda: ordembed.realize(_SPEC, search=ordembed.EpsilonSearch(2 ** 70)),
     ordembed.EpsilonExhausted),
], ids=["initial", "shrink", "max-steps-float", "max-steps-bool", "eta",
        "tol-abs", "margin", "gallery-n", "infeasible-n", "base", "bound-n",
        "factor-dim-str", "factor-dim-float", "factor-dim-bool",
        "factor-dim-negative", "factor-dim-past-cap", "factor-base",
        "complete-pairs-n", "complete-pairs-past-cap", "bipartite-pairs-m",
        "bipartite-pairs-past-cap", "perturbed-eps", "eta-past-float",
        "tol-past-float", "bound-n-past-float", "initial-past-int64"])
def test_settings_of_the_wrong_type_raise_typed_errors(call, error):
    # a setting of the wrong type is refused where it is given, with the
    # error its range check raises, not a TypeError from a comparison or
    # an OverflowError from an integer past int64 or the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


_HUGE = 10 ** 400


@pytest.mark.parametrize("call, message", [
    (lambda: ordembed.realize(_SPEC, eta=_HUGE),
     "eta must be a positive number within float range"),
    (lambda: ordembed.verify(_CONFIG, _SPEC, tol_abs=_HUGE),
     "tol_abs must be nonnegative and within float range"),
    (lambda: ordembed.induced_preorder(_CONFIG, tol_rel=_HUGE),
     "tol_rel must be nonnegative and within float range"),
    (lambda: ordembed.EpsilonSearch(initial=_HUGE),
     "initial must be a positive number within float range"),
    (lambda: ordembed.EpsilonSearch(initial=0.5, shrink_factor=_HUGE),
     "shrink_factor must lie in (0,1)"),
    (lambda: ordembed.FalsifierConfig(dim=1, margin=_HUGE),
     "margin must be a positive number within float range"),
    (lambda: ordembed.FalsifierConfig(dim=1, floor=_HUGE),
     "floor must be nonnegative and within float range"),
    (lambda: ordembed.perturbed_distances(_SPEC, _HUGE),
     "eps must be a real number within float range"),
], ids=["eta", "tol-abs", "tol-rel", "initial", "shrink", "margin", "floor",
        "eps"])
def test_a_setting_past_the_float_range_is_named_in_a_short_message(
        call, message):
    # an integer past the float range is refused with a message that is
    # true of it, its value cut short by reprlib
    with pytest.raises(BadSize) as err:
        call()
    assert str(err.value) == f"{message}, got {reprlib.repr(_HUGE)}"
    assert len(str(err.value)) < 100


# ---------------------------------------------------------------------------
# every export, driven with malformed in-memory arguments

# a value of the wrong type, out of range or not finite, for any argument:
# ragged, non-numeric, complex, empty and wrong-ndim arrays among them, and
# integers past int64 and past the float range
_SMALL_JUNK = ("x", None, True, 1.5, -1, 0, math.nan, math.inf, -math.inf,
               1j, [], [[]], [[1.0, 2.0], [3.0]], [["a"]], np.zeros(3),
               np.zeros((2, 3)), np.zeros((0, 0)), np.eye(2) * 1j,
               np.full((2, 2), math.nan), np.full((2, 2), -math.inf))
_JUNK = _SMALL_JUNK + (2 ** 70, 10 ** 400)
# a coordinate or matrix entry: one in eight huge, tiny or not finite
_ENTRY = st.integers(0, 7).flatmap(lambda k: st.floats(-3, 3) if k else (
    st.sampled_from([1e-300, 1e200, -1e200, math.nan, math.inf, -math.inf])))
_rng = np.random.default_rng(0)
_SPECS = (ordembed.OrderSpec("complete", 2, [[(1, 2)]]),
          ordembed.OrderSpec("complete", 4, [ordembed.complete_pairs(4)]),
          random_preorder(_rng, 3), random_linear_order(_rng, 4),
          random_preorder(_rng, 5), random_bipartite_preorder(_rng, 1, 1),
          random_bipartite_preorder(_rng, 2, 3),
          random_bipartite_linear(_rng, 3, 2))


def _junk_or(*good, bounded=False):
    """One of good three times in four, else a junk value; bounded leaves
    out the huge integers, for a count that sets how long a call runs."""
    junk = _SMALL_JUNK if bounded else _JUNK
    return st.integers(0, 3).flatmap(
        lambda k: st.sampled_from(good if k else junk))


def _arrays(rows: int, cols: int):
    return hnp.arrays(np.float64, (rows, cols), elements=_ENTRY)


def _recipe(cls, parts: dict, draw, junk=_JUNK):
    """cls built from parts, inside the call, with at most one part swapped
    for one of junk."""
    for name in draw(st.sets(st.sampled_from(sorted(parts)), max_size=1)):
        parts[name] = draw(st.sampled_from(junk))
    return partial(cls, **parts)


@st.composite
def _spec_and_config(draw):
    """A valid spec and a config mostly of its shape: another point count,
    another kind or a junk part now and then; entries may be huge, NaN or
    infinite."""
    spec = draw(st.sampled_from(_SPECS))
    dim = draw(st.integers(0, 3))
    n = draw(st.sampled_from([spec.n] * 3 + [0, 1, spec.n + 1]))
    m = spec.m or draw(st.sampled_from([None] * 4 + [2]))
    Q = None if m is None else draw(_arrays(
        draw(st.sampled_from([m, m, 0])),
        draw(st.sampled_from([dim] * 4 + [dim + 1]))))
    return spec, _recipe(ordembed.PointConfig,
                         dict(dim=dim, P=draw(_arrays(n, dim)), Q=Q), draw)


@st.composite
def _searches(draw):
    return None if draw(st.booleans()) else _recipe(
        ordembed.EpsilonSearch, dict(
            initial=draw(_junk_or(0.5, 1e-3, 1.0)),
            shrink_factor=draw(_junk_or(0.5, 0.9)),
            max_steps=draw(_junk_or(1, 5, 60, bounded=True))), draw,
        _SMALL_JUNK)


@st.composite
def _grams(draw):
    k = draw(st.integers(0, 3))
    return _recipe(ordembed.GramMatrix, dict(
        matrix=draw(_arrays(k, k)), base=draw(st.integers(1, k + 1))),
        draw)


@st.composite
def _matrices(draw):
    k = draw(st.integers(0, 3))
    return draw(st.one_of(st.sampled_from(_JUNK), _arrays(k, k),
                          _arrays(k, k).map(_distance_like)))


def _distance_like(a: np.ndarray) -> np.ndarray:
    """a made symmetric, nonnegative and zero on the diagonal."""
    d = np.maximum(np.abs(a), np.abs(a).T)
    np.fill_diagonal(d, 0.0)
    return d


def _with(fn, *args, **kwargs):
    """A strategy of calls of fn: each argument a strategy of its values."""
    return st.builds(partial, st.just(fn), *args, **kwargs)


@st.composite
def _with_spec_and_config(draw, fn, order, **kwargs):
    """A call of fn on the arguments order names ("spec", "config") drawn
    from _spec_and_config, and on kwargs drawn from their strategies."""
    spec, config = draw(_spec_and_config())
    args = {"spec": spec, "config": config}
    return partial(fn, *(args[a] for a in order),
                   **{k: draw(v) for k, v in kwargs.items()})


@st.composite
def _falsifier_configs(draw):
    return _recipe(ordembed.FalsifierConfig, dict(
        dim=draw(_junk_or(1, 2)), restarts=draw(_junk_or(1, 2, bounded=True)),
        iters=draw(_junk_or(1, 30, bounded=True)),
        margin=draw(_junk_or(0.05)), floor=draw(_junk_or(0.05)),
        seed=draw(_junk_or(0))), draw, _SMALL_JUNK)


_TOL = _junk_or(0.0, 1e-9, 1e-3)
_FAMILY = _junk_or(*ordembed.counterexamples.FAMILIES)
_ANY_SPEC = st.sampled_from(_SPECS)
_SIZE = _junk_or(0, 1, 2, 3, 4, 5)
_CALLS = {
    "EpsilonSearch": _with(ordembed.EpsilonSearch, _junk_or(0.5),
                           _junk_or(0.5), _junk_or(60)),
    "FalsifierConfig": _with(ordembed.FalsifierConfig, _junk_or(1),
                             _junk_or(2), _junk_or(30), _junk_or(0.05),
                             _junk_or(0.05), _junk_or(0)),
    "FalsifierReport": _with(ordembed.FalsifierReport, _junk_or("refuted"),
                             _junk_or(1.0), _junk_or(None), _junk_or(()),
                             _junk_or(())),
    "GramMatrix": _grams(),
    "OrderSpec": _with(ordembed.OrderSpec, _junk_or("complete", "bipartite"),
                       _SIZE, _junk_or([[(1, 2)]], [[(1, 1), (1, 2)]],
                                       [[(2, 1)], [(1, 1)]]),
                       _junk_or(None, 1, 2)),
    "PointConfig": _spec_and_config().map(lambda sc: sc[1]),
    "RealizationReport": _with(ordembed.RealizationReport, _junk_or(None),
                               _junk_or(0.1), _ANY_SPEC, _junk_or(())),
    "VerifyReport": _with(ordembed.VerifyReport, _junk_or("match"),
                          _junk_or(None), _junk_or(1.0), _junk_or(1.0)),
    "bipartite_pairs": _with(ordembed.bipartite_pairs, _SIZE, _SIZE),
    "choose_epsilon": _with(ordembed.choose_epsilon, _searches().filter(
        lambda s: s is not None), st.sampled_from(
            [lambda eps: True, lambda eps: False, lambda eps: eps < 1e-2])),
    "complete_pairs": _with(ordembed.complete_pairs, _SIZE),
    "default_search": _with(ordembed.default_search, _ANY_SPEC),
    "distances_of": _with_spec_and_config(ordembed.distances_of,
                                          ("config",)),
    "factor_points": _with(ordembed.factor_points, _grams(),
                           _junk_or(0, 1, 2, 3)),
    "falsify": _with(ordembed.falsify, _ANY_SPEC, _falsifier_configs()),
    "gallery": _with(ordembed.gallery, _FAMILY, _junk_or(3, 4, 5)),
    "gram_from_distances": _with(ordembed.gram_from_distances, _matrices(),
                                 _junk_or(1, 2, 3)),
    "induced_preorder": _with_spec_and_config(
        ordembed.induced_preorder, ("config",), tol_abs=_TOL, tol_rel=_TOL),
    "infeasible_dimension": _with(ordembed.infeasible_dimension, _FAMILY,
                                  _junk_or(3, 4, 5)),
    "min_eigenvalue": _with(ordembed.min_eigenvalue,
                            st.one_of(_matrices(), _grams())),
    "perturbed_distances": _with(ordembed.perturbed_distances, _ANY_SPEC,
                                 _junk_or(0.1, 1e-3)),
    **{name: _with(getattr(ordembed, name), _ANY_SPEC,
                   _junk_or(1e-6, 1e-2), _searches())
       for name in ("realize", "realize_linear_complete",
                    "realize_preorder_bipartite",
                    "realize_preorder_complete")},
    "simplex_diameter_bound": _with(ordembed.simplex_diameter_bound,
                                    _junk_or(3, 4, 7)),
    "stress_loss": _with_spec_and_config(
        ordembed.stress_loss, ("spec", "config"), margin=_junk_or(0.05),
        floor=_junk_or(0.05)),
    "validate": _with(ordembed.validate, _ANY_SPEC),
    "verify": _with_spec_and_config(ordembed.verify, ("config", "spec"),
                                    tol_abs=_TOL, tol_rel=_TOL),
}
_CALLS.update({name: _with(error, _junk_or("message"))
               for name, error in vars(ordembed.errors).items()
               if isinstance(error, type) and issubclass(error, Exception)})


def test_the_malformed_calls_cover_every_export():
    assert sorted(_CALLS) == sorted(
        name for name in ordembed.__all__ if callable(getattr(ordembed, name)))


def _run(call: partial):
    """call, with each argument that is a partial (a library object built
    from drawn parts) built first, inside the call."""
    def built(v):
        return v() if isinstance(v, partial) else v
    return call.func(*map(built, call.args),
                     **{k: built(v) for k, v in call.keywords.items()})


@pytest.mark.parametrize("name", sorted(_CALLS))
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_every_export_ends_in_a_result_or_a_typed_error(name, data):
    # malformed arguments: wrong ndim and widths, wrong dim and types,
    # empty sets, NaN and inf; warnings are raised as errors. A parameter
    # that takes a library object (a spec, config, search, falsifier
    # config or Gram matrix) gets one, built from drawn parts
    call = data.draw(_CALLS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _run(call)
        except ordembed.OrdembedError:
            pass
