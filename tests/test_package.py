import warnings

import numpy as np
import pytest

import ordembed
from ordembed.errors import BadIndex, BadSize


def test_every_exported_name_resolves():
    assert [name for name in ordembed.__all__
            if not hasattr(ordembed, name)] == []


_SPEC = ordembed.OrderSpec("complete", 3, [[(1, 2)], [(1, 3)], [(2, 3)]])
_CONFIG = ordembed.PointConfig(dim=2, P=np.eye(3, 2))


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
], ids=["initial", "shrink", "max-steps-float", "max-steps-bool", "eta",
        "tol-abs", "margin", "gallery-n", "infeasible-n", "base", "bound-n"])
def test_settings_of_the_wrong_type_raise_typed_errors(call, error):
    # a setting of the wrong type is refused where it is given, with the
    # error its range check raises, not a TypeError from a comparison
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
