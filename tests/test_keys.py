"""Order and rendering of integer path keys against ``Weight`` keys.

A path key holds one reduced integer ``Stretch`` per straight stretch.
The reference rebuilds every key as the tuple of its ``Weight``
displacements, named from the exact coordinates that
``fraction_paths.segments`` reads: the graph must emit its nodes in the
lexicographic order of those coordinates (``weights.order_key``) and
render each key as they render.  Every comparison of two stretches must
agree with that of their weights, and every sum, difference, negative and
integer multiple with the ``Fraction`` arithmetic on their coordinates.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from loom import (
    affinized_tensor_crystal,
    build_cartan,
    fundamental_crystal,
    path_crystal_window,
)
from loom.cartan import Stretch, Weight
from loom.crystals import key_str
from loom.embedding import tensor_power_crystal
from fraction_paths import segments
from weights import coords, fund, named, order_key

# C2 w2 and G2 w1 put breakpoints on the grids 2 and 6
FUNDAMENTALS = (("A", 2, 1), ("B", 3, 1), ("C", 2, 2), ("G2", 2, 1), ("D", 4, 2))


def _weight_key(key, paths):
    """The key with every path key replaced by its tuple of displacement weights."""
    if key in paths:
        return tuple(named(v, paths[key].affine) for v, _ in segments(paths[key]))
    if isinstance(key, tuple):
        return tuple(_weight_key(k, paths) for k in key)
    return key


def _weight_order(key):
    """A ``Weight``-keyed node's sort key: each weight by its coordinate order."""
    if isinstance(key, Weight):
        return order_key(key)
    if isinstance(key, tuple):
        return tuple(_weight_order(k) for k in key)
    return key


def _weight_str(key):
    """The rendering of a ``Weight``-keyed node."""
    if isinstance(key, tuple):
        return "(" + ",".join(_weight_str(k) for k in key) + ")"
    if not hasattr(key, "coords"):
        return str(key)
    body = ",".join("%d/%d" % (c.numerator, c.denominator) for c in key.coords)
    if key.delta is not None:
        body += "|%d/%d" % (key.delta.numerator, key.delta.denominator)
    return "w[" + body + "]"


def _assert_keys_match_weights(graph, paths):
    want = sorted(graph.nodes, key=lambda k: _weight_order(_weight_key(k, paths)))
    assert graph.sorted_keys() == want
    for k in want:
        assert key_str(k) == _weight_str(_weight_key(k, paths)), k
    assert key_str(graph.seed) == _weight_str(_weight_key(graph.seed, paths))


def _paths(graph):
    return {k: node.element for k, node in graph.nodes.items()}


@pytest.mark.parametrize("label,rank,i", FUNDAMENTALS)
def test_classical_and_affine_window_keys(label, rank, i):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    _assert_keys_match_weights(base, _paths(base))
    window = path_crystal_window(cartan, fund(cartan, i, affine=True), 2)
    _assert_keys_match_weights(window, _paths(window))


@pytest.mark.parametrize("label,rank,i", (("C", 2, 2), ("G2", 2, 1)))
def test_tensor_square_and_affinised_window_keys(label, rank, i):
    base = fundamental_crystal(build_cartan(label, rank), i)
    paths = _paths(base)
    _assert_keys_match_weights(tensor_power_crystal(base, 2), paths)
    _assert_keys_match_weights(affinized_tensor_crystal(base, 2, 2), paths)


def _stretches(key, out):
    if isinstance(key, Stretch):
        out.add(key)
    elif isinstance(key, tuple):
        for k in key:
            _stretches(k, out)


def _assert_order_matches_weights(stretches):
    weights = {s: order_key(s.weight()) for s in stretches}
    for a, b in itertools.permutations(stretches, 2):
        wa, wb = weights[a], weights[b]
        assert ((a < b, a > b, a <= b, a >= b)
                == (wa < wb, wb < wa, not wb < wa, not wa < wb)), (a, b)


@pytest.mark.parametrize("label,rank,i", FUNDAMENTALS)
def test_stretch_order_is_weight_order(label, rank, i):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    window = path_crystal_window(cartan, fund(cartan, i, affine=True), 2)
    square = tensor_power_crystal(base, 2)
    found = set()
    for graph in (base, window, square):
        for k in graph.nodes:
            _stretches(k, found)
    assert any(s.affine for s in found) and not all(s.affine for s in found)
    _assert_order_matches_weights(found)


def test_classical_stretch_precedes_affine_with_equal_coordinates():
    # coordinates (-1/3, 2/3); the null-root entry -1/6 doubles the denominator
    classical = Stretch((-1, 2), 3, False)
    lower, higher = Stretch((-2, 4, -1), 6, True), Stretch((-1, 2, 1), 3, True)
    _assert_order_matches_weights({classical, lower, higher})
    assert sorted([higher, lower, classical]) == [classical, lower, higher]


def _random_stretch(rng, width, affine):
    den = rng.randint(1, 6)
    nums = [rng.randint(-12, 12) for _ in range(width)]
    g = gcd(den, *nums)
    return Stretch(tuple(x // g for x in nums), den // g, affine)


def test_stretch_sum_and_difference_are_weight_sum_and_difference():
    rng = random.Random(2201)
    for _ in range(400):
        affine = rng.random() < 0.5
        # a rank-r weight has r + 1 coordinates, and one more entry when affine
        width = rng.randint(2, 8) + 1 + affine
        a, b = (_random_stretch(rng, width, affine) for _ in range(2))
        k = rng.randint(-4, 4)
        ca, cb = coords(a), coords(b)
        for got, want in ((a + b, tuple(x + y for x, y in zip(ca, cb))),
                          (a - b, tuple(x - y for x, y in zip(ca, cb))),
                          (-a, tuple(-x for x in ca)),
                          (k * a, tuple(k * x for x in ca)), (a * k, tuple(k * x for x in ca))):
            assert isinstance(got, Stretch) and got.affine == affine
            # never tuple concatenation or repetition: the result keeps the length and is reduced
            assert len(got.nums) == width and got.den > 0
            assert gcd(got.den, *got.nums) == 1
            assert coords(got) == want


def test_stretch_scales_only_by_an_integer():
    s = Stretch((1, -1, 0), 1, True)
    assert 2 * s == s * 2 == Stretch((2, -2, 0), 1, True)
    assert 0 * Stretch((1, 3), 2, False) == Stretch((0, 0), 1, False)
    assert 2 * Stretch((1, 3), 2, False) == Stretch((1, 3), 1, False)
    for other in (Fraction(1, 2), 0.5, s):
        with pytest.raises(TypeError):
            other * s
        with pytest.raises(TypeError):
            s * other


def test_stretch_arithmetic_refuses_mixed_ambients_and_ranks():
    classical, affine = Stretch((1, -1, 0), 2, False), Stretch((1, -1, 1), 2, True)
    wider = Stretch((1, -1, 0, 1), 1, False)
    for a, b in ((classical, affine), (affine, classical), (classical, wider)):
        with pytest.raises(ValueError, match="^stretches of different ambients or ranks$"):
            a + b
        with pytest.raises(ValueError, match="^stretches of different ambients or ranks$"):
            a - b
