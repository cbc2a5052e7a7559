"""Order and rendering of integer path keys against ``Weight`` keys.

A path key holds one reduced integer ``Stretch`` per straight stretch.
The reference rebuilds every key as the tuple of its ``Weight``
displacements, read from ``path.segments``: the graph must emit its
nodes in the order of those weights and render each key as they render.
"""

import pytest

from loom import (
    affinized_tensor_crystal,
    build_cartan,
    fundamental_crystal,
    path_crystal_window,
)
from loom.crystals import key_str
from loom.embedding import tensor_power_crystal

# C2 w2 and G2 w1 put breakpoints on the grids 2 and 6
FUNDAMENTALS = (("A", 2, 1), ("B", 3, 1), ("C", 2, 2), ("G2", 2, 1), ("D", 4, 2))


def _weight_key(key, paths):
    """The key with every path key replaced by its tuple of displacement weights."""
    if key in paths:
        return tuple(v for v, _ in paths[key].segments)
    if isinstance(key, tuple):
        return tuple(_weight_key(k, paths) for k in key)
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
    want = sorted(graph.nodes, key=lambda k: _weight_key(k, paths))
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
    window = path_crystal_window(cartan, cartan.classical_fundamental(i, classical=False), 2)
    _assert_keys_match_weights(window, _paths(window))


@pytest.mark.parametrize("label,rank,i", (("C", 2, 2), ("G2", 2, 1)))
def test_tensor_square_and_affinised_window_keys(label, rank, i):
    base = fundamental_crystal(build_cartan(label, rank), i)
    paths = _paths(base)
    _assert_keys_match_weights(tensor_power_crystal(base, 2), paths)
    _assert_keys_match_weights(affinized_tensor_crystal(base, 2, 2), paths)
