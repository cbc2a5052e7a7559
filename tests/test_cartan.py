import copy
import dataclasses
import json
import random
from fractions import Fraction

import pytest

from loom import (
    AffineCartan,
    AmbientError,
    CartanError,
    Weight,
    build_cartan,
    fundamental_crystal,
    path_crystal_window,
    verify_decomposition,
)
from loom.cartan import solve_square
from loom.qfield import Q_ONE, Q_ZERO, QScalar


def test_a1_matrix_and_null_vectors(a1):
    assert a1.matrix == ((2, -2), (-2, 2))
    assert a1.marks == (1, 1)
    assert a1.comarks == (1, 1)


def test_a2_matrix(a2):
    for i in range(3):
        for j in range(3):
            assert a2.matrix[i][j] == (2 if i == j else -1)
    assert a2.marks == (1, 1, 1)


def test_c2_marks_and_delta_expansion(c2):
    assert c2.marks == (1, 2, 1)
    total = c2.zero_weight(classical=False)
    for j in c2.indices:
        total = total + c2.marks[j] * c2.simple_root(j)
    assert total == c2.null_root()


# Kac, Infinite dimensional Lie algebras, Table Aff 1, in the node numbering of
# the finite matrices built here; the affine node 0 comes first
@pytest.mark.parametrize("label,rank,marks,comarks", [
    ("E6", 6, (1, 1, 2, 2, 3, 2, 1), (1, 1, 2, 2, 3, 2, 1)),
    ("E7", 7, (1, 2, 2, 3, 4, 3, 2, 1), (1, 2, 2, 3, 4, 3, 2, 1)),
    ("E8", 8, (1, 2, 3, 4, 6, 5, 4, 3, 2), (1, 2, 3, 4, 6, 5, 4, 3, 2)),
    ("F4", 4, (1, 2, 3, 4, 2), (1, 2, 3, 2, 1)),
    ("G2", 2, (1, 2, 3), (1, 2, 1)),
    ("A", 3, (1, 1, 1, 1), (1, 1, 1, 1)),
    ("B", 3, (1, 1, 2, 2), (1, 1, 2, 1)),
    ("B", 5, (1, 1, 2, 2, 2, 2), (1, 1, 2, 2, 2, 1)),
    ("C", 3, (1, 2, 2, 1), (1, 1, 1, 1)),
    ("C", 5, (1, 2, 2, 2, 2, 1), (1, 1, 1, 1, 1, 1)),
    ("D", 4, (1, 1, 2, 1, 1), (1, 1, 2, 1, 1)),
    ("D", 6, (1, 1, 2, 2, 2, 1, 1), (1, 1, 2, 2, 2, 1, 1)),
])
def test_exceptional_marks_and_comarks(label, rank, marks, comarks):
    cartan = build_cartan(label, rank)
    assert cartan.marks == marks
    assert cartan.comarks == comarks


def test_solve_square_over_both_fields():
    fr = [[Fraction(2), Fraction(1)], [Fraction(1, 3), Fraction(-1)]]
    fr_rhs = [Fraction(1), Fraction(5, 2)]
    q = QScalar.q_power(1)
    qs = [[Q_ONE, q], [q, Q_ONE + q * q + q]]
    qs_rhs = [q, Q_ONE]
    for matrix, rhs, zero in ((fr, fr_rhs, Fraction(0)), (qs, qs_rhs, Q_ZERO)):
        before = [row[:] for row in matrix]
        sol = solve_square(matrix, rhs)
        assert matrix == before
        for row, b in zip(matrix, rhs):
            assert sum((x * y for x, y in zip(row, sol)), zero) == b
        singular = [matrix[0], [x + x for x in matrix[0]]]
        with pytest.raises(ArithmeticError):
            solve_square(singular, rhs)


@pytest.mark.parametrize("label,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3),
                                        ("E6", 5), ("F4", 3), ("G2", 3), ("X", 2)])
def test_invalid_types_rejected(label, rank):
    with pytest.raises(CartanError):
        build_cartan(label, rank)


def test_cartan_invariants_hold(a1, a2, c2, b3):
    for cartan in (a1, a2, c2, b3):
        n = cartan.rank + 1
        for i in range(n):
            assert cartan.matrix[i][i] == 2
            assert sum(cartan.matrix[i][j] * cartan.marks[j] for j in range(n)) == 0
            assert sum(cartan.comarks[j] * cartan.matrix[j][i] for j in range(n)) == 0
            for j in range(n):
                assert cartan.sym[i] * cartan.matrix[i][j] == cartan.sym[j] * cartan.matrix[j][i]
                if i != j:
                    assert cartan.matrix[i][j] <= 0
        assert cartan.marks[0] == 1 and cartan.comarks[0] == 1


def test_pairing_basics(a1, a2):
    lam1 = a1.fundamental_weight(1)
    assert a1.pairing(1, lam1) == 1
    assert a1.pairing(0, lam1) == 0
    assert a1.pairing(0, a1.null_root()) == 0
    assert a1.pairing(0, a1.classical_fundamental(1)) == -1
    assert a2.pairing(0, a2.classical_fundamental(1)) == -1
    with pytest.raises(CartanError):
        a1.pairing(2, lam1)


def test_simple_roots(a1, a2, c2):
    assert a1.simple_root(1) == Weight((-2, 2), 0)
    assert a1.simple_root(0) == Weight((2, -2), 1)
    for cartan in (a1, a2, c2):
        for j in cartan.indices:
            assert cartan.level(cartan.simple_root(j)) == 0


def test_reflections(a1):
    w1 = a1.classical_fundamental(1)
    assert a1.reflect(1, w1) == -w1
    assert a1.reflect(0, w1) == -w1
    rng = random.Random(7)
    for _ in range(20):
        w = Weight(
            (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))),
            Fraction(rng.randint(-3, 3)),
        )
        for i in a1.indices:
            r = a1.reflect(i, w)
            assert a1.reflect(i, r) == w
            assert a1.level(r) == a1.level(w)
            assert a1.pairing(i, r) == -a1.pairing(i, w)
            if i != 0:
                assert r.delta == w.delta
            if w.coords[i] == 0:
                assert r is w
    # the simple roots are built once per cartan
    assert a1.simple_root(0) is a1.simple_root(0)


def test_node_zero_reflection_is_highest_root_reflection(a2, c2, b3):
    # on level-zero classical weights the node-0 reflection acts through theta
    for cartan in (a2, c2, b3):
        theta = cartan.highest_finite_root()
        for i in range(1, cartan.rank + 1):
            w = cartan.classical_fundamental(i)
            by_theta = w - sum(
                cartan.comarks[j] * w.coords[j] for j in range(1, cartan.rank + 1)
            ) * theta
            assert cartan.reflect(0, w) == by_theta


def test_classical_projection(a1):
    alpha0 = a1.simple_root(0)
    theta = a1.highest_finite_root()
    assert alpha0.classical() == -theta
    assert alpha0.classical() == Weight((2, -2))
    assert a1.null_root().classical().is_zero
    w = 3 * a1.classical_fundamental(1, classical=False) + 2 * a1.null_root()
    assert w.classical() == 3 * a1.classical_fundamental(1)
    with pytest.raises(AmbientError):
        w.classical().classical()
    for i in a1.indices:
        assert a1.reflect(i, w).classical() == a1.reflect(i, w.classical())


def test_classical_fundamentals(a1, a2, c2):
    assert a1.classical_fundamental(1) == Weight((-1, 1))
    assert a2.classical_fundamental(1) == Weight((-1, 1, 0))
    for i in (1, 2):
        assert c2.level(c2.classical_fundamental(i, classical=False)) == 0
    with pytest.raises(CartanError):
        a1.classical_fundamental(2)


def test_ambient_mixing_rejected(a1):
    classical = a1.classical_fundamental(1)
    affine = a1.fundamental_weight(1)
    with pytest.raises(AmbientError):
        classical + affine


def test_cartan_json_fixture(a1):
    assert a1.to_json() == {
        "type": "A",
        "rank": 1,
        "matrix": [[2, -2], [-2, 2]],
        "marks": [1, 1],
        "comarks": [1, 1],
        "d": [1, 1],
    }
    assert type(a1).from_json(json.loads(json.dumps(a1.to_json()))) == a1


def test_cartan_is_a_value():
    # reading path weights, generating and verifying leave the cartan as built
    cartan = build_cartan("C", 2)
    snapshot = {name: copy.copy(value) for name, value in vars(cartan).items()}
    graphs = (fundamental_crystal(cartan, 2),
              path_crystal_window(cartan, cartan.classical_fundamental(2, classical=False), 2))
    for graph in graphs:
        for node in graph.nodes.values():
            path = node.element
            assert path.weight() == node.wt.weight()
            assert path.directions() == [v * (1 / t) for v, t in path.segments]
    assert verify_decomposition(cartan, 2, 2, 2)["pass"]
    assert vars(cartan) == snapshot
    containers = [f.name for f in dataclasses.fields(AffineCartan)
                  if isinstance(getattr(cartan, f.name), (dict, list, set))]
    assert containers == []
