import copy
import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from loom import (
    AffineCartan,
    Stretch,
    Weight,
    build_cartan,
    fundamental_crystal,
    path_crystal_window,
    verify_decomposition,
)
from loom.cartan import eliminate, replay
from loom.qfield import Q_ONE, Q_ZERO, QScalar
from fraction_paths import segments
from weights import (
    affine_root,
    coords,
    fund,
    fundamental_weight,
    highest_finite_root,
    level,
    positive_roots,
)


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
    total = 0 * c2.null_root()
    for j in c2.indices:
        total = total + c2.marks[j] * affine_root(c2, j)
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


def _every_cartan():
    spec = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
            + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
    return [build_cartan(label, rank) for label, rank in spec]


def test_cartan_data_digest():
    # every derived table of the 32 types up to rank 8: a change in any entry changes the digest
    rows = [[c.label, c.rank, c.matrix, c.marks, c.comarks, c.sym, c.roots, c.form]
            for c in _every_cartan()]
    assert len(rows) == 32
    assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == (
        "1eb1f3e8e837eecc2c2153890bd2898bb4bff9531137adee51ca8d51fc8cc56c")


def test_the_matrix_alone_rebuilds_the_cartan():
    for cartan in _every_cartan():
        rebuilt = AffineCartan(cartan.label, cartan.rank, [list(row) for row in cartan.matrix])
        assert rebuilt == cartan
        for name in ("matrix", "marks", "comarks", "sym", "roots", "form"):
            assert getattr(rebuilt, name) == getattr(cartan, name), (cartan.name, name)
    with pytest.raises(TypeError):
        AffineCartan("A", 1, ((2, -2), (-2, 2)), (1, 1), (1, 1), (1, 1))
    a2 = build_cartan("A", 2).matrix
    for rank, matrix in ((1, a2), (3, a2), (2, a2[:2] + ((-1, -1),))):
        with pytest.raises(ValueError, match="^a rank-%d cartan needs a %d x %d matrix$"
                           % (rank, rank + 1, rank + 1)):
            AffineCartan("A", rank, matrix)


def test_marks_are_the_highest_root_of_the_reflection_closure():
    # the dominant-root walk of build_cartan against every positive root of the finite block
    for cartan in _every_cartan():
        roots = positive_roots([row[1:] for row in cartan.matrix[1:]])
        top = max(map(sum, roots))
        assert [r for r in roots if sum(r) == top] == [cartan.marks[1:]], cartan.name


def test_eliminate_and_replay_over_both_fields():
    fr = [[Fraction(2), Fraction(1)], [Fraction(1, 3), Fraction(-1)]]
    fr_rhs = [Fraction(1), Fraction(5, 2)]
    q = QScalar.q_power(1)
    qs = [[Q_ONE, q], [q, Q_ONE + q * q + q]]
    qs_rhs = [q, Q_ONE]
    for matrix, rhs, zero in ((fr, fr_rhs, Fraction(0)), (qs, qs_rhs, Q_ZERO)):
        before = [row[:] for row in matrix]
        sol = replay(eliminate(matrix), rhs)
        assert matrix == before
        for row, b in zip(matrix, rhs):
            assert sum((x * y for x, y in zip(row, sol)), zero) == b
        singular = [matrix[0], [x + x for x in matrix[0]]]
        with pytest.raises(ArithmeticError):
            replay(eliminate(singular), rhs)


def test_one_elimination_replays_on_every_right_hand_side():
    fr = [[Fraction(0), Fraction(2), Fraction(1)], [Fraction(1, 3), Fraction(-1), Fraction(4)],
          [Fraction(5), Fraction(0), Fraction(-2, 7)]]
    fr_rhs = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(5, 2), Fraction(-1), Fraction(3)],
              [Fraction(0), Fraction(0), Fraction(0)]]
    q = QScalar.q_power(1)
    qs = [[Q_ZERO, q, Q_ONE], [q, Q_ONE + q * q + q, Q_ZERO], [Q_ONE, Q_ZERO, Q_ONE / (Q_ONE - q)]]
    qs_rhs = [[q, Q_ONE, Q_ZERO], [Q_ZERO, Q_ONE - q * q, q], [Q_ZERO, Q_ZERO, Q_ZERO]]
    for matrix, rhss, zero in ((fr, fr_rhs, Fraction(0)), (qs, qs_rhs, Q_ZERO)):
        before = [row[:] for row in matrix]
        steps = eliminate(matrix)
        assert matrix == before
        # a zero in the top-left corner forces a row swap
        assert steps[0][0] != 0
        for rhs in rhss:
            sol = replay(steps, rhs)
            for row, b in zip(matrix, rhs):
                assert sum((x * y for x, y in zip(row, sol)), zero) == b
        assert matrix == before


def test_a_singular_matrix_fails_while_it_is_eliminated():
    q = QScalar.q_power(1)
    for row in ([Fraction(2), Fraction(-3)], [q, Q_ONE - q]):
        with pytest.raises(ArithmeticError, match="singular"):
            eliminate([row, [x + x for x in row]])


@pytest.mark.parametrize("label,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E6", 5),
                                        ("E7", 6), ("E8", 9), ("F4", 3), ("G2", 3), ("X", 2)])
def test_invalid_types_rejected(label, rank):
    needs = {"A": ">= 1", "B": ">= 2", "C": ">= 2", "D": ">= 4", "E6": "6", "E7": "7", "E8": "8",
             "F4": "4", "G2": "2"}
    message = ("type %s needs rank %s" % (label, needs[label]) if label in needs
               else "unsupported type 'X'; expected one of A, B, C, D, E6, E7, E8, F4, G2")
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
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
    # the i-th coordinate of a stretch is its pairing with the i-th simple coroot
    assert coords(fundamental_weight(a1, 1)) == (0, 1, 0)
    assert a1.null_root() == Stretch((0, 0, 1), 1, True)
    assert fund(a1, 1) == Stretch((-1, 1), 1, False)
    assert fund(a2, 1, affine=True) == Stretch((-1, 1, 0, 0), 1, True)
    assert Weight((Fraction(1, 2), Fraction(-1, 3)), Fraction(5, 6)).stretch() == Stretch(
        (3, -2, 5), 6, True)
    with pytest.raises(ValueError, match=r"^index 2 out of range 0\.\.1$"):
        a1.simple_root(2)
    with pytest.raises(ValueError, match=r"^index 2 out of range 0\.\.1$"):
        a1.reflect(2, fundamental_weight(a1, 1))


def test_simple_roots(a1, a2, c2):
    assert affine_root(a1, 1) == Stretch((-2, 2, 0), 1, True)
    assert affine_root(a1, 0) == Stretch((2, -2, 1), 1, True)
    assert a1.simple_root(1) == Stretch((-2, 2), 1, False)
    assert a1.simple_root(0) == Stretch((2, -2), 1, False)
    for cartan in (a1, a2, c2):
        for j in cartan.indices:
            assert level(cartan, affine_root(cartan, j)) == 0
            # the one root table: simple_root, reflect and the root operators read the same row
            assert cartan.simple_root(j).nums + (int(j == 0),) == cartan.roots[j]


def test_reflections(a1):
    w1 = fund(a1, 1)
    assert a1.reflect(1, w1) == -w1
    assert a1.reflect(0, w1) == -w1
    rng = random.Random(7)
    for _ in range(20):
        w = Weight(
            (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4))),
            Fraction(rng.randint(-3, 3)),
        ).stretch()
        for i in a1.indices:
            r = a1.reflect(i, w)
            assert a1.reflect(i, r) == w
            assert level(a1, r) == level(a1, w)
            assert coords(r)[i] == -coords(w)[i]
            # s_i w = w - <h_i, w> alpha_i, in Fraction coordinates
            assert coords(r) == tuple(x - coords(w)[i] * y
                                      for x, y in zip(coords(w), affine_root(a1, i).nums))
            if i != 0:
                assert coords(r)[-1] == coords(w)[-1]
            if w.nums[i] == 0:
                assert r is w


def test_node_zero_reflection_is_highest_root_reflection(a2, c2, b3):
    # on level-zero classical weights the node-0 reflection acts through theta
    for cartan in (a2, c2, b3):
        theta = highest_finite_root(cartan)
        for i in range(1, cartan.rank + 1):
            w = fund(cartan, i)
            by_theta = w - sum(
                cartan.comarks[j] * w.nums[j] for j in range(1, cartan.rank + 1)
            ) * theta
            assert cartan.reflect(0, w) == by_theta


def test_classical_projection(a1):
    def classical(w):
        return Stretch(w.nums[:-1], w.den, False)

    alpha0 = affine_root(a1, 0)
    theta = highest_finite_root(a1)
    assert classical(alpha0) == a1.simple_root(0) == -theta
    assert classical(alpha0) == Weight((2, -2)).stretch()
    w = 3 * fund(a1, 1, affine=True) + 2 * a1.null_root()
    assert classical(w) == 3 * fund(a1, 1)
    for i in a1.indices:
        assert classical(a1.reflect(i, w)) == a1.reflect(i, classical(w))


def test_classical_fundamentals(a1, a2, c2):
    assert a1.classical_fundamental(1).weight() == Weight((-1, 1))
    assert a2.classical_fundamental(1).weight() == Weight((-1, 1, 0))
    for i in (1, 2):
        assert level(c2, fund(c2, i, affine=True)) == 0
    with pytest.raises(ValueError, match=r"^classical fundamental index must be in 1\.\.rank$"):
        a1.classical_fundamental(2)


def test_ambient_mixing_rejected(a1, a2):
    classical = fund(a1, 1)
    affine = fundamental_weight(a1, 1)
    with pytest.raises(ValueError, match="^stretches of different ambients or ranks$"):
        classical + affine
    with pytest.raises(ValueError, match="^stretches of different ambients or ranks$"):
        affine - classical
    # a reflection refuses a weight of another rank, classical or affine
    for cartan, w in ((a1, fund(a2, 1)), (a1, fundamental_weight(a2, 1)),
                      (a2, classical), (a2, affine)):
        for i in cartan.indices:
            with pytest.raises(ValueError, match="^weight of another rank than the cartan$"):
                cartan.reflect(i, w)


def test_cartan_json_fixture(a1):
    assert a1.label == "A"
    assert a1.rank == 1
    assert a1.matrix == ((2, -2), (-2, 2))
    assert a1.marks == (1, 1)
    assert a1.comarks == (1, 1)
    assert a1.sym == (1, 1)


def test_cartan_is_a_value():
    # reading path weights, generating and verifying leave the cartan as built
    cartan = build_cartan("C", 2)
    snapshot = {name: copy.copy(value) for name, value in vars(cartan).items()}
    graphs = (fundamental_crystal(cartan, 2),
              path_crystal_window(cartan, fund(cartan, 2, affine=True), 2))
    for graph in graphs:
        for node in graph.nodes.values():
            path = node.element
            assert path.endpoint() == node.wt
            assert [coords(d) for d in path.directions()] == [
                tuple(x / t for x in v) for v, t in segments(path)]
    assert verify_decomposition(cartan, 2, 2, 2)["pass"]
    assert vars(cartan) == snapshot
    containers = [f.name for f in dataclasses.fields(AffineCartan)
                  if isinstance(getattr(cartan, f.name), (dict, list, set))]
    assert containers == []
