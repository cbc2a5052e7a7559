"""Coverage beyond the minuscule cases: the second node of C2.

Its fundamental crystal contains a genuinely bent weight-zero path, the
uniform grid is two, and the energy function reaches the value two, so
everything downstream runs with non-trivial refinement denominators.
"""

import itertools
from fractions import Fraction

from loom import (
    TensorOps,
    affinized_tensor_crystal,
    build_cartan,
    c_class,
    choose_grid,
    energy_edge_check,
    energy_table,
    fundamental_crystal,
    kappa,
    major_index,
    psi,
    refine,
    verify_decomposition,
)
from loom.crystals import moves


def test_bent_fundamental_crystal(c2):
    base = fundamental_crystal(c2, 2)
    assert len(base) == 5 and base.edge_count() == 6
    assert choose_grid(base) == 2
    assert base.normality_audit() == []
    bent = [
        base.nodes[k].element for k in base.sorted_keys()
        if len(base.nodes[k].element.segments) == 2
    ]
    assert len(bent) == 1
    assert bent[0].weight().is_zero
    assert bent[0].breakpoints() == [0, Fraction(1, 2), 1]


def test_energy_on_grid_two(c2):
    base = fundamental_crystal(c2, 2)
    table = energy_table(base)
    assert len(table.chi) == 25
    assert energy_edge_check(base, table) == []
    assert sorted(set(table.chi.values())) == [0, 1, 2]


def test_refined_word_lands_in_crystal(c2):
    base = fundamental_crystal(c2, 2)
    table = energy_table(base)
    for b in itertools.product(base.sorted_keys(), repeat=2):
        word = refine(base, b, table.grid)
        assert len(word) == 4
        assert all(k in base.nodes for k in word)


def test_major_index_shift_with_unrefined_factors(c2):
    base = fundamental_crystal(c2, 2)
    table = energy_table(base)
    ops = TensorOps([base] * 2)
    for b in itertools.product(base.sorted_keys(), repeat=2):
        value = major_index(table, b)
        for i in c2.indices:
            shift = 1 if i == 0 else 0
            down = ops.f(b, i)
            if down is not None:
                assert (major_index(table, down) - value - shift) % 2 == 0
            up = ops.e(b, i)
            if up is not None:
                assert (major_index(table, up) - value + shift) % 2 == 0


def test_kappa_endpoints_on_grid_two(c2):
    base = fundamental_crystal(c2, 2)
    table = energy_table(base)
    for b in itertools.product(base.sorted_keys(), repeat=2):
        for n in (-1, 0, 1):
            assert kappa(table, base, b, n, 0) == 0
            assert kappa(table, base, b, n, 2 * table.grid) == n
            img = psi(table, base, (b, n))
            assert img.path.weight().delta == n


def test_class_grading_is_operator_invariant(c2):
    base = fundamental_crystal(c2, 2)
    table = energy_table(base)
    # degrees -1..1 keep every neighbour inside the window 2
    aff = affinized_tensor_crystal(base, 2, 2)
    for b in itertools.product(base.sorted_keys(), repeat=2):
        for n in (-1, 0, 1):
            x = (b, n)
            cls = c_class(table, base, x, 2)
            for _i, _kind, moved in moves(aff, x):
                if moved is not None:
                    assert c_class(table, base, moved, 2) == cls


def test_decomposition_grid_two(c2):
    assert energy_table(fundamental_crystal(c2, 2)).grid == 2
    for m in (1, 2):
        report = verify_decomposition(c2, 2, m, 3)
        assert report["pass"], report


def test_decomposition_grid_six():
    g2 = build_cartan("G2", 2)
    base = fundamental_crystal(g2, 1)
    assert len(base) == 15
    assert choose_grid(base) == 6
    assert base.normality_audit() == []
    assert energy_table(base).grid == 6
    report = verify_decomposition(g2, 1, 1, 2)
    assert report["pass"], report


def test_decomposition_b3_vector_node(b3):
    base = fundamental_crystal(b3, 1)
    assert len(base) == 7
    report = verify_decomposition(b3, 1, 1, 3)
    assert report["pass"], report


def test_grid_divides_coroot_coefficient_bound(a1, a2, c2):
    # the least common multiple of the i-th coefficients over all positive
    # coroots is a sufficient uniform grid, so the observed minimal grid
    # must divide it
    from math import lcm

    from loom.cartan import _finite_matrix, _positive_roots

    cases = [(a1, 1), (a2, 1), (c2, 1), (c2, 2), (build_cartan("G2", 2), 1)]
    for cartan, i in cases:
        fin = _finite_matrix(cartan.label, cartan.rank)
        transposed = [[fin[j][k] for j in range(cartan.rank)] for k in range(cartan.rank)]
        coroots = _positive_roots(transposed)
        bound = lcm(*[c[i - 1] for c in coroots if c[i - 1]])
        observed = choose_grid(fundamental_crystal(cartan, i))
        assert bound % observed == 0, (cartan.name, i, observed, bound)


def test_decomposition_f4_fourth_node():
    # counts measured on the Weight-keyed kernel before keys became integer
    report = verify_decomposition(build_cartan("F4", 4), 4, 2, 2)
    assert report["pass"], report
    assert report["counts"] == {"base": 26, "affinized": 3380, "image_inner": 2028,
                                "pieces_inner": {"0": 1001, "1": 1027}}
