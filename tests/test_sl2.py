import hashlib
import itertools
import json
import re
import time

import pytest

from loom import cartan, qfield, sl2, verify
from loom.cartan import eliminate, replay
from loom.cli import main
from loom.crystals import TensorOps
from loom.qfield import Q_ONE, Q_ZERO, QScalar, qfact, qint
from loom.sl2 import (
    StringLattice,
    TensorVector,
    act_E,
    act_E_div,
    act_F,
    act_F_div,
    act_K,
    crystal_limit_table,
    kashiwara_e,
    kashiwara_f,
    origin_case_table,
    singular_coefficient,
    singular_vector,
    string_decompose,
    tensor_rule_table,
)
from coproduct import act_E_div_split, act_F_div_split
from outcomes import holds


def basis(shape, idx):
    return TensorVector.basis(shape, idx)


def test_action_examples():
    v = basis((1, 1), (0, 1))
    assert act_E(v) == basis((1, 1), (0, 0))
    w = basis((2, 3), (1, 2))
    assert act_K(w) == w.scale(QScalar.q_power((2 - 2) + (3 - 4)))
    u1 = singular_vector(1, 1, 1)
    assert u1 == basis((1, 1), (0, 1)) - basis((1, 1), (1, 0)).scale(QScalar.q_power(1))
    assert act_E(u1).is_zero


@pytest.mark.parametrize("tag", [(3, 0), (0, 4), (0, -1), (1,), (1, 1, 0), 1, "01"],
                         ids=["above-t1", "above-t2", "negative", "short", "long",
                              "int", "str"])
def test_make_rejects_a_tag_outside_the_shape(tag):
    # the error names the first bad tag in the caller's order, also among
    # keys that do not compare with each other, and a zero coefficient is
    # no excuse
    for coords in ({(1, 1): Q_ONE, tag: Q_ONE, (9, 9): Q_ONE}, {tag: Q_ZERO}):
        with pytest.raises(ValueError, match=re.escape("index %r outside" % (tag,))):
            TensorVector.make((2, 3), coords)


def _inside(v, shape):
    return v.shape == shape and all(
        isinstance(idx, tuple) and len(idx) == len(shape)
        and all(0 <= s <= t for s, t in zip(idx, shape)) for idx, _ in v.coords)


def test_every_action_stays_inside_the_shape():
    c = Q_ONE - QScalar.q_power(2)
    for shape in itertools.product(range(5), repeat=2):
        tags = list(itertools.product(*[range(t + 1) for t in shape]))
        for idx in tags:
            v = basis(shape, idx)
            images = [act_E(v), act_F(v), act_K(v), act_K(v, -1), v.scale(c),
                      v + basis(shape, tags[-1])]
            images += [act_F_div(v, r) for r in range(sum(shape) + 2)]
            assert all(_inside(w, shape) for w in images)


def test_defining_relations_small():
    for shape in ((2, 2), (1, 3)):
        for idx in itertools.product(*[range(t + 1) for t in shape]):
            v = basis(shape, idx)
            lhs = act_E(act_F(v)) - act_F(act_E(v))
            w = v.weight()
            scalar = qint(w) if w >= 0 else -qint(-w)
            assert lhs == v.scale(scalar)
            assert act_K(act_E(act_K(v, -1))) == act_E(v).scale(QScalar.q_power(2))
            assert act_K(act_F(act_K(v, -1))) == act_F(v).scale(QScalar.q_power(-2))


def test_coproduct_bracketings_agree():
    for shape in ((1, 1, 1), (2, 1, 1)):
        for idx in itertools.product(*[range(t + 1) for t in shape]):
            v = basis(shape, idx)
            for r in range(4):
                ff = act_F_div(v, r)
                ee = act_E_div(v, r)
                for cut in (1, 2):
                    assert act_F_div_split(v, r, cut) == ff
                    assert act_E_div_split(v, r, cut) == ee


def _F_div_reference(v, r):
    """F^r / [r]! as r applications of F and one division."""
    out = v
    for _ in range(r):
        out = act_F(out)
    return out.scale(Q_ONE / qfact(r))


@pytest.mark.parametrize("shape", [(3,), (1, 1), (2, 3), (4, 4), (1, 2, 1), (2, 1, 3)])
def test_closed_form_divided_power_matches_iterated_action(shape):
    # act_F_div_split is built from act_F_div, so the coproduct test above
    # does not police the closed form; the iterated action does
    for idx in itertools.product(*[range(t + 1) for t in shape]):
        v = basis(shape, idx)
        for r in range(sum(shape) + 2):
            assert act_F_div(v, r) == _F_div_reference(v, r)
    with pytest.raises(ValueError):
        act_F_div(basis(shape, (0,) * len(shape)), -1)


def test_string_decompose():
    top = basis((2, 2), (0, 0))
    assert string_decompose(top) == [(0, top)]
    v = basis((1, 1), (0, 1))
    parts = string_decompose(v)
    assert [s for s, _ in parts] == [0, 1]
    for s, u in parts:
        assert act_E(u).is_zero
    rebuilt = TensorVector.zero((1, 1))
    for s, u in parts:
        rebuilt = rebuilt + act_F_div(u, s)
    assert rebuilt == v
    pure = act_F_div(basis((1, 1), (0, 0)), 2)
    assert string_decompose(pure) == [(2, basis((1, 1), (0, 0)))]
    with pytest.raises(ValueError, match="^vector is not weight homogeneous$"):
        (basis((1, 1), (0, 0)) + basis((1, 1), (0, 1))).weight()


def test_kashiwara_examples():
    lattice = StringLattice(1, 1)
    vv = basis((1, 1), (0, 0))
    assert lattice.origin_class(kashiwara_f(vv, string_decompose(vv))) == (1, 0)
    assert kashiwara_e(vv, string_decompose(vv)).is_zero
    # v (x) Fv spans the trivial string at the origin: both operators kill
    # its class, so the lowering-then-raising round trip lands in qL
    v01 = basis((1, 1), (0, 1))
    down = kashiwara_f(v01, string_decompose(v01))
    assert lattice.origin_class(down) is None
    assert lattice.origin_class(kashiwara_e(down, string_decompose(down))) is None


def test_quasi_inverse_where_defined():
    for t1, t2 in ((1, 1), (2, 1), (2, 2)):
        lattice = StringLattice(t1, t2)
        table = crystal_limit_table(lattice)
        for s1 in range(t1 + 1):
            for s2 in range(t2 + 1):
                target = table[("f", s1, s2)]
                if target is None:
                    continue
                v = basis((t1, t2), (s1, s2))
                down = kashiwara_f(v, string_decompose(v))
                assert lattice.origin_class(kashiwara_e(down, string_decompose(down))) == (s1, s2)


def test_singular_vector_fixtures():
    u0, u1 = StringLattice(1, 1).singular.values()
    assert u0 == basis((1, 1), (0, 0))
    assert u1 == basis((1, 1), (0, 1)) - basis((1, 1), (1, 0)).scale(QScalar.q_power(1))
    for t2 in range(1, 5):
        expect = -(QScalar.q_power(t2) * qint(t2))
        assert singular_coefficient(1, t2, 1, 1) == expect
    for r, u in StringLattice(3, 2).singular.items():
        assert act_E(u).is_zero
        assert u.weight() == 5 - 2 * r
        lead = dict(u.coords)[(0, r)]
        assert lead == Q_ONE


def test_singular_vectors_match_kernel_solve():
    # independent derivation: solve for the raising kernel in each weight
    # space by elimination, normalise, and compare with the closed form
    for t1, t2 in ((1, 1), (2, 1), (2, 2), (3, 2)):
        shape = (t1, t2)
        for r in range(min(t1, t2) + 1):
            tags = [(a, r - a) for a in range(r + 1) if r - a <= t2 and a <= t1]
            images = {}
            for tag in tags:
                img = act_E(basis(shape, tag))
                images[tag] = img.as_dict()
            out_tags = sorted({k for img in images.values() for k in img})
            rows = [[images[tag].get(ot, Q_ZERO) for tag in tags] for ot in out_tags]
            kernel = _kernel(rows, len(tags))
            assert len(kernel) == 1
            vec = kernel[0]
            pivot = vec[0]
            coords = {
                tag: c / pivot for tag, c in zip(tags, vec) if not c.is_zero
            }
            closed = singular_vector(t1, t2, r)
            assert TensorVector.make(shape, coords) == closed


def _kernel(rows, width):
    rows = [row[:] for row in rows]
    pivots = {}
    rank = 0
    for col in range(width):
        piv = next((k for k in range(rank, len(rows)) if not rows[k][col].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Q_ONE / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and not rows[k][col].is_zero:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        pivots[col] = rank
        rank += 1
    basis_vectors = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Q_ZERO] * width
        vec[free] = Q_ONE
        for col, row in pivots.items():
            vec[col] = -rows[row][free]
        basis_vectors.append(vec)
    return basis_vectors


def test_lattice_change_of_basis_is_invertible_at_origin():
    for t1, t2 in ((1, 1), (1, 2), (2, 2)):
        lattice = StringLattice(t1, t2)
        for tag, vec in lattice.strings.items():
            assert all(c.regular_at_zero for _, c in vec.coords)
        tags = list(itertools.product(range(t1 + 1), range(t2 + 1)))
        for idx in tags:
            coords = lattice.coords(basis((t1, t2), idx))
            assert all(c.regular_at_zero for c in coords.values())
        # the classes are distinct and cover every tag
        assert sorted(lattice.class_of_string.values()) == tags


def test_crystal_limit_small_fixture():
    table = crystal_limit_table(StringLattice(1, 1))
    assert table[("f", 0, 0)] == (1, 0)
    assert table[("f", 1, 0)] == (1, 1)
    assert table[("f", 0, 1)] is None
    assert table[("e", 0, 0)] is None
    assert table[("e", 1, 1)] == (1, 0)
    assert table == origin_case_table(1, 1)
    assert table == tensor_rule_table(1, 1)


@pytest.mark.parametrize("t1,t2", [(1, 2), (2, 2), (3, 1)])
def test_crystal_limit_matches_both_tables(t1, t2):
    table = crystal_limit_table(StringLattice(t1, t2))
    assert table == origin_case_table(t1, t2)
    assert table == tensor_rule_table(t1, t2)


@pytest.mark.parametrize("shape", list(itertools.product(range(4), repeat=2))
                         + [(1, 1, 1), (2, 1, 2)])
def test_kashiwara_operators_accept_a_given_decomposition(shape):
    # each operator moves every part of the decomposition it is given one
    # step along its string, and decomposing the image reads that back
    for idx in itertools.product(*(range(t + 1) for t in shape)):
        v = basis(shape, idx)
        parts = string_decompose(v)
        up = [(s + 1, u) for s, u in parts if not act_F_div(u, s + 1).is_zero]
        assert string_decompose(kashiwara_f(v, parts)) == up
        assert string_decompose(kashiwara_e(v, parts)) == [(s - 1, u) for s, u in parts if s]


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 1, 1, 1)])
def test_kashiwara_operators_follow_the_tensor_rule_at_the_origin(shape):
    # the tensor basis spans the crystal lattice of a tensor of simple modules,
    # so each image reduces at q = 0 to the tensor rule's move, or to zero
    ops = TensorOps([sl2._string_chain(t) for t in shape])
    for idx in itertools.product(*(range(t + 1) for t in shape)):
        v = basis(shape, idx)
        parts = string_decompose(v)
        for image, move in ((kashiwara_e(v, parts), ops.e(idx, 1)),
                            (kashiwara_f(v, parts), ops.f(idx, 1))):
            assert all(c.regular_at_zero for _, c in image.coords)
            limit = {tag: c.at_zero() for tag, c in image.coords if c.at_zero() != 0}
            assert set(limit.values()) <= {1} and len(limit) <= 1
            assert next(iter(limit), None) == move


def test_string_chain_is_a_normal_crystal():
    chain = sl2._string_chain(3)
    # 4 tags x 1 index, then 3 edges
    audit = chain.normality_audit()
    assert holds(audit) and len(audit) == 4 + 3
    assert [chain.wt(s) for s in chain.nodes] == [3, 1, -1, -3]


def test_sl2_suite_reads_the_production_tensor_rule(monkeypatch):
    def rightmost_e(self, b, i):
        # raise in the place where lowering acts
        k = self._row(b)[3][i]
        moved = self.components[k].e(b[k], i)
        return None if moved is None else b[:k] + (moved,) + b[k + 1:]

    monkeypatch.setattr(TensorOps, "e", rightmost_e)
    checks = {c["name"]: (c["pass"], c["detail"]) for c in verify.suite_sl2(2, 3)["checks"]}
    # 3 * 4 tags, each with an e and an f transition
    assert checks["matches_case_split"] == (True, "24 transitions compared, 0 skipped")
    assert checks["matches_tensor_rule"] == (False, "24 transitions compared, 0 skipped")


def _count_calls(monkeypatch):
    counts = {"string_decompose": 0, "kashiwara_e": 0, "kashiwara_f": 0, "lattice": 0,
              "eliminate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("string_decompose", "kashiwara_e", "kashiwara_f"):
        monkeypatch.setattr(sl2, name, counted(name, getattr(sl2, name)))
    monkeypatch.setattr(StringLattice, "__init__",
                        counted("lattice", StringLattice.__init__))
    # a Gauss–Jordan elimination reached from sl2 or from cartan
    monkeypatch.setattr(sl2, "eliminate", counted("eliminate", sl2.eliminate))
    monkeypatch.setattr(cartan, "eliminate", counted("eliminate", cartan.eliminate))
    return counts


@pytest.mark.parametrize("t1,t2", [(2, 3), (4, 4)])
def test_crystal_limit_decomposes_each_tag_once(monkeypatch, t1, t2):
    counts = _count_calls(monkeypatch)
    crystal_limit_table(StringLattice(t1, t2))
    tags = (t1 + 1) * (t2 + 1)
    # and eliminates the change of basis of each weight level once
    assert counts == {"string_decompose": tags, "kashiwara_e": tags,
                      "kashiwara_f": tags, "lattice": 1, "eliminate": t1 + t2 + 1}


def test_coords_replays_the_level_records_without_eliminating(monkeypatch):
    t1, t2 = 3, 3
    lattice = StringLattice(t1, t2)
    tags = list(itertools.product(range(t1 + 1), range(t2 + 1)))
    expected = {}
    for idx in tags:
        level = sum(idx)
        cols = sorted(tag for tag in lattice.strings if sum(tag) == level)
        keys = sorted(key for key in tags if sum(key) == level)
        matrix = [[lattice.strings[tag].as_dict().get(key, Q_ZERO) for tag in cols]
                  for key in keys]
        sol = replay(eliminate(matrix), [Q_ONE if key == idx else Q_ZERO for key in keys])
        expected[idx] = {tag: c for tag, c in zip(cols, sol) if not c.is_zero}
    counts = _count_calls(monkeypatch)
    assert {idx: lattice.coords(basis((t1, t2), idx)) for idx in tags} == expected
    assert counts["eliminate"] == 0


def test_crystal_limit_is_the_same_with_a_cold_and_a_warm_gcd_memo(monkeypatch):
    def run():
        # a cold row memo each time, so both runs do the same arithmetic
        monkeypatch.setattr(sl2, "_ROWS", [None, {}])
        vectors = []
        for idx in itertools.product(range(3), range(4)):
            vec = basis((2, 3), idx)
            parts = string_decompose(vec)
            vectors += [kashiwara_e(vec, parts), kashiwara_f(vec, parts)]
        return crystal_limit_table(StringLattice(2, 3)), vectors

    memo = qfield._gcd_cofactors
    memo.cache_clear()
    cold = run()
    seen = memo.cache_info()
    warm = run()
    after = memo.cache_info()
    assert seen.currsize > 0 and after.hits > seen.hits
    assert after.misses == seen.misses
    assert warm == cold


def _action_results(v):
    return ([act_E(v), act_F(v), act_K(v), act_K(v, -1)]
            + [act_F_div(v, r) for r in range(4)], string_decompose(v))


def test_action_results_digest():
    # every action and decomposition, byte for byte, on 169 basis tags
    digest, count = hashlib.sha256(), 0
    shapes = list(itertools.product(range(4), repeat=2)) + [
        (1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 1, 1, 1)]
    for shape in shapes:
        for idx in itertools.product(*(range(t + 1) for t in shape)):
            digest.update(repr(_action_results(basis(shape, idx))).encode())
            count += 1
    assert count == 169
    assert digest.hexdigest() == (
        "298997e4bd4885a1bce5f6fcdc71a69bd4272400b738b298be807e7fa2610742")


def test_string_lattice_digest():
    # strings, coordinates, origin classes and crystal limit, byte for byte,
    # on the 25 shapes up to (4, 4)
    digest = hashlib.sha256()
    for t1, t2 in itertools.product(range(5), repeat=2):
        lattice = StringLattice(t1, t2)
        coords = [(tag, sorted(lattice.coords(basis((t1, t2), tag)).items()))
                  for tag in sorted(itertools.product(range(t1 + 1), range(t2 + 1)))]
        digest.update(repr((
            (t1, t2), sorted(lattice.strings.items()), coords,
            sorted(lattice.class_of_string.items()),
            sorted(crystal_limit_table(lattice).items(), key=repr))).encode())
    assert digest.hexdigest() == (
        "eef65f90da2d0f6f274294b5a42a54da63b1196e9e860c97347e0c6d65bfed56")


def _rows_hold_one_shape(shape):
    held, tables = sl2._ROWS
    return held == shape and all(
        set(rows) <= sl2._tags(shape) and all({t for t, _ in row} <= sl2._tags(shape)
                                              for row in rows.values())
        for rows in tables.values())


def test_actions_and_crystal_limit_agree_cold_warm_and_alternating(monkeypatch):
    shapes = [(2, 3), (1, 1, 2)]

    def results():
        out = [crystal_limit_table(StringLattice(2, 3))]
        for shape in shapes:
            for idx in itertools.product(*(range(t + 1) for t in shape)):
                out.append(_action_results(basis(shape, idx)))
                assert _rows_hold_one_shape(shape)
        return out

    monkeypatch.setattr(sl2, "_ROWS", [None, {}])
    cold = results()
    warm = results()
    # every action call first reads a row of another shape, so the memo
    # starts afresh on each call and holds only the rows that call read
    real, other = sl2._apply, basis((1,), (0,))

    def switching(v, build, *args):
        real(other, build, *args)
        out = real(v, build, *args)
        (rows,) = sl2._ROWS[1].values()
        assert sl2._ROWS[0] == v.shape and set(rows) == {idx for idx, _ in v.coords}
        return out

    monkeypatch.setattr(sl2, "_apply", switching)
    alternating = results()
    assert cold == warm == alternating
    assert cold[0] == origin_case_table(2, 3)


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_a_planted_row_coefficient_fails_defining_relations(monkeypatch, memo):
    # one E coefficient off by a factor q; a warm memo must not hide it
    monkeypatch.setattr(sl2, "_ROWS", [None, {}])
    if memo == "warm":
        assert verify.suite_sl2(2, 2)["pass"]
        assert sl2._ROWS[0] == (2, 2) and (sl2._e_row,) in sl2._ROWS[1]
    right = sl2._e_row

    def with_a_stray_q(shape, idx):
        row = right(shape, idx)
        if idx != (1, 1):
            return row
        (target, k), *rest = row
        return ((target, k * QScalar.q_power(1)), *rest)

    monkeypatch.setattr(sl2, "_e_row", with_a_stray_q)
    checks = {c["name"]: c["pass"] for c in verify.suite_sl2(2, 2)["checks"]}
    assert checks["defining_relations"] is False


def test_sl2_suite_builds_one_lattice(monkeypatch):
    counts = _count_calls(monkeypatch)
    assert verify.suite_sl2(2, 3)["pass"]
    assert counts["lattice"] == 1


def test_not_in_lattice_detected():
    lattice = StringLattice(1, 1)
    bad = basis((1, 1), (0, 0)).scale(Q_ONE / QScalar.q_power(1))
    with pytest.raises(ArithmeticError,
                       match=r"^coordinate at \(0, 0\) has a pole at the origin$"):
        lattice.origin_class(bad)


def test_a_vanishing_string_vector_fails_the_lattice(monkeypatch):
    # every lowering step lost: the lattice refuses the short strings, and
    # the suite reports it as a failed check
    monkeypatch.setattr(sl2, "act_F", lambda v: TensorVector.zero(v.shape))
    with pytest.raises(ArithmeticError, match="^string vector vanished early$"):
        StringLattice(2, 2)
    checks = {c["name"]: (c["pass"], c["detail"]) for c in verify.suite_sl2(2, 2)["checks"]}
    assert checks["lattice_preserved"] == (
        False, "ArithmeticError: string vector vanished early")


def test_strings_of_one_origin_class_fail_the_lattice(monkeypatch):
    monkeypatch.setattr(sl2, "_clean_class", lambda values: (0, 0))
    with pytest.raises(ArithmeticError, match="^origin classes are not distinct$"):
        StringLattice(2, 2)


def test_string_decompose_fails_when_a_peel_does_not_shorten(monkeypatch):
    # a divided power off by a factor q leaves the longest string as long
    # as before; the peel must stop with an error instead of looping
    right = sl2.act_F_div
    monkeypatch.setattr(sl2, "act_F_div",
                        lambda u, s: right(u, s).scale(QScalar.q_power(1)))
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="did not shorten"):
        string_decompose(basis((1, 1), (0, 1)))
    assert time.perf_counter() - start < 30


def test_string_decompose_reassembles_from_recomputed_strings(monkeypatch):
    # string_decompose checks its reassembly on the strings it peeled; here
    # each string is recomputed from the returned parts
    calls = []
    monkeypatch.setattr(sl2, "act_F_div", lambda u, s: calls.append(s) or act_F_div(u, s))
    for shape in itertools.product(range(5), repeat=2):
        for idx in itertools.product(*[range(t + 1) for t in shape]):
            v = basis(shape, idx)
            calls.clear()
            parts = string_decompose(v)
            assert sorted(calls) == [s for s, _ in parts]
            rebuilt = TensorVector.zero(shape)
            for s, u in parts:
                rebuilt = rebuilt + act_F_div(u, s)
            assert rebuilt == v


def test_an_oracle_failure_is_a_failed_check_not_a_traceback(monkeypatch, tmp_path):
    right = sl2.kashiwara_f
    monkeypatch.setattr(sl2, "kashiwara_f",
                        lambda v, parts: right(v, parts).scale(QScalar.const(2)))
    out = tmp_path / "sl2.json"
    assert main(["verify", "--suite", "sl2", "--t1", "1", "--t2", "1", "--json",
                 "--out", str(out)]) == 1
    checks = {c["name"]: (c["pass"], c["detail"]) for c in json.loads(out.read_text())["checks"]}
    assert checks["lattice_preserved"] == (
        False, "ArithmeticError: origin reduction is not a single class")


def test_a_singular_vector_fault_is_a_failed_check_not_a_traceback(monkeypatch, tmp_path):
    # the lattice is built on the closed-form singular vectors inside the
    # suite's guard, so a fault there fails both checks that read them
    right = sl2.singular_coefficient
    monkeypatch.setattr(sl2, "singular_coefficient",
                        lambda t1, t2, r, a: right(t1, t2, r, a) * QScalar.const(2 if a else 1))
    out = tmp_path / "sl2.json"
    assert main(["verify", "--suite", "sl2", "--t1", "1", "--t2", "1", "--json",
                 "--out", str(out)]) == 1
    checks = {c["name"]: (c["pass"], c["detail"]) for c in json.loads(out.read_text())["checks"]}
    assert checks["singular_vectors"] == (False, "0 vectors compared, 0 skipped")
    assert checks["lattice_preserved"] == (
        False, "ArithmeticError: closed-form singular vector is not singular")
    assert checks["defining_relations"][0]


@pytest.mark.parametrize("build", [
    lambda: StringLattice(-1, 2),
    lambda: crystal_limit_table(StringLattice(-1, 0)),
    lambda: crystal_limit_table(StringLattice(0, -2)),
    lambda: origin_case_table(2, -1),
    lambda: tensor_rule_table(-3, 1),
])
def test_negative_shapes_rejected(build):
    with pytest.raises(ValueError, match="needs t1, t2 >= 0"):
        build()


def test_lattice_rejects_vectors_of_another_shape():
    lattice = StringLattice(1, 1)
    # (1, 0) is a valid tag of both shapes, so only the shape tells them apart
    with pytest.raises(ValueError, match="shape"):
        lattice.origin_class(basis((1, 3), (1, 0)))
    # level 4 does not exist in the (1, 1) lattice
    with pytest.raises(ValueError, match="shape"):
        lattice.coords(basis((1, 3), (1, 3)))
