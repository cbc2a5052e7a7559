import math
import random
from fractions import Fraction

import pytest

from loom import qfield
from loom.qfield import Q_ONE, Q_ZERO, QScalar, qbinom, qfact, qint


def test_qint_examples():
    assert qint(0) == Q_ZERO
    assert qint(1) == Q_ONE
    assert qint(2) == QScalar.q_power(1) + QScalar.q_power(-1)
    assert qfact(0) == Q_ONE
    assert qfact(3) == qint(1) * qint(2) * qint(3)


def test_qbinom_laurent_and_symmetric():
    b = qbinom(4, 2)
    expected = Q_ZERO
    for k in (-4, -2, 0, 0, 2, 4):
        expected = expected + QScalar.q_power(k)
    assert b == expected
    for m in range(9):
        for n in range(m + 1):
            c = qbinom(m, n)
            assert c.is_laurent()
            assert c.bar() == c


def test_argument_validation():
    with pytest.raises(ValueError):
        qint(-1)
    with pytest.raises(ValueError):
        qbinom(2, 3)
    with pytest.raises(ZeroDivisionError):
        Q_ONE / Q_ZERO


def _random_scalar(rng):
    num = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    den = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
    if not any(den):
        den[0] = Fraction(1)
    return QScalar.of(num, den)


def test_field_axioms_on_random_elements():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        assert a * b == b * a
        if not a.is_zero:
            assert (b / a) * a == b
            assert a / a == Q_ONE
        assert a.bar().bar() == a


def test_valuation_and_origin():
    assert QScalar.q_power(-3).valuation() == -3
    assert QScalar.q_power(4).valuation() == 4
    assert Q_ZERO.valuation() is None
    x = QScalar.of((1, 1))
    assert x.at_zero() == 1
    assert (x * QScalar.q_power(2)).at_zero() == 0
    y = qint(2)
    assert not y.regular_at_zero
    with pytest.raises(ZeroDivisionError):
        y.at_zero()
    half = QScalar.of((Fraction(1, 2), 3))
    assert half.at_zero() == Fraction(1, 2)


def test_valuation_is_additive():
    rng = random.Random(5)
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _padd(a, b, sign=1):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + sign * (b[k] if k < len(b) else 0)
            for k in range(n)]


# factors that recur in the rank-one computations: 1 - q^k, the balanced
# integer q^(m-1) [m] = 1 + q^2 + ... + q^(2m-2), and q itself
_FACTORS = ([[1] + [0] * (k - 1) + [-1] for k in range(1, 7)]
            + [[1, 0] * (m - 1) + [1] for m in range(2, 5)] + [[0, 1]])


def _shared_operand(rng):
    """scale * q^k * (product of factors) / (product of factors)."""
    num, den = [1], [1]
    for _ in range(rng.randint(0, 3)):
        num = _pmul(num, rng.choice(_FACTORS))
    for _ in range(rng.randint(0, 3)):
        den = _pmul(den, rng.choice(_FACTORS))
    k = rng.randint(-3, 3)
    if k > 0:
        num = [0] * k + num
    else:
        den = [0] * -k + den
    scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return QScalar.of([scale * c for c in num], den)


def _order(p):
    return next(k for k, c in enumerate(p) if c)


def _assert_canonical(x):
    if x.is_zero:
        assert (x.scale, x.power, x.num, x.den) == (0, 0, (), (1,))
        return
    assert x.scale != 0
    for p in (x.num, x.den):
        assert p[0] != 0 and p[-1] > 0 and math.gcd(*p) == 1
    assert qfield._igcd_poly(x.num, x.den) == (1,)
    # every query agrees with the value rebuilt from the coefficients
    num, den = x.coeffs()
    assert QScalar.of(num, den) == x
    v = _order(num) - _order(den)
    assert x.valuation() == v
    if v < 0:
        with pytest.raises(ZeroDivisionError):
            x.at_zero()
    else:
        assert x.at_zero() == (num[_order(num)] / den[_order(den)] if v == 0 else 0)
    assert x.is_laurent() == (sum(1 for c in den if c) == 1)
    width = max(len(num), len(den))
    assert x.bar() == QScalar.of((0,) * (width - len(num)) + num[::-1],
                                 (0,) * (width - len(den)) + den[::-1])


def test_results_stay_canonical(monkeypatch):
    # count the calls of __add__ and __mul__ that find a common factor, so
    # the operands are known to reach the cancelling branches
    reduced = {"add": 0, "mul": 0}
    running = [None]
    cancel = qfield._cancel

    def counting_cancel(a, b):
        out = cancel(a, b)
        if running[0] and out[1:] != (a, b):
            reduced[running[0]] += 1
        return out

    monkeypatch.setattr(qfield, "_cancel", counting_cancel)
    rng = random.Random(3)
    for _ in range(150):
        a, b = _shared_operand(rng), _shared_operand(rng)
        an, ad = a.coeffs()
        bn, bd = b.coeffs()
        cases = [
            ("add", lambda: a + b, _padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd)),
            ("add", lambda: a - b, _padd(_pmul(an, bd), _pmul(bn, ad), -1), _pmul(ad, bd)),
            ("mul", lambda: a * b, _pmul(an, bn), _pmul(ad, bd)),
            ("mul", lambda: a / b, _pmul(an, bd), _pmul(ad, bn)),
            # the sum's denominator holds den(b), which must cancel again
            ("add", lambda: (a + b) - b, an, ad),
        ]
        for op, compute, ref_num, ref_den in cases:
            running[0] = op
            result = compute()
            running[0] = None
            _assert_canonical(result)
            assert result == QScalar.of(ref_num, ref_den)
        _assert_canonical(a)
        _assert_canonical(a - a)
    assert reduced["add"] > 0 and reduced["mul"] > 0
