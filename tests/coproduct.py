"""The coproduct of a divided power, expanded at a cut, used only by the tests.

With the factors grouped as (first ``cut``) against (rest), the divided
powers act through the explicit two-sided expansion of their coproduct;
the tests check that this agrees with the ungrouped ``act_F_div`` and
``act_E_div`` of ``loom.sl2`` whatever the cut.
"""

from loom.qfield import Q_ZERO, QScalar
from loom.sl2 import TensorVector, act_E_div, act_F_div, act_K


def _tensor_join(shape, left: TensorVector, right: TensorVector) -> TensorVector:
    out: dict = {}
    for lidx, lc in left.coords:
        for ridx, rc in right.coords:
            out[lidx + ridx] = out.get(lidx + ridx, Q_ZERO) + lc * rc
    return TensorVector.make(shape, out)


def act_F_div_split(v: TensorVector, r: int, cut: int) -> TensorVector:
    """Divided lowering power through the two-sided coproduct at a cut."""
    if not 0 < cut < len(v.shape):
        raise ValueError("cut must split the factors properly")
    lshape, rshape = v.shape[:cut], v.shape[cut:]
    total = TensorVector.zero(v.shape)
    for idx, c in v.coords:
        left = TensorVector.basis(lshape, idx[:cut])
        right = TensorVector.basis(rshape, idx[cut:])
        for s in range(r + 1):
            lpart = act_F_div(act_K(left, s), r - s)
            rpart = act_F_div(right, s)
            piece = _tensor_join(v.shape, lpart, rpart)
            total = total + piece.scale(c * QScalar.q_power(-s * (r - s)))
    return total


def act_E_div_split(v: TensorVector, r: int, cut: int) -> TensorVector:
    """Divided raising power through the two-sided coproduct at a cut."""
    if not 0 < cut < len(v.shape):
        raise ValueError("cut must split the factors properly")
    lshape, rshape = v.shape[:cut], v.shape[cut:]
    total = TensorVector.zero(v.shape)
    for idx, c in v.coords:
        left = TensorVector.basis(lshape, idx[:cut])
        right = TensorVector.basis(rshape, idx[cut:])
        for s in range(r + 1):
            lpart = act_E_div(left, s)
            rpart = act_E_div(act_K(right, -s), r - s)
            piece = _tensor_join(v.shape, lpart, rpart)
            total = total + piece.scale(c * QScalar.q_power(-s * (r - s)))
    return total
