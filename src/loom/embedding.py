"""Embedding of the affinised tensor crystal into the affine path space.

An affinised tensor element is sent to the path through the turning
points obtained by lifting the concatenated classical path into the
affine lattice; the null-root heights of the turning points are exact
rationals built from the energy function and the degree.  The residue of
the major index plus the degree grades the affinised crystal into
classes that no operator move can leave, and the windowed decomposition
report checks, piece by piece, that the image of the embedding is the
disjoint union of the path crystals generated from the straight seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import AffineCartan, Weight
from .crystals import (
    CrystalGraph,
    GenerationError,
    Node,
    TensorOps,
    check_node_cap,
    generate,
    moves,
)
from .energy import EnergyTable, energy_table, major_index, refine
from .paths import Path, PathOps, linear_path, lowering_op, make_path, raising_op


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class PsiImage:
    """Image of one affinised tensor element, with its turning points.

    ``turning`` keeps the raw uniform turning points before the path is
    put in canonical form, so the null-root heights stay auditable after
    collinear stretches merge.
    """

    source: tuple
    degree: int
    path: Path
    turning: tuple[Weight, ...]
    heights: tuple[Fraction, ...]


def kappa(table: EnergyTable, graph: CrystalGraph, factors, degree: int, j: int) -> Fraction:
    """Null-root height of the j-th uniform turning point of the image."""
    grid = table.grid
    word = refine(graph, factors, grid)
    total = grid * len(factors)
    if not 0 <= j <= total:
        raise EmbeddingError("turning point index out of range")
    return _kappa_from_word(table, word, grid, degree, j)


def _kappa_from_word(table, word, grid, degree, j) -> Fraction:
    if j == 0:
        return Fraction(0)
    total = len(word)
    maj = major_index(table, word)
    chis = [table.value(word[s - 1], word[s]) for s in range(1, total)]
    head = Fraction(j, total) * (Fraction(maj, grid) + degree)
    early = sum((Fraction(s * chis[s - 1], grid) for s in range(1, j)), Fraction(0))
    late = sum((Fraction(j * chis[s - 1], grid) for s in range(j, total)), Fraction(0))
    return head - early - late


def psi(table: EnergyTable, graph: CrystalGraph, element) -> PsiImage:
    """Map one affinised tensor element to its affine path.

    ``element`` is a pair (factor keys, degree).  The classical turning
    points come from the uniform refinement; each is lifted by its exact
    null-root height.
    """
    factors, degree = element
    grid = table.grid
    word = refine(graph, factors, grid)
    total = len(word)
    directions = [graph.nodes[k].element.weight() for k in word]

    lam = Weight((Fraction(0),) * len(directions[0].coords), Fraction(0))
    heights = [Fraction(0)]
    turning = [lam]
    partial = lam
    for j in range(1, total + 1):
        h = _kappa_from_word(table, word, grid, degree, j)
        heights.append(h)
        lift = Weight(directions[j - 1].coords, Fraction(0))
        partial = partial + lift * Fraction(1, grid)
        turning.append(Weight(partial.coords, h))

    segs = []
    for j in range(1, total + 1):
        step = turning[j] - turning[j - 1]
        segs.append((step * total, Fraction(1, total)))
    path = make_path(segs, ambient="affine", ncoords=len(directions[0].coords))
    return PsiImage(
        source=tuple(factors),
        degree=degree,
        path=path,
        turning=tuple(turning),
        heights=tuple(heights),
    )


def c_class(table: EnergyTable, graph: CrystalGraph, element, m: int) -> int:
    """Residue class of the major index plus the degree.

    The major index is taken over the unrefined factors: a 0-labelled
    operator move shifts it by exactly one and the degree by the opposite
    one, so the residue is constant on components.  The refined index
    over the uniform word shifts by the grid size instead and only grades
    correctly on grid one.
    """
    factors, degree = element
    return (major_index(table, factors) + degree) % m


def fundamental_crystal(cartan: AffineCartan, i: int, *, node_cap=None) -> CrystalGraph:
    """Closure of the straight classical path to the i-th level-zero weight."""
    seed = linear_path(cartan.classical_fundamental(i))
    return generate(
        PathOps(cartan, "classical"),
        seed,
        node_cap=node_cap,
        label="%s:B(w%d)" % (cartan.name, i),
    )


def tensor_power_crystal(base: CrystalGraph, m: int, *, node_cap=None) -> CrystalGraph:
    """Closure of the diagonal seed tuple; covers the whole power set.

    Tensor powers of a fundamental crystal are indecomposable, so closure
    from one element reaches every tuple; this is asserted rather than
    assumed.  Elements are m-tuples of base keys even for m equal to one.
    """
    ops = TensorOps([base] * m)
    graph = generate(ops, (base.seed,) * m, node_cap=node_cap,
                     label="%s:power%d" % (base.label, m))
    if len(graph) != len(base) ** m:
        raise EmbeddingError(
            "tensor power closure missed elements: %d of %d"
            % (len(graph), len(base) ** m)
        )
    return graph


def affinized_tensor_crystal(base: CrystalGraph, m: int, window: int,
                             *, node_cap=None) -> CrystalGraph:
    """Window of the affinised tensor power, built as the full product.

    The affinisation is the product of the tensor power with the integers
    by definition, and it is not connected: its components are exactly
    the residue classes of the major-index grading.  Closure from one
    seed would miss all classes but one, so every pair of a tensor node
    and an in-window degree becomes a node outright, with the operator
    edges induced between in-window pairs.  A 0-labelled lowering move
    lowers the degree by one and a raising move raises it; every other
    label leaves it alone, and the weight of (b, n) picks up n times the
    null root.
    """
    if window < 0:
        raise GenerationError("window must be non-negative")
    tensor = tensor_power_crystal(base, m, node_cap=node_cap)
    check_node_cap(len(tensor) * (2 * window + 1), node_cap, "affinised window")
    nodes = {}
    f_edges = {}
    for bkey in tensor.sorted_keys():
        tnode = tensor.nodes[bkey]
        for n in range(-window, window + 1):
            key = (bkey, n)
            nodes[key] = Node(
                element=key,
                wt=Weight(tnode.wt.coords, Fraction(n)),
                eps=tnode.eps,
                phi=tnode.phi,
            )
    for (bkey, i), btarget in tensor.f_edges.items():
        shift = 1 if i == 0 else 0
        for n in range(-window, window + 1):
            if abs(n - shift) <= window:
                f_edges[((bkey, n), i)] = (btarget, n - shift)
    return CrystalGraph(
        label="%s^:power%d:W%d" % (base.label, m, window),
        indices=base.indices,
        nodes=nodes,
        f_edges=f_edges,
        seed=((base.seed,) * m, 0),
        truncated=True,
        window=window,
    )


def path_crystal_window(cartan, seed_weight: Weight, window: int,
                        *, node_cap=None) -> CrystalGraph:
    """Windowed closure of a straight affine seed path."""
    seed = linear_path(seed_weight)
    return generate(
        PathOps(cartan, "affine"), seed, window=window, node_cap=node_cap,
        label="%s:LS(%r):W%d" % (cartan.name, seed_weight, window),
    )


def verify_decomposition(cartan: AffineCartan, i: int, m: int, window: int,
                         *, node_cap=None) -> dict:
    """Windowed check that the embedding splits into the straight-seed pieces.

    Generates the affinised tensor crystal and the path crystals of the
    straight seeds inside the same window, then compares them on the
    shrunken window, where every node still has all its neighbours.
    Returns a structured report; every check must pass for the verdict.
    """
    if window < 2:
        raise EmbeddingError("window must be at least 2")
    if m < 1:
        raise EmbeddingError("tensor power must be positive")
    if m > window:
        # the periodicity check shifts each piece by m, out of the window
        raise EmbeddingError("tensor power %d exceeds the window %d" % (m, window))

    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    base = fundamental_crystal(cartan, i, node_cap=node_cap)
    table = energy_table(base, node_cap=node_cap)
    aff = affinized_tensor_crystal(base, m, window, node_cap=node_cap)

    images = {}
    for key in aff.sorted_keys():
        factors, degree = key
        images[key] = psi(table, base, (factors, degree))

    check(
        "psi_injective",
        len({img.path.key() for img in images.values()}) == len(images),
        "%d nodes" % len(images),
    )

    fw = cartan.classical_fundamental(i, classical=False)
    delta = cartan.null_root()
    seed_ok = True
    for n in range(-window, window + 1):
        key = ((base.seed,) * m, n)
        if key in images:
            straight = linear_path(m * fw + n * delta)
            seed_ok = seed_ok and images[key].path == straight
    check("psi_of_straight_seeds", seed_ok)

    end_ok = all(
        img.path.weight() == Weight(aff.nodes[key].wt.coords, Fraction(key[1]))
        for key, img in images.items()
    )
    check("psi_endpoint_law", end_ok)

    inner = window - 1

    def inner_level(key):
        return abs(key[1]) <= inner

    pieces = {}
    for n in range(m):
        pieces[n] = path_crystal_window(
            cartan, m * fw + n * delta, window, node_cap=node_cap
        )

    image_keys = {
        images[key].path.key() for key in images if inner_level(key)
    }
    piece_keys = {}
    for n, piece in pieces.items():
        piece_keys[n] = {
            k for k in piece.nodes if abs(piece.nodes[k].wt.delta) <= inner
        }

    union = set()
    disjoint = True
    for n in range(m):
        if union & piece_keys[n]:
            disjoint = False
        union |= piece_keys[n]
    check("pieces_pairwise_disjoint", disjoint)
    check(
        "image_equals_union",
        image_keys == union,
        "image %d, union %d" % (len(image_keys), len(union)),
    )

    class_ok = True
    for n in range(m):
        sent = {
            images[key].path.key()
            for key in images
            if inner_level(key) and c_class(table, base, key, m) == n
        }
        if sent != piece_keys[n]:
            class_ok = False
    check("classes_match_pieces", class_ok)

    morphism_ok = True
    # an inner key has every neighbour inside the window, so the graph's
    # edges are all the operator moves from it
    for key in aff.sorted_keys():
        if not inner_level(key):
            continue
        for idx, kind, target in moves(aff, key):
            root_op = raising_op if kind == "e" else lowering_op
            img_move = root_op(cartan, images[key].path, idx)
            if target is None:
                if img_move is not None:
                    morphism_ok = False
                continue
            if not inner_level(target):
                continue
            if img_move is None or images[target].path != img_move:
                morphism_ok = False
    check("psi_preserves_operators", morphism_ok)

    period_checked = []
    period_ok = True
    for n in range(m):
        r = n + m
        if r > window:
            continue
        shifted = path_crystal_window(
            cartan, m * fw + r * delta, window, node_cap=node_cap
        )
        shifted_keys = {
            k for k in shifted.nodes if abs(shifted.nodes[k].wt.delta) <= inner
        }
        if shifted_keys != piece_keys[n]:
            period_ok = False
        period_checked.append((n, r))
    check(
        "degree_shift_periodicity",
        period_ok,
        "checked %s" % (period_checked,),
    )

    class_edges_ok = all(
        c_class(table, base, src, m) == c_class(table, base, dst, m)
        for (src, _i), dst in aff.f_edges.items()
    )
    check("no_edge_crosses_classes", class_edges_ok)

    return {
        "cartan": cartan.name,
        "i": i,
        "m": m,
        "window": window,
        "grid": table.grid,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "counts": {
            "base": len(base),
            "affinized": len(aff),
            "image_inner": len(image_keys),
            "pieces_inner": {str(n): len(piece_keys[n]) for n in range(m)},
        },
    }
