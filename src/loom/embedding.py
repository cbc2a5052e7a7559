"""Embedding of the affinised tensor crystal into the affine path space.

An affinised tensor element is sent to the path through the turning
points obtained by lifting the concatenated classical path into the
affine lattice; the null-root heights of the turning points are exact
rationals built from the energy function and the degree.  The residue of
the major index plus the degree grades the affinised crystal into
classes that no operator move can leave, and the windowed decomposition
check verifies, piece by piece, that the image of the embedding is the
disjoint union of the path crystals generated from the straight seeds.
It fills a :class:`Report`, the one check record every suite returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import AffineCartan, Weight, _weight
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
from .paths import Path, PathOps, Stretch, linear_path, lowering_op, make_path, raising_op


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class PsiImage:
    """Image of one affinised tensor element.

    ``heights`` keeps the null-root heights of the raw uniform turning
    points, so they stay auditable after collinear stretches merge.
    """

    path: Path
    heights: tuple[Fraction, ...]


def kappa(table: EnergyTable, graph: CrystalGraph, factors, degree: int, j: int) -> Fraction:
    """Null-root height of the j-th uniform turning point of the image."""
    grid = table.grid
    word = refine(graph, factors, grid)
    total = grid * len(factors)
    if not 0 <= j <= total:
        raise EmbeddingError("turning point index out of range")
    if j == 0:
        return Fraction(0)
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
    null-root height ``kappa``, read off two running sums of the adjacent
    energies in one pass as an integer numerator over ``total * grid``.
    """
    factors, degree = element
    grid = table.grid
    word = refine(graph, factors, grid)
    total = len(word)
    chis = [table.value(a, b) for a, b in zip(word, word[1:])]
    # total grid kappa_j = j (maj + grid degree)
    #                      - total (sum_{s<j} s chi_s + j sum_{s>=j} chi_s)
    head = sum(s * chi for s, chi in enumerate(chis, 1)) + grid * degree
    early, late = 0, sum(chis)
    nums = [0]
    for j, chi in enumerate(chis + [0], 1):
        nums.append(j * head - total * (early + j * late))
        early += j * chi
        late -= chi

    # stretch j lasts 1 / total, so its null-root entry is (nums[j] - nums[j - 1]) / grid
    scaled = {k: tuple([Fraction(x * len(factors), w.den) for x in w.nums])
              for k in set(word) for w in (graph.nodes[k].wt,)}
    step = Fraction(1, total)
    segs = [(_weight(scaled[k], Fraction(b - a, grid)), step)
            for k, a, b in zip(word, nums, nums[1:])]
    path = make_path(segs, ambient="affine", ncoords=len(scaled[word[0]]))
    return PsiImage(path=path, heights=tuple([Fraction(h, total * grid) for h in nums]))


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
            # the classical stretch is reduced, so appending n den keeps it reduced
            wt = Stretch(tnode.wt.nums + (n * tnode.wt.den,), tnode.wt.den, True)
            nodes[key] = Node(element=key, wt=wt, eps=tnode.eps, phi=tnode.phi)
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
                        *, node_cap=None, ops: PathOps | None = None) -> CrystalGraph:
    """Windowed closure of a straight affine seed path, on ``ops`` if given."""
    seed = linear_path(seed_weight)
    return generate(
        ops or PathOps(cartan, "affine"), seed, window=window, node_cap=node_cap,
        label="%s:LS(%r):W%d" % (cartan.name, seed_weight, window),
    )


class Report:
    """The check record of every suite: named checks, each with a verdict and a detail."""

    def __init__(self, suite: str, **params):
        self.obj = {"suite": suite, "params": params, "checks": []}

    def check(self, name: str, ok: bool, detail: str = ""):
        self.obj["checks"].append({"name": name, "pass": bool(ok), "detail": detail})

    def done(self) -> dict:
        self.obj["pass"] = all(c["pass"] for c in self.obj["checks"])
        return self.obj


def verify_decomposition(cartan: AffineCartan, i: int, m: int, window: int,
                         *, node_cap=None) -> dict:
    """Windowed check that the embedding splits into the straight-seed pieces.

    Generates the affinised tensor crystal and, inside the same window,
    the path crystals of the straight seeds m fw + r delta, and compares
    them on the shrunken window |degree| <= window - 1, where every node
    still has all its neighbours.  Piece r is the inner part of the seed
    m fw + r delta; the first m pieces are the decomposition.  Pieces r and
    r + m share one :class:`PathOps` table, and no piece graph is kept.  The checks:

    - ``psi_injective``: distinct nodes have distinct image paths;
    - ``psi_of_straight_seeds``: the seed tuple at degree n goes to the
      straight path to m fw + n delta;
    - ``psi_endpoint_law``: every image ends at its node's weight;
    - ``pieces_pairwise_disjoint``: the union of the m pieces is as large
      as their sizes summed;
    - ``image_equals_union``: the inner image is that union;
    - ``classes_match_pieces``: the inner image of class r is piece r;
    - ``psi_preserves_operators``: every root operator on an inner image
      gives the image of the graph's move, or None where the move does
      not act; moves leaving the inner window are skipped, and it fails
      when it compared no move;
    - ``degree_shift_periodicity``: piece r + m equals piece r, for each
      shifted seed inside the window;
    - ``no_edge_crosses_classes``: every edge joins two nodes of one class.

    Returns the ``decompose`` suite's :class:`Report` record, with the
    node counts added under ``counts``; every check must pass for the verdict.
    """
    if window < 2:
        raise EmbeddingError("window must be at least 2")
    if m < 1:
        raise EmbeddingError("tensor power must be positive")
    if m > window:
        # the periodicity check shifts each piece by m, out of the window
        raise EmbeddingError("tensor power %d exceeds the window %d" % (m, window))

    base = fundamental_crystal(cartan, i, node_cap=node_cap)
    table = energy_table(base, node_cap=node_cap)
    aff = affinized_tensor_crystal(base, m, window, node_cap=node_cap)
    fw = cartan.classical_fundamental(i, classical=False)
    delta = cartan.null_root()
    inner = window - 1

    keys = aff.sorted_keys()
    images = {key: psi(table, base, key).path for key in keys}
    classes = {key: c_class(table, base, key, m) for key in keys}
    inner_keys = [key for key in keys if abs(key[1]) <= inner]

    pieces = [None] * min(2 * m, window + 1)
    for r in range(m):
        ops = PathOps(cartan, "affine")
        for s in range(r, len(pieces), m):
            pieces[s] = {k for k, node in path_crystal_window(
                cartan, m * fw + s * delta, window, node_cap=node_cap, ops=ops).nodes.items()
                if abs(node.wt.nums[-1]) <= inner * node.wt.den}
    shifts = [(r - m, r) for r in range(m, len(pieces))]

    class_sets = [set() for _ in range(m)]
    for key in inner_keys:
        class_sets[classes[key]].add(images[key].key())
    image = set().union(*class_sets)
    union = set().union(*pieces[:m])

    compared = skipped = mismatched = 0
    # an inner key has every neighbour inside the window, so the graph's
    # edges are all the operator moves from it
    for key in inner_keys:
        for idx, kind, target in moves(aff, key):
            if target is not None and abs(target[1]) > inner:
                skipped += 1
                continue
            root_op = raising_op if kind == "e" else lowering_op
            want = None if target is None else images[target]
            compared += 1
            mismatched += root_op(cartan, images[key], idx) != want

    rep = Report("decompose", type=cartan.name, i=i, power=m, window=window)
    rep.check("psi_injective", len({img.key() for img in images.values()}) == len(images),
              "%d nodes" % len(images))
    rep.check("psi_of_straight_seeds",
              all(images[((base.seed,) * m, n)] == linear_path(m * fw + n * delta)
                  for n in range(-window, window + 1)))
    rep.check("psi_endpoint_law",
              all(img.endpoint() == aff.nodes[key].wt for key, img in images.items()))
    rep.check("pieces_pairwise_disjoint", len(union) == sum(len(p) for p in pieces[:m]))
    rep.check("image_equals_union", image == union,
              "image %d, union %d" % (len(image), len(union)))
    rep.check("classes_match_pieces", class_sets == pieces[:m])
    rep.check("psi_preserves_operators", compared > 0 and not mismatched,
              "%d moves compared, %d skipped" % (compared, skipped))
    rep.check("degree_shift_periodicity", all(pieces[r] == pieces[n] for n, r in shifts),
              "checked %s" % (shifts,))
    rep.check("no_edge_crosses_classes",
              all(classes[src] == classes[dst] for (src, _i), dst in aff.f_edges.items()))
    out = rep.done()
    out["counts"] = {
        "base": len(base),
        "affinized": len(aff),
        "image_inner": len(image),
        "pieces_inner": {str(n): len(pieces[n]) for n in range(m)},
    }
    return out
