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
Every check over a collection is recorded by :meth:`Report.count`, whose
detail reads "N <items> compared, K skipped" and which fails when N is 0.
:func:`preserves_operators` is the one such check that a map commutes
with the root operators; ``decompose``, ``concat`` and ``xi`` all use it.
:func:`psi_checks` records the checks on the images of :func:`psi` for
both ``psi`` and ``decompose``.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

from .cartan import AffineCartan, Stretch
from .crystals import (
    CrystalGraph,
    Node,
    TensorOps,
    check_node_cap,
    generate,
    moves,
)
from .energy import EnergyTable, energy_table, major_index, refine
from .paths import (
    Path,
    PathOps,
    h_extrema,
    linear_path,
    lowering_op,
    make_path,
    raising_op,
)


def psi(table: EnergyTable, graph: CrystalGraph, element) -> Path:
    """Map one affinised tensor element to its affine path.

    ``element`` is a pair (factor keys, degree).  The classical turning
    points come from the uniform refinement; each is lifted by its exact
    null-root height, read off two running sums of the adjacent energies
    in one pass as an integer numerator over ``total * grid``.  The image
    is built in grid form over one common denominator, each of the
    ``total`` stretches one cell long, and goes straight to
    :func:`make_path`.  The degree only adds ``degree`` times the
    denominator to every null-root entry, so the degree-free part is
    computed once per tensor element: the table keeps it for the last
    graph and factors asked for, and the degrees of one element come in a row.
    """
    factors, degree = element
    memo = table._psi
    if memo[0] is not graph or memo[1] != factors:
        grid = table.grid
        word = refine(graph, factors, grid)
        total = len(word)
        chis = [table.value(a, b) for a, b in zip(word, word[1:])]
        # total grid times the height of turning point j at degree 0:
        # j maj - total (sum_{s<j} s chi_s + j sum_{s>=j} chi_s)
        head = sum(s * chi for s, chi in enumerate(chis, 1))
        early, late = 0, sum(chis)
        nums = [0]
        for j, chi in enumerate(chis + [0], 1):
            nums.append(j * head - total * (early + j * late))
            early += j * chi
            late -= chi

        # stretch j lasts 1 / total, so its null-root entry is (nums[j] - nums[j - 1]) / grid;
        # every direction goes over the one denominator den
        wts = {k: graph.nodes[k].wt for k in set(word)}
        den = lcm(grid, *(w.den for w in wts.values()))
        scaled = {k: tuple([x * len(factors) * (den // w.den) for x in w.nums])
                  for k, w in wts.items()}
        memo[:] = graph, factors, (den, [(scaled[k], (b - a) * (den // grid))
                                         for k, a, b in zip(word, nums, nums[1:])])
    den, part = memo[2]
    dirs = [d + (z + degree * den,) for d, z in part]
    return make_path(den, len(dirs), dirs, [1] * len(dirs), True, len(part[0][0]))


def c_class(table: EnergyTable, element, m: int) -> int:
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
    return generate(
        PathOps(cartan),
        linear_path(cartan.classical_fundamental(i)),
        node_cap=node_cap,
        label="%s:B(w%d)" % (cartan.name, i),
    )


def check_power_coverage(graph: CrystalGraph, base: CrystalGraph, m: int) -> None:
    """Tensor powers of a fundamental crystal are indecomposable, so closure
    from one element reaches every tuple; this is asserted rather than assumed."""
    if len(graph) != len(base) ** m:
        raise ArithmeticError("tensor power closure missed elements: %d of %d"
                              % (len(graph), len(base) ** m))


def tensor_power_crystal(base: CrystalGraph, m: int, *, node_cap=None) -> CrystalGraph:
    """Closure of the diagonal seed tuple; covers the whole power set.

    Elements are m-tuples of base keys even for m equal to one.
    """
    ops = TensorOps([base] * m)
    graph = generate(ops, (base.seed,) * m, node_cap=node_cap,
                     label="%s:power%d" % (base.label, m))
    check_power_coverage(graph, base, m)
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
        raise ValueError("window must be non-negative")
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


def path_crystal_window(cartan, seed: Stretch, window: int,
                        *, node_cap=None, ops: PathOps | None = None) -> CrystalGraph:
    """Windowed closure of the straight affine path to ``seed``, on ``ops`` if given."""
    return generate(
        ops or PathOps(cartan, affine=True), linear_path(seed), window=window, node_cap=node_cap,
        label="%s:LS(%r):W%d" % (cartan.name, seed.weight(), window),
    )


class Report:
    """The check record of every suite: named checks, each with a verdict and a detail."""

    def __init__(self, suite: str, **params):
        self.obj = {"suite": suite, "params": params, "checks": []}

    def check(self, name: str, ok: bool, detail: str = ""):
        self.obj["checks"].append({"name": name, "pass": bool(ok), "detail": detail})

    def count(self, name: str, outcomes, noun: str):
        """Record one check over a collection, counting what it examined.

        ``outcomes`` holds True or False for each item compared and None
        for each item skipped.  The detail reads "N <noun> compared, K
        skipped", and the check fails when N is 0 or any outcome is False.
        """
        tally = Counter(outcomes)
        self.check(name, tally[True] > 0 and not tally[False], "%d %s compared, %d skipped"
                   % (tally[True] + tally[False], noun, tally[None]))

    def done(self) -> dict:
        self.obj["pass"] = all(c["pass"] for c in self.obj["checks"])
        return self.obj


def preserves_operators(rep: Report, name: str, cartan: AffineCartan, ops, images: dict, keys):
    """Record whether ``images`` commutes with the root operators on the moves of ``ops``.

    From each key, every move of ``ops`` must be matched by the root
    operator on the key's image: it gives the image of the move's target,
    or None where the move does not act.  A move whose target has no image
    is skipped.  The image's height function is scanned once per index
    with a compared move, and that one :func:`h_extrema` goes to both
    operators, as in ``PathOps``; each move still runs its root operator.
    :meth:`Report.count` records the check over the moves.
    """
    def outcomes():
        for key in keys:
            image, scanned = images[key], None
            for idx, kind, target in moves(ops, key):
                if target is not None and target not in images:
                    yield None
                    continue
                if scanned != idx:
                    ext, scanned = h_extrema(cartan, image, idx), idx
                root_op = raising_op if kind == "e" else lowering_op
                yield root_op(cartan, image, idx, ext) == (None if target is None
                                                           else images[target])

    rep.count(name, outcomes(), "moves")


def psi_checks(rep: Report, base: CrystalGraph, table: EnergyTable, aff: CrystalGraph,
               fw: Stretch, delta: Stretch) -> dict:
    """Map every node of ``aff`` through :func:`psi` and count the three psi checks.

    m and the window are read off ``aff``; ``fw`` is the level-zero
    fundamental weight and ``delta`` the null root.  Returns the images,
    keyed by node in sorted order.

    - ``psi_injective``: the image key of each node occurs once;
    - ``psi_of_straight_seeds``: the seed tuple at each degree n of the window
      goes to the straight path to m fw + n delta; a missing seed node fails;
    - ``psi_endpoint_law``: every image ends at its node's weight.
    """
    seed, window = aff.seed[0], aff.window
    images = {key: psi(table, base, key) for key in aff.sorted_keys()}
    image_keys = Counter(img.key() for img in images.values())
    rep.count("psi_injective", (image_keys[img.key()] == 1 for img in images.values()), "nodes")
    rep.count("psi_of_straight_seeds",
              ((seed, n) in images and images[seed, n] == linear_path(len(seed) * fw + n * delta)
               for n in range(-window, window + 1)), "degrees")
    rep.count("psi_endpoint_law",
              (img.endpoint() == aff.nodes[key].wt for key, img in images.items()), "nodes")
    return images


def verify_decomposition(cartan: AffineCartan, i: int, m: int, window: int,
                         *, node_cap=None) -> dict:
    """Windowed check that the embedding splits into the straight-seed pieces.

    Generates the affinised tensor crystal and, inside the same window,
    the path crystals of the straight seeds m fw + r delta, and compares
    them on the shrunken window |degree| <= window - 1, where every node
    still has all its neighbours.  Piece r is the inner part of the seed
    m fw + r delta; the first m pieces are the decomposition.  Piece r + 1 is
    piece r shifted by delta, so every piece reads one :class:`PathOps`
    table, whose rows are level-zero paths; no piece graph is kept.  The checks:

    - ``psi_injective``, ``psi_of_straight_seeds`` and ``psi_endpoint_law``
      over every node of the window, recorded by :func:`psi_checks`;
    - ``pieces_pairwise_disjoint``: each node of the m pieces lies in
      exactly one of them;
    - ``image_equals_union``: the inner image is that union, which is not
      empty; the one check here that is a single comparison;
    - ``classes_match_pieces``: for each class r, the inner image of class
      r is piece r; a class whose image and piece are both empty is skipped;
    - ``psi_preserves_operators``: every root operator on an inner image
      gives the image of the graph's move, or None where the move does
      not act; moves leaving the inner window are skipped, through
      :func:`preserves_operators`;
    - ``degree_shift_periodicity``: piece r + m equals piece r, for each
      shifted seed inside the window;
    - ``no_edge_crosses_classes``: every edge joins two nodes of one class.

    Every other check goes through :meth:`Report.count`, so it counts what
    it compared and fails on none.

    Returns the ``decompose`` suite's :class:`Report` record, with the
    node counts added under ``counts``; every check must pass for the verdict.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if m < 1:
        raise ValueError("tensor power must be positive")
    if m > window:
        # the periodicity check shifts each piece by m, out of the window
        raise ValueError("tensor power %d exceeds the window %d" % (m, window))

    base = fundamental_crystal(cartan, i, node_cap=node_cap)
    table = energy_table(base, node_cap=node_cap)
    aff = affinized_tensor_crystal(base, m, window, node_cap=node_cap)
    fw = cartan.classical_fundamental(i, affine=True)
    delta = cartan.null_root()
    inner = window - 1

    rep = Report("decompose", type=cartan.name, i=i, power=m, window=window)
    images = psi_checks(rep, base, table, aff, fw, delta)
    classes = {key: c_class(table, key, m) for key in images}
    inner_keys = [key for key in images if abs(key[1]) <= inner]

    ops = PathOps(cartan, affine=True)
    pieces = [{k for k, node in path_crystal_window(
        cartan, m * fw + r * delta, window, node_cap=node_cap, ops=ops).nodes.items()
        if abs(node.wt.nums[-1]) <= inner * node.wt.den} for r in range(min(2 * m, window + 1))]
    shifts = [(r - m, r) for r in range(m, len(pieces))]

    class_sets = [set() for _ in range(m)]
    for key in inner_keys:
        class_sets[classes[key]].add(images[key].key())
    image = set().union(*class_sets)
    piece_counts = Counter(k for piece in pieces[:m] for k in piece)
    union = set(piece_counts)

    rep.count("pieces_pairwise_disjoint", (n == 1 for n in piece_counts.values()), "nodes")
    rep.check("image_equals_union", bool(union) and image == union,
              "image %d, union %d" % (len(image), len(union)))
    # a class with no image and an empty piece is skipped
    rep.count("classes_match_pieces",
              (class_sets[r] == pieces[r] if class_sets[r] or pieces[r] else None
               for r in range(m)), "classes")
    # an inner key has every neighbour inside the window, so the graph's
    # edges are all the operator moves from it; moves leaving it are skipped
    preserves_operators(rep, "psi_preserves_operators", cartan, aff,
                        {key: images[key] for key in inner_keys}, inner_keys)
    rep.count("degree_shift_periodicity", (pieces[r] == pieces[n] for n, r in shifts), "shifts")
    rep.count("no_edge_crosses_classes",
              (classes[src] == classes[dst] for (src, _i), dst in aff.f_edges.items()), "edges")
    out = rep.done()
    out["counts"] = {
        "base": len(base),
        "affinized": len(aff),
        "image_inner": len(image),
        "pieces_inner": {str(n): len(pieces[n]) for n in range(m)},
    }
    return out
