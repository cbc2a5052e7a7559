"""Generic crystal machinery over any element kind with raise/lower maps.

An element kind ("ops" object) exposes ``indices``, ``key``, ``wt``,
``strings``, ``e`` and ``f``; ``strings(x)`` returns the string lengths
of x for every index at once, as two tuples ``(eps, phi)`` ordered as
``indices``.  A kind's ``wt`` values add with ``+``; path kinds return
the endpoint as an integer :class:`~loom.cartan.Stretch`, the one weight
arithmetic.  :func:`generate` asks ``strings`` once per node, then ``e``
and ``f`` per index, all from one row: ``TensorOps`` keeps the row of
its last element, matched by identity, and ``PathOps`` one row per path
key, or for an affine kind one row per delta-orbit, read by every path of
the orbit, whose ``wt`` is the row's weight plus its level times delta.
Infinite kinds also expose ``level`` and are generated inside an
explicit window on the absolute level; a tensor product takes finite
factors only.  Closure generation, the tensor
product rule and the normality audit all work against that surface, so
paths, generated graphs and ad hoc test crystals plug into the same
engine.  The audit returns one True or False per item it compared,
which a suite records through :meth:`~loom.embedding.Report.count`.  The
tensor rule reads the coroot pairing of a factor's weight as
``phi - eps``, so no kind needs Cartan data of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd

from .cartan import Stretch

DEFAULT_NODE_CAP = 10**6


class NodeCapError(RuntimeError):
    """Closure generation exceeded the configured node budget."""


def check_node_cap(count: int, node_cap, what: str):
    """Raise NodeCapError when count nodes exceed the cap (None: the default)."""
    cap = DEFAULT_NODE_CAP if node_cap is None else node_cap
    if count > cap:
        raise NodeCapError("%s exceeds the node cap of %d" % (what, cap))


@dataclass(frozen=True)
class Node:
    """One processed element: its kind's ``wt`` (a ``Stretch`` for paths) and strings."""

    element: object
    wt: object
    eps: tuple[int, ...]
    phi: tuple[int, ...]


@dataclass(eq=False)
class CrystalGraph:
    """Finite labelled digraph of canonical elements, itself a crystal kind.

    Its elements are the node keys.  Edges point in the lowering
    direction: ``(x, i) -> y`` means the i-th lowering operator maps x to
    y.  For untruncated graphs the node set is closed under all
    operators; truncated graphs keep only edges between in-window nodes.
    """

    label: str
    indices: tuple[int, ...]
    nodes: dict
    f_edges: dict
    seed: object
    truncated: bool = False
    window: int | None = None
    e_edges: dict = field(init=False)

    def __post_init__(self):
        self.e_edges = {(dst, i): src for (src, i), dst in self.f_edges.items()}

    def sorted_keys(self) -> list:
        """Node keys in the exact order of their stretches' weights."""
        return sorted(self.nodes)

    def __len__(self):
        return len(self.nodes)

    def f(self, key, i):
        return self.f_edges.get((key, i))

    def e(self, key, i):
        return self.e_edges.get((key, i))

    def key(self, key):
        return key

    def wt(self, key):
        return self.nodes[key].wt

    def strings(self, key):
        node = self.nodes[key]
        return node.eps, node.phi

    def edge_count(self) -> int:
        return len(self.f_edges)

    # -- structure checks ------------------------------------------------

    def components(self) -> list[set]:
        """Connected components of the underlying undirected graph."""
        adj: dict = {k: set() for k in self.nodes}
        for (src, i), dst in self.f_edges.items():
            adj[src].add(dst)
            adj[dst].add(src)
        seen = set()
        out = []
        for start in self.sorted_keys():
            if start in seen:
                continue
            comp = set()
            stack = [start]
            while stack:
                k = stack.pop()
                if k in comp:
                    continue
                comp.add(k)
                stack.extend(adj[k] - comp)
            seen |= comp
            out.append(comp)
        return out

    def is_indecomposable(self) -> bool:
        if self.truncated:
            raise ValueError("indecomposability is only defined for untruncated graphs")
        return len(self.components()) == 1

    def normality_audit(self) -> list[bool]:
        """One outcome per node-index pair, in node order, then one per edge.

        A node-index pair holds when its raising and lowering chains are as
        long as its stored ``eps`` and ``phi``; a chain longer than the graph
        cycles and fails.  An edge holds when it is quasi-inverse.
        """
        if self.truncated:
            raise ValueError("normality audit needs an untruncated graph")

        def chain(edges, k, i):
            for steps in range(len(self.nodes) + 1):
                if (k, i) not in edges:
                    return steps
                k = edges[(k, i)]
            return None

        outcomes = [chain(self.e_edges, key, i) == node.eps[pos]
                    and chain(self.f_edges, key, i) == node.phi[pos]
                    for key, node in self.nodes.items() for pos, i in enumerate(self.indices)]
        outcomes += [self.e_edges.get((dst, i)) == src for (src, i), dst in self.f_edges.items()]
        return outcomes

    # -- export -----------------------------------------------------------

    def to_json(self):
        keys = self.sorted_keys()
        ids = _key_strs(keys)
        nodes = []
        for k in keys:
            n = self.nodes[k]
            entry = {"id": ids[k], "eps": list(n.eps), "phi": list(n.phi)}
            if n.wt.affine:
                *entry["wt"], entry["wt_delta"] = _ratios(n.wt)
            else:
                entry["wt"] = _ratios(n.wt)
            nodes.append(entry)
        edges = sorted(
            ({"src": ids[s], "dst": ids[d], "i": i} for (s, i), d in self.f_edges.items()),
            key=lambda e: (e["src"], e["i"], e["dst"]),
        )
        return {
            "label": self.label,
            "nodes": nodes,
            "edges": edges,
            "seed": key_str(self.seed),
            "truncated": self.truncated,
            "window": self.window,
        }

    def to_dot(self) -> str:
        palette = [
            "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
            "#ff7f00", "#a65628", "#f781bf", "#999999",
        ]
        keys = self.sorted_keys()
        ids = _key_strs(keys)
        lines = ["digraph crystal {"]
        for k in keys:
            lines.append('  "%s";' % ids[k])
        for (s, i), d in sorted(self.f_edges.items(), key=lambda kv: (ids[kv[0][0]], kv[0][1])):
            color = palette[i % len(palette)]
            lines.append('  "%s" -> "%s" [label="%d", color="%s"];' % (ids[s], ids[d], i, color))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _ratios(s: Stretch) -> list[str]:
    """Each entry of the stretch as a reduced ``"a/b"``."""
    return ["%d/%d" % (x // g, s.den // g) for x in s.nums for g in (gcd(x, s.den),)]


def key_str(key) -> str:
    """Deterministic compact rendering of a canonical key; a stretch as its weight."""
    if isinstance(key, Stretch):
        parts = _ratios(key)
        body = ",".join(parts[:-1]) + "|" + parts[-1] if key.affine else ",".join(parts)
        return "w[" + body + "]"
    if isinstance(key, tuple):
        return "(" + ",".join(key_str(k) for k in key) + ")"
    return str(key)


def _key_strs(keys) -> dict:
    """:func:`key_str` of every key, each distinct entry of a tuple key rendered once."""
    entry = cache(key_str)
    return {k: "(" + ",".join(map(entry, k)) + ")"
            if isinstance(k, tuple) and not isinstance(k, Stretch) else key_str(k) for k in keys}


def moves(ops, x):
    """Every operator move from x as ``(i, kind, target)``, "e" then "f" per index.

    ``target`` is None where the operator does not act.
    """
    for i in ops.indices:
        yield i, "e", ops.e(x, i)
        yield i, "f", ops.f(x, i)


def generate(ops, seed, *, window=None, node_cap=None, label="") -> CrystalGraph:
    """Breadth-first closure of a seed under all raising and lowering maps.

    Each node's strings come from one ``ops.strings`` call, then ``e``
    and ``f`` per index; the window is tested only when one is set.
    Deterministic: each frontier is processed in discovery order, and
    neither the node set nor the edges depend on that order.
    """
    if getattr(ops, "infinite", False) and window is None:
        raise ValueError("an infinite kind needs an explicit window")
    if window is not None:
        if window < 0:
            raise ValueError("window must be non-negative")
        if abs(ops.level(seed)) > window:
            raise ValueError("seed lies outside the window")

    idx = ops.indices
    seed_key = ops.key(seed)
    # the only key set: an element when found, its Node once processed
    nodes = {seed_key: seed}
    f_edges: dict = {}
    truncated = False
    frontier = [seed_key]
    while frontier:
        fresh = []
        for key in frontier:
            x = nodes[key]
            eps, phi = ops.strings(x)
            for i in idx:
                for kind, y in (("e", ops.e(x, i)), ("f", ops.f(x, i))):
                    if y is None:
                        continue
                    if window is not None and abs(ops.level(y)) > window:
                        truncated = True
                        continue
                    ykey = ops.key(y)
                    if ykey not in nodes:
                        nodes[ykey] = y
                        fresh.append(ykey)
                        check_node_cap(len(nodes), node_cap, "closure")
                    edge = (key, i) if kind == "f" else (ykey, i)
                    dst = ykey if kind == "f" else key
                    if f_edges.setdefault(edge, dst) != dst:
                        raise ArithmeticError(
                            "conflicting lowering edges at %r, i=%d" % (edge[0], i)
                        )
            nodes[key] = Node(x, ops.wt(x), eps, phi)
        frontier = fresh
    return CrystalGraph(
        label=label, indices=tuple(idx), nodes=nodes, f_edges=f_edges,
        seed=seed_key, truncated=truncated, window=window,
    )


class TensorOps:
    """Kashiwara tensor product rule over a list of component kinds.

    Elements are tuples, one entry per component.  The raising operator
    acts in the leftmost place where the running maximum of the string
    functions is attained, the lowering operator in the rightmost.  A
    row holds an element's strings and both places for every index, from
    one ``strings`` call per factor; only the last row is kept.
    """

    def __init__(self, components):
        if not components:
            raise ValueError("tensor product needs at least one factor")
        self.components = list(components)
        self.indices = self.components[0].indices
        for c in self.components:
            if tuple(c.indices) != tuple(self.indices):
                raise ValueError("tensor factors have different index sets")
            if getattr(c, "infinite", False):
                raise ValueError("tensor factors must be finite kinds")
        self._last = (None, None, None, None)

    def _pairs(self, b):
        """Each factor with its entry of b; an element of another length is refused."""
        if len(b) != len(self.components):
            raise ValueError("tensor element of length %d for %d factors"
                             % (len(b), len(self.components)))
        return zip(self.components, b)

    def key(self, b):
        return tuple([c.key(x) for c, x in self._pairs(b)])

    def wt(self, b):
        total = None
        for c, x in self._pairs(b):
            w = c.wt(x)
            total = w if total is None else total + w
        return total

    def _row(self, b):
        """``(b, (eps, phi), lefts, rights)``: lefts and rights map each index to a place."""
        row = self._last
        if row[0] is b:
            return row
        (eps0, phi0), *rest = [c.strings(x) for c, x in self._pairs(b)]
        eps, phi, lefts, rights = [], [], {}, {}
        for p, i in enumerate(self.indices):
            # string function k is eps_k minus the pairings <h_i, wt> = phi - eps left of k
            top = eps0[p]
            shift = phi0[p] - top
            left = right = 0
            for k, (ek, pk) in enumerate(rest, 1):
                val = ek[p] - shift
                if val > top:
                    top, left, right = val, k, k
                elif val == top:
                    right = k
                shift += pk[p] - ek[p]
            eps.append(top)
            phi.append(top + shift)
            lefts[i] = left
            rights[i] = right
        row = self._last = (b, (tuple(eps), tuple(phi)), lefts, rights)
        return row

    def strings(self, b):
        return self._row(b)[1]

    def e(self, b, i):
        k = self._row(b)[2][i]
        moved = self.components[k].e(b[k], i)
        if moved is None:
            return None
        return b[:k] + (moved,) + b[k + 1:]

    def f(self, b, i):
        k = self._row(b)[3][i]
        moved = self.components[k].f(b[k], i)
        if moved is None:
            return None
        return b[:k] + (moved,) + b[k + 1:]
