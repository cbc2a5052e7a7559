"""Generic crystal machinery over any element kind with raise/lower maps.

An element kind ("ops" object) exposes ``indices``, ``key``, ``wt``,
``strings``, ``e`` and ``f``; ``strings(x, i)`` returns the string
lengths ``(eps, phi)`` of x for index i in one call.  ``strings``, ``e``
and ``f`` on the same (x, i), asked back to back, cost one scan: a kind
keeps its last scan, matched by the identity of x, and
:func:`generate` asks all three per (node, index).  Infinite kinds also
expose ``level`` and are generated inside an explicit window on the
absolute level.  Closure generation, the tensor product rule, audits and
labelled-graph isomorphism all work against that surface, so paths,
generated graphs and ad hoc test crystals plug into the same engine.
The tensor rule reads the coroot pairing of a factor's weight as
``phi - eps``, so no kind needs Cartan data of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .cartan import Weight
from .paths import Stretch

DEFAULT_NODE_CAP = 10**6


class NodeCapError(RuntimeError):
    """Closure generation exceeded the configured node budget."""


def check_node_cap(count: int, node_cap, what: str):
    """Raise NodeCapError when count nodes exceed the cap (None: the default)."""
    cap = DEFAULT_NODE_CAP if node_cap is None else node_cap
    if count > cap:
        raise NodeCapError("%s exceeds the node cap of %d" % (what, cap))


class GenerationError(ValueError):
    """Invalid generation request."""


@dataclass(frozen=True)
class Node:
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
        self._pos = {i: p for p, i in enumerate(self.indices)}
        self.e_edges = {(dst, i): src for (src, i), dst in self.f_edges.items()}

    def sorted_keys(self) -> list:
        """Node keys in the exact order of their stretches' weights, ranked once."""
        found = set()
        for k in self.nodes:
            _map_stretches(k, found.add)
        rank = {s: r for r, s in enumerate(sorted(found, key=Stretch.weight))}
        return sorted(self.nodes, key=lambda k: _map_stretches(k, rank.__getitem__))

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

    def strings(self, key, i):
        node, pos = self.nodes[key], self._pos[i]
        return node.eps[pos], node.phi[pos]

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
            raise GenerationError(
                "indecomposability is only defined for untruncated graphs; "
                "use window_connected for windows"
            )
        return len(self.components()) == 1

    def window_connected(self) -> bool:
        return len(self.components()) == 1

    def normality_audit(self) -> list[str]:
        """Check string lengths and quasi-inverse edges; empty means clean."""
        if self.truncated:
            raise GenerationError("normality audit needs an untruncated graph")
        problems = []
        for key in self.sorted_keys():
            node = self.nodes[key]
            for pos, i in enumerate(self.indices):
                up = 0
                k = key
                while (k, i) in self.e_edges:
                    k = self.e_edges[(k, i)]
                    up += 1
                    if up > len(self.nodes):
                        problems.append("cycle in raising chain at %r, i=%d" % (key, i))
                        break
                if up != node.eps[pos]:
                    problems.append(
                        "eps mismatch at %r, i=%d: table %d, chain %d"
                        % (key, i, node.eps[pos], up)
                    )
                down = 0
                k = key
                while (k, i) in self.f_edges:
                    k = self.f_edges[(k, i)]
                    down += 1
                    if down > len(self.nodes):
                        problems.append("cycle in lowering chain at %r, i=%d" % (key, i))
                        break
                if down != node.phi[pos]:
                    problems.append(
                        "phi mismatch at %r, i=%d: table %d, chain %d"
                        % (key, i, node.phi[pos], down)
                    )
        for (src, i), dst in self.f_edges.items():
            if self.e_edges.get((dst, i)) != src:
                problems.append("edge (%r, %d) is not quasi-inverse" % (src, i))
        return problems

    # -- isomorphism ------------------------------------------------------

    def isomorphic(self, other: "CrystalGraph"):
        """A label, weight and string preserving bijection, or None.

        Anchored on invariant signatures (weight and both string length
        vectors), with backtracking over whatever ambiguity is left.
        Crystal graphs are sparse and weight labels usually separate the
        nodes outright, so the search rarely branches.
        """
        if self.indices != other.indices or len(self.nodes) != len(other.nodes):
            return None
        sig1 = {k: (n.wt, n.eps, n.phi) for k, n in self.nodes.items()}
        sig2 = {k: (n.wt, n.eps, n.phi) for k, n in other.nodes.items()}
        if sorted(map(repr, sig1.values())) != sorted(map(repr, sig2.values())):
            return None

        cls2: dict = {}
        for k, s in sig2.items():
            cls2.setdefault(repr(s), []).append(k)
        order = sorted(self.nodes, key=lambda k: (len(cls2.get(repr(sig1[k]), [])), repr(k)))

        mapping: dict = {}
        used: set = set()

        def compatible(a, b):
            if repr(sig1[a]) != repr(sig2[b]):
                return False
            for i in self.indices:
                fa = self.f_edges.get((a, i))
                fb = other.f_edges.get((b, i))
                if (fa is None) != (fb is None):
                    return False
                if fa is not None and fa in mapping and mapping[fa] != fb:
                    return False
                ea = self.e_edges.get((a, i))
                eb = other.e_edges.get((b, i))
                if (ea is None) != (eb is None):
                    return False
                if ea is not None and ea in mapping and mapping[ea] != eb:
                    return False
            return True

        def place(idx):
            if idx == len(order):
                return True
            a = order[idx]
            for b in sorted(cls2.get(repr(sig1[a]), []), key=repr):
                if b in used or not compatible(a, b):
                    continue
                mapping[a] = b
                used.add(b)
                if place(idx + 1):
                    return True
                del mapping[a]
                used.discard(b)
            return False

        return dict(mapping) if place(0) else None

    # -- export -----------------------------------------------------------

    def to_json(self):
        keys = self.sorted_keys()
        ids = {k: key_str(k) for k in keys}
        nodes = []
        for k in keys:
            n = self.nodes[k]
            entry = {"id": ids[k], "eps": list(n.eps), "phi": list(n.phi)}
            if isinstance(n.wt, Weight):
                wt = n.wt.to_json()
                entry["wt"] = wt["lam"]
                if "delta" in wt:
                    entry["wt_delta"] = wt["delta"]
            else:
                entry["wt"] = repr(n.wt)
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
        ids = {k: key_str(k) for k in keys}
        lines = ["digraph crystal {"]
        for k in keys:
            lines.append('  "%s";' % ids[k])
        for (s, i), d in sorted(self.f_edges.items(), key=lambda kv: (ids[kv[0][0]], kv[0][1])):
            color = palette[i % len(palette)]
            lines.append('  "%s" -> "%s" [label="%d", color="%s"];' % (ids[s], ids[d], i, color))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _map_stretches(key, fn):
    """The nested tuples of key as lists, with fn applied to every stretch."""
    if isinstance(key, Stretch):
        return fn(key)
    if isinstance(key, tuple):
        # lists sort like tuples; freed tuples would linger on free lists and raise peak memory
        return [_map_stretches(k, fn) for k in key]
    return key


def key_str(key) -> str:
    """Deterministic compact rendering of a canonical key; a stretch as its weight."""
    if isinstance(key, Stretch):
        parts = ["%d/%d" % (x // g, key.den // g) for x in key.nums for g in (gcd(x, key.den),)]
        body = ",".join(parts[:-1]) + "|" + parts[-1] if key.affine else ",".join(parts)
        return "w[" + body + "]"
    if isinstance(key, tuple):
        return "(" + ",".join(key_str(k) for k in key) + ")"
    return str(key)


def moves(ops, x):
    """Every operator move from x as ``(i, kind, target)``, "e" then "f" per index.

    ``target`` is None where the operator does not act.
    """
    for i in ops.indices:
        yield i, "e", ops.e(x, i)
        yield i, "f", ops.f(x, i)


def generate(ops, seed, *, window=None, node_cap=None, label="") -> CrystalGraph:
    """Breadth-first closure of a seed under all raising and lowering maps.

    Deterministic: frontiers are processed in native key order, on which
    neither the node set nor the edges depend.
    """
    if getattr(ops, "infinite", False) and window is None:
        raise GenerationError("an infinite kind needs an explicit window")
    if window is not None and window < 0:
        raise GenerationError("window must be non-negative")

    def in_window(x):
        return window is None or abs(ops.level(x)) <= window

    if not in_window(seed):
        raise GenerationError("seed lies outside the window")

    idx = ops.indices
    seed_key = ops.key(seed)
    # the only key set: an element when found, its Node once processed
    nodes = {seed_key: seed}
    f_edges: dict = {}
    truncated = False
    frontier = [seed_key]
    while frontier:
        fresh = []
        for key in sorted(frontier):
            x = nodes[key]
            strings = []
            for i in idx:
                strings.append(ops.strings(x, i))
                for kind, y in (("e", ops.e(x, i)), ("f", ops.f(x, i))):
                    if y is None:
                        continue
                    if not in_window(y):
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
                        raise GenerationError(
                            "conflicting lowering edges at %r, i=%d" % (edge[0], i)
                        )
            eps, phi = zip(*strings)
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
    functions is attained, the lowering operator in the rightmost.
    """

    def __init__(self, components):
        if not components:
            raise GenerationError("tensor product needs at least one factor")
        self.components = list(components)
        self.indices = self.components[0].indices
        for c in self.components:
            if tuple(c.indices) != tuple(self.indices):
                raise GenerationError("tensor factors have different index sets")
        self.infinite = any(getattr(c, "infinite", False) for c in self.components)
        self._last = (None, None, None, None)

    def key(self, b):
        return tuple(c.key(x) for c, x in zip(self.components, b))

    def wt(self, b):
        total = None
        for c, x in zip(self.components, b):
            w = c.wt(x)
            total = w if total is None else total + w
        return total

    def _string_funcs(self, b, i):
        # <h_i, wt(x)> of a factor is phi(x, i) - eps(x, i); shift ends as their sum
        last = self._last
        if last[0] is b and last[1] == i:
            return last[2], last[3]
        vals = []
        shift = 0
        for c, x in zip(self.components, b):
            eps, phi = c.strings(x, i)
            vals.append(eps - shift)
            shift += phi - eps
        self._last = (b, i, vals, shift)
        return vals, shift

    def strings(self, b, i):
        vals, shift = self._string_funcs(b, i)
        top = max(vals)
        return top, top + shift

    def e(self, b, i):
        vals = self._string_funcs(b, i)[0]
        k = vals.index(max(vals))
        moved = self.components[k].e(b[k], i)
        if moved is None:
            return None
        return tuple(moved if j == k else x for j, x in enumerate(b))

    def f(self, b, i):
        vals = self._string_funcs(b, i)[0]
        k = len(vals) - 1 - vals[::-1].index(max(vals))
        moved = self.components[k].f(b[k], i)
        if moved is None:
            return None
        return tuple(moved if j == k else x for j, x in enumerate(b))

