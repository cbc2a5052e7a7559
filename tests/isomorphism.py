"""Labelled-graph isomorphism of crystal graphs, used only by the tests.

Two graphs built by independent routes, such as a ``psi`` image and a
windowed path crystal, are compared up to renaming their node keys.
"""

from collections import Counter


def isomorphic(one, other):
    """A label, weight and string preserving bijection from one to other, or None.

    Anchored on invariant signatures (weight and both string length
    vectors), with backtracking over whatever ambiguity is left.
    Crystal graphs are sparse and weight labels usually separate the
    nodes outright, so the search rarely branches.
    """
    if one.indices != other.indices or len(one.nodes) != len(other.nodes):
        return None
    sig1 = {k: (n.wt, n.eps, n.phi) for k, n in one.nodes.items()}
    sig2 = {k: (n.wt, n.eps, n.phi) for k, n in other.nodes.items()}
    if Counter(sig1.values()) != Counter(sig2.values()):
        return None

    # the candidates for a node of one: the nodes of other with its signature
    cls2: dict = {}
    for k in other.sorted_keys():
        cls2.setdefault(sig2[k], []).append(k)
    order = sorted(one.nodes, key=lambda k: (len(cls2[sig1[k]]), k))

    pairs = ((one.f_edges, other.f_edges), (one.e_edges, other.e_edges))
    mapping: dict = {}
    used: set = set()

    def compatible(a, b):
        for i in one.indices:
            for mine, theirs in pairs:
                xa, xb = mine.get((a, i)), theirs.get((b, i))
                if (xa is None) != (xb is None) or (xa in mapping and mapping[xa] != xb):
                    return False
        return True

    # stack[d] yields the candidates left for order[d]; mapping places order[:d]
    stack = []
    while len(mapping) < len(order):
        a = order[len(mapping)]
        if len(stack) == len(mapping):
            stack.append(iter(cls2[sig1[a]]))
        b = next((c for c in stack[-1] if c not in used and compatible(a, c)), None)
        if b is not None:
            mapping[a] = b
            used.add(b)
            continue
        stack.pop()
        if not mapping:
            return None
        used.discard(mapping.popitem()[1])
    return mapping
