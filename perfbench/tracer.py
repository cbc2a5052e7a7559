"""Per-layer tracing of loom from outside the package.

The tracer rebinds functions and methods of the ``loom`` modules to
timing wrappers.  A module-level function is rebound in every
``loom`` namespace that holds it, because modules such as
``loom.embedding`` and ``loom.verify`` import ``raising_op`` and friends
by name; each of those bindings gets its own call counter, so a binding
the installer missed shows up as a site with zero calls.

Spans are aggregated in memory per (name, parent name) pair rather than
kept one by one: the sl2 workload makes millions of ``QScalar`` calls.
A span's self time is its duration minus the time its wrapped children
cover, including the children's own bookkeeping, so the self times of
all spans add up to about the traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import time

ROOT = "<root>"


def _hit(args, result):
    return {"hits": int(result is not None)}


def _graph_size(args, result):
    return {"nodes": len(result), "edges": result.edge_count()}


def _json_bytes(args, result):
    from loom.cli import _dump_json

    return {"bytes": len(_dump_json(result).encode())}


def _text_bytes(args, result):
    return {"bytes": len(result.encode())}


def _emitted_bytes(args, result):
    return {"bytes": len(args[1].encode())}


# (layer name, module, attribute, outcome counter).  A dotted attribute
# is a method, wrapped on its class; a plain one is a module function.
TARGETS = [
    ("cartan.weight", "loom.cartan", "Weight.__post_init__", None),
    ("paths.root_op", "loom.paths", "raising_op", _hit),
    ("paths.root_op", "loom.paths", "lowering_op", _hit),
    ("paths.make_path", "loom.paths", "make_path", None),
    ("paths.h_extrema", "loom.paths", "h_extrema", None),
    ("paths.key", "loom.paths", "Path.key", None),
    ("crystals.generate", "loom.crystals", "generate", _graph_size),
    ("crystals.tensor_rule", "loom.crystals", "TensorOps.e", _hit),
    ("crystals.tensor_rule", "loom.crystals", "TensorOps.f", _hit),
    ("crystals.audit", "loom.crystals", "CrystalGraph.normality_audit", None),
    ("crystals.audit", "loom.crystals", "CrystalGraph.components", None),
    ("crystals.serialize", "loom.crystals", "CrystalGraph.to_json", _json_bytes),
    ("crystals.serialize", "loom.crystals", "CrystalGraph.to_dot", _text_bytes),
    ("energy.table", "loom.energy", "energy_table", None),
    ("energy.edge_check", "loom.energy", "energy_edge_check", None),
    ("energy.refine", "loom.energy", "refine", None),
    ("energy.major_index", "loom.energy", "major_index", None),
    ("embedding.psi", "loom.embedding", "psi", None),
    ("embedding.affinize", "loom.embedding", "affinized_tensor_crystal", None),
    ("embedding.decompose_checks", "loom.embedding", "verify_decomposition", None),
    ("embedding.c_class", "loom.embedding", "c_class", None),
    ("qfield.mul", "loom.qfield", "QScalar.__mul__", None),
    ("qfield.add", "loom.qfield", "QScalar.__add__", None),
    ("qfield.add", "loom.qfield", "QScalar.__sub__", None),
    ("qfield.div", "loom.qfield", "QScalar.__truediv__", None),
    ("sl2.string_decompose", "loom.sl2", "string_decompose", None),
    ("sl2.kashiwara", "loom.sl2", "kashiwara_e", None),
    ("sl2.kashiwara", "loom.sl2", "kashiwara_f", None),
    ("sl2.act", "loom.sl2", "act_E", None),
    ("sl2.act", "loom.sl2", "act_F", None),
    ("sl2.act", "loom.sl2", "act_K", None),
    ("sl2.act", "loom.sl2", "act_E_div", None),
    ("sl2.act", "loom.sl2", "act_F_div", None),
    ("sl2.lattice", "loom.sl2", "StringLattice.__init__", None),
    ("sl2.coords", "loom.sl2", "StringLattice.coords", None),
    ("verify.suite", "loom.verify", "run_suite", None),
    ("cli.main", "loom.cli", "main", None),
    ("cli.artifact", "loom.cli", "_emit", _emitted_bytes),
]


class Tracer:
    """Installs the wrappers, aggregates their spans, and removes them."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: dict = {}
        # name -> summed outcome counters, e.g. {"hits": 12}
        self.outcomes: dict = {}
        # binding site "module:attribute" -> [calls]
        self.sites: dict = {}
        self._stack = [[ROOT, 0.0]]
        self._undo: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def wrap(self, name, fn, site, outcome=None):
        """A wrapper recording one span per call of ``fn`` under ``name``."""
        stack = self._stack
        clock = self.clock
        spans = self.spans
        counter = self.sites.setdefault(site, [0])
        sums = self.outcomes.setdefault(name, {}) if outcome else None

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                counter[0] += 1
                span = t1 - t0
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += span
                rec[2] += span - frame[1]
                parent[1] += span
            if sums is not None:
                for unit, value in outcome(args, result).items():
                    sums[unit] = sums.get(unit, 0) + value
            # the bookkeeping above is tracing cost, not the parent's work
            parent[1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for name, module_name, attr, outcome in self.targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self.wrap(name, original, module_name + ":" + attr, outcome))
                continue
            original = getattr(module, attr)
            for holder in _loom_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        site = holder.__name__ + ":" + key
                        self._rebind(holder, key, self.wrap(name, original, site, outcome))

    def _rebind(self, owner, key, wrapper):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self) -> dict:
        """The aggregated spans, outcome counters and per-site call counts."""
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(self.spans.items())
            ],
            "outcomes": self.outcomes,
            "sites": {site: c[0] for site, c in sorted(self.sites.items())},
        }


def _loom_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "loom" or n.startswith("loom."))]


# Per-layer metrics reported by a traced run: (metric, source, unit).
# A source "name:calls" or "name:self_s" sums the spans of that name;
# "name:<unit>" reads an outcome counter; "name:hits/calls" is a ratio.
LAYER_METRICS = [
    ("cartan.weight.calls", "cartan.weight:calls", "count"),
    ("cartan.weight.self_s", "cartan.weight:self_s", "s"),
    ("paths.root_op.calls", "paths.root_op:calls", "count"),
    ("paths.root_op.self_s", "paths.root_op:self_s", "s"),
    ("paths.root_op.hit_ratio", "paths.root_op:hits/calls", "ratio"),
    ("paths.make_path.calls", "paths.make_path:calls", "count"),
    ("paths.make_path.self_s", "paths.make_path:self_s", "s"),
    ("paths.h_extrema.calls", "paths.h_extrema:calls", "count"),
    ("paths.h_extrema.self_s", "paths.h_extrema:self_s", "s"),
    ("paths.key.calls", "paths.key:calls", "count"),
    ("crystals.generate.calls", "crystals.generate:calls", "count"),
    ("crystals.generate.self_s", "crystals.generate:self_s", "s"),
    ("crystals.generate.nodes", "crystals.generate:nodes", "count"),
    ("crystals.generate.edges", "crystals.generate:edges", "count"),
    ("crystals.tensor_rule.calls", "crystals.tensor_rule:calls", "count"),
    ("crystals.tensor_rule.self_s", "crystals.tensor_rule:self_s", "s"),
    ("crystals.tensor_rule.hit_ratio", "crystals.tensor_rule:hits/calls", "ratio"),
    ("crystals.audit.self_s", "crystals.audit:self_s", "s"),
    ("crystals.serialize.self_s", "crystals.serialize:self_s", "s"),
    ("crystals.serialize.bytes", "crystals.serialize:bytes", "bytes"),
    ("energy.table.calls", "energy.table:calls", "count"),
    ("energy.table.self_s", "energy.table:self_s", "s"),
    ("energy.edge_check.self_s", "energy.edge_check:self_s", "s"),
    ("energy.refine.calls", "energy.refine:calls", "count"),
    ("energy.refine.self_s", "energy.refine:self_s", "s"),
    ("energy.major_index.calls", "energy.major_index:calls", "count"),
    ("embedding.psi.calls", "embedding.psi:calls", "count"),
    ("embedding.psi.self_s", "embedding.psi:self_s", "s"),
    ("embedding.affinize.self_s", "embedding.affinize:self_s", "s"),
    ("embedding.decompose_checks.self_s", "embedding.decompose_checks:self_s", "s"),
    ("embedding.c_class.calls", "embedding.c_class:calls", "count"),
    ("qfield.mul.calls", "qfield.mul:calls", "count"),
    ("qfield.add.calls", "qfield.add:calls", "count"),
    ("qfield.div.calls", "qfield.div:calls", "count"),
    ("qfield.arith.self_s", "qfield.mul+qfield.add+qfield.div:self_s", "s"),
    ("sl2.string_decompose.calls", "sl2.string_decompose:calls", "count"),
    ("sl2.string_decompose.self_s", "sl2.string_decompose:self_s", "s"),
    ("sl2.kashiwara.calls", "sl2.kashiwara:calls", "count"),
    ("sl2.act.calls", "sl2.act:calls", "count"),
    ("sl2.act.self_s", "sl2.act:self_s", "s"),
    ("sl2.lattice.self_s", "sl2.lattice:self_s", "s"),
    ("sl2.coords.calls", "sl2.coords:calls", "count"),
    ("sl2.coords.self_s", "sl2.coords:self_s", "s"),
    ("verify.suite.calls", "verify.suite:calls", "count"),
    ("verify.suite.self_s", "verify.suite:self_s", "s"),
    ("cli.main.self_s", "cli.main:self_s", "s"),
    ("cli.artifact.bytes", "cli.artifact:bytes", "bytes"),
]


def layer_totals(dump: dict) -> dict:
    """Calls, self seconds and outcome counters summed per layer name."""
    totals: dict = {}
    for span in dump["spans"]:
        t = totals.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        t["calls"] += span["calls"]
        t["self_s"] += span["self_s"]
    for name, sums in dump["outcomes"].items():
        totals.setdefault(name, {"calls": 0, "self_s": 0.0}).update(sums)
    for name, _module, _attr, _outcome in TARGETS:
        totals.setdefault(name, {"calls": 0, "self_s": 0.0})
    return totals


def layer_metrics(dump: dict) -> dict:
    """Every metric of LAYER_METRICS as {name: (value, unit)}.

    A hit ratio of a layer that made no calls reads 0; the layer
    separation check names the layers where that is expected.
    """
    totals = layer_totals(dump)
    out = {}
    for metric, source, unit in LAYER_METRICS:
        names, field = source.split(":")
        rows = [totals[n] for n in names.split("+")]
        if field == "hits/calls":
            calls = rows[0]["calls"]
            value = rows[0].get("hits", 0) / calls if calls else 0.0
        else:
            value = sum(row.get(field, 0) for row in rows)
        out[metric] = (value, unit)
    return out


def silent_sites(dump: dict, expected_driven) -> list:
    """Binding sites expected to be driven that recorded no call."""
    return sorted(site for site in expected_driven if not dump["sites"].get(site))
