"""Command line interface: generate crystals, run verification suites.

Artifacts are deterministic: node and edge lists are emitted in sorted
order, rationals are written exactly, and files are written atomically.
Exit codes: 0 success, 1 a verification check failed, 2 invalid
configuration, 3 node cap exceeded.  The library raises three error
types, one per code: a plain ``ValueError`` for bad input (2), a plain
``ArithmeticError`` for a failed self-check (1) and ``NodeCapError`` (3);
:func:`main` alone maps them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

from .cartan import SUPPORTED_TYPES_TEXT, Stretch, build_cartan
from .crystals import NodeCapError, TensorOps, generate
from .embedding import (affinized_tensor_crystal, check_power_coverage, fundamental_crystal,
                        path_crystal_window)
from .verify import SUITES, run_suite, suite_params


def _node_cap(args, parser):
    """--node-cap, else None for the default cap."""
    cap = args.node_cap
    if cap is not None and cap < 1:
        parser.error("the node cap must be positive, got %d" % cap)
    return cap


def parse_weight_label(cartan, text: str) -> Stretch:
    """Integer combinations of level-zero fundamentals and the null root.

    Grammar: one or more terms like ``2w1``, ``-w2``, ``+3d``, each after
    the first preceded by its sign, or a bare ``0``; spaces are ignored.
    The level-zero fundamental ``wj`` is the affine ``Lambda_j`` less
    ``comark_j Lambda_0``, so node 0 gets minus the comark-weighted sum.
    """
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty weight label")
    delta = cartan.null_root()
    total = 0 * delta
    if squeezed in ("0", "+0", "-0"):
        return total
    pos = 0
    pattern = re.compile(r"([+-]?)(\d*)(?:w(\d+)|d)")
    while pos < len(squeezed):
        m = pattern.match(squeezed, pos)
        if m is None or (pos > 0 and not m.group(1)):
            raise ValueError("cannot parse weight term at %r" % squeezed[pos:])
        sign, count, index = m.groups()
        coeff = (-1 if sign == "-" else 1) * (int(count) if count else 1)
        if index is None:
            total = total + coeff * delta
        else:
            total = total + coeff * cartan.classical_fundamental(int(index), affine=True)
        pos = m.end()
    return total


def _emit(args, text: str):
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".loom-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, args.out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_gen(args, parser) -> int:
    cartan = build_cartan(args.type, args.rank)
    # every flag must reach the construction it is given to
    if args.weight is not None and (args.i, args.power, args.affinize) != (None, None, False):
        parser.error("--weight takes no --i, --power or --affinize")
    if (args.window is None) == (args.weight is not None or args.affinize):
        parser.error("--window goes with --weight or --affinize, and each needs it")
    i = 1 if args.i is None else args.i
    power = 1 if args.power is None else args.power
    if power < 1:
        parser.error("--power must be positive")
    if not 1 <= i <= args.rank:
        parser.error("--i must be between 1 and the rank")
    cap = _node_cap(args, parser)
    if args.weight is not None:
        seed = parse_weight_label(cartan, args.weight)
        graph = path_crystal_window(cartan, seed, args.window, node_cap=cap)
    else:
        base = fundamental_crystal(cartan, i, node_cap=cap)
        if args.affinize:
            graph = affinized_tensor_crystal(base, power, args.window, node_cap=cap)
        elif power > 1:
            ops = TensorOps([base] * power)
            graph = generate(
                ops, (base.seed,) * power, node_cap=cap,
                label="%s:power%d" % (base.label, power),
            )
            check_power_coverage(graph, base, power)
        else:
            graph = base

    if args.format == "dot":
        _emit(args, graph.to_dot())
    elif args.format == "summary":
        _emit(
            args,
            "label=%s nodes=%d edges=%d truncated=%s\n"
            % (graph.label, len(graph), graph.edge_count(), graph.truncated),
        )
    else:
        _emit(args, _dump_json(graph.to_json()))
    return 0


# the suite parameter that reads each verify flag; --type and --rank make the cartan
FLAG_PARAMS = {"type": "cartan", "rank": "cartan", "i": "i", "power": "power", "m": "power",
               "window": "window", "t1": "t1", "t2": "t2", "seeds": "seeds"}


def cmd_verify(args, parser) -> int:
    if args.suite != "all":
        if args.suite not in SUITES:
            parser.error("unknown suite %r" % args.suite)
        # every flag must reach the suite it is given to, as on gen
        reads = suite_params(args.suite)
        stray = ["--" + flag for flag, param in FLAG_PARAMS.items()
                 if getattr(args, flag) is not None and param not in reads]
        if stray:
            parser.error("--suite %s reads no %s" % (args.suite, ", ".join(stray)))
    if None not in (args.m, args.power) and args.m != args.power:
        parser.error("--m %d and --power %d disagree" % (args.m, args.power))
    params = {"type_label": args.type, "rank": args.rank, "i": args.i,
              "power": args.power if args.m is None else args.m, "window": args.window,
              "t1": args.t1, "t2": args.t2, "seeds": args.seeds}
    # a flag not given takes run_suite's default
    report = run_suite(args.suite, **{k: v for k, v in params.items() if v is not None},
                       node_cap=_node_cap(args, parser))
    if args.json:
        _emit(args, _dump_json(report))
    else:
        lines = []
        reports = report.get("reports", [report])
        for sub in reports:
            for check in sub.get("checks", []):
                verdict = "pass" if check["pass"] else "FAIL"
                lines.append("%s %s.%s" % (verdict, sub["suite"], check["name"]))
        lines.append("overall %s" % ("pass" if report["pass"] else "FAIL"))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loom",
        description="exact path-model computations for level-zero affine crystals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out")
    common.add_argument("--node-cap", type=int, dest="node_cap")

    gen = sub.add_parser("gen", parents=[common], help="generate a crystal graph artifact")
    gen.add_argument("--type", required=True, help=SUPPORTED_TYPES_TEXT)
    gen.add_argument("--rank", required=True, type=int)
    # no defaults for --i and --power, so cmd_gen sees which were given
    gen.add_argument("--i", type=int, help="fundamental index (default 1)")
    gen.add_argument("--power", type=int, help="tensor power (default 1)")
    gen.add_argument("--affinize", action="store_true",
                     help="affinise the tensor power inside --window")
    gen.add_argument("--weight", help='straight seed of a windowed path crystal, e.g. "2w1+1d"')
    gen.add_argument("--window", type=int)
    gen.add_argument("--format", choices=["json", "dot", "summary"], default="json")
    gen.set_defaults(func=cmd_gen, parser=gen)

    ver = sub.add_parser("verify", parents=[common], help="run a verification suite")
    ver.add_argument("--suite", required=True,
                     help="one of %s, or 'all'" % ", ".join(sorted(SUITES)))
    # no defaults here, so cmd_verify sees which flags were given; run_suite holds them
    ver.add_argument("--type", help=SUPPORTED_TYPES_TEXT)
    ver.add_argument("--rank", type=int)
    ver.add_argument("--i", type=int)
    ver.add_argument("--power", type=int, help="tensor power (default 2)")
    ver.add_argument("--m", type=int, help="alias for --power")
    ver.add_argument("--window", type=int)
    ver.add_argument("--t1", type=int)
    ver.add_argument("--t2", type=int)
    ver.add_argument("--seeds", type=int)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify, parser=ver)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value with one leading minus for an option,
    # so a weight label such as "-w1+d" is glued to its flag or a prefix of it
    for k in range(len(argv) - 1, 0, -1):
        flag, value = argv[k - 1], argv[k]
        if flag[2:] and "--weight".startswith(flag) and value[:1] == "-" and value[:2] != "--":
            argv[k - 1:k + 1] = [flag + "=" + value]
    args = build_parser().parse_args(argv)
    # errors print the usage of the subcommand that was given
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        args.parser.error("the directory of --out does not exist: %s" % args.out)
    if args.out and (os.path.isdir(args.out) or args.out.endswith(os.sep)):
        args.parser.error("--out names a directory: %s" % args.out)
    try:
        return args.func(args, args.parser)
    except NodeCapError as err:
        sys.stderr.write("error: %s\n" % err)
        return 3
    except ArithmeticError as err:
        sys.stderr.write("error: %s: %s\n" % (type(err).__name__, err))
        return 1
    except ValueError as err:
        args.parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
