"""Batch command-line front end.

Verbs: decompose, tensor, pages, cohomology, classify-hp1, pbundle-hp1,
blowup, check.  Input is a JSON file (--in, '-' for stdin) or inline
JSON (--blocks); output is deterministic JSON (sorted keys) or a plain
table.  Exit codes: 0 success, 1 malformed input, 2 validation or check
failure, 64 usage error, such as a flag the verb's mode does not read or
an MWTATE_LOG naming no logging level.  Each input error, deep JSON
nesting included, is a ValueError that main prints as "error: ..." with
exit 1, logging its traceback at MWTATE_LOG=DEBUG.  Layers are imported
inside the verbs that use them: decompose and tensor load no Bockstein,
geometry or check code; pages and pbundle-hp1 load the page tables,
bockstein.pages, and no other Bockstein layer; check --suite NAME loads
only the layers of that suite.  mwtate.exactalg, like mwtate.bockstein,
imports a submodule when one of its names is first looked up, so only the
verbs that build an integer matrix (a valid decompose, pbundle-hp1, blowup
and the decompose, pbundle and couple suites) load the integer-matrix layer.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__, serialize
from .motives import InvalidComplex, NormalForm, decompose, tensor
from .wittring import GWElement

USAGE_EXIT = 64
INPUT_EXIT = 1
VALIDATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-2:3" as an option unless it looks like a negative
        # number; a range with a negative start is an argument too
        self._negative_number_matcher = re.compile(r"^-\d+(:-?\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _emit(data, fmt: str):
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        _print_table(data)


def _print_table(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _print_table(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _print_table(item, indent)
                print()
            else:
                print(f"{pad}{item}")
    else:
        print(f"{pad}{data}")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(str(exc)) from exc


def _blocks_arg(raw: str) -> NormalForm:
    try:
        return serialize.normal_form_from_json(json.loads(raw))
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError included
        raise ValueError(f"bad blocks JSON: {exc}") from exc


def _euler_arg(raw: str) -> GWElement:
    try:
        rank, sig = (int(x) for x in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"bad Euler class {raw!r}; expected 'rank,signature'") from exc
    return GWElement(rank, sig)


def _range_arg(raw: str) -> list[int]:
    """The integers LO..HI of a ``--range LO:HI`` (at most 65 of them)."""
    try:
        lo, hi = (int(x) for x in raw.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad range {raw!r}; expected LO:HI") from exc
    if hi < lo or hi - lo > 64:
        raise ValueError("range must be ascending and span at most 64")
    return list(range(lo, hi + 1))


def build_parser() -> _Parser:
    p = _Parser(prog="mwtate", description=__doc__)
    p.add_argument("--version", action="version", version=f"mwtate {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, blocks=False, infile=False, fmt=True):
        if fmt:
            sp.add_argument("--format", choices=("json", "table"), default="json")
        sp.add_argument("--model", default="minimal-euclidean",
                        help="coefficient model (only minimal-euclidean exists)")
        if blocks:
            sp.add_argument("--blocks", action="append", default=[],
                            help="inline JSON normal form (repeatable)")
        if infile:
            sp.add_argument("--in", dest="infile", help="input JSON file or -")

    sp = sub.add_parser("decompose", help="normal form of a cell complex")
    common(sp, blocks=False, infile=True)

    sp = sub.add_parser("tensor", help="fuse two normal forms")
    common(sp, blocks=True)

    sp = sub.add_parser("pages", help="Bockstein page tables of a normal form")
    common(sp, blocks=True)
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--page", type=int, help="one page (default 2)")
    which.add_argument("--range", help="page range LO:HI")

    sp = sub.add_parser("cohomology", help="invariants of a normal form")
    common(sp, blocks=True)
    sp.add_argument(
        "--theory",
        choices=("chow", "chow2", "witt", "mod2", "mw-diagonal"),
        default="witt",
    )
    sp.add_argument("--modulus", type=int, help="witt only: 0 (default) or a power of 2")
    sp.add_argument("--range", help="mw-diagonal only: diagonal degree range LO:HI")

    sp = sub.add_parser("classify-hp1", help="classify a rank-n bundle on HP^1")
    common(sp)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--euler", help="rank,signature of the Euler class")
    sp.add_argument("--c2", type=int, help="second Chern number (rank >= 3)")

    sp = sub.add_parser("pbundle-hp1", help="P(E) complex for a rank-2 bundle")
    common(sp)
    sp.add_argument("--euler", required=True)

    sp = sub.add_parser("blowup", help="assemble a blow-up normal form")
    common(sp, infile=True)

    sp = sub.add_parser("check", help="run a named verification suite")
    common(sp, fmt=False)
    sp.add_argument("--suite", default="all", help="a suite name or 'all'")
    sp.add_argument("--seed", type=int, default=0)
    return p


def _cmd_decompose(args) -> int:
    c = serialize.complex_from_json(_read_json(args.infile or "-"))
    _emit(serialize.normal_form_to_json(decompose(c)), args.format)
    return 0


def _cmd_tensor(args) -> int:
    if len(args.blocks) != 2:
        raise ValueError("tensor needs exactly two --blocks arguments")
    a = _blocks_arg(args.blocks[0])
    b = _blocks_arg(args.blocks[1])
    _emit(serialize.normal_form_to_json(tensor(a, b)), args.format)
    return 0


def _cmd_pages(args) -> int:
    from .bockstein.pages import pages

    if len(args.blocks) != 1:
        raise ValueError("pages needs exactly one --blocks argument")
    a = _blocks_arg(args.blocks[0])
    indices = _range_arg(args.range) if args.range else [2 if args.page is None else args.page]
    out = [serialize.page_to_json(pages(a, i)) for i in indices]
    out = out[0] if len(out) == 1 else out
    _emit(out, args.format)
    return 0


def _cmd_cohomology(args) -> int:
    from .cohomology import chow, mod2_motivic, mw_diagonal, witt_cohomology

    if len(args.blocks) != 1:
        raise ValueError("cohomology needs exactly one --blocks argument")
    a = _blocks_arg(args.blocks[0])
    if args.theory == "chow":
        _emit(serialize.graded_group_to_json(chow(a), model=True), args.format)
    elif args.theory == "chow2":
        _emit(serialize.graded_group_to_json(chow(a, mod2=True)), args.format)
    elif args.theory == "witt":
        g = witt_cohomology(a, args.modulus or 0)
        _emit(serialize.graded_group_to_json(g, model=True), args.format)
    elif args.theory == "mod2":
        gens = mod2_motivic(a).generators
        _emit([{"p": p, "q": q} for p, q in gens], args.format)
    else:
        if not args.range:
            raise ValueError("mw-diagonal needs --range LO:HI of weights")
        out = {
            "model": serialize.MODEL_TAG,
            "groups": [
                dict(degree=n, **serialize.formal_group_to_json(mw_diagonal(a, n)))
                for n in _range_arg(args.range)
            ],
        }
        _emit(out, args.format)
    return 0


def _cmd_classify(args) -> int:
    from .geometry import hp1_classify

    if args.rank == 2:
        if not args.euler:
            raise ValueError("rank 2 needs --euler rank,signature")
        cls = hp1_classify(2, _euler_arg(args.euler))
        out = {
            "rank": 2,
            "euler": serialize.gw_to_json(cls.euler),
            "is_free": cls.is_free,
            "stably_free_nontrivial": cls.stably_free_nontrivial,
        }
    else:
        if args.c2 is None:
            raise ValueError("rank >= 3 needs --c2")
        cls = hp1_classify(args.rank, args.c2)
        out = {
            "rank": cls.rank,
            "c2": cls.c2,
            "is_free": cls.is_free,
            "stably_free_nontrivial": cls.stably_free_nontrivial,
        }
    _emit(out, args.format)
    return 0


def _cmd_pbundle(args) -> int:
    from .bockstein.pages import degeneracy_page
    from .geometry import projective_bundle_hp1

    e = _euler_arg(args.euler)
    c = projective_bundle_hp1(e)
    blocks = decompose(c)
    out = {
        "complex": serialize.complex_to_json(c),
        "blocks": serialize.normal_form_to_json(blocks),
        "degeneracy_page": degeneracy_page(blocks),
    }
    _emit(out, args.format)
    return 0


def _cmd_blowup(args) -> int:
    from .geometry import blowup_eta_check, blowup_motive

    data = _read_json(args.infile or "-")
    try:
        parts = serialize.blowup_from_json(data)
    except ValueError as exc:
        raise ValueError(f"bad blow-up input: {exc}") from exc
    blocks = blowup_motive(*parts)
    eta = blowup_eta_check(blocks)
    out = {
        "blocks": serialize.normal_form_to_json(blocks),
        "eta_check": eta.holds,
    }
    _emit(out, args.format)
    return 0


def _cmd_check(args) -> int:
    from . import checks

    names = sorted(checks.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        if name not in checks.SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(checks.SUITES)}")
        result = checks.run_suite(name, args.seed)
        print(result.line())
        failed = failed or not result.passed
    return VALIDATION_EXIT if failed else 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "tensor": _cmd_tensor,
    "pages": _cmd_pages,
    "cohomology": _cmd_cohomology,
    "classify-hp1": _cmd_classify,
    "pbundle-hp1": _cmd_pbundle,
    "blowup": _cmd_blowup,
    "check": _cmd_check,
}


def _logger():
    """The ``mwtate`` logger at the level MWTATE_LOG names, or None when
    MWTATE_LOG is unset: at the default level no debug record prints, so
    a default run neither imports nor configures logging."""
    name = os.environ.get("MWTATE_LOG")
    if not name:
        return None
    import logging

    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        print(f"error: MWTATE_LOG must name a logging level, not {name!r}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    logging.basicConfig(level=level)
    return logging.getLogger("mwtate")


def main(argv=None) -> int:
    log = _logger()
    parser = build_parser()
    args = parser.parse_args(argv)
    # each of these flags is read in one mode of its verb only
    if args.verb == "cohomology":
        modes = (("--modulus", args.modulus, "--theory witt", args.theory == "witt"),
                 ("--range", args.range, "--theory mw-diagonal", args.theory == "mw-diagonal"))
    elif args.verb == "classify-hp1":
        modes = (("--euler", args.euler, "--rank 2", args.rank == 2),
                 ("--c2", args.c2, "--rank >= 3", args.rank != 2))
    else:
        modes = ()
    for flag, value, reader, read in modes:
        if value is not None and not read:
            parser.error(f"{flag} is read only by {reader}")
    if args.model != "minimal-euclidean":
        print(f"error: unsupported model {args.model!r}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return _COMMANDS[args.verb](args)
    except InvalidComplex as exc:
        print(json.dumps({"valid": False, "violations": str(exc)}, sort_keys=True))
        return VALIDATION_EXIT
    except ValueError as exc:
        if log:
            log.debug("input error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
