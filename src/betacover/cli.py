"""Command-line surface: validate, neighborhood, approximate, audit, gen-random.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit
status: 0 success, 1 audit found a failing law, 2 usage or validation
errors, 3 an internal error (any other exception).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .approximations import approximate
from .audit import all_theorem_ids, run_audit
from .errors import BetacoverError, NotACoveringError
from .fuzzysets import CrispSubset, IVFuzzySet
from .generate import GenConfig, gen_space
from .intervals import IntervalValue
from .neighborhoods import NeighborhoodSystem
from .serialize import (
    SCHEMA_VERSION,
    dumps,
    parse_set,
    parse_space,
    set_to_doc,
    space_to_doc,
)


def _envelope(payload: dict) -> dict:
    doc = {"version": __version__, "schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return doc


def _emit(doc: dict, out: Optional[str] = None) -> None:
    text = dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_space(args):
    return parse_space(
        _read(args.space),
        fmt=args.format,
        policy=args.policy,
        beta=args.beta,
    )


def _gen_config(args) -> GenConfig:
    """The generator settings of the audit and gen-random flags."""
    u, a = args.size
    return GenConfig(
        universe_size=u,
        parameter_count=a,
        grid_denominator=args.grid,
        beta_policy="random" if args.beta is None else IntervalValue.parse(args.beta),
        seed=args.seed,
    )


def _parse_size(text: str):
    try:
        u, a = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("size must look like '3,4' (objects,parameters)")
    return u, a


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        default="strict",
        help="covering policy: 'strict' or 'repair:<parameter>'",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="space document format"
    )
    parser.add_argument(
        "--beta",
        default=None,
        help="threshold interval literal (required for CSV, overrides JSON)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betacover",
        description="Interval-valued fuzzy beta-covering approximation spaces.",
    )
    parser.add_argument("--version", action="version", version=f"betacover {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the beta-covering condition")
    _common_flags(p)
    p.add_argument("space", help="space document path, or '-' for stdin")

    p = sub.add_parser("neighborhood", help="emit neighborhood artifacts per object")
    _common_flags(p)
    p.add_argument("space")
    p.add_argument(
        "--object",
        action="append",
        dest="objects",
        help="restrict to this object (repeatable; default: all)",
    )
    p.add_argument(
        "--matrix", action="store_true", help="include the full fuzzy grade matrix"
    )

    p = sub.add_parser("approximate", help="lower/upper approximations of a target set")
    _common_flags(p)
    p.add_argument("space")
    p.add_argument("--kind", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--mode", choices=("fuzzy", "crisp"), required=True)
    p.add_argument("--set", dest="set_path", required=True, help="target-set document path")

    p = sub.add_parser("audit", help="run the theorem audit over random spaces")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_parse_size, default=(3, 3), help="objects,parameters")
    p.add_argument("--grid", type=int, default=10, help="grid denominator")
    p.add_argument("--beta", default=None, help="fix beta instead of sampling it")
    p.add_argument(
        "--theorems",
        default="all",
        help="comma-separated theorem ids, or 'all'",
    )
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("gen-random", help="emit a random space document")
    p.add_argument("--size", type=_parse_size, default=(3, 3), help="objects,parameters")
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", default=None, help="fix beta instead of sampling it")

    return parser


def _cmd_validate(args) -> int:
    try:
        space = _load_space(args)
    except NotACoveringError as exc:
        failures = [
            {"object": obj, "attained": grade.text()} for obj, grade in exc.report.failures
        ]
        _emit(_envelope({"ok": False, "failures": failures}))
        return 2
    # Loading built a SoftSpace, so the covering condition holds.
    _emit(_envelope({"ok": True, "beta": space.beta.text(), "failures": []}))
    return 0


def _cmd_neighborhood(args) -> int:
    space = _load_space(args)
    ns = NeighborhoodSystem(space)
    objects = args.objects or list(space.universe.objects)
    entries = []
    for obj in objects:
        entries.append(
            {
                "object": obj,
                "fuzzy": set_to_doc(ns.fuzzy_neighborhood(obj))["grades"],
                "crisp": ns.crisp_neighborhood(obj).sorted_members(),
                "complementary_fuzzy": set_to_doc(
                    ns.complementary_fuzzy_neighborhood(obj)
                )["grades"],
                "complementary_crisp": ns.complementary_crisp_neighborhood(obj).sorted_members(),
                "empty_index_set": obj in ns.empty_index_objects,
            }
        )
    payload = {"beta": space.beta.text(), "neighborhoods": entries}
    if args.matrix:
        payload["matrix"] = ns.matrix_json()
    _emit(_envelope(payload))
    return 0


def _cmd_approximate(args) -> int:
    space = _load_space(args)
    target = parse_set(_read(args.set_path), space.universe)
    expected = IVFuzzySet if args.mode == "fuzzy" else CrispSubset
    if not isinstance(target, expected):
        raise BetacoverError(
            f"--mode {args.mode} does not match the {set_to_doc(target)['mode']} set document"
        )
    pair = approximate(space, args.kind, target)
    _emit(
        _envelope(
            {
                "kind": args.kind,
                "mode": args.mode,
                "lower": set_to_doc(pair.lower),
                "upper": set_to_doc(pair.upper),
                "definable": pair.definable,
            }
        )
    )
    return 0


def _cmd_audit(args) -> int:
    ids = None if args.theorems == "all" else [t for t in args.theorems.split(",") if t]
    report = run_audit(_gen_config(args), theorems=ids, trials=args.trials)
    _emit(report.to_doc(), out=args.out)
    if args.out:
        print(f"audit report written to {args.out}", file=sys.stderr)
    if not report.ok:
        print(
            "law failures: " + ", ".join(report.law_failures),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_gen_random(args) -> int:
    _emit(_envelope(space_to_doc(gen_space(_gen_config(args)))))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "neighborhood": _cmd_neighborhood,
    "approximate": _cmd_approximate,
    "audit": _cmd_audit,
    "gen-random": _cmd_gen_random,
}


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BetacoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, never a verdict: keep exit 1 for law failures
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
