"""Command-line driver: enumerate, check, zeta, rayclass, transfer, serre.

All input and output is JSON with sorted keys and integer-only payloads, so
identical invocations produce byte-identical reports.  Exit codes: 0 all
requested checks passed, 1 at least one failed, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

# the arithmetic half only: each Galois command imports the Galois half
# (groups, cmtypes, serre, cocycle, battery) when it runs, so that `cm
# rayclass` and `cm zeta` never compile it
from .errors import CMError
from .quadratic import (
    QuadField,
    canonical_weight_one_spec,
    parse_ideal,
    ray_class_group,
)
from .zeta import CurveSpec, verify_cm_zeta, verify_res_scalars

if TYPE_CHECKING:
    from .cmtypes import CMFieldHandle


class InputError(Exception):
    pass


def _load_field_file(path: str) -> CMFieldHandle:
    from .cmtypes import CMFieldHandle
    from .groups import make_group

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        group_spec = data["group"]
        if isinstance(group_spec, str):
            try:
                with open(group_spec) as fh:
                    group_spec = json.load(fh)
            except OSError as exc:
                raise InputError(f"cannot read {group_spec}: {exc}") from exc
        group = make_group(group_spec["table"], names=group_spec.get("names"))
        fixer = group.subgroup(data["H"])
        return CMFieldHandle(group=group, iota=data["iota"], fixer=fixer)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed field file {path}: {exc}") from exc
    except CMError as exc:
        raise InputError(f"invalid field data in {path}: {exc}") from exc


def _resolve_field(args) -> tuple[str, CMFieldHandle]:
    from .battery import BATTERY_NAMES, battery_field

    if getattr(args, "battery", None):
        if args.battery not in BATTERY_NAMES:
            raise InputError(
                f"unknown battery context {args.battery!r}; "
                f"choose from {', '.join(BATTERY_NAMES)}"
            )
        return args.battery, battery_field(args.battery)
    if getattr(args, "field_file", None):
        return args.field_file, _load_field_file(args.field_file)
    raise InputError("pass --battery NAME or a field file")


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def cmd_enumerate(args) -> int:
    from .cmtypes import enumerate_cm_types, is_primitive, reflex_type
    from .serre import mumford_tate_rank

    name, field = _resolve_field(args)
    types = []
    for cm_type in enumerate_cm_types(field):
        reflex = reflex_type(cm_type)
        types.append(
            {
                "phi": list(cm_type.cosets),
                "reflex_fixer": list(reflex.field.fixer.elements),
                "reflex_degree": reflex.field.degree,
                "reflex_type": list(reflex.cosets),
                "primitive": is_primitive(cm_type),
                "mt_rank": mumford_tate_rank(cm_type),
            }
        )
    _emit(
        {
            "field": name,
            "degree": field.degree,
            "cosets": [list(c) for c in field.cosets],
            "types": types,
        }
    )
    return 0


# --trials 10^4 takes about 2 s on --battery all (0.2 ms a trial) on 2 cores
MAX_TRIALS = 10**4


def cmd_check(args) -> int:
    from .battery import BATTERY_NAMES, battery_field, closure_of
    from .cocycle import cocycle_report
    from .serre import serre_report

    if not 0 <= args.trials <= MAX_TRIALS:
        raise InputError(f"--trials must be in 0..{MAX_TRIALS}, got {args.trials}")
    if args.battery == "all":
        names = list(BATTERY_NAMES)
    else:
        names = [args.battery]
        if args.battery not in BATTERY_NAMES:
            raise InputError(f"unknown battery context {args.battery!r}")
    suites = ("serre", "cocycle") if args.suite == "all" else (args.suite,)
    report = {"suite": args.suite, "seed": args.seed, "trials": args.trials, "fields": {}}
    failures = 0
    for name in names:
        field = battery_field(name)
        entry = {}
        if "serre" in suites:
            serre_part = {}
            if field.is_galois():
                serre_part["field"] = serre_report(field)
            else:
                serre_part["field"] = {"skipped": "field is not Galois over Q"}
            closure = closure_of(field)
            # a Galois field with trivial fixer is its own closure: one report
            serre_part["closure"] = (
                serre_part["field"] if closure is field else serre_report(closure)
            )
            entry["serre"] = serre_part
        if "cocycle" in suites:
            entry["cocycle"] = cocycle_report(field, trials=args.trials, seed=args.seed)
        report["fields"][name] = entry
        for part in entry.values():
            stack = [part]
            while stack:
                node = stack.pop()
                if isinstance(node, dict):
                    if node.get("passed") is False:
                        failures += 1
                    stack.extend(node.values())
                elif isinstance(node, list):
                    stack.extend(node)
    report["summary"] = {"failures": failures}
    _emit(report)
    return 0 if failures == 0 else 1


# the largest sweeps accepted; --pmax 10^5 takes 1.2-2.1 s in-process on a shared 2-core host
MAX_PMAX = 10**5
MAX_RES_SCALARS = 2000


def cmd_zeta(args) -> int:
    if not 3 <= args.pmax <= MAX_PMAX:
        raise InputError(f"--pmax must be in 3..{MAX_PMAX}, got {args.pmax}")
    if args.res_scalars < 0 or args.res_scalars in (1, 2) or args.res_scalars > MAX_RES_SCALARS:
        # 1 and 2 would check no odd prime
        raise InputError(
            f"--res-scalars must be 0 (off) or in 3..{MAX_RES_SCALARS}, got {args.res_scalars}"
        )
    try:
        a4_s, a6_s = args.curve.split(",")
        a4, a6 = int(a4_s), int(a6_s)
    except ValueError as exc:
        raise InputError(f"--curve expects 'a4,a6', got {args.curve!r}") from exc
    try:
        field = QuadField(args.d)
    except CMError as exc:
        raise InputError(str(exc)) from exc
    curve = CurveSpec(a4=a4, a6=a6, cm_field=field)
    spec = canonical_weight_one_spec(field)
    report = verify_cm_zeta(curve, spec, args.pmax)
    passed = report["passed"]
    if args.res_scalars:
        restriction = verify_res_scalars(curve, args.res_scalars)
        report["scalar_restriction"] = restriction
        passed = passed and restriction["passed"]
    if not args.verbose:
        report["primes"] = [e for e in report["primes"] if not e["match"]]
    _emit(report)
    return 0 if passed else 1


def cmd_rayclass(args) -> int:
    try:
        field = QuadField(args.d)
        modulus = parse_ideal(field, args.modulus)
    except (CMError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    rcg = ray_class_group(field, modulus)
    _emit(
        {
            "d": args.d,
            "modulus": modulus.to_json(),
            "modulus_norm": modulus.norm,
            "order": rcg.order,
            "structure": list(rcg.structure),
        }
    )
    return 0


def cmd_transfer(args) -> int:
    from .groups import abelianization, transfer

    name, field = _resolve_field(args)
    group = field.group
    sub = field.fixer
    if args.subgroup:
        try:
            sub = group.subgroup(json.loads(args.subgroup))
        except (ValueError, TypeError, CMError) as exc:
            raise InputError(f"bad --subgroup: {exc}") from exc
    quotient = abelianization(sub)
    if args.element is not None:
        if not 0 <= args.element < group.order:
            raise InputError(f"--element {args.element} out of range 0..{group.order - 1}")
        elements = [args.element]
    else:
        elements = list(group.elements())
    values = {
        str(g): list(transfer(group, sub, g, quotient=quotient)) for g in elements
    }
    _emit(
        {
            "field": name,
            "subgroup": list(sub.elements),
            "quotient_invariants": list(quotient.moduli),
            "transfer": values,
        }
    )
    return 0


def cmd_serre(args) -> int:
    from .battery import closure_of
    from .serre import serre_report

    name, field = _resolve_field(args)
    target = field if field.is_galois() else closure_of(field)
    note = None if field.is_galois() else "field not Galois; reporting its closure"
    report = {"field": name, "report": serre_report(target)}
    if note:
        report["note"] = note
    _emit(report)
    return 0 if report["report"]["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser main uses, built on its first call, as every build
    looks up a gettext translation for each help string."""
    parser = argparse.ArgumentParser(
        prog="cm",
        description="Exact checks for CM-type combinatorics, character "
        "lattices, transfer cocycles, and CM zeta factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list CM-types with reflex data")
    p_enum.add_argument("field_file", nargs="?", help="JSON field file")
    p_enum.add_argument("--battery", help="built-in context name")
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser("check", help="run identity suites")
    p_check.add_argument("--suite", choices=("serre", "cocycle", "all"), default="all")
    p_check.add_argument("--battery", default="all")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_zeta = sub.add_parser("zeta", help="compare counting and character factors")
    p_zeta.add_argument("--curve", required=True, help="a4,a6")
    p_zeta.add_argument("--d", type=int, required=True, help="CM field selector")
    p_zeta.add_argument("--pmax", type=int, default=1000)
    p_zeta.add_argument(
        "--res-scalars",
        type=int,
        default=0,
        metavar="PMAX",
        help="also run the scalar-restriction check up to PMAX",
    )
    p_zeta.add_argument("--verbose", action="store_true", help="list every prime")
    p_zeta.set_defaults(func=cmd_zeta)

    p_ray = sub.add_parser("rayclass", help="ray class group of a modulus")
    p_ray.add_argument("--d", type=int, required=True)
    p_ray.add_argument("--modulus", required=True, help="gen:a,b[^k] or hnf:n,c,d")
    p_ray.set_defaults(func=cmd_rayclass)

    p_tr = sub.add_parser("transfer", help="transfer values into a subgroup")
    p_tr.add_argument("field_file", nargs="?")
    p_tr.add_argument("--battery")
    p_tr.add_argument("--element", type=int, default=None)
    p_tr.add_argument("--subgroup", help="JSON list of element indices")
    p_tr.set_defaults(func=cmd_transfer)

    p_serre = sub.add_parser("serre", help="character-lattice report for a field")
    p_serre.add_argument("field_file", nargs="?")
    p_serre.add_argument("--battery")
    p_serre.set_defaults(func=cmd_serre)

    return parser


def _fuse_dash_values(argv: list[str]) -> list[str]:
    """Join '--flag -1,0' into '--flag=-1,0' so leading-dash values parse."""
    fused = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            tok in ("--curve", "--modulus", "--subgroup")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            fused.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            fused.append(tok)
    return fused


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_dash_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except (InputError, CMError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
