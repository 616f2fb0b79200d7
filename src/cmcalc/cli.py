"""Command-line driver: enumerate, check, zeta, rayclass, transfer, serre.

All input and output is JSON with sorted keys and integer-only payloads, so
identical invocations produce byte-identical reports.  One table, COMMANDS,
declares each command's flags, given as `--flag value` or `--flag=value` and
never abbreviated.  Exit codes: 0 all requested checks passed, 1 at least one
failed, 2 input error, the command line's included, printed as `error: ...`.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

# the arithmetic half only: each Galois command imports the Galois half
# (groups, cmtypes, serre, cocycle, battery) when it runs, so that `cm
# rayclass` and `cm zeta` never compile it
from .errors import CMError
from .quadratic import QuadField, canonical_weight_one_spec, parse_ideal, ray_class_group
from .zeta import CurveSpec, verify_cm_zeta, verify_res_scalars

if TYPE_CHECKING:
    from .cmtypes import CMFieldHandle


class InputError(Exception):
    pass


def _read_json(name: str, text: str | None = None):
    """The JSON value of ``text``, or else of the file ``name``.  InputError when the file is
    unreadable, or the JSON malformed, not UTF-8, past the digit limit or too deeply nested."""
    try:
        if text is None:
            with open(name, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{name}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{name}: {exc}") from exc


def _load_field_file(path: str) -> CMFieldHandle:
    from .cmtypes import CMFieldHandle
    from .groups import make_group

    data = _read_json(path)
    try:
        group_spec = data["group"]
        if isinstance(group_spec, str):
            group_spec = _read_json(group_spec)
        group = make_group(group_spec["table"], names=group_spec.get("names"))
        fixer = group.subgroup(data["H"])
        return CMFieldHandle(group=group, iota=data["iota"], fixer=fixer)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed field file {path}: {exc}") from exc
    except CMError as exc:
        raise InputError(f"invalid field data in {path}: {exc}") from exc


def _resolve_field(args) -> tuple[str, CMFieldHandle]:
    from .battery import BATTERY_NAMES, battery_field

    if (args.battery is None) == (args.field_file is None):
        both = "" if args.battery is None else ", not both"
        raise InputError(f"pass --battery NAME or a field file{both}")
    if args.field_file is not None:
        return args.field_file, _load_field_file(args.field_file)
    if args.battery not in BATTERY_NAMES:
        raise InputError(
            f"unknown battery context {args.battery!r}; "
            f"choose from {', '.join(BATTERY_NAMES)}"
        )
    return args.battery, battery_field(args.battery)


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
            sub = group.subgroup(_read_json("--subgroup", args.subgroup))
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


REQUIRED = object()  # the default of a flag that must be given

# command -> (takes a field file, {flag: (kind, default)}, handler, help); a
# kind is int, str, a tuple of choices, or bool for a flag that takes no value
COMMANDS = {
    "enumerate": (True, {"--battery": (str, None)}, cmd_enumerate,
                  "list CM-types with reflex data"),
    "check": (False, {"--suite": (("serre", "cocycle", "all"), "all"), "--battery": (str, "all"),
                      "--trials": (int, 100), "--seed": (int, 0)}, cmd_check, "run identity suites"),
    "zeta": (False, {"--curve": (str, REQUIRED), "--d": (int, REQUIRED), "--pmax": (int, 1000),
                     "--res-scalars": (int, 0), "--verbose": (bool, False)}, cmd_zeta,
             "compare counting and character factors"),
    "rayclass": (False, {"--d": (int, REQUIRED), "--modulus": (str, REQUIRED)}, cmd_rayclass,
                 "ray class group of a modulus"),
    "transfer": (True, {"--battery": (str, None), "--element": (int, None),
                        "--subgroup": (str, None)}, cmd_transfer, "transfer values into a subgroup"),
    "serre": (True, {"--battery": (str, None)}, cmd_serre, "character-lattice report for a field"),
}


def usage(command: str | None) -> str:
    """The usage of one command, or of every command, read from COMMANDS."""
    lines = ["usage (--flag value or --flag=value; flags are not abbreviated):"]
    for name in [command] if command else COMMANDS:
        takes_file, flags, _, text = COMMANDS[name]
        words = [f"  cm {name}"] + ["[FIELD_FILE]"] * takes_file
        for flag, (kind, default) in flags.items():
            meta = "{%s}" % ",".join(kind) if type(kind) is tuple else kind.__name__.upper()
            word = flag if kind is bool else f"{flag} {meta}"
            words.append(word if default is REQUIRED else f"[{word}]")
        lines += [" ".join(words), f"      {text}"]
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command line as the handlers read it: ``command``, ``help``,
    ``field_file`` and one attribute per flag of the command (``--res-scalars``
    as ``res_scalars``).  The token after a value flag is its value, leading
    dash or not.  Raises InputError on any error."""
    command, *rest = argv or [None]
    if command in ("-h", "--help"):
        return SimpleNamespace(command=None, help=True)
    if command not in COMMANDS:
        got = f"unknown command {command!r}" if argv else "no command"
        raise InputError(f"{got}; choose from {', '.join(COMMANDS)}")
    tokens = iter(rest)
    takes_file, flags, _, _ = COMMANDS[command]
    values = {"command": command, "help": False, "field_file": None}
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(command=command, help=True)
        if not token.startswith("-"):
            if not takes_file or values["field_file"] is not None:
                raise InputError(f"{command}: unexpected argument {token!r}")
            values["field_file"] = token
            continue
        name, eq, value = token.partition("=")
        if name not in flags or eq and flags[name][0] is bool:
            raise InputError(f"{command}: unknown flag {token!r}")
        kind = flags[name][0]
        if kind is bool:
            value = True
        elif not eq and (value := next(tokens, None)) is None:
            raise InputError(f"{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"{name} expects an integer, got {value!r}") from None
        elif type(kind) is tuple and value not in kind:
            raise InputError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        values[name[2:].replace("-", "_")] = value
    for name, (_, default) in flags.items():
        if values.setdefault(name[2:].replace("-", "_"), default) is REQUIRED:
            raise InputError(f"{command} needs {name}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        if args.help:
            sys.stdout.write(usage(args.command))
            return 0
        return COMMANDS[args.command][2](args)
    except (InputError, CMError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
