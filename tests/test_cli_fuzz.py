"""The CLI contract under random input: exit 0, 1 or 2, never a traceback.

Arguments are drawn for all six subcommands with small value ranges, as
``--flag=value`` or ``--flag value``, followed by noise: unknown flags,
repeated flags, help, stray positionals and a value flag with no value.
Field files from small tables (groups and non-groups), iota and H in and
out of range, and JSON values of the wrong type; raw field and group files
nested too deeply, with integers past the digit limit, cut off or not
UTF-8.  Ray class moduli from a generator stay at norm <= 1250 (entries up
to 25 in size), and from a Hermite basis at norm <= 64, or are powers so
large that they are refused (or units).
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cmcalc.cli import main

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; any exception escapes,
    SystemExit included: main returns 2 for every command-line error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


def _table(n, op):
    return [[op(a, b) for b in range(n)] for a in range(n)]


def _product(n1, n2, mul1, mul2):
    def mul(x, y):
        return mul1(x // n2, y // n2) * n2 + mul2(x % n2, y % n2)

    return _table(n1 * n2, mul)


def _cyclic(n):
    return lambda a, b: (a + b) % n


def _dihedral(n):
    def mul(x, y):
        a, e, b, f = x % n, x // n, y % n, y // n
        return ((a + b) % n + n * f) if e == 0 else ((a - b) % n + n * ((e + f) % 2))

    return mul


GROUP_TABLES = [_table(n, _cyclic(n)) for n in (1, 2, 3, 4, 6, 8)] + [
    _product(2, 2, _cyclic(2), _cyclic(2)),
    _product(2, 4, _cyclic(2), _cyclic(4)),
    _table(6, _dihedral(3)),
    _table(8, _dihedral(4)),
]


# C200 with one entry changed: not associative, above the order at which
# make_group once switched to sampling triples
BROKEN_C200 = _table(200, _cyclic(200))
BROKEN_C200[3][5] = 9


def _cyclic_subgroup(table, x):
    seen, y = [0], x
    while y not in seen:
        seen.append(y)
        y = table[y][x]
    return seen


small_int = st.integers(-3, 12)
wrong_type = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# well formed: a group, an involution (or any index) for iota, a cyclic H
well_formed = st.sampled_from(GROUP_TABLES).flatmap(
    lambda t: st.fixed_dictionaries(
        {
            "group": st.just({"table": t}),
            "iota": st.one_of(
                st.sampled_from([x for x in range(len(t)) if x and t[x][x] == 0] or [0]),
                st.integers(-1, len(t)),
            ),
            "H": st.integers(0, len(t) - 1).map(lambda x: _cyclic_subgroup(t, x)),
        }
    )
)
tables = st.one_of(
    st.sampled_from(GROUP_TABLES),
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-1, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.lists(st.lists(st.one_of(st.integers(0, 3), wrong_type), max_size=3), max_size=3),
    wrong_type,
)
malformed = st.fixed_dictionaries(
    {},
    optional={
        "group": st.one_of(st.fixed_dictionaries({"table": tables}), wrong_type),
        "iota": st.one_of(small_int, st.just(99), wrong_type),
        "H": st.one_of(st.lists(st.integers(-2, 10), max_size=4), wrong_type),
    },
)


@settings(FUZZ)
@given(
    data=st.one_of(well_formed, malformed),
    command=st.sampled_from(["enumerate", "transfer", "serre"]),
    element=st.one_of(st.none(), st.integers(-2, 10)),
    battery=st.one_of(st.none(), st.sampled_from(["C2", "C4", "Q8"])),
)
@example(
    data={"group": {"table": GROUP_TABLES[3]}, "iota": 99, "H": [0]},
    command="enumerate",
    element=None,
    battery=None,
)
@example(  # a battery and a file: refused, neither dropped
    data={"group": {"table": GROUP_TABLES[3]}, "iota": 2, "H": [0]},
    command="transfer",
    element=None,
    battery="C4",
)
@example(  # JSON Infinity: int() raises OverflowError, not ValueError
    data={"group": {"table": GROUP_TABLES[1]}, "iota": float("inf"), "H": [0]},
    command="serre",
    element=None,
    battery=None,
)
@example(
    data={"group": {"table": BROKEN_C200}, "iota": 100, "H": list(range(0, 200, 8))},
    command="enumerate",
    element=None,
    battery=None,
)
@example(  # the degenerate rational context: no CM-types to enumerate
    data={"group": {"table": [[0]]}, "H": [0], "iota": 0},
    command="enumerate",
    element=None,
    battery=None,
)
def test_field_files_keep_the_contract(data, command, element, battery):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "field.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)]
        if command == "transfer" and element is not None:
            argv += ["--element", str(element)]
        if battery is not None:
            argv += ["--battery", battery]
        assert_contract(argv)


# raw text that json.dumps never writes: nesting past the decoder's depth,
# integers past the digit limit, bytes that are not UTF-8, cut-off files
CUT = b'{"group": {"table": [[0, 1], [1, 0]]}, "iota": 1, "H": [0]}'
raw_values = st.one_of(
    st.sampled_from([1, 10, 900, 999, 1000, 5000, 100_000]).map(lambda n: b"[" * n + b"]" * n),
    st.integers(4290, 5000).map(lambda n: b"1" * n),
    st.binary(max_size=6),
    st.just(b"[0]"),
)
raw_fields = st.one_of(
    st.tuples(
        st.sampled_from([
            b"%s",
            b'{"group": {"table": [[0, 1], [1, 0]]}, "iota": %s, "H": [0]}',
            b'{"group": {"table": [[0, 1], [1, 0]]}, "iota": 1, "H": %s}',
            b'{"group": {"table": [[0, %s], [1, 0]]}, "iota": 1, "H": [0]}',
            b'{"group": "GROUP", "iota": 1, "H": [0]}',
        ]),
        raw_values,
    ),
    st.binary(max_size=40).map(lambda b: (b"%s", b)),
    st.integers(0, 60).map(lambda n: (b"%s", CUT[:n])),
)


@settings(FUZZ)
@given(field=raw_fields, command=st.sampled_from(["enumerate", "transfer", "serre"]))
@example(field=(b"%s", b"[" * 100_000 + b"]" * 100_000), command="enumerate")
@example(field=(b'{"group": "GROUP", "iota": 1, "H": [0]}', b"[" * 5000 + b"]" * 5000),
         command="serre")
@example(field=(b'{"group": {"table": [[0, 1], [1, 0]]}, "iota": %s, "H": [0]}', b"1" * 5000),
         command="transfer")
@example(field=(b"%s", b'{"group": "\xff"}'), command="enumerate")
def test_raw_field_files_keep_the_contract(field, command):
    template, value = field
    with tempfile.TemporaryDirectory() as tmp:
        path, group = pathlib.Path(tmp) / "field.json", pathlib.Path(tmp) / "group.json"
        group.write_bytes(value)
        path.write_bytes(template.replace(b"GROUP", str(group).encode()).replace(b"%s", value))
        assert_contract([command, str(path)])


def flag(name, values, present=1):
    """``--name=value`` or ``--name value`` for a drawn value, or nothing
    (about 1 in present + 1)."""
    return st.tuples(st.integers(0, present), st.booleans(), values).map(
        lambda p: () if p[0] == present
        else (f"--{name}={p[2]}",) if p[1] else (f"--{name}", str(p[2]))
    )


# after a command's own flags: unknown and abbreviated flags, flags repeated
# or of another command, help, a stray positional, a value flag last
noise = st.lists(
    st.sampled_from([
        "--bogus", "--bogus=1", "--ver", "--verbose=1", "-x", "-h", "--help", "extra.json",
        "--battery=C4", "--battery", "--d=-1", "--d", "--seed=2", "--trials=1", "--pmax=13",
        "--element", "--subgroup=[0]",
    ]),
    max_size=2,
)


batteries = st.sampled_from(["C2", "C4", "C2xC2", "C2xC4", "D4", "Q8", ""])
curves = st.one_of(
    st.tuples(st.integers(-4, 4), st.integers(-20, 20)).map(lambda c: f"{c[0]},{c[1]}"),
    st.text(max_size=4),
)
fields_d = st.sampled_from([-1, -2, -3, -7, -1, -2, -3, -7, -5, 0, 3])
moduli = st.one_of(
    st.tuples(
        st.integers(-25, 25),
        st.integers(-25, 25),
        st.one_of(st.none(), st.integers(-2, 1), st.integers(40, 10**7)),
    ).map(lambda m: f"gen:{m[0]},{m[1]}" + ("" if m[2] is None else f"^{m[2]}")),
    st.tuples(st.integers(-1, 8), st.integers(-1, 8), st.integers(-1, 8)).map(
        lambda m: "hnf:{},{},{}".format(*m)
    ),
    st.text(max_size=6),
)
subgroups = st.one_of(
    st.sampled_from(["[0]", "[0, 2]", "[0, 4]", "[0, 1, 2, 3]", "[0, 1, 2, 3, 4, 5, 6, 7]"]),
    st.lists(st.integers(-1, 9), max_size=4).map(json.dumps),
    st.text(max_size=4),
)
argvs = st.one_of(
    st.tuples(st.just("enumerate"), flag("battery", batteries)),
    st.tuples(st.sampled_from([(), "", "frobnicate", "-h", "--help", "--d"])),
    st.tuples(
        st.just("check"),
        flag("suite", st.sampled_from(["serre", "cocycle", "all", "x"])),
        flag("battery", st.one_of(batteries, st.just("all"))),
        flag("trials", st.integers(-2, 3)),
        flag("seed", st.integers(-5, 5)),
    ),
    st.tuples(
        st.just("zeta"),
        flag("curve", curves, present=4),
        flag("d", fields_d, present=4),
        flag("pmax", st.integers(-5, 200)),
        flag("res-scalars", st.integers(-2, 60)),
        st.sampled_from([(), ("--verbose",)]),
    ),
    st.tuples(
        st.just("rayclass"), flag("d", fields_d, present=4), flag("modulus", moduli, present=4)
    ),
    st.tuples(
        st.just("transfer"),
        flag("battery", batteries),
        flag("element", st.integers(-2, 10)),
        flag("subgroup", subgroups),
    ),
    st.tuples(st.just("serre"), flag("battery", batteries)),
)


@settings(FUZZ)
@given(argv=argvs, extra=noise)
@example(argv=("zeta", "--curve=0,1000000007", "--d=-3", "--pmax=50"), extra=[])  # |disc| ~ 4e20
@example(argv=("zeta", ("--curve", "-1,0"), ("--d", "-1"), ("--pmax", "13")), extra=["--d"])
def test_arguments_keep_the_contract(argv, extra):
    assert_contract([tok for part in argv for tok in ((part,) if type(part) is str else part)]
                    + extra)
