"""The CLI contract under random input: exit 0, 1 or 2, never a traceback.

Arguments are drawn for all six subcommands with small value ranges, and
field files from small tables (groups and non-groups), iota and H in and
out of range, and JSON values of the wrong type.  Ray class moduli from a
generator stay at norm <= 1250 (entries up to 25 in size), and from a
Hermite basis at norm <= 64, or are powers so large that they are refused
(or units).
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
    """Exit code and stderr of one in-process run; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
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
)
@example(
    data={"group": {"table": GROUP_TABLES[3]}, "iota": 99, "H": [0]},
    command="enumerate",
    element=None,
)
@example(  # JSON Infinity: int() raises OverflowError, not ValueError
    data={"group": {"table": GROUP_TABLES[1]}, "iota": float("inf"), "H": [0]},
    command="serre",
    element=None,
)
@example(
    data={"group": {"table": BROKEN_C200}, "iota": 100, "H": list(range(0, 200, 8))},
    command="enumerate",
    element=None,
)
@example(  # the degenerate rational context: no CM-types to enumerate
    data={"group": {"table": [[0]]}, "H": [0], "iota": 0},
    command="enumerate",
    element=None,
)
def test_field_files_keep_the_contract(data, command, element):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "field.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)]
        if command == "transfer" and element is not None:
            argv += ["--element", str(element)]
        assert_contract(argv)


def flag(name, values, present=1):
    """``--name=value`` for a drawn value, or nothing (about 1 in present + 1)."""
    return st.tuples(st.integers(0, present), values).map(
        lambda p: None if p[0] == present else f"--{name}={p[1]}"
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
        st.sampled_from([None, "--verbose"]),
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
@given(argv=argvs)
@example(argv=("zeta", "--curve=0,1000000007", "--d=-3", "--pmax=50"))  # |disc| ~ 4e20
def test_arguments_keep_the_contract(argv):
    assert_contract([a for a in argv if a is not None])
