"""Static guards over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cmcalc"


def test_no_assert_statements():
    # `python -O` strips asserts, so every gate must be an explicit raise
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.rglob("*.py")), SRC
    assert found == []


def test_no_module_caches_in_galois_layers():
    # caches keyed by groups, fields or types rehash whole Cayley tables on
    # every hit and never let go; field handles own their tables instead
    names = {"cache", "lru_cache"}
    found = []
    for name in ("groups.py", "cmtypes.py", "serre.py", "cocycle.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    label = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if label in names:
                        found.append(f"{name}:{node.lineno} {node.name}")
    assert found == []


def test_serre_actions_are_not_matrices():
    # lattice actions are the handle's coset permutations, applied by
    # reindexing: no la.* call in serre.py takes an action as a matrix
    path = SRC / "serre.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "la"
        ):
            continue
        for arg in node.args + [kw.value for kw in node.keywords]:
            if (
                isinstance(arg, ast.Subscript)
                and isinstance(arg.value, ast.Attribute)
                and arg.value.attr in ("action", "act_table")
            ):
                found.append(f"serre.py:{node.lineno} la.{node.func.attr}")
    assert found == []


def test_quadratic_ideals_come_from_generators():
    # ideals are built in closed form: only the Hermite oracle and the ray
    # class presenter reach intlinalg, no library code calls the oracle, and
    # ideals carry no general sum, product or power
    path = SRC / "quadratic.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "la"
                ):
                    callers.add(fn.name)
    assert callers == {"ideal_from_elements", "ray_class_group"}
    ideal = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "QuadIdeal")
    methods = {n.name for n in ideal.body if isinstance(n, ast.FunctionDef)}
    assert not methods & {"__add__", "__mul__", "__pow__"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ideal_from_elements":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_ray_class_group_builds_no_elements():
    # the presenter multiplies residue pairs in the modulus's own ring: no
    # QuadInt, principal ideal or ideal sum per residue or per Cayley edge
    path = SRC / "quadratic.py"
    fn = next(
        n for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(n, ast.FunctionDef) and n.name == "ray_class_group"
    )
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(fn) if isinstance(node, ast.Call)
    }
    assert "present_abelian" in called
    assert called & {"element", "ideal_from_generator", "is_coprime", "QuadInt"} == set()


def test_zeta_has_one_point_counter():
    # the Hasse count falls back to one symbol sum over its own field
    # arithmetic; the hand-expanded sums and the naive enumeration are test
    # oracles, and no counter takes a fallback callable
    path = SRC / "zeta.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    names = {fn.name for fn in functions}
    assert not names & {"_count_fp", "_count_fp2", "legendre_table", "count_points_naive"}
    callers = set()
    for fn in functions:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "elements"
            ):
                callers.add(fn.name)
    assert callers == {"_symbol_sum"}
    hasse = next(fn for fn in functions if fn.name == "_hasse_count")
    assert ast.unparse(hasse.args) == "field, a4, a6"


def test_one_closure_walk():
    # every finite-group closure goes through intlinalg.closure: no other
    # function in these modules binds a frontier of its own
    found = set()
    for name in ("groups.py", "intlinalg.py", "cocycle.py"):
        path = SRC / name
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Name)
                        and node.id == "frontier"
                        and isinstance(node.ctx, ast.Store)
                    ):
                        found.add(f"{name}:{fn.name}")
    assert found == {"intlinalg.py:closure"}


def test_cocycle_sweeps_read_tables(monkeypatch):
    # the sweeps compare value codes and take sums from the quotient's sum
    # table, never from per-comparison calls; the cocycle law and the transfer
    # identity are linear in the type and read only the factor table: no value
    # rows and no type translation, so no pass over the types when they hold.
    # Representative independence is certified on the iota-pairs, and only a
    # system that fails builds value rows: none when every system passes
    sweeps = {
        "check_cocycle_law",
        "check_transfer_identity",
        "check_rep_independence",
        "_rep_independence",
        "value_rows",
    }
    closed_forms = {"check_cocycle_law", "check_transfer_identity"}
    banned = {"translate_left", "validate_cm_type", "taniyama_cocycle", "add"}
    path = SRC / "cocycle.py"
    seen, found = set(), []
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, ast.FunctionDef) and fn.name in sweeps:
            seen.add(fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in banned or (fn.name in closed_forms and name == "value_rows"):
                        found.append(f"cocycle.py:{node.lineno} {fn.name} calls {name}")
                elif isinstance(node, ast.Attribute) and node.attr == "type_translation":
                    if fn.name in closed_forms:
                        found.append(f"cocycle.py:{node.lineno} {fn.name} reads type_translation")
    assert seen == sweeps
    assert found == []
    from cmcalc import cocycle
    from cmcalc.battery import battery_field

    def refuse(self, choices):
        raise AssertionError("value rows built on the pass path")

    monkeypatch.setattr(cocycle.WSystem, "value_rows", refuse)
    for name in ("C2xC4", "D4"):
        field = battery_field(name)
        assert cocycle.cocycle_report(field, trials=5, seed=1)["passed"]
        assert cocycle.check_rep_independence(field.cm_types[0], trials=5)["passed"]


def test_lattice_certificates_on_generators():
    # lattices and maps built from a field handle certify on the group's
    # generators: no certificate walks the group's elements or enumerates an
    # action (a bare action, with no group, is walked by range(len(action)))
    path = SRC / "serre.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"CharLattice", "LatticeMap", "reciprocity_cocharacter"}
    defs = [n for n in ast.walk(tree) if getattr(n, "name", None) in names]
    found = []
    for node in (n for d in defs for n in ast.walk(d) if isinstance(n, ast.Call)):
        text = ast.unparse(node)
        if text.startswith("enumerate(") or text.endswith(".elements()"):
            found.append(f"serre.py:{node.lineno} {text}")
        elif text.startswith("range(") and text.endswith(".order)"):
            found.append(f"serre.py:{node.lineno} {text}")
    assert {d.name for d in defs} == names
    assert found == []


def test_generation_builds_no_type_sweep():
    # check_cm_type_generation takes phi_0 and its g single-pair flips, so it
    # enumerates no CM-types and builds no cocharacter per type
    path = SRC / "serre.py"
    fn = next(
        n for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(n, ast.FunctionDef) and n.name == "check_cm_type_generation"
    )
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(fn) if isinstance(node, ast.Call)
    }
    assert "hnf_basis" in called
    assert called & {"enumerate_cm_types", "type_cocharacter"} == set()


def test_reflex_check_in_ambient_group():
    # the reflex check takes each transfer in the ambient group: no stabilizer
    # is rebuilt as a group of its own
    path = SRC / "cocycle.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert names & {"make_group", "as_group"} == set()


def test_report_shares_reflex_work():
    # cocycle_report reads every stabilizer from the translation table and
    # checks each stabilizer orbit once, so it runs no per-type reflex check
    path = SRC / "cocycle.py"
    report = next(
        fn for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef) and fn.name == "cocycle_report"
    )
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(report) if isinstance(node, ast.Call)
    }
    assert "_reflex_report" in called
    assert called & {"stabilizer", "check_reflex_compatibility"} == set()


def test_serre_reflex_norms_in_one_pass():
    # check_reflex_norms builds the closure reflex norms once for both
    # identities, and reflex_norm_map tests containment on the fixer's
    # generators: serre.py neither imports nor calls stabilizer
    path = SRC / "serre.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    closure_calls, callers, names = [], set(), set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "reflex_norm_map":
                    callers.add(fn.name)
                    if ast.unparse(node.args[1]).endswith("closure"):
                        closure_calls.append(fn.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert callers == {"mumford_tate_rank", "check_reflex_norms"}
    assert closure_calls == ["mumford_tate_rank", "check_reflex_norms"]
    assert "stabilizer" not in names


def test_reflex_norms_on_spanning_types():
    # check_reflex_norms loops over spanning types, generators and subfields:
    # nothing it iterates is the list of all types or the group's elements
    path = SRC / "serre.py"
    fn = next(
        n for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(n, ast.FunctionDef) and n.name == "check_reflex_norms"
    )
    loops = [
        ast.unparse(node.iter) for node in ast.walk(fn)
        if isinstance(node, (ast.For, ast.comprehension))
    ]
    assert "group.generators" in loops
    assert [
        text for text in loops
        if text in ("types", "enumerate(types)")
        or text.endswith((".elements()", ".cm_types", ".type_translation"))
    ] == []


def test_no_walk_over_all_subgroups():
    # primitivity reads the right stabilizer of the type's preimage and the
    # norm triangle walks the normal subgroups: no module walks every
    # subgroup, and check_reflex_norms reads no table over all types
    texts = {path.name: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    assert [
        name for name, text in texts.items()
        if "subgroups_containing" in text or "cm_subfields" in text
    ] == []
    assert "type_translation" not in texts["serre.py"]
    assert "enumerate_cm_types" not in texts["serre.py"]
    fn = next(
        n for n in ast.walk(ast.parse(texts["cmtypes.py"]))
        if isinstance(n, ast.FunctionDef) and n.name == "is_primitive"
    )
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(fn) if isinstance(node, ast.Call)
    }
    assert called & {"restricts_to", "subgroup_generated", "normal_subgroups", "induce"} == set()


def test_cli_parser_built_once():
    # main parses with the cached build_parser and builds no parser itself
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    decorators = [ast.unparse(d) for d in functions["build_parser"].decorator_list]
    assert decorators == ["functools.cache"]
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(functions["main"]) if isinstance(node, ast.Call)
    }
    assert "build_parser" in called and "ArgumentParser" not in called


def test_records_on_one_base_without_dataclasses():
    # dataclasses generates and exec's methods at import (and loads inspect);
    # every record is a plain class on errors.Record instead
    imports, records, bases, defined = [], [], {}, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [f"{path.name}:{a.name}" for a in node.names if a.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                imports.append(f"{path.name}:{node.module}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors":
                if "Record" in [a.name for a in node.names]:
                    records.append(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "Record":
                defined.append(path.name)
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(s).startswith("_fields")
                for s in node.body if isinstance(s, (ast.Assign, ast.AnnAssign))
            ):
                bases[f"{path.name}:{node.name}"] = [ast.unparse(b) for b in node.bases]
    assert imports == [] and defined == ["errors.py"]
    assert len(bases) == 17 and {tuple(b) for b in bases.values()} == {("Record",)}
    assert {name.split(":")[0] for name in bases} == set(records)
