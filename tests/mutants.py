"""Mutation runner: weaken one gate of the library in a copy of src/ and
check that the tier-1 tests named for it then fail.

Each mutant names a file under src/cmcalc, an exact source snippet that
must occur there exactly once, its replacement and the pytest node ids
expected to fail.  For each mutant the runner copies src/ to a temporary
directory, applies the one replacement and runs the node ids against the
copy in a subprocess (the copy first on PYTHONPATH).  The mutant is killed
when pytest reports a failing test, and survives when the tests pass.
Before the mutants, the node ids of every selected mutant run once against
an unmodified copy, which must pass.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named mutants

It prints killed or survived per mutant and exits 1 if a mutant survives,
a snippet does not occur exactly once, or a run errs.  tests/test_mutants.py
checks the snippets in tier-1; the full run is this separate command.  A
change that moves a gate moves its mutant too, and a new gate adds one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/cmcalc
    snippet: str
    replacement: str
    tests: tuple[str, ...]


COCYCLE = "tests/test_cocycle.py"
CORRUPTED = f"{COCYCLE}::TestTables::test_corrupted_factor_matches_oracle"
GENERATION = "tests/test_serre.py::TestGenerationClosedForm::test_matches_exhaustive_oracle"
SHARING = "tests/test_serre.py::TestReportSharing"
CERTIFICATES = "tests/test_serre.py::TestGeneratorCertificates"
WALK = "tests/test_serre.py::TestWithoutSubgroupWalk"
INDEPENDENCE = f"{COCYCLE}::TestRepIndependenceClosedForm"
GENERATOR_CHECKS = "tests/test_groups.py::TestGeneratorChecks"
FOOTPRINT = "tests/test_import_footprint.py"
PRESENTER = "tests/test_presenter.py"
RAYCLASS = "tests/test_quadratic.py::TestRayClass"
RECORDS = "tests/test_records.py"
PARSER = "tests/test_cli.py::TestParser"

MUTANTS = (
    # the closed forms of the cocycle law, the transfer identity and generation
    Mutant(
        "factor_law_disabled", "cocycle.py",
        "if row[x] != shift[moved[s]])", "if False)",
        (CORRUPTED,),
    ),
    Mutant(
        "law_witnesses_skipped", "cocycle.py",
        "types = enumerate_cm_types(field) if bad else ()\n    failures = [\n"
        '        {"type": list(phi), "sigma": sigma, "tau": tau}',
        "types = ()\n    failures = [\n"
        '        {"type": list(phi), "sigma": sigma, "tau": tau}',
        (CORRUPTED,),
    ),
    Mutant(
        "transfer_comparison_disabled", "cocycle.py",
        "if wsys.value(tau, range(field.degree)) != t]", "if False]",
        (CORRUPTED,),
    ),
    Mutant(
        "generation_last_flip_dropped", "cmtypes.py",
        "for k, (_, d) in enumerate(field.iota_pairs):",
        "for k, (_, d) in enumerate(field.iota_pairs[:-1]):",
        (GENERATION,),
    ),
    Mutant(
        "generation_phi0_dropped", "cmtypes.py",
        "    out = {0: CMType(field, tuple(first))}\n", "    out = {}\n",
        (GENERATION,),
    ),
    Mutant(
        "value_drops_a_coset", "cocycle.py",
        "sum(row[c][i] for c in cosets)", "sum(row[c][i] for c in list(cosets)[1:])",
        (f"{COCYCLE}::TestIdentities::test_transfer_identity",),
    ),
    Mutant(
        "orbit_drops_a_coset", "cocycle.py",
        "verdicts.append(wsys.value(tau, orbit) ==",
        "verdicts.append(wsys.value(tau, orbit[1:]) ==",
        (f"{COCYCLE}::TestTables::test_reflex_matches_oracle",),
    ),
    Mutant(
        "factor_not_in_h_gate", "cocycle.py",
        "if factor not in field.fixer:", "if False:",
        (f"{COCYCLE}::TestNegativeControl::test_representative_outside_its_coset_raises",),
    ),
    # int gates of the constructors
    Mutant(
        "handle_iota_int_gate", "cmtypes.py",
        "if type(self.iota) is not int:", "if False:",
        ("tests/test_cmtypes.py::TestHandleValidation::test_iota_must_be_int",),
    ),
    Mutant(
        "wsystem_int_gate", "cocycle.py",
        "if type(w) is not int:", "if False:",
        (f"{COCYCLE}::TestWSystems::test_non_int_representative_rejected",),
    ),
    Mutant(
        "quadfield_int_gate", "quadratic.py",
        "if type(self.d) is not int:", "if False:",
        ("tests/test_quadratic.py::TestField::test_d_must_be_int",),
    ),
    Mutant(
        "quadideal_int_gate", "quadratic.py",
        "if type(self.n) is not int or type(self.c) is not int or type(self.d) is not int:",
        "if False:",
        ("tests/test_quadratic.py::TestIdeals::test_basis_must_be_int",),
    ),
    Mutant(
        "curvespec_int_gate", "zeta.py",
        "if type(self.a4) is not int or type(self.a6) is not int:", "if False:",
        ("tests/test_zeta.py::TestCurveSpec::test_coefficients_must_be_int",),
    ),
    Mutant(
        "transfer_product_element_gate", "groups.py",
        "if type(g) is not int or not 0 <= g < group.order:", "if False:",
        ("tests/test_groups.py::TestTransfer::test_element_outside_group_rejected",),
    ),
    Mutant(
        "validate_cm_type_int_gate", "cmtypes.py",
        "if type(c) is not int:", "if False:",
        ("tests/test_cmtypes.py::TestValidation::test_non_integer_cosets_refused",),
    ),
    Mutant(
        "quadint_int_gate", "quadratic.py",
        "if type(a) is not int or type(b) is not int:", "if False:",
        ("tests/test_quadratic.py::TestElements::test_coordinates_must_be_int",),
    ),
    Mutant(
        "hecke_exponent_int_gate", "quadratic.py",
        "if type(e) is not int:", "if False:",
        ("tests/test_quadratic.py::TestHecke::test_exponents_must_be_int",),
    ),
    # the record base: immutable, compared within one class, over every field
    Mutant(
        "record_setattr_assigns", "errors.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        (f"{RECORDS}::TestContract::test_assignment_and_deletion_refused",),
    ),
    Mutant(
        "record_eq_without_class_check", "errors.py",
        "if other.__class__ is self.__class__:", "if isinstance(other, Record):",
        (f"{RECORDS}::TestContract::test_other_class_with_equal_fields_is_unequal",),
    ),
    Mutant(
        "quadideal_fields_without_d", "quadratic.py",
        '_fields = ("field", "n", "c", "d")', '_fields = ("field", "n", "c")',
        (f"{RECORDS}::test_reprs_as_the_dataclasses_printed",),
    ),
    # the reflex norms and the CLI parser
    Mutant(
        "containment_on_first_generator", "serre.py",
        "for h in e_field.fixer.generators:\n        if not all(",
        "for h in e_field.fixer.generators[:1]:\n        if not all(",
        ("tests/test_serre.py::TestReflexNorm::test_no_solution_exactly_outside_stabilizer",),
    ),
    Mutant(
        "translation_comparison_disabled", "serre.py",
        "if matrices[image.cosets] != _permute(matrices[phi.cosets], rights[tau])",
        "if False",
        (f"{SHARING}::test_corrupted_closure_map_fails_translation",),
    ),
    Mutant(
        "through_subfield_comparison_disabled", "serre.py",
        "if la.mat_mul(norm, reflex_norm_map(t, e2).matrix) != matrices[t.cosets]", "if False",
        (f"{SHARING}::test_corrupted_subfield_map_fails_triangle",),
    ),
    # the reflex norm identities on spanning types and generators
    Mutant(
        "translation_on_first_generator", "serre.py",
        "for tau in group.generators}", "for tau in group.generators[:1]}",
        (f"{SHARING}::test_corrupted_closure_map_fails_translation",),
    ),
    Mutant(
        "reflex_spanning_last_flip_dropped", "serre.py",
        "field.closure, spanning_types(field).values()\n",
        "field.closure, list(spanning_types(field).values())[:-1]\n",
        (f"{SHARING}::test_corrupted_closure_map_fails_translation",),
    ),
    Mutant(
        "translate_gate_removed", "serre.py",
        "except NotACMType:  # the tables are corrupt", "except InternalInconsistency:  #",
        (f"{COCYCLE}::TestTables::test_split_iota_pair_raises",),
    ),
    # primitivity and the norm triangle without the all-subgroups walk
    Mutant(
        "primitivity_from_left_stabilizer", "cmtypes.py",
        "all(group.mul(x, s) in lifted", "all(group.mul(s, x) in lifted",
        (f"{WALK}::test_primitivity_matches_restriction_oracle",),
    ),
    Mutant(
        "normal_walk_joins_class_representative", "groups.py",
        "{x: [] for x in elements}, cls)", "{x: [] for x in elements}, cls[:1])",
        (f"{WALK}::test_normal_walk_matches_filtered_walk",),
    ),
    Mutant(
        "normal_join_from_identity", "groups.py",
        "closure(group.mul, {x: [] for x in elements}, cls)",
        "closure(group.mul, {group.identity: []}, cls)",
        (f"{WALK}::test_normal_walk_matches_filtered_walk",),
    ),
    Mutant(
        "subfield_check_on_phi0_only", "serre.py",
        "for t in spanning_types(k_cut).values()]",
        "for t in list(spanning_types(k_cut).values())[:1]]",
        (f"{SHARING}::test_corrupted_subfield_map_fails_triangle",),
    ),
    Mutant(
        "pairs_checked_off_by_one", "serre.py",
        "checked += 2**k_cut.half_degree", "checked += 2**k_cut.half_degree + 1",
        (f"{SHARING}::test_report_matches_public_checks",),
    ),
    Mutant(
        "degenerate_gate_removed", "cmtypes.py",
        '            raise NotACMType("degenerate rational context carries no CM-types")\n',
        "            pass\n",
        (
            "tests/test_cmtypes.py::TestHandleValidation::test_rational_context_carries_no_types",
            "tests/test_cli.py::TestEnumerate::test_one_element_field_file",
        ),
    ),
    Mutant(
        "reflex_pool_gate_disabled", "cmtypes.py",
        "if covered != sorted(pool):", "if False:",
        ("tests/test_cmtypes.py::TestReflex::test_pool_off_the_reflex_cosets_refused",),
    ),
    Mutant(
        "require_nested_on_first_generator", "cmtypes.py",
        "for h in big.fixer.generators)", "for h in big.fixer.generators[:1])",
        ("tests/test_cmtypes.py::TestInductionRestriction::test_require_nested_on_every_generator",),
    ),
    # the lattice certificates on the group's generators
    Mutant(
        "stability_on_first_generator", "serre.py",
        "for g in self.group.generators:", "for g in self.group.generators[:1]:",
        (f"{CERTIFICATES}::test_stable_under_one_generator_only_refused",),
    ),
    Mutant(
        "equivariance_on_first_generator", "serre.py",
        "for g in source.group.generators:", "for g in source.group.generators[:1]:",
        (f"{CERTIFICATES}::test_equivariant_under_one_generator_only_refused",),
    ),
    Mutant(
        "map_group_gate_removed", "serre.py",
        "if source.group != target.group:", "if False:",
        (f"{CERTIFICATES}::test_map_between_two_groups_refused",),
    ),
    Mutant(
        "landing_test_dropped", "serre.py",
        "if not la.rows_in_span(target.basis, la.transpose(pushed)):", "if False:",
        (f"{CERTIFICATES}::test_map_off_the_target_refused",),
    ),
    Mutant(
        "reciprocity_fixer_on_first_generator", "serre.py",
        "for h in e_field.fixer.generators:\n        if not mu.same_on_lattice(",
        "for h in e_field.fixer.generators[:1]:\n        if not mu.same_on_lattice(",
        (f"{CERTIFICATES}::test_reciprocity_fixer_on_every_generator",),
    ),
    Mutant(
        "reciprocity_group_gate_removed", "serre.py",
        "if t_lattice.group != e_field.group:", "if False:",
        ("tests/test_serre.py::TestReciprocity::test_lattice_of_another_group_rejected",),
    ),
    # representative independence on the iota-pairs
    Mutant(
        "pair_condition_dropped", "cocycle.py",
        "sums[u][v] == sums[y][z]", "True",
        (f"{INDEPENDENCE}::test_pair_condition_only",),
    ),
    Mutant(
        "phi0_condition_dropped", "cocycle.py",
        ") and first_sum(mine) == base_sum:", "):",
        (f"{INDEPENDENCE}::test_phi0_condition_only",),
    ),
    Mutant(
        "witness_fallback_skipped", "cocycle.py",
        "zip(baseline, wsys.value_rows(choices), failures)", "zip(baseline, baseline, failures)",
        (f"{INDEPENDENCE}::test_broken_extra_system_whole_report",),
    ),
    Mutant(
        "wsystem_int_gate_after_pairing", "cocycle.py",
        "        for w in self.reps:  # all of them before the pairing reads reps[iota c]\n"
        "            if type(w) is not int:\n"
        '                raise NotAnInteger(f"representative {w!r} is not an integer", witness=w)\n'
        "        for c, w in enumerate(self.reps):\n",
        "        for c, w in enumerate(self.reps):\n"
        "            if self.reps[field.act(field.iota, c)] != g.mul(field.iota, w):\n"
        '                raise CMError(f"conjugation constraint fails at coset {c}")\n'
        "            if type(w) is not int:\n"
        '                raise NotAnInteger(f"representative {w!r} is not an integer", witness=w)\n',
        (f"{COCYCLE}::TestWSystems::test_int_gate_before_pairing",),
    ),
    # the command line: one table, its gates and the field it names
    Mutant(
        "required_flag_check_skipped", "cli.py",
        "        if values.setdefault(name[2:].replace(\"-\", \"_\"), default) is REQUIRED:\n"
        "            raise InputError(f\"{command} needs {name}\")\n",
        "        values.setdefault(name[2:].replace(\"-\", \"_\"), default)\n",
        (f"{PARSER}::test_errors_exit_two",),
    ),
    Mutant(
        "int_conversion_skipped", "cli.py",
        "value = int(value)", "value = value",
        (f"{PARSER}::test_both_value_forms",),
    ),
    Mutant(
        "choices_check_skipped", "cli.py",
        "elif type(kind) is tuple and value not in kind:", "elif False:",
        (f"{PARSER}::test_errors_exit_two",),
    ),
    Mutant(
        "json_reader_recursion_uncaught", "cli.py",
        "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
        (
            "tests/test_cli.py::TestEnumerate::test_undecodable_json_exits_two",
            "tests/test_cli.py::TestTransferAndSerre::test_deeply_nested_subgroup",
        ),
    ),
    Mutant(
        "json_reader_value_error_uncaught", "cli.py",
        "except (ValueError, RecursionError) as exc:", "except RecursionError as exc:",
        ("tests/test_cli.py::TestEnumerate::test_undecodable_json_exits_two",),
    ),
    Mutant(
        "battery_and_field_file_both_accepted", "cli.py",
        "if (args.battery is None) == (args.field_file is None):",
        "if args.battery is None and args.field_file is None:",
        ("tests/test_cli.py::TestEnumerate::test_battery_and_field_file_refused",),
    ),
    # the group checks on the greedy generators
    Mutant(
        "light_test_on_first_generator", "groups.py",
        "for g in group.generators:  # cached", "for g in group.generators[:1]:  # cached",
        (f"{GENERATOR_CHECKS}::test_light_test_matches_all_triples",),
    ),
    Mutant(
        "is_normal_on_first_generator", "groups.py",
        "for x in self.parent.generators)", "for x in self.parent.generators[:1])",
        (f"{GENERATOR_CHECKS}::test_definitions_on_every_subgroup",),
    ),
    Mutant(
        "generating_set_drops_last", "intlinalg.py",
        "            closure(mul, edges, gens)\n    return gens, edges\n",
        "            closure(mul, edges, gens)\n    return gens[:-1], edges\n",
        (f"{GENERATOR_CHECKS}::test_light_test_matches_all_triples",),
    ),
    Mutant(
        "is_central_on_first_generator", "groups.py",
        "self.table[b][a] for b in self.generators)",
        "self.table[b][a] for b in self.generators[:1])",
        (f"{GENERATOR_CHECKS}::test_definitions_on_every_subgroup",),
    ),
    Mutant(
        "subgroup_closure_on_first_generator", "groups.py",
        "for b, ab in zip(gens, edges[a]):", "for b, ab in zip(gens[:1], edges[a]):",
        (f"{GENERATOR_CHECKS}::test_definitions_on_every_subgroup",),
    ),
    # the one Cayley walk of the presenter and its certificate
    Mutant(
        "closure_resume_skips_new_generator", "intlinalg.py",
        "for g in gens[len(edges[y]):]:", "for g in gens[len(edges[y]) + 1:]:",
        (f"{PRESENTER}::test_trivial_group_and_killed_everything",),
    ),
    Mutant(
        "certificate_additivity_disabled", "intlinalg.py",
        "if coords[xg] != total:", "if False:",
        (f"{PRESENTER}::test_certificate_refuses_coordinates_off_the_smith_form",),
    ),
    Mutant(
        "certificate_order_gate_dropped", "intlinalg.py",
        "        or n != order * len(closure(mul, {identity: []}, killed))\n", "",
        (f"{PRESENTER}::test_certificate_refuses_a_nonabelian_table",),
    ),
    Mutant(
        "word_not_incremented", "intlinalg.py",
        "            step[j] += 1\n", "",
        (f"{PRESENTER}::test_trivial_group_and_killed_everything",),
    ),
    Mutant(
        "killed_words_dropped", "intlinalg.py",
        "    rows += [words[y] for y in killed]\n", "",
        (f"{PRESENTER}::test_trivial_group_and_killed_everything",),
    ),
    Mutant(
        "abelianization_kills_nothing", "groups.py",
        "killed=sorted(index[c] for c in commutators - {g.identity}),", "killed=[],",
        (f"{PRESENTER}::test_every_battery_subgroup_abelianization",),
    ),
    Mutant(
        "coordinates_through_v_transpose", "intlinalg.py",
        "sum(w * v[j][i] for j, w", "sum(w * v[i][j] for j, w",
        (f"{PRESENTER}::test_every_battery_subgroup_abelianization",),
    ),
    # the residue ring of a modulus and its gates
    Mutant(
        "residue_product_drops_s_term", "quadratic.py",
        "a1 * b2 + a2 * b1 + s * bb", "a1 * b2 + a2 * b1",
        (f"{RAYCLASS}::test_residue_product_against_element_product",),
    ),
    Mutant(
        "spans_ring_drops_last_minor", "quadratic.py",
        "for i, (x1, y1) in enumerate(vectors)", "for i, (x1, y1) in enumerate(vectors[:2])",
        (f"{RAYCLASS}::test_unit_residues_against_element_route",),
    ),
    Mutant(
        "ray_class_group_cross_field_gate", "quadratic.py",
        "if modulus.field is not field and modulus.field != field:", "if False:",
        (f"{RAYCLASS}::test_cross_field_gates",),
    ),
    Mutant(
        "residue_field_gate", "quadratic.py",
        "if x.field is not self.field and x.field != self.field:", "if False:",
        (f"{RAYCLASS}::test_cross_field_gates",),
    ),
    Mutant(
        "twist_length_check_under_any", "quadratic.py",
        "        if self.twist_exponents:\n", "        if any(self.twist_exponents):\n",
        ("tests/test_quadratic.py::TestHecke::test_zero_twist_of_wrong_length_rejected",),
    ),
    # the import footprint: the CLI and the package load no Galois module early
    Mutant(
        "cli_imports_serre_eagerly", "cli.py",
        "from .errors import CMError\n", "from . import serre\nfrom .errors import CMError\n",
        (f"{FOOTPRINT}::test_cli_loads_the_arithmetic_half",),
    ),
    Mutant(
        "cli_imports_argparse", "cli.py",
        "import json\n", "import argparse\nimport json\n",
        (f"{FOOTPRINT}::test_no_stage_loads_dataclasses_or_inspect",),
    ),
    Mutant(
        "package_getattr_without_submodules", "__init__.py",
        "    if name in _EXPORTS:  # importing a submodule also binds it here\n"
        '        return importlib.import_module(f".{name}", __name__)\n',
        "",
        (f"{FOOTPRINT}::test_submodule_loaded_on_first_use_of_its_name",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's snippet occurs in its file today."""
    return (SRC / "cmcalc" / mutant.file).read_text().count(mutant.snippet)


def run_tests(mutant: Mutant | None, tests) -> int:
    """pytest's exit status for the tests against a copy of src/ with the
    mutant applied (none: the copy as it is)."""
    with tempfile.TemporaryDirectory(prefix="cmcalc-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = copy / "cmcalc" / mutant.file
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 1
    selected = [known[name] for name in argv] if argv else list(MUTANTS)
    misplaced = [m.name for m in selected if occurrences(m) != 1]
    if misplaced:
        print(f"snippet not found exactly once: {', '.join(misplaced)}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    baseline = sorted({t for m in selected for t in m.tests})
    if run_tests(None, baseline) != 0:
        print("the named tests fail on the unmodified source", file=sys.stderr)
        return 1
    bad = 0
    for m in selected:
        status = run_tests(m, m.tests)
        # pytest exits 1 when a test failed; other codes are errors of the run
        verdict = {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")
        bad += verdict != "killed"
        print(f"{verdict:10} {m.name}")
    print(f"{len(selected) - bad}/{len(selected)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
