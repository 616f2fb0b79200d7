"""Character lattices, distinguished cocharacters, reflex norms, reciprocity."""

from types import SimpleNamespace

import pytest

from cmcalc import intlinalg as la
from cmcalc.battery import BATTERY_NAMES, battery_field, closure_of
from cmcalc.cmtypes import (
    CMFieldHandle,
    enumerate_cm_types,
    is_primitive,
    induce,
    reflex_field,
    spanning_types,
    stabilizer,
    translate_left,
    validate_cm_type,
)
from cmcalc.errors import (
    CMError,
    InternalInconsistency,
    NoSolution,
    NotDefinedOverE,
    NotGaloisContext,
    NotSerrePair,
)
from cmcalc.groups import (
    coset_of,
    cyclic_group,
    dihedral_group,
    direct_product,
    left_cosets,
    normal_subgroups,
)
from cmcalc.serre import (
    CharLattice,
    Cocharacter,
    LatticeMap,
    _permute,
    check_cm_type_generation,
    check_norm_weight_triangle,
    check_reflex_norms,
    check_serre_exact_sequence,
    full_character_lattice,
    identity_cocharacter,
    mumford_tate_rank,
    norm_lattice_map,
    reciprocity_cocharacter,
    reflex_norm_map,
    serre_character_lattice,
    serre_report,
    type_cocharacter,
    weight_functional,
)
import cmtypes_oracle
from cmtypes_oracle import cm_subfields, subgroups_containing
from linalg_oracle import snf_kernel, snf_solve
from serre_oracle import map_failure, unstable_element, weight_cocharacter

C2 = battery_field("C2")
C4 = battery_field("C4")
KLEIN = battery_field("C2xC2")
GALOIS_FIELDS = [battery_field(n) for n in ("C2", "C4", "C2xC2", "C2xC4")]


ORDER16_GROUP = direct_product(dihedral_group(4), cyclic_group(2))
ORDER16 = CMFieldHandle(group=ORDER16_GROUP, iota=4, fixer=ORDER16_GROUP.subgroup([0, 8]))


def _perm_matrices(field):
    """Translation matrices built from groups.coset_of, not the handle's tables."""
    g, fixer, n = field.group, field.fixer, field.degree
    reps = [c[0] for c in left_cosets(g, fixer)]
    out = []
    for x in g.elements():
        rows = [[0] * n for _ in range(n)]
        for c, rep in enumerate(reps):
            rows[coset_of(g, fixer, g.mul(x, rep))][c] = 1
        out.append(la.freeze(rows))
    return out


def solved_reflex_matrix(cm_type, e_field):
    """Oracle: the reflex norm as the integer solution of equivariance on a
    generating set plus the evaluation row at the identity coset of E, or
    None when that system has no integer solution."""
    field = cm_type.field
    n_k, n_e = field.degree, e_field.degree
    acts_k, acts_e = _perm_matrices(field), _perm_matrices(e_field)
    rows, rhs = [], []
    for g in field.group.generators:
        pe, pk = acts_e[g], acts_k[g]
        for r in range(n_e):
            for c in range(n_k):
                row = [0] * (n_e * n_k)
                for k in range(n_e):
                    row[k * n_k + c] += pe[r][k]
                for k in range(n_k):
                    row[r * n_k + k] -= pk[k][c]
                rows.append(row)
                rhs.append(0)
    members = cm_type.coset_set()
    ident = coset_of(e_field.group, e_field.fixer, e_field.group.identity)
    for c in range(n_k):
        row = [0] * (n_e * n_k)
        row[ident * n_k + c] = 1
        rows.append(row)
        rhs.append(1 if c in members else 0)
    solution = snf_solve(la.freeze(rows), tuple(rhs))
    if solution is None:
        return None
    return la.freeze([solution[r * n_k : (r + 1) * n_k] for r in range(n_e)])


def block_kernel_serre_basis(field):
    """Oracle: the kernel of all |G| blocks (g - 1)(iota + 1)."""
    acts = _perm_matrices(field)
    ident = la.identity_matrix(field.degree)
    iota_plus = la.freeze([[x + y for x, y in zip(r, e)] for r, e in zip(acts[field.iota], ident)])
    rows = []
    for p in acts:
        p_minus_1 = la.freeze([[x - y for x, y in zip(r, e)] for r, e in zip(p, ident)])
        rows.extend(la.mat_mul(p_minus_1, iota_plus))
    return snf_kernel(tuple(rows))


def galois_reflex(cm_type):
    """The smallest Galois field containing the reflex field: fixer = normal
    core of the stabilizer."""
    g = cm_type.field.group
    stab = stabilizer(cm_type)
    core = [h for h in stab.elements if all(g.conj(x, h) in stab for x in g.elements())]
    return CMFieldHandle(group=g, iota=cm_type.field.iota, fixer=g.subgroup(core))


def reflex_norm_checks_oracle(field):
    """Oracle for check_reflex_norms: translated types from translate_left,
    right translation from coset representatives, subfields from
    galois_subfields and their containment from stabilizer."""
    g, closure = field.group, field.closure
    types = enumerate_cm_types(field)
    matrices = {t.cosets: reflex_norm_map(t, closure).matrix for t in types}
    subfields = [e for e in galois_subfields(closure) if e.fixer.order > 1]
    moved, through, checked = [], [], 0
    for t in types:
        matrix = matrices[t.cosets]
        for tau in g.elements():
            # row [x] of the translate's matrix is row [x tau] of the type's
            expected = tuple(
                matrix[closure.coset_index(g.mul(closure.coset_rep(c), tau))]
                for c in range(closure.degree)
            )
            if matrices[translate_left(tau, t).cosets] != expected:
                moved.append({"type": list(t.cosets), "tau": tau})
        stab = stabilizer(t)
        for e in subfields:
            if all(h in stab for h in e.fixer.elements):
                checked += 1
                norm = norm_lattice_map(closure, e).matrix
                if la.mat_mul(norm, reflex_norm_map(t, e).matrix) != matrix:
                    through.append({"type": list(t.cosets), "through": list(e.fixer.elements)})
    return [
        {
            "law": "reflex_norm_translation",
            "field_degree": field.degree,
            "failures": moved,
            "passed": not moved,
        },
        {
            "law": "reflex_norm_through_subfield",
            "pairs_checked": checked,
            "failures": through,
            "passed": not through,
        },
    ]


def galois_subfields(field):
    """Every Galois CM field of the context (normal fixer avoiding iota)."""
    g = field.group
    return [
        CMFieldHandle(group=g, iota=field.iota, fixer=sub)
        for sub in subgroups_containing(g, g.trivial_subgroup())
        if field.iota not in sub and sub.is_normal()
    ]


def generation_oracle(field):
    """check_cm_type_generation as an exhaustive sweep: the HNF of the
    indicators of all 2^g CM-types, each read from type_cocharacter."""
    serre = field.serre_lattice
    indicators = tuple(type_cocharacter(t).functional for t in enumerate_cm_types(field))
    generated = la.hnf_basis(indicators)
    contained = la.lattice_contains(serre.basis, generated)
    index = la.lattice_index(generated, serre.basis) if contained else None
    return {
        "law": "cm_type_generation",
        "field_degree": field.degree,
        "generated_rank": len(generated),
        "lattice_rank": serre.rank,
        "index": index,
        "passed": bool(generated == serre.basis and index == 1),
    }


def _c12_quartic():
    g = cyclic_group(12)
    return CMFieldHandle(group=g, iota=6, fixer=g.subgroup([0, 4, 8]))


GENERATION_FIELDS = (
    GALOIS_FIELDS
    + [closure_of(battery_field(n)) for n in BATTERY_NAMES]
    + [_c12_quartic(), ORDER16.closure]
)
GENERATION_IDS = (
    ["C2", "C4", "C2xC2", "C2xC4"]
    + [f"{n}-closure" for n in BATTERY_NAMES]
    + ["c12", "order16-closure"]
)


class TestFullLattice:
    def test_quadratic(self):
        lat = full_character_lattice(C2)
        assert lat.ambient_rank == 2 and lat.rank == 2
        assert lat.action[1] == (1, 0)

    def test_c4_generator_is_four_cycle(self):
        lat = full_character_lattice(C4)
        p = lat.action[1]
        order = 1
        q = p
        while q != tuple(range(4)):
            q = tuple(p[c] for c in q)
            order += 1
        assert order == 4

    def test_actions_are_permutations(self):
        for field in GALOIS_FIELDS + [battery_field("D4")]:
            lat = full_character_lattice(field)
            assert lat.action == field.act_table
            for p in lat.action:
                assert sorted(p) == list(range(field.degree))

    def test_action_is_homomorphism(self):
        for field in GALOIS_FIELDS:
            lat = full_character_lattice(field)
            g = field.group
            for a in g.elements():
                for b in g.elements():
                    pa, pb = lat.action[a], lat.action[b]
                    assert tuple(pa[c] for c in pb) == lat.action[g.mul(a, b)]

    def test_permute_matches_permutation_matrices(self):
        # _permute against the coset_of-built matrices, on every basis vector
        # and every element
        fields = [battery_field(n) for n in BATTERY_NAMES]
        fields += [closure_of(f) for f in fields] + [ORDER16, ORDER16.closure]
        for field in fields:
            n = field.degree
            basis = la.identity_matrix(n)
            for g, p in enumerate(_perm_matrices(field)):
                perm = field.full_lattice.action[g]
                for vec in basis:
                    assert _permute(vec, perm) == la.mat_vec(p, vec)


class TestSerreLattice:
    def test_quadratic_full(self):
        lat = serre_character_lattice(C2)
        assert lat.rank == 2
        assert lat.basis == la.identity_matrix(2)

    def test_rational_rank_one(self):
        lat = serre_character_lattice(CMFieldHandle.rational())
        assert lat.rank == 1 and lat.basis == ((1,),)

    def test_c4_rank_three(self):
        assert serre_character_lattice(C4).rank == 3

    def test_rank_formula_all_galois_fields(self):
        for field in GALOIS_FIELDS:
            assert serre_character_lattice(field).rank == field.half_degree + 1
        for field in GALOIS_FIELDS + [battery_field("D4")]:
            cl = closure_of(field)
            assert serre_character_lattice(cl).rank == cl.half_degree + 1

    def test_not_galois_refused(self):
        with pytest.raises(NotGaloisContext):
            serre_character_lattice(battery_field("D4"))

    def test_pair_relations_match_block_kernel(self):
        fields = GALOIS_FIELDS + [closure_of(battery_field(n)) for n in BATTERY_NAMES]
        for field in fields + [closure_of(ORDER16)]:
            assert serre_character_lattice(field).basis == block_kernel_serre_basis(field)
            assert field.serre_lattice.basis == block_kernel_serre_basis(field)

    def test_constant_pair_sum_characterization(self):
        for field in GALOIS_FIELDS:
            lat = serre_character_lattice(field)
            for row in lat.basis:
                sums = {
                    row[c] + row[field.act(field.iota, c)] for c in range(field.degree)
                }
                assert len(sums) == 1


class TestCocharacters:
    def test_identity_cocharacter_values(self):
        mu = identity_cocharacter(C4)
        assert mu.functional == (1, 0, 0, 0)
        assert mu.evaluate((5, 1, 2, 3)) == 5

    def test_weight_on_norm_character(self):
        w = weight_cocharacter(C4)
        norm_chi = (1, 1, 1, 1)
        assert w.evaluate(norm_chi) == -2

    def test_weight_is_rational(self):
        for field in GALOIS_FIELDS:
            w = weight_cocharacter(field)
            for g in field.group.elements():
                assert w.same_on_lattice(w.translated(g).functional)

    def test_type_cocharacter_indicator(self):
        t = validate_cm_type(C2, {0})
        assert type_cocharacter(t).functional == (1, 0)

    def test_translation_of_type_cocharacter(self):
        for field in GALOIS_FIELDS + [battery_field("D4")]:
            for t in enumerate_cm_types(field):
                mu = type_cocharacter(t)
                for tau in field.group.elements():
                    assert (
                        mu.translated(tau).functional
                        == type_cocharacter(translate_left(tau, t)).functional
                    )

    def test_weight_of_type_cocharacter_is_minus_one_everywhere(self):
        for field in GALOIS_FIELDS + [battery_field("D4")]:
            for t in enumerate_cm_types(field):
                w = weight_functional(field, type_cocharacter(t).functional)
                assert w == (-1,) * field.degree


class TestReflexNorm:
    def test_quadratic_identity_matrix(self):
        t = validate_cm_type(C2, {0})
        m = reflex_norm_map(t, C2)
        assert m.matrix == la.identity_matrix(2)

    def test_c4_matches_closed_form(self):
        t = validate_cm_type(C4, {0, 1})
        m = reflex_norm_map(t, C4)
        assert m.matrix == solved_reflex_matrix(t, C4)

    def test_closed_form_oracle_battery(self):
        for field in GALOIS_FIELDS + [battery_field("D4")]:
            for t in enumerate_cm_types(field):
                for e in (closure_of(field), galois_reflex(t)):
                    assert reflex_norm_map(t, e).matrix == solved_reflex_matrix(t, e)

    def test_order16_against_solve(self):
        types = enumerate_cm_types(ORDER16)
        primitive = next(t for t in types if is_primitive(t))
        imprimitive = next(t for t in types if not is_primitive(t))
        for t in (primitive, imprimitive):
            for e in (closure_of(ORDER16), galois_reflex(t)):
                assert reflex_norm_map(t, e).matrix == solved_reflex_matrix(t, e)

    def test_no_solution_exactly_outside_stabilizer(self):
        for name in BATTERY_NAMES:
            field = battery_field(name)
            for t in enumerate_cm_types(field):
                stab = stabilizer(t)
                for e in galois_subfields(field):
                    inside = all(h in stab for h in e.fixer.elements)
                    assert (solved_reflex_matrix(t, e) is not None) == inside
                    if inside:
                        reflex_norm_map(t, e)
                    else:
                        with pytest.raises(NoSolution):
                            reflex_norm_map(t, e)

    def test_closed_form_entry_independent_of_representative(self):
        # entry (c_E, c_K) = [sigma^-1 rho in phi] is the same for every
        # representative sigma of c_E when E contains the reflex field
        for name in BATTERY_NAMES:
            field = battery_field(name)
            g = field.group
            for t in enumerate_cm_types(field):
                members = t.coset_set()
                for e in (closure_of(field), galois_reflex(t)):
                    matrix = reflex_norm_map(t, e).matrix
                    for ce in range(e.degree):
                        for ck in range(field.degree):
                            values = {
                                field.act(g.inv(sigma), ck) in members
                                for sigma in e.cosets[ce]
                            }
                            assert values == {bool(matrix[ce][ck])}

    def test_equivariance_exhaustive(self):
        for field in GALOIS_FIELDS:
            closure = closure_of(field)
            src = full_character_lattice(field)
            for t in enumerate_cm_types(field):
                m = reflex_norm_map(t, closure)
                for g in field.group.elements():
                    # matrix times P_g reads columns through g; P_g times
                    # matrix moves rows along g
                    perm = src.action[g]
                    left = tuple(tuple(row[c] for c in perm) for row in m.matrix)
                    right = _permute(m.matrix, m.target.action[g])
                    assert left == right

    def test_reflex_containment_required(self):
        # the quadratic subfield {0,2} does not contain the reflex of {0,1}
        t = validate_cm_type(KLEIN, {0, 1})
        wrong = CMFieldHandle(
            group=KLEIN.group, iota=3, fixer=KLEIN.group.subgroup([0, 2])
        )
        with pytest.raises(NoSolution):
            reflex_norm_map(t, wrong)

    def test_reflex_field_itself_works(self):
        t = validate_cm_type(KLEIN, {0, 1})
        e = reflex_field(t)
        m = reflex_norm_map(t, e)
        assert m.matrix == solved_reflex_matrix(t, e)

    def test_induced_type_composite(self):
        # reflex norm of an induced type is the restriction composite
        big = KLEIN
        small = CMFieldHandle(group=big.group, iota=3, fixer=big.group.subgroup([0, 1]))
        t_big = validate_cm_type(big, {0, 1})
        t_small = validate_cm_type(small, {0})
        closure = closure_of(big)
        m_big = reflex_norm_map(t_big, closure)
        m_small = reflex_norm_map(t_small, closure)
        proj = []
        for ck in range(big.degree):
            row_index = small.coset_index(big.coset_rep(ck))
            proj.append(tuple(1 if j == row_index else 0 for j in range(small.degree)))
        proj = la.transpose(la.freeze(proj))
        assert la.mat_mul(m_small.matrix, proj) == m_big.matrix

    def test_translation_compatibility(self):
        for field in GALOIS_FIELDS:
            assert check_reflex_norms(field)[0]["passed"]

    def test_norm_triangle(self):
        for field in GALOIS_FIELDS:
            report = check_reflex_norms(field)[1]
            assert report["passed"]
        assert check_reflex_norms(KLEIN)[1]["pairs_checked"] > 0


def _corrupted(matrix):
    """The matrix with its top-left entry flipped between 0 and 1."""
    rows = [list(r) for r in matrix]
    rows[0][0] = 1 - rows[0][0]
    return la.freeze(rows)


class TestReportSharing:
    """serre_report takes both reflex-norm entries from check_reflex_norms,
    which builds each type's closure reflex norm once for both."""

    @pytest.mark.parametrize(
        "field",
        [*GALOIS_FIELDS, *(closure_of(battery_field(n)) for n in BATTERY_NAMES), ORDER16.closure],
    )
    def test_report_matches_public_checks(self, field):
        checks = [
            c for c in serre_report(field)["checks"]
            if c["law"] in ("reflex_norm_translation", "reflex_norm_through_subfield")
        ]
        assert checks == check_reflex_norms(field) == reflex_norm_checks_oracle(field)

    @pytest.mark.parametrize("field", [KLEIN, closure_of(battery_field("C2xC4"))])
    def test_corrupted_closure_map_fails_translation(self, field, monkeypatch):
        # phi_0's or the last flip's closure reflex norm corrupted: the
        # translation check names that type at every generator that moves it,
        # and every failure names a spanning type and a generator
        import cmcalc.serre as serre

        spanning = [t.cosets for t in spanning_types(field).values()]
        for bad in (spanning[0], spanning[-1]):

            def corrupting(cm_type, e_field, bad=bad):
                out = reflex_norm_map(cm_type, e_field)
                if cm_type.cosets == bad and e_field is field.closure:
                    return SimpleNamespace(matrix=_corrupted(out.matrix))
                return out

            monkeypatch.setattr(serre, "reflex_norm_map", corrupting)
            translation = check_reflex_norms(field)[0]
            assert not translation["passed"]
            named = {f["tau"] for f in translation["failures"] if f["type"] == list(bad)}
            stab = stabilizer(validate_cm_type(field, bad))
            moving = {tau for tau in field.group.generators if tau not in stab}
            assert moving and named >= moving
            assert all(tuple(f["type"]) in spanning for f in translation["failures"])
            assert {f["tau"] for f in translation["failures"]} <= set(field.group.generators)
            assert not serre_report(field)["passed"]

    @pytest.mark.parametrize("field", [KLEIN, closure_of(battery_field("C2xC4"))])
    def test_corrupted_translate_fails_translation(self, field, monkeypatch):
        # a type outside the spanning set, reached as tau phi_i, corrupted: it
        # is named through each (spanning phi_i, generator tau) that reaches it
        import cmcalc.serre as serre

        spanning = spanning_types(field)
        reached = {
            (translate_left(tau, phi).cosets, tau, phi.cosets)
            for phi in spanning.values()
            for tau in field.group.generators
        }
        others = {t.cosets for t in spanning.values()}
        bad = min(c for c, *_ in reached if c not in others)

        def corrupting(cm_type, e_field):
            out = reflex_norm_map(cm_type, e_field)
            if cm_type.cosets == bad and e_field is field.closure:
                return SimpleNamespace(matrix=_corrupted(out.matrix))
            return out

        monkeypatch.setattr(serre, "reflex_norm_map", corrupting)
        translation, triangle = check_reflex_norms(field)
        failures = {(tuple(f["type"]), f["tau"]) for f in translation["failures"]}
        assert failures == {(phi, tau) for c, tau, phi in reached if c == bad}
        assert all(f["type"] == list(bad) for f in triangle["failures"])

    @pytest.mark.parametrize("field", [KLEIN, closure_of(battery_field("C2xC4"))])
    def test_corrupted_subfield_map_fails_triangle(self, field, monkeypatch):
        # the reflex norm through one subfield corrupted on the type induced
        # from its last spanning flip: the triangle names exactly that (type,
        # subfield) pair, and translation still holds
        import cmcalc.serre as serre

        through = next(e for e in galois_subfields(field.closure) if e.fixer.order > 1)
        bad = induce(field, list(spanning_types(through).values())[-1])

        def corrupting(cm_type, e_field):
            out = reflex_norm_map(cm_type, e_field)
            if cm_type == bad and e_field.fixer == through.fixer:
                return SimpleNamespace(matrix=_corrupted(out.matrix))
            return out

        monkeypatch.setattr(serre, "reflex_norm_map", corrupting)
        translation, triangle = check_reflex_norms(field)
        assert translation["passed"] and not triangle["passed"]
        assert triangle["failures"] == [
            {"type": list(bad.cosets), "through": list(through.fixer.elements)}
        ]

    def test_closure_reflex_norm_once_per_type(self, monkeypatch):
        # on the order-16 closure (g = 8, three generators): 36 closure
        # matrices, at most (g + 1)(k + 1), each type's built once, and 10
        # through its two proper Galois CM subfields (g' + 1 = 5 each), which
        # certify 2^4 types each; the per-type sweep built 256 and 32
        import cmcalc.serre as serre

        calls = []

        def counted(cm_type, e_field):
            calls.append((cm_type.cosets, e_field))
            return reflex_norm_map(cm_type, e_field)

        monkeypatch.setattr(serre, "reflex_norm_map", counted)
        field = ORDER16.closure
        report = serre_report(field)
        triangle = next(c for c in report["checks"] if c["law"] == "reflex_norm_through_subfield")
        closure = [t for t, e in calls if e is field]
        g, k = field.half_degree, len(field.group.generators)
        assert len(closure) == len(set(closure)) == 36 <= (g + 1) * (k + 1)
        assert len(calls) == 46 and triangle["pairs_checked"] == 32


class TestNormMap:
    def test_equal_fields_identity(self):
        m = norm_lattice_map(C4, C4)
        assert m.matrix == la.identity_matrix(4)

    def test_klein_over_quadratic(self):
        small = CMFieldHandle(
            group=KLEIN.group, iota=3, fixer=KLEIN.group.subgroup([0, 1])
        )
        m = norm_lattice_map(KLEIN, small)
        cols = la.transpose(m.matrix)
        for col in cols:
            assert sum(col) == 2  # each subfield character has two extensions


class TestChecks:
    def test_exact_sequence_ranks(self):
        expected = {"C2": [1, 3, 2], "C4": [2, 5, 3], "C2xC2": [2, 5, 3]}
        for name, ranks in expected.items():
            rep = check_serre_exact_sequence(battery_field(name))
            assert rep["passed"] and rep["ranks"] == ranks

    def test_exact_sequence_needs_imaginary_field(self):
        with pytest.raises(NotGaloisContext):
            check_serre_exact_sequence(CMFieldHandle.rational())

    def test_norm_weight_triangle(self):
        for field in GALOIS_FIELDS:
            assert check_norm_weight_triangle(field)["passed"]

    def test_norm_weight_triangle_trivial_field(self):
        assert check_norm_weight_triangle(CMFieldHandle.rational())["passed"]

    def test_generation(self):
        for field in GALOIS_FIELDS:
            rep = check_cm_type_generation(field)
            assert rep["passed"] and rep["index"] == 1

    def test_generation_c2_explicit(self):
        rep = check_cm_type_generation(C2)
        assert rep["generated_rank"] == 2


class TestGenerationClosedForm:
    """phi_0 and its g single-pair flips in place of all 2^g indicators."""

    @pytest.mark.parametrize("field", GENERATION_FIELDS, ids=GENERATION_IDS)
    def test_matches_exhaustive_oracle(self, field):
        assert check_cm_type_generation(field) == generation_oracle(field)

    def test_above_enumeration_bound(self, monkeypatch):
        # C36 with iota = 18 has 2^18 types: the closed form and the reflex
        # norm checks need none of them, while serre_report, whose size bound
        # guards the CLI's cost, still refuses
        import cmcalc.cmtypes as cmtypes

        def refuse(self):
            raise AssertionError("a table over all CM-types was built")

        g = cyclic_group(36)
        field = CMFieldHandle(group=g, iota=18, fixer=g.trivial_subgroup())
        monkeypatch.setattr(cmtypes.CMFieldHandle, "cm_types", property(refuse))
        monkeypatch.setattr(cmtypes.CMFieldHandle, "type_translation", property(refuse))
        rep = check_cm_type_generation(field)
        assert rep["passed"] and (rep["generated_rank"], rep["index"]) == (19, 1)
        translation, triangle = check_reflex_norms(field)
        assert translation["passed"] and triangle["passed"]
        # the subfields fixed by the subgroups of order 3 and 9: 2^6 + 2^2 types
        assert triangle["pairs_checked"] == 68
        with pytest.raises(CMError, match="exceed the enumeration bound"):
            serre_report(field)


class TestGaloisQuarticWithNontrivialFixer:
    """A cyclic order-12 context whose field has a 3-element fixing subgroup:
    the Galois-quartic path with nontrivial fixer everywhere."""

    def _field(self):
        return _c12_quartic()

    def test_serre_rank_and_sequence(self):
        field = self._field()
        assert serre_character_lattice(field).rank == 3
        rep = check_serre_exact_sequence(field)
        assert rep["passed"] and rep["ranks"] == [2, 5, 3]

    def test_generation_and_norm_weight(self):
        field = self._field()
        assert check_cm_type_generation(field)["passed"]
        assert check_norm_weight_triangle(field)["passed"]

    def test_reflex_norms_against_oracle(self):
        field = self._field()
        closure = closure_of(field)
        for t in enumerate_cm_types(field):
            assert is_primitive(t)
            assert (
                reflex_norm_map(t, closure).matrix
                == solved_reflex_matrix(t, closure)
            )
            assert mumford_tate_rank(t) == 3

    def test_translation_and_triangle(self):
        field = self._field()
        assert all(c["passed"] for c in check_reflex_norms(field))


class TestMumfordTate:
    def test_quadratic_rank_two(self):
        t = validate_cm_type(C2, {0})
        assert mumford_tate_rank(t) == 2

    def test_c4_primitive_rank_three(self):
        for t in enumerate_cm_types(C4):
            assert mumford_tate_rank(t) == 3

    def test_klein_imprimitive_rank_two(self):
        for t in enumerate_cm_types(KLEIN):
            assert mumford_tate_rank(t) == 2


class TestReciprocity:
    def test_universal_pair_is_projection(self):
        for field in GALOIS_FIELDS:
            lat = serre_character_lattice(field)
            mu = identity_cocharacter(field)
            n = reciprocity_cocharacter(lat, mu, field)
            assert n.matrix == la.identity_matrix(field.degree)

    def test_type_pair_equals_reflex_norm(self):
        for field in GALOIS_FIELDS + [battery_field("D4")]:
            closure = closure_of(field)
            for t in enumerate_cm_types(field):
                lat = full_character_lattice(field)
                n = reciprocity_cocharacter(lat, type_cocharacter(t), closure)
                assert n.matrix == reflex_norm_map(t, closure).matrix

    def test_nonrational_weight_rejected(self):
        lat = full_character_lattice(C4)
        bare = Cocharacter(lattice=lat, functional=(1, 0, 0, 0))
        with pytest.raises(NotSerrePair) as err:
            reciprocity_cocharacter(lat, bare, C4)
        assert err.value.axiom == "weight"

    def test_not_defined_over_small_field(self):
        t = validate_cm_type(KLEIN, {0, 1})
        lat = full_character_lattice(KLEIN)
        mu = type_cocharacter(t)
        wrong = CMFieldHandle(
            group=KLEIN.group, iota=3, fixer=KLEIN.group.subgroup([0, 2])
        )
        with pytest.raises(NotDefinedOverE):
            reciprocity_cocharacter(lat, mu, wrong)

    def test_noncommuting_involution_rejected(self):
        # action data whose permutation for some element fails to commute
        # with the permutation assigned to the involution
        from cmcalc.serre import CharLattice

        handle = battery_field("D4")
        d4 = handle.group
        swap01 = (1, 0, 2)
        swap12 = (0, 2, 1)
        ident = (0, 1, 2)
        action = tuple(
            swap01 if g == handle.iota else (swap12 if g == 1 else ident)
            for g in d4.elements()
        )
        lat = CharLattice(ambient_rank=3, basis=la.identity_matrix(3), action=action)
        mu = Cocharacter(lattice=lat, functional=(1, 0, 0))
        with pytest.raises(NotSerrePair) as err:
            reciprocity_cocharacter(lat, mu, closure_of(handle))
        assert err.value.axiom == "commuting"


CERTIFICATE_FIELDS = [battery_field(n) for n in BATTERY_NAMES]
CERTIFICATE_FIELDS += [f.closure for f in CERTIFICATE_FIELDS] + [ORDER16, ORDER16.closure]
CERTIFICATE_IDS = [
    f"{n}{suffix}" for suffix in ("", "-closure") for n in BATTERY_NAMES
] + ["order16", "order16-closure"]
_C2XC6, _C18 = direct_product(cyclic_group(2), cyclic_group(6)), cyclic_group(18)
WALK_FIELDS = CERTIFICATE_FIELDS + [
    CMFieldHandle(group=_C2XC6, iota=6, fixer=_C2XC6.trivial_subgroup()),
    CMFieldHandle(group=_C18, iota=9, fixer=_C18.trivial_subgroup()),
]
WALK_IDS = CERTIFICATE_IDS + ["C2xC6", "C18"]


@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
class TestWithoutSubgroupWalk:
    """Primitivity from the right stabilizer, and the norm triangle's subfields
    from the normal walk, against the all-subgroups walk of tests/cmtypes_oracle.py."""

    def test_primitivity_matches_restriction_oracle(self, field):
        verdicts = [is_primitive(t) for t in enumerate_cm_types(field)]
        assert verdicts == [cmtypes_oracle.is_primitive(t) for t in enumerate_cm_types(field)]

    def test_normal_walk_matches_filtered_walk(self, field):
        g = field.group
        every = subgroups_containing(g, g.trivial_subgroup())
        assert normal_subgroups(g) == tuple(s for s in every if s.is_normal())
        walked = [
            CMFieldHandle(group=g, iota=field.iota, fixer=n)
            for n in normal_subgroups(g) if field.iota not in n
        ]
        assert walked == galois_subfields(field)


class TestGeneratorCertificates:
    """Lattices and maps built from a field handle are certified on the group's
    generators; the all-element certificates of tests/serre_oracle.py agree, and
    a lattice or map that only one generator respects is refused."""

    @pytest.mark.parametrize("field", CERTIFICATE_FIELDS, ids=CERTIFICATE_IDS)
    def test_oracle_accepts_library_maps(self, field):
        closure = field.closure
        lattices = [field.full_lattice]
        if field.is_galois():
            lattices.append(field.serre_lattice)
        assert [unstable_element(lat) for lat in lattices] == [None] * len(lattices)
        maps = [
            norm_lattice_map(closure, e2)
            for e2 in cm_subfields(closure) if e2.fixer.is_normal()
        ]
        for t in enumerate_cm_types(field):
            maps.append(reflex_norm_map(t, closure))
            maps.append(reciprocity_cocharacter(field.full_lattice, type_cocharacter(t), closure))
        assert [m for m in maps if map_failure(m) is not None] == []

    @staticmethod
    def _klein():
        """The biquadratic closure: regular action of C2 x C2, generators 1 and 2."""
        field = battery_field("C2xC2").closure
        assert field.group.generators == (1, 2)
        return field

    def test_stable_under_one_generator_only_refused(self):
        # the span of v and 1*v is stable under 1 but not under 2
        field = self._klein()
        v = (1, 0, 2, 0)
        basis = la.hnf_basis([v, _permute(v, field.act_table[1])])
        assert unstable_element(SimpleNamespace(basis=basis, action=field.act_table)) == 2
        with pytest.raises(InternalInconsistency, match="not stable under element 2"):
            CharLattice(4, basis, field.act_table, field.group)

    def test_action_not_a_homomorphism_refused(self):
        # a lattice that carries its group checks the action at each generator
        field = self._klein()
        p0, p1, _, p3 = field.act_table
        action = (p0, p1, p1, p3)  # 1 * 2 = 3, but p1 after p1 is p0
        with pytest.raises(InternalInconsistency, match="not a homomorphism at element 1"):
            CharLattice(4, la.identity_matrix(4), action, field.group)

    def test_equivariant_under_one_generator_only_refused(self):
        # the projection onto the cosets 0 and 1 commutes with 1, not with 2
        field = self._klein()
        matrix = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
        full = field.full_lattice
        unchecked = SimpleNamespace(source=full, target=full, matrix=matrix)
        assert map_failure(unchecked) == 2
        with pytest.raises(InternalInconsistency, match="not equivariant at element 2"):
            LatticeMap(full, full, matrix)

    def test_map_off_the_target_refused(self):
        # the identity commutes with every element but leaves the Serre lattice
        field = self._klein()
        identity = la.identity_matrix(4)
        unchecked = SimpleNamespace(
            source=field.full_lattice, target=field.serre_lattice, matrix=identity
        )
        assert map_failure(unchecked) == "landing"
        with pytest.raises(InternalInconsistency, match="does not land"):
            LatticeMap(field.full_lattice, field.serre_lattice, identity)

    def test_reciprocity_fixer_on_every_generator(self):
        # C2^3 with iota = 4 and E cut out by {0, 1, 2, 3}: the type {0, 1, 6, 7}
        # of the closure is stable under 1 but not under 2, so mu is not defined
        # over E although the fixer's first generator fixes it
        g = direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2))
        e_field = CMFieldHandle(group=g, iota=4, fixer=g.subgroup([0, 1, 2, 3]))
        closure = e_field.closure
        assert e_field.fixer.generators == (1, 2)
        mu = type_cocharacter(validate_cm_type(closure, [0, 1, 6, 7]))
        assert mu.same_on_lattice(mu.translated(1).functional)
        with pytest.raises(NotDefinedOverE):
            reciprocity_cocharacter(closure.full_lattice, mu, e_field)
