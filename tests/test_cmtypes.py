"""CM field handles and CM-type combinatorics."""

import itertools

import pytest

from cmcalc.battery import BATTERY_NAMES, battery_field, closure_of
from cmcalc.cmtypes import (
    CMFieldHandle,
    enumerate_cm_types,
    induce,
    is_primitive,
    reflex_field,
    reflex_type,
    require_nested,
    restricts_to,
    spanning_types,
    stabilizer,
    translate_left,
    translate_right,
    validate_cm_type,
)
from cmcalc.errors import (
    CMError,
    InternalInconsistency,
    NotACMType,
    NotAnAutomorphismOfK,
    NotAnInteger,
    NotNested,
)
from cmcalc.groups import cyclic_group, dihedral_group, direct_product

from cmtypes_oracle import cm_subfields, subgroups_containing
from test_serre import ORDER16


def c2_field():
    g = cyclic_group(2)
    return CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())


def c4_field():
    g = cyclic_group(4)
    return CMFieldHandle(group=g, iota=2, fixer=g.trivial_subgroup())


def klein_field():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    return CMFieldHandle(group=g, iota=3, fixer=g.trivial_subgroup())


ALL_TEST_FIELDS = [battery_field(n) for n in BATTERY_NAMES]


class TestHandleValidation:
    def test_iota_must_be_involution(self):
        g = cyclic_group(4)
        with pytest.raises(CMError):
            CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())

    def test_iota_not_identity(self):
        g = cyclic_group(4)
        with pytest.raises(CMError):
            CMFieldHandle(group=g, iota=0, fixer=g.trivial_subgroup())

    def test_iota_central(self):
        g = dihedral_group(4)
        with pytest.raises(CMError):
            CMFieldHandle(group=g, iota=4, fixer=g.trivial_subgroup())

    def test_iota_outside_fixer(self):
        g = cyclic_group(4)
        with pytest.raises(CMError):
            CMFieldHandle(group=g, iota=2, fixer=g.subgroup([0, 2]))

    @pytest.mark.parametrize("iota", [True, 1.0, 2.0, "2", None])
    def test_iota_must_be_int(self, iota):
        # True passed as 1, and 1.0, "2" and None raised a bare TypeError
        g = cyclic_group(2)
        with pytest.raises(NotAnInteger, match=f"iota {iota!r} is not an integer") as err:
            CMFieldHandle(group=g, iota=iota, fixer=g.trivial_subgroup())
        assert err.value.witness is iota

    def test_rational_degenerate(self):
        f = CMFieldHandle.rational()
        assert f.is_degenerate and f.degree == 1

    def test_rational_context_carries_no_types(self):
        # enumeration agrees with validate_cm_type, and the cocycle report,
        # which starts from the enumeration, refuses with the same message
        from cmcalc.cocycle import cocycle_report

        f = CMFieldHandle.rational()
        for call in (enumerate_cm_types, cocycle_report, lambda f: validate_cm_type(f, ())):
            with pytest.raises(NotACMType, match="degenerate rational context carries no CM-types"):
                call(f)

    def test_d4_field_cosets(self):
        f = battery_field("D4")
        assert f.degree == 4
        assert f.cosets == ((0, 4), (1, 5), (2, 6), (3, 7))
        assert not f.is_galois()


class TestValidation:
    def test_quadratic_valid(self):
        t = validate_cm_type(c2_field(), {0})
        assert t.cosets == (0,)

    def test_quadratic_overlap(self):
        with pytest.raises(NotACMType):
            validate_cm_type(c2_field(), {0, 1})

    def test_c4_valid(self):
        t = validate_cm_type(c4_field(), {0, 1})
        assert t.cosets == (0, 1)

    def test_wrong_size(self):
        with pytest.raises(NotACMType):
            validate_cm_type(c4_field(), {0})

    def test_conjugate_pair_selected(self):
        err = pytest.raises(NotACMType, validate_cm_type, c4_field(), {0, 2})
        assert err.value.witness is not None

    def test_out_of_range(self):
        with pytest.raises(NotACMType):
            validate_cm_type(c4_field(), {0, 9})

    def test_non_integer_cosets_refused(self):
        # int() would read 1.7 as coset 1, and True would count as 1
        field = battery_field("C2xC4")
        for bad in (1.7, True, 1.0, "1"):
            err = pytest.raises(NotACMType, validate_cm_type, field, [bad])
            assert err.value.witness is bad


class TestEnumeration:
    def test_quadratic_two_types(self):
        assert [t.cosets for t in enumerate_cm_types(c2_field())] == [(0,), (1,)]

    def test_c4_four_types(self):
        got = [t.cosets for t in enumerate_cm_types(c4_field())]
        assert got == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_klein_four_types(self):
        assert len(enumerate_cm_types(klein_field())) == 4

    def test_enumerated_once_per_handle(self):
        for field in ALL_TEST_FIELDS:
            types = enumerate_cm_types(field)
            assert enumerate_cm_types(field) is types
            binary = [
                tuple(sorted(pair[k] for pair, k in zip(field.iota_pairs, pick)))
                for pick in itertools.product((0, 1), repeat=len(field.iota_pairs))
            ]
            assert [t.cosets for t in types] == binary

    def test_built_types_are_validated_picks(self):
        # cm_types builds each type from its iota-pair picks without validating
        closures = [f.closure for f in ALL_TEST_FIELDS]
        for field in ALL_TEST_FIELDS + closures + [ORDER16, ORDER16.closure]:
            picks = itertools.product(*field.iota_pairs)
            assert list(field.cm_types) == [validate_cm_type(field, pick) for pick in picks]

    def test_bound_refuses_before_any_type(self, monkeypatch):
        import cmcalc.cmtypes as cmtypes

        def refuse(*args):
            raise AssertionError("a CM-type was built")

        monkeypatch.setattr(cmtypes, "CMType", refuse)
        g = cyclic_group(64)
        field = CMFieldHandle(group=g, iota=32, fixer=g.trivial_subgroup())
        with pytest.raises(CMError, match="exceed the enumeration bound"):
            enumerate_cm_types(field)
        assert "cm_types" not in vars(field)

    @pytest.mark.parametrize("field", [c2_field(), c4_field(), klein_field(), ORDER16])
    def test_spanning_types_are_indexed_picks(self, field):
        # phi_0 and the g single-pair flips, read from cm_types at their keys
        spanning = spanning_types(field)
        g = field.half_degree
        assert list(spanning) == [0] + [2 ** (g - 1 - k) for k in range(g)]
        assert all(field.cm_types[i] == t for i, t in spanning.items())

    def test_census_all_fields(self):
        for field in ALL_TEST_FIELDS:
            types = enumerate_cm_types(field)
            assert len(types) == 2 ** field.half_degree
            for t in types:
                validate_cm_type(field, t.cosets)


class TestTranslation:
    def test_identity_fixes(self):
        t = validate_cm_type(c4_field(), {0, 1})
        assert translate_left(0, t) == t

    def test_iota_gives_complement(self):
        # the complement of type i is type i XOR (2^g - 1)
        for field in ALL_TEST_FIELDS:
            types = enumerate_cm_types(field)
            for i, t in enumerate(types):
                complement = types[i ^ (len(types) - 1)]
                assert complement.coset_set() == set(range(field.degree)) - t.coset_set()
                assert translate_left(field.iota, t) == complement

    def test_c4_shift(self):
        t = validate_cm_type(c4_field(), {0, 1})
        assert translate_left(1, t).cosets == (1, 2)

    def test_left_action_composes(self):
        for field in ALL_TEST_FIELDS:
            for t in enumerate_cm_types(field):
                for s in field.group.elements():
                    for u in field.group.elements():
                        assert translate_left(
                            s, translate_left(u, t)
                        ) == translate_left(field.group.mul(s, u), t)

    def test_right_translation_requires_normalizer(self):
        f = battery_field("D4")
        t = enumerate_cm_types(f)[0]
        with pytest.raises(NotAnAutomorphismOfK):
            translate_right(1, t)  # r does not normalize {1, s}

    def test_right_translation_valid(self):
        f = battery_field("D4")
        t = enumerate_cm_types(f)[0]
        # the central half-turn normalizes everything
        moved = translate_right(2, t)
        assert moved.coset_set() == set(range(f.degree)) - t.coset_set()


class TestReflex:
    def test_quadratic_self_reflex(self):
        f = c2_field()
        t = validate_cm_type(f, {0})
        e = reflex_field(t)
        assert e.fixer.elements == f.fixer.elements
        assert reflex_type(t).cosets == (0,)

    def test_c4_stabilizer_trivial(self):
        t = validate_cm_type(c4_field(), {0, 1})
        assert stabilizer(t).elements == (0,)
        assert reflex_type(t).cosets == (0, 3)

    def test_klein_imprimitive_reflex(self):
        f = klein_field()
        t = validate_cm_type(f, {0, 1})
        assert stabilizer(t).elements == (0, 1)
        assert reflex_field(t).degree == 2

    @pytest.mark.parametrize("table", [(0, 2, 2, 3), (0, 2, 1, 3)])
    def test_pool_off_the_reflex_cosets_refused(self, table):
        # K's coset_table corrupted after its act_table is built: the stabilizer
        # {0, 1} stands, but the pool is {0} or {0, 2}, and the second has the
        # size of a union of reflex cosets without being one
        f = klein_field()
        t = validate_cm_type(f, {0, 1})
        assert f.act_table and stabilizer(t).elements == (0, 1)
        f.__dict__["coset_table"] = table
        with pytest.raises(InternalInconsistency, match="not a union of reflex cosets"):
            reflex_type(t)

    def test_stabilizer_matches_bruteforce(self):
        for field in ALL_TEST_FIELDS:
            for t in enumerate_cm_types(field):
                members = t.coset_set()
                oracle = tuple(
                    g
                    for g in field.group.elements()
                    if {field.act(g, c) for c in t.cosets} == members
                )
                assert stabilizer(t).elements == oracle

    def test_iota_never_stabilizes(self):
        for field in ALL_TEST_FIELDS:
            for t in enumerate_cm_types(field):
                assert field.iota not in stabilizer(t)

    def test_reflex_handles_are_cm(self):
        # every reflex handle passes full CM validation in the battery
        for field in ALL_TEST_FIELDS:
            for t in enumerate_cm_types(field):
                e = reflex_field(t)
                assert e.group == field.group and e.iota == field.iota

    def test_reflex_conjugation(self):
        # stabilizer of a translate is the conjugate stabilizer
        for field in ALL_TEST_FIELDS:
            g = field.group
            for t in enumerate_cm_types(field):
                stab = set(stabilizer(t).elements)
                for tau in g.elements():
                    moved = stabilizer(translate_left(tau, t))
                    expected = {g.mul(g.mul(tau, s), g.inv(tau)) for s in stab}
                    assert set(moved.elements) == expected

    def test_double_reflex_on_primitive(self):
        for field in ALL_TEST_FIELDS:
            for t in enumerate_cm_types(field):
                if not is_primitive(t):
                    continue
                back = reflex_type(reflex_type(t))
                assert back.field.fixer.elements == field.fixer.elements
                assert back.cosets == t.cosets


class TestInductionRestriction:
    def test_restrict_to_self(self):
        for field in ALL_TEST_FIELDS:
            for t in enumerate_cm_types(field):
                assert restricts_to(t, field) == t

    def test_klein_imprimitive(self):
        f = klein_field()
        t = validate_cm_type(f, {0, 1})
        assert not is_primitive(t)
        small = CMFieldHandle(group=f.group, iota=3, fixer=f.group.subgroup([0, 1]))
        small_type = restricts_to(t, small)
        assert small_type is not None
        assert induce(f, small_type) == t

    def test_klein_all_imprimitive(self):
        assert all(not is_primitive(t) for t in enumerate_cm_types(klein_field()))

    def test_c4_primitive(self):
        # the only intermediate subgroup of C4 contains iota, so its fixed
        # field is real and every type is primitive
        f = c4_field()
        between = subgroups_containing(f.group, f.fixer)
        proper_cm = [
            s for s in between if f.iota not in s and s.order > f.fixer.order
        ]
        assert proper_cm == []
        assert all(is_primitive(t) for t in enumerate_cm_types(f))

    def test_d4_types_primitive(self):
        assert all(is_primitive(t) for t in enumerate_cm_types(battery_field("D4")))

    def test_not_nested(self):
        f = klein_field()
        t = validate_cm_type(f, {0, 1})
        other = CMFieldHandle(
            group=f.group, iota=3, fixer=f.group.subgroup([0, 1])
        )
        small_type = restricts_to(t, other)
        with pytest.raises(NotNested, match="first field does not contain the second"):
            restricts_to(small_type, f)  # wrong nesting direction

    def test_require_nested_on_every_generator(self):
        # in C2^3 with iota = 4, the field fixed by {0, 1, 2, 3} (generators 1
        # and 2) does not contain the one fixed by {0, 1}: the first generator
        # lies in the smaller fixer, the second does not
        g = direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2))
        big = CMFieldHandle(group=g, iota=4, fixer=g.subgroup([0, 1, 2, 3]))
        small = CMFieldHandle(group=g, iota=4, fixer=g.subgroup([0, 1]))
        assert big.fixer.generators == (1, 2)
        require_nested(small, big)
        with pytest.raises(NotNested, match="first field does not contain the second"):
            require_nested(big, small)
        with pytest.raises(NotNested, match="fields live in different ambient contexts"):
            require_nested(klein_field(), small)

    def test_restriction_fails_for_primitive(self):
        f = klein_field()
        small = CMFieldHandle(group=f.group, iota=3, fixer=f.group.subgroup([0, 2]))
        t = validate_cm_type(f, {0, 1})
        # {0,1} restricts along {0,1} but not along {0,2}
        assert restricts_to(t, small) is None

    def test_cm_subfields_of_d4(self):
        f = battery_field("D4")
        subs = cm_subfields(f)
        assert [s.fixer.elements for s in subs] == [(0, 4)]


class TestClosure:
    def test_closure_handles(self):
        for field in ALL_TEST_FIELDS:
            cl = closure_of(field)
            assert cl.degree == field.group.order
            assert cl.is_galois()
