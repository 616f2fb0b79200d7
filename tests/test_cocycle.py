"""Representative-system cocycles and their identity suite."""

import json
import pathlib

import pytest

from cmcalc.battery import BATTERY_NAMES, battery_field
from cmcalc.cmtypes import CMFieldHandle, enumerate_cm_types, stabilizer, validate_cm_type
from cmcalc.cocycle import (
    WSystem,
    check_cocycle_law,
    check_rep_independence,
    check_reflex_compatibility,
    check_transfer_identity,
    choose_w_system,
    taniyama_cocycle,
)
from cmcalc.errors import CMError, FactorNotInH
from cmcalc.groups import cyclic_group, transfer

from test_groups import power
from test_serre import ORDER16

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cocycle_golden.json").read_text()
)

ALL_FIELDS = [battery_field(n) for n in BATTERY_NAMES]


def c12_field():
    """Extra context with values cycling through Z/3: quartic field whose
    fixing subgroup is the 3-element subgroup of a cyclic group of order 12."""
    g = cyclic_group(12)
    return CMFieldHandle(group=g, iota=6, fixer=g.subgroup([0, 4, 8]))


class TestWSystems:
    def test_quadratic_canonical(self):
        field = battery_field("C2")
        w = choose_w_system(field)
        assert w.reps == (0, 1)

    def test_constraint_holds_any_seed(self):
        field = battery_field("D4")
        for seed in range(20):
            w = choose_w_system(field, seed=seed)
            g = field.group
            for c in range(field.degree):
                assert field.coset_index(w.reps[c]) == c
                ic = field.act(field.iota, c)
                assert w.reps[ic] == g.mul(field.iota, w.reps[c])

    def test_seeds_vary(self):
        field = battery_field("D4")
        seen = {choose_w_system(field, seed=s).reps for s in range(30)}
        assert len(seen) > 1

    def test_invalid_rejected(self):
        field = battery_field("D4")
        with pytest.raises(CMError):
            WSystem(field=field, reps=(0, 1, 2, 7))  # breaks the pairing

    def test_wrong_coset_rejected(self):
        field = battery_field("D4")
        with pytest.raises(CMError):
            WSystem(field=field, reps=(1, 0, 3, 2))


class TestCocycleValues:
    def test_identity_element_gives_zero(self):
        for field in ALL_FIELDS:
            q = field.quotient
            w = choose_w_system(field)
            for t in enumerate_cm_types(field):
                assert taniyama_cocycle(t, field.group.identity, w) == q.zero

    def test_trivial_fixer_always_zero(self):
        field = battery_field("C4")
        q = field.quotient
        w = choose_w_system(field)
        for t in enumerate_cm_types(field):
            for tau in field.group.elements():
                assert taniyama_cocycle(t, tau, w) == q.zero

    def test_golden_values(self):
        for name, table in GOLDEN.items():
            field = battery_field(name)
            q = field.quotient
            assert list(q.moduli) == table["moduli"]
            w = choose_w_system(field)
            for key, per_tau in table["values"].items():
                cm_type = validate_cm_type(field, [int(c) for c in key.split(",")])
                for tau_s, expected in per_tau.items():
                    got = taniyama_cocycle(cm_type, int(tau_s), w)
                    assert list(got) == expected, (name, key, tau_s)

    def test_c12_values_nontrivial(self):
        field = c12_field()
        q = field.quotient
        assert q.moduli == (3,)
        w = choose_w_system(field)
        values = {
            taniyama_cocycle(t, tau, w)
            for t in enumerate_cm_types(field)
            for tau in field.group.elements()
        }
        assert len(values) == 3  # the whole Z/3 appears

    def test_c12_stabilizer_orbits_split(self):
        # the reflex check decomposes these types into two singleton orbits
        from cmcalc.cocycle import _orbits_under

        field = c12_field()
        t = validate_cm_type(field, {0, 1})
        stab = stabilizer(t)
        assert stab.elements == (0, 4, 8)
        assert _orbits_under(stab, field, t.cosets) == [[0], [1]]


class TestIdentities:
    @pytest.mark.parametrize("name", BATTERY_NAMES)
    def test_cocycle_law(self, name):
        rep = check_cocycle_law(battery_field(name))
        assert rep["passed"] and rep["checked"] > 0

    @pytest.mark.parametrize("name", BATTERY_NAMES)
    def test_transfer_identity(self, name):
        rep = check_transfer_identity(battery_field(name))
        assert rep["passed"]

    @pytest.mark.parametrize("name", BATTERY_NAMES)
    def test_rep_independence(self, name):
        for t in enumerate_cm_types(battery_field(name)):
            assert check_rep_independence(t, trials=30, seed=1)["passed"]

    @pytest.mark.parametrize("name", BATTERY_NAMES)
    def test_reflex_compatibility(self, name):
        for t in enumerate_cm_types(battery_field(name)):
            rep = check_reflex_compatibility(t)
            assert rep["passed"] and rep["orbit_checks"] > 0

    def test_all_identities_on_c12(self):
        field = c12_field()
        assert check_cocycle_law(field)["passed"]
        assert check_transfer_identity(field)["passed"]
        for t in enumerate_cm_types(field):
            assert check_rep_independence(t, trials=30)["passed"]
            assert check_reflex_compatibility(t)["passed"]

    def test_abelian_transfer_oracle(self):
        # on abelian contexts the transfer is g -> g^[G:H]
        for field in [battery_field("C2xC4"), c12_field()]:
            g = field.group
            q = field.quotient
            m = field.degree
            for tau in g.elements():
                assert transfer(g, field.fixer, tau, quotient=q) == q.project(
                    power(g, tau, m)
                )

    def test_product_order_immaterial(self):
        # recompute the value with the type's cosets visited in any order
        import random

        rng = random.Random(17)
        fields = [battery_field("C2xC4"), battery_field("D4"), c12_field(), ORDER16]
        for field in fields:
            q = field.quotient
            w = choose_w_system(field)
            g = field.group
            for t in enumerate_cm_types(field):
                for tau in g.elements():
                    base = taniyama_cocycle(t, tau, w)
                    orderings = [list(reversed(t.cosets))]
                    for _ in range(5):
                        shuffled = list(t.cosets)
                        rng.shuffle(shuffled)
                        orderings.append(shuffled)
                    for ordering in orderings:
                        product = g.identity
                        for c in ordering:
                            tc = field.act(tau, c)
                            factor = g.mul(g.inv(w.reps[tc]), g.mul(tau, w.reps[c]))
                            product = g.mul(product, factor)
                        assert q.project(product) == base


class TestNegativeControl:
    def _broken(self, field):
        good = choose_w_system(field)
        reps = list(good.reps)
        c, ic = field.iota_pairs[0]
        alternative = next(w for w in field.cosets[ic] if w != reps[ic])
        reps[ic] = alternative
        return self._unchecked(field, reps)

    def _unchecked(self, field, reps):
        broken = WSystem.__new__(WSystem)  # skips the validation in __post_init__
        object.__setattr__(broken, "field", field)
        object.__setattr__(broken, "reps", tuple(reps))
        return broken

    @pytest.mark.parametrize("name", ["D4", "C2xC4"])
    def test_breaking_pairing_changes_values(self, name):
        field = battery_field(name)
        good = choose_w_system(field)
        broken = self._broken(field)
        changed = False
        for t in enumerate_cm_types(field):
            for tau in field.group.elements():
                if taniyama_cocycle(t, tau, good) != taniyama_cocycle(t, tau, broken):
                    changed = True
        assert changed

    def test_representative_outside_its_coset_raises(self):
        field = battery_field("D4")
        reps = list(choose_w_system(field).reps)
        reps[0] = next(w for w in field.cosets[1] if w != reps[1])
        broken = self._unchecked(field, reps)
        with pytest.raises(FactorNotInH):
            taniyama_cocycle(enumerate_cm_types(field)[0], 1, broken)

    def test_extra_system_reported(self):
        field = battery_field("C2xC4")
        t = enumerate_cm_types(field)[0]
        rep = check_rep_independence(t, trials=5, extra_system=self._broken(field))
        assert not rep["passed"]
        assert any(f["trial"] == -1 for f in rep["failures"])


class TestRightTranslationConjugation:
    def test_cocycle_of_right_translate_is_conjugate(self):
        # for tau normalizing the fixer, the cocycle of phi*tau^-1 at sigma
        # is the tau-conjugate of the cocycle of phi at sigma
        from cmcalc.cmtypes import translate_right

        for field in [battery_field("C2xC4"), c12_field(), battery_field("D4")]:
            g = field.group
            q = field.quotient
            w = choose_w_system(field)
            normalizing = [
                tau for tau in g.elements() if field.fixer.normalizes(tau)
            ]
            for t in enumerate_cm_types(field):
                for tau in normalizing:
                    moved = translate_right(g.inv(tau), t)
                    for sigma in g.elements():
                        base = taniyama_cocycle(t, sigma, w)
                        # conjugation by tau descends to the quotient
                        rep_elt = next(
                            x for x in field.fixer.elements if q.project(x) == base
                        )
                        conj = g.mul(g.mul(tau, rep_elt), g.inv(tau))
                        assert taniyama_cocycle(moved, sigma, w) == q.project(conj)
