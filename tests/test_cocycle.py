"""Representative-system cocycles and their identity suite."""

import json
import pathlib

import pytest

import cocycle_oracle as oracle
from cmcalc.battery import BATTERY_NAMES, battery_field
from cmcalc.cmtypes import (
    CMFieldHandle,
    enumerate_cm_types,
    require_enumerable,
    stabilizer,
    translate_left,
    validate_cm_type,
)
from cmcalc.cocycle import (
    WSystem,
    check_cocycle_law,
    check_rep_independence,
    check_reflex_compatibility,
    check_transfer_identity,
    choose_w_system,
    cocycle_report,
    taniyama_cocycle,
)
from cmcalc.errors import CMError, FactorNotInH, InternalInconsistency, NotAnInteger
from cmcalc.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    transfer,
    transfer_product,
)
from cmcalc.serre import check_cm_type_generation, check_reflex_norms

from test_groups import power
from test_serre import ORDER16

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cocycle_golden.json").read_text()
)

ALL_FIELDS = [battery_field(n) for n in BATTERY_NAMES]


def d3xc2_field():
    """Non-Galois sextic field in D3 x C2 with iota = 1 and H = {1, s}: for 6 of
    its 14 (type, stabilizer orbit) pairs, S meet sigma H sigma^-1 is not S meet H."""
    g = direct_product(dihedral_group(3), cyclic_group(2))
    return CMFieldHandle(group=g, iota=1, fixer=g.subgroup([0, 6]))


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

    @pytest.mark.parametrize(
        "reps", [(False, 1, 2, 3), (0, 1.0, 2, 3), (0, 1, 2, 3.0), ("0", 1, 2, 3)]
    )
    def test_non_int_representative_rejected(self, reps):
        # False was accepted as 0; a float raised a bare TypeError
        bad = next(w for w in reps if type(w) is not int)
        with pytest.raises(NotAnInteger, match=f"representative {bad!r} is not an integer"):
            WSystem(field=battery_field("C4"), reps=reps)

    def test_int_gate_before_pairing(self):
        # coset 1 pairs with coset 3, whose representative "3" is not 3: the
        # refusal names the non-integer instead of the failed pairing
        with pytest.raises(NotAnInteger, match="representative '3' is not an integer"):
            WSystem(field=battery_field("C4"), reps=(0, 1, 2, "3"))

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
        field = c12_field()
        t = validate_cm_type(field, {0, 1})
        stab = stabilizer(t)
        assert stab.elements == (0, 4, 8)
        assert oracle._orbits_under(stab, field, t.cosets) == [[0], [1]]
        assert check_reflex_compatibility(t)["orbit_checks"] == 3 * 2


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


def _contexts():
    """The battery fields and their closures, c12_field(), ORDER16 and its
    closure, and d3xc2_field()."""
    fields = [battery_field(n) for n in BATTERY_NAMES]
    extra = [c12_field(), ORDER16, ORDER16.closure, d3xc2_field()]
    return fields + [f.closure for f in fields] + extra


CONTEXTS = _contexts()
CONTEXT_IDS = [
    f"{n}{suffix}" for suffix in ("", "-closure") for n in BATTERY_NAMES
] + ["c12", "order16", "order16-closure", "d3xc2"]


def _fresh(field):
    """An equal handle with none of the cached tables, safe to corrupt."""
    return CMFieldHandle(group=field.group, iota=field.iota, fixer=field.fixer)


def _oracle_independence(field, trials, seed, extra_system=None):
    systems = oracle._random_systems(field, trials, seed, extra_system)
    return [oracle._rep_independence(t, trials, systems) for t in enumerate_cm_types(field)]


def _report_independence(report):
    return [c for c in report["checks"] if c["law"] == "cocycle_rep_independence"]


def _report_reflex(report):
    return [c for c in report["checks"] if c["law"] == "reflex_orbit_transfer"]


def _named(name):
    """A fresh handle on a battery field, c12_field() or ORDER16, by name."""
    base = c12_field() if name == "c12" else ORDER16 if name == "order16" else battery_field(name)
    return _fresh(base)


def _shift_factors(wsys, tau, cosets):
    """Shift the system's factors at tau on the given cosets by a nonzero class,
    through its factors cached property."""
    q = wsys.field.quotient
    assert q.order > 1
    factors = [list(row) for row in wsys.factors]
    shift = next(v for v in q.code if v != q.zero)
    for c in cosets:
        factors[tau][c] = q.add(factors[tau][c], shift)
    wsys.__dict__["factors"] = tuple(tuple(row) for row in factors)
    return wsys


def _corrupted(name, tau):
    """A fresh handle on a named field whose canonical factor at (tau, coset 0)
    is shifted by a nonzero class."""
    field = _named(name)
    _shift_factors(field.canonical_w_system, tau, [0])
    return field


class TestTables:
    @pytest.mark.parametrize("field", CONTEXTS, ids=CONTEXT_IDS)
    def test_sweeps_match_oracle(self, field):
        assert check_cocycle_law(field) == oracle.check_cocycle_law(field)
        assert check_transfer_identity(field) == oracle.check_transfer_identity(field)
        report = cocycle_report(field, trials=3, seed=5)
        assert _report_independence(report) == _oracle_independence(field, 3, 5)
        # the report shares its orbit verdicts among the types of one stabilizer
        reflex = [oracle.check_reflex_compatibility(t) for t in enumerate_cm_types(field)]
        assert _report_reflex(report) == reflex

    @pytest.mark.parametrize("field", CONTEXTS, ids=CONTEXT_IDS)
    def test_single_type_independence_matches_oracle(self, field):
        for t in enumerate_cm_types(field)[:16]:
            systems = oracle._random_systems(field, 3, 2, None)
            expected = oracle._rep_independence(t, 3, systems)
            assert check_rep_independence(t, trials=3, seed=2) == expected

    @pytest.mark.parametrize("field", CONTEXTS, ids=CONTEXT_IDS)
    def test_translation_table(self, field):
        types = enumerate_cm_types(field)
        index = {t.cosets: i for i, t in enumerate(types)}
        left = field.type_translation
        for i, t in enumerate(types):
            for tau in field.group.elements():
                assert left[tau][i] == index[translate_left(tau, t).cosets]
            fixed = [tau for tau in field.group.elements() if left[tau][i] == i]
            assert tuple(fixed) == stabilizer(t).elements

    @pytest.mark.parametrize("field", CONTEXTS, ids=CONTEXT_IDS)
    def test_value_codes(self, field):
        q = field.quotient
        values = list(q.code)
        assert len(values) == q.order and values[0] == q.zero
        for a, u in enumerate(values):
            for b, v in enumerate(values):
                assert values[q.sum_table[a][b]] == q.add(u, v)
        w = field.canonical_w_system
        for i, t in enumerate(enumerate_cm_types(field)):
            row = [taniyama_cocycle(t, tau, w) for tau in field.group.elements()]
            assert [values[v] for v in w.value_rows(field.iota_pairs)[i]] == row

    @pytest.mark.parametrize("field", CONTEXTS, ids=CONTEXT_IDS)
    def test_reflex_matches_oracle(self, field):
        # the ambient-group transfer against the stabilizer rebuilt as a group
        for t in enumerate_cm_types(field):
            assert check_reflex_compatibility(t) == oracle.check_reflex_compatibility(t)

    def test_report_transfers_once_per_stabilizer_orbit(self, monkeypatch):
        # one transfer_product per (distinct stabilizer, orbit met by a type,
        # tau in the stabilizer), the stabilizers read as the fixed points of
        # the translation table: 272 on the order-16 closure, not 2 048
        import cmcalc.cocycle as cocycle

        field = ORDER16.closure
        left = field.type_translation
        met = set()
        for i, t in enumerate(enumerate_cm_types(field)):
            stab = tuple(tau for tau in field.group.elements() if left[tau][i] == i)
            met |= {(stab, frozenset(field.act(s, c) for s in stab)) for c in t.cosets}
        expected = sum(len(stab) for stab, _ in met)
        calls = []

        def counted(*args):
            calls.append(args)
            return transfer_product(*args)

        monkeypatch.setattr(cocycle, "transfer_product", counted)
        cocycle_report(field, trials=1, seed=0)
        assert len(calls) == expected == 272
        assert len({stab for stab, _ in met}) == 17

    def test_reflex_orbits_off_the_fixer(self):
        # M_j depends on the orbit's base point here, not on H alone
        field = d3xc2_field()
        g = field.group
        assert field.degree == 6 and not field.is_galois()
        pairs, moved, checks = 0, 0, 0
        for t in enumerate_cm_types(field):
            stab = stabilizer(t)
            for orbit in oracle._orbits_under(stab, field, t.cosets):
                sigma = field.cosets[orbit[0]][0]
                # S meet sigma H sigma^-1, by conjugation
                fixing = {s for s in stab.elements if g.conj(g.inv(sigma), s) in field.fixer}
                pairs += 1
                moved += fixing != {s for s in stab.elements if s in field.fixer}
            report = check_reflex_compatibility(t)
            assert report["passed"]
            checks += report["orbit_checks"]
        assert (len(enumerate_cm_types(field)), pairs, moved, checks) == (8, 14, 6, 36)

    def test_translation_table_refuses_above_bound(self):
        g = cyclic_group(34)
        field = CMFieldHandle(group=g, iota=17, fixer=g.trivial_subgroup())
        with pytest.raises(CMError, match="exceed the enumeration bound"):
            field.type_translation

    def test_single_type_reflex_above_bound(self, monkeypatch):
        # one type's reflex check costs O(g |G|) and builds no table over all types
        import cmcalc.cmtypes as cmtypes

        def refuse(self):
            raise AssertionError("a table over all CM-types was built")

        monkeypatch.setattr(cmtypes.CMFieldHandle, "cm_types", property(refuse))
        monkeypatch.setattr(cmtypes.CMFieldHandle, "type_translation", property(refuse))
        g = cyclic_group(64)
        field = CMFieldHandle(group=g, iota=32, fixer=g.trivial_subgroup())
        with pytest.raises(CMError, match="exceed the enumeration bound"):
            require_enumerable(field)
        report = check_reflex_compatibility(validate_cm_type(field, range(32)))
        # the stabilizer is trivial, so each of the 32 cosets is its own orbit
        assert report["passed"] and report["orbit_checks"] == 32

    def test_order32_closure(self):
        # D4 x C2 x C2 with trivial fixer: 2^16 types, whose law and transfer
        # identity the factor table certifies without a sweep over them
        g = direct_product(direct_product(dihedral_group(4), cyclic_group(2)), cyclic_group(2))
        field = CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())
        assert len(enumerate_cm_types(field)) == 2**16
        assert check_cocycle_law(field) == {
            "law": "cocycle_law", "checked": 2**16 * 32**2, "failures": [], "passed": True
        }
        assert check_transfer_identity(field) == {
            "law": "transfer_identity", "checked": 2**16 * 32, "failures": [], "passed": True
        }
        assert check_cm_type_generation(field)["passed"]

    @pytest.mark.parametrize("name", ["D4", "C2xC4", "c12", "order16"])
    def test_corrupted_factor_matches_oracle(self, name):
        field = _corrupted(name, 1)
        law, transfer_rep = check_cocycle_law(field), check_transfer_identity(field)
        assert law["failures"] and transfer_rep["failures"]
        assert law == oracle.check_cocycle_law(field)
        assert transfer_rep == oracle.check_transfer_identity(field)
        report = cocycle_report(field, trials=2, seed=3)
        assert _report_independence(report) == _oracle_independence(field, 2, 3)
        reflex = [oracle.check_reflex_compatibility(t) for t in enumerate_cm_types(field)]
        assert _report_reflex(report) == reflex

    @pytest.mark.parametrize("name", ["c12", "order16"])
    def test_shared_orbits_not_aliased(self, name):
        # a corrupted identity factor fails the orbit of coset 0 for every type
        # that holds it, so types with one stabilizer fail on one shared orbit;
        # each report still owns its orbit lists
        field = _corrupted(name, 0)
        types = enumerate_cm_types(field)
        reflex = _report_reflex(cocycle_report(field, trials=1, seed=0))
        assert reflex == [oracle.check_reflex_compatibility(t) for t in types]
        failing = [
            (stabilizer(t).elements, tuple(f["orbit"]))
            for t, rep in zip(types, reflex) for f in rep["failures"]
        ]
        assert len(set(failing)) < len(failing)
        owner = {}
        for i, rep in enumerate(reflex):
            for f in rep["failures"]:
                assert owner.setdefault(id(f["orbit"]), i) == i

    @pytest.mark.parametrize("name", ["D4", "C2xC4"])
    def test_broken_extra_system_matches_oracle(self, name):
        field = _fresh(battery_field(name))
        broken = TestNegativeControl()._broken(field)
        report = cocycle_report(field, trials=2, seed=1, extra_system=broken)
        independence = _report_independence(report)
        assert independence == _oracle_independence(field, 2, 1, broken)
        failures = [f for rep in independence for f in rep["failures"]]
        assert failures and all(f["trial"] == -1 and "value" in f for f in failures)

    def test_split_iota_pair_raises(self):
        field = _fresh(c12_field())
        pairs = field.iota_pairs
        tau = 1
        table = [list(row) for row in field.act_table]
        c0, c1 = pairs[0][0], pairs[1][0]
        table[tau][c0], table[tau][c1] = table[tau][c1], table[tau][c0]
        field.__dict__["act_table"] = tuple(tuple(row) for row in table)
        with pytest.raises(InternalInconsistency) as err:
            field.type_translation
        assert err.value.witness == (tau, c1)
        # the reflex norms translate their spanning types through act_table and
        # refuse a translate that is not a half-system; the cocycle law reads
        # only the factors, and the swapped cosets put a factor outside the fixer
        with pytest.raises(InternalInconsistency):
            check_reflex_norms(field)
        with pytest.raises(FactorNotInH):
            check_cocycle_law(field)


class TestRepIndependenceClosedForm:
    """cocycle_report certifies representative independence on the iota-pairs,
    building value rows only for a system that fails: whole reports equal the
    per-type oracle, also when a system breaks only the pair condition or only
    the phi_0 condition."""

    @pytest.mark.parametrize("field", CONTEXTS, ids=CONTEXT_IDS)
    def test_whole_report_matches_oracle(self, field):
        assert cocycle_report(field, trials=3, seed=5) == oracle.cocycle_report(field, 3, 5)

    @pytest.mark.parametrize("name", ["D4", "C2xC4", "order16"])
    def test_broken_extra_system_whole_report(self, name):
        field = _named(name)
        broken = TestNegativeControl()._broken(field)
        report = cocycle_report(field, trials=2, seed=1, extra_system=broken)
        assert not report["passed"]
        assert report == oracle.cocycle_report(field, 2, 1, broken)

    @pytest.mark.parametrize("name", ["C2xC4", "c12", "order16"])
    def test_pair_condition_only(self, name):
        # the second member of the first pair moves, so the sum over phi_0 stays
        # and only the types holding that member change
        field = _named(name)
        extra = _shift_factors(choose_w_system(field, seed=7), 1, [field.iota_pairs[0][1]])
        report = cocycle_report(field, trials=2, seed=3, extra_system=extra)
        assert report == oracle.cocycle_report(field, 2, 3, extra)
        passed = [r["passed"] for r in _report_independence(report)]
        assert passed[0] and not all(passed)

    @pytest.mark.parametrize("name", ["C2xC4", "c12", "order16"])
    def test_phi0_condition_only(self, name):
        # both members of the first pair move alike, so every pair condition
        # holds and every type's value changes
        field = _named(name)
        extra = _shift_factors(choose_w_system(field, seed=7), 1, field.iota_pairs[0])
        report = cocycle_report(field, trials=2, seed=3, extra_system=extra)
        assert report == oracle.cocycle_report(field, 2, 3, extra)
        assert not any(r["passed"] for r in _report_independence(report))
