"""Cayley-table groups, abelianizations, and the transfer homomorphism."""

import itertools
import random

import pytest

from cmtypes_oracle import commutator_subgroup, subgroup_generated
from cocycle_oracle import as_group
from cmcalc.battery import BATTERY_NAMES, battery_field
from cmcalc.errors import InternalInconsistency, NotAGroup, NotASubgroup
from cmcalc.intlinalg import generating_set
from cmcalc.groups import (
    abelianization,
    coset_of,
    cyclic_group,
    dihedral_group,
    direct_product,
    left_cosets,
    make_group,
    transfer,
    transfer_product,
)


def power(g, a, k):
    """a^k in g for k >= 0, by repeated multiplication."""
    out = g.identity
    for _ in range(k):
        out = g.mul(out, a)
    return out


ABELIAN_TEST_GROUPS = [
    cyclic_group(n) for n in (1, 2, 3, 4, 6, 8, 12, 16)
] + [
    direct_product(cyclic_group(2), cyclic_group(2)),
    direct_product(cyclic_group(2), cyclic_group(4)),
    direct_product(cyclic_group(4), cyclic_group(4)),
]


class TestMakeGroup:
    def test_c2(self):
        g = make_group([[0, 1], [1, 0]])
        assert g.order == 2 and g.identity == 0

    def test_c4(self):
        g = cyclic_group(4)
        assert g.order == 4
        assert g.mul(1, 3) == 0
        assert g.inv(1) == 3

    def test_no_inverse(self):
        with pytest.raises(NotAGroup):
            make_group([[0, 0], [0, 0]])

    def test_nonzero_identity_found(self):
        g = make_group([[1, 0], [0, 1]])
        assert g.identity == 1

    def test_no_identity(self):
        with pytest.raises(NotAGroup):
            make_group([[0, 1], [0, 1]])

    def test_associativity_witness(self):
        # latin square that is not associative
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup) as err:
            make_group(table)
        assert err.value.witness is not None

    def test_out_of_range(self):
        with pytest.raises(NotAGroup):
            make_group([[0, 1], [1, 7]])

    def test_dihedral(self):
        g = dihedral_group(4)
        assert g.order == 8
        assert g.is_central(2)  # the half turn


# C200 with one entry changed: above order 64, where make_group once sampled
BROKEN_C200 = [[(a + b) % 200 for b in range(200)] for a in range(200)]
BROKEN_C200[3][5] = 9
# identity 0, every element its own inverse; the greedy generators are 1 and
# 2, and (ab)1 == a(b1) for all a, b, so only the second exposes the failure
SECOND_GENERATOR_TABLE = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]]
# identity 0; the first right inverse of 1 is 2, but 2 * 1 = 3, so only a
# scan finds its two-sided inverse 3
ONE_SIDED_FIRST = [[0, 1, 2, 3], [1, 3, 0, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
# identity 0; 2 * 1 = 0 but 1 * 2 = 2, and 2 has no other inverse
NO_INVERSE = [[0, 1, 2], [1, 0, 2], [2, 0, 1]]
GENERATOR_CHECK_GROUPS = [battery_field(name).group for name in BATTERY_NAMES] + [
    direct_product(dihedral_group(4), cyclic_group(2))
]


def inverse_scan(table):
    """Oracle: for each a the first b with ab = ba = 0 by a pairwise scan,
    None where there is none (every table here has identity 0)."""
    n = len(table)
    return [next((b for b in range(n) if table[a][b] == table[b][a] == 0), None)
            for a in range(n)]


def associative(table):
    """Oracle: (ab)c == a(bc) over all n^3 triples."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


class TestGeneratorChecks:
    """Checks on the greedy generators against their all-elements definitions."""

    def test_light_test_matches_all_triples(self):
        tables = [g.table for g in GENERATOR_CHECK_GROUPS]
        tables += [BROKEN_C200, SECOND_GENERATOR_TABLE]
        for table in tables:
            try:
                make_group(table)
                verdict = True
            except NotAGroup as err:
                assert str(err) == "associativity fails"
                a, b, c = err.witness
                assert table[table[a][b]][c] != table[a][table[b][c]]
                verdict = False
            assert verdict == associative(table), len(table)

    def test_inverses_match_pairwise_scan(self):
        tables = [g.table for g in GENERATOR_CHECK_GROUPS]
        tables += [BROKEN_C200, SECOND_GENERATOR_TABLE, ONE_SIDED_FIRST, NO_INVERSE]
        for table in tables:
            expected = inverse_scan(table)
            missing = [a for a, b in enumerate(expected) if b is None]
            try:
                group = make_group(table)
            except NotAGroup as err:
                if "inverse" in str(err):
                    assert err.witness == (missing[0],), table
                    continue
                group = None
            assert not missing, table
            if group is not None:
                assert group.inverses == tuple(expected)

    def test_one_walk_per_group(self, monkeypatch):
        # make_group's Light's test runs on the generators the group caches:
        # validating a table and reading .generators walks it once
        import cmcalc.groups as groups

        walks = []

        def counted(elements, mul, identity):
            walks.append(len(elements))
            return generating_set(elements, mul, identity)

        table = direct_product(dihedral_group(4), cyclic_group(2)).table
        monkeypatch.setattr(groups, "generating_set", counted)
        group = make_group(table)
        assert group.generators == (1, 2, 8) and walks == [16]

    def test_definitions_on_every_subgroup(self):
        for g in GENERATOR_CHECK_GROUPS:
            elements = g.elements()
            for a in elements:
                assert g.is_central(a) == all(g.mul(a, b) == g.mul(b, a) for b in elements)
            for h in _all_subgroups(g):
                members = set(h.elements)
                conjugates = [{g.conj(x, y) for y in members} for x in elements]
                for x in elements:
                    assert h.normalizes(x) == (conjugates[x] <= members)
                assert h.is_normal() == all(c <= members for c in conjugates)
                outside = [x for x in elements if x not in members]
                candidates = [members | {x} for x in outside]
                candidates += [members - {x} for x in members if x != g.identity]
                # H and a coset xH are closed under every generator in H: a
                # later generator has to find the escape
                candidates += [members | {g.mul(x, y) for y in members} for x in outside]
                for candidate in candidates:
                    closed = all(g.mul(a, b) in candidate for a in candidate for b in candidate)
                    try:
                        g.subgroup(candidate)
                        built = True
                    except NotASubgroup:
                        built = False
                    assert built == closed, (g.order, sorted(candidate))


class TestSubgroups:
    def test_closure_required(self):
        g = cyclic_group(4)
        with pytest.raises(NotASubgroup):
            g.subgroup([0, 1])

    def test_identity_required(self):
        g = cyclic_group(4)
        with pytest.raises(NotASubgroup):
            g.subgroup([2])

    def test_generated(self):
        g = dihedral_group(4)
        assert subgroup_generated(g, [1]).elements == (0, 1, 2, 3)
        assert subgroup_generated(g, [4, 1]).order == 8

    def test_normality(self):
        g = dihedral_group(4)
        assert g.subgroup([0, 1, 2, 3]).is_normal()
        assert not g.subgroup([0, 4]).is_normal()


class TestCosets:
    def test_full_subgroup_single_coset(self):
        g = cyclic_group(6)
        assert left_cosets(g, g.subgroup(g.elements())) == ((0, 1, 2, 3, 4, 5),)

    def test_trivial_subgroup(self):
        g = cyclic_group(4)
        assert left_cosets(g, g.trivial_subgroup()) == ((0,), (1,), (2,), (3,))

    def test_lagrange(self):
        g = dihedral_group(4)
        for elements in [(0, 4), (0, 2), (0, 1, 2, 3), (0, 2, 4, 6)]:
            sub = g.subgroup(elements)
            cosets = left_cosets(g, sub)
            assert len(cosets) * sub.order == g.order

    def test_canonical_order(self):
        g = dihedral_group(4)
        cosets = left_cosets(g, g.subgroup([0, 4]))
        mins = [c[0] for c in cosets]
        assert mins == sorted(mins)
        for i, coset in enumerate(cosets):
            for x in coset:
                assert coset_of(g, g.subgroup([0, 4]), x) == i


class TestAbelianization:
    def test_abelian_is_bijective(self):
        g = cyclic_group(8)
        q = abelianization(g.subgroup(g.elements()))
        assert q.order == 8
        images = {q.project(x) for x in range(8)}
        assert len(images) == 8

    def test_dihedral_quotient_order_four(self):
        g = dihedral_group(4)
        # brute-force commutator subgroup oracle
        comms = {
            g.mul(g.mul(a, b), g.inv(g.mul(b, a)))
            for a in range(8)
            for b in range(8)
        }
        closure = subgroup_generated(g, comms)
        assert closure.elements == (0, 2)
        q = abelianization(g.subgroup(g.elements()))
        assert q.order == 4
        assert q.moduli == (2, 2)

    def test_trivial_group(self):
        g = cyclic_group(1)
        q = abelianization(g.subgroup(g.elements()))
        assert q.order == 1 and q.moduli == ()

    def test_kernel_is_commutator_subgroup(self):
        for g in [dihedral_group(3), dihedral_group(4), dihedral_group(6)]:
            h = g.subgroup(g.elements())
            q = abelianization(h)
            kernel = {x for x in h.elements if q.project(x) == q.zero}
            assert kernel == set(commutator_subgroup(h).elements)

    def test_projection_homomorphism_exhaustive(self):
        # the all-pairs audit of the projection and its order, on every subgroup
        for g in ABELIAN_TEST_GROUPS + [dihedral_group(4)]:
            for h in _all_subgroups(g):
                q = abelianization(h)
                for a in h.elements:
                    for b in h.elements:
                        assert q.project(g.mul(a, b)) == q.add(q.project(a), q.project(b))
                assert q.order == h.order // commutator_subgroup(h).order


class TestTransfer:
    def test_c4_worked_example(self):
        g = cyclic_group(4)
        h = g.subgroup([0, 2])
        q = abelianization(h)
        assert transfer(g, h, 1, quotient=q) == q.project(2)

    def test_identity_maps_to_zero(self):
        g = dihedral_group(4)
        h = g.subgroup([0, 4])
        q = abelianization(h)
        assert transfer(g, h, 0, quotient=q) == q.zero

    def test_abelian_power_formula(self):
        # for abelian G of index m, the transfer is g -> g^m
        for g in ABELIAN_TEST_GROUPS:
            subgroups = _all_subgroups(g)
            for sub in subgroups:
                q = abelianization(sub)
                m = g.order // sub.order
                for x in g.elements():
                    assert transfer(g, sub, x, quotient=q) == q.project(power(g, x, m))

    def test_homomorphism_exhaustive(self):
        contexts = [
            (cyclic_group(12), (0, 4, 8)),
            (dihedral_group(4), (0, 4)),
            (dihedral_group(4), (0, 1, 2, 3)),
            (direct_product(cyclic_group(2), cyclic_group(4)), (0, 1, 2, 3)),
        ]
        for g, elements in contexts:
            h = g.subgroup(elements)
            q = abelianization(h)
            values = {x: transfer(g, h, x, quotient=q) for x in g.elements()}
            for a in g.elements():
                for b in g.elements():
                    assert values[g.mul(a, b)] == q.add(values[a], values[b])

    def test_representative_independence(self):
        g = dihedral_group(4)
        h = g.subgroup([0, 4])
        q = abelianization(h)
        cosets = left_cosets(g, h)
        rng = random.Random(5)
        baseline = {x: transfer(g, h, x, quotient=q) for x in g.elements()}
        for _ in range(100):
            reps = tuple(rng.choice(c) for c in cosets)
            for x in g.elements():
                assert transfer(g, h, x, quotient=q, reps=reps) == baseline[x]

    def test_bad_reps_rejected(self):
        g = cyclic_group(4)
        h = g.subgroup([0, 2])
        # -1 would index the table from its end and stand for 3
        for reps in [(0, 0), (0, -1), (0, 5), (0, 1.0)]:
            with pytest.raises(NotASubgroup):
                transfer_product(g, h, 1, reps=reps)

    def test_element_outside_group_rejected(self):
        # -1 would index the table from its end and stand for 7, 8 would
        # raise a bare IndexError, and True or 1.0 would stand for 1
        g = direct_product(cyclic_group(2), cyclic_group(4))
        h = g.subgroup([0, 1, 2, 3])
        for x in (-1, 8, True, 1.0, "1"):
            with pytest.raises(NotASubgroup, match="not an element of the group"):
                transfer(g, h, x)
            with pytest.raises(NotASubgroup, match="not an element of the group"):
                transfer_product(g, h, x, reps=(0, 4))

    def test_shared_coset_rejected(self):
        # 0 and 2 both represent H; g = 2 keeps each of them inside H
        g = cyclic_group(4)
        h = g.subgroup([0, 2])
        with pytest.raises(NotASubgroup, match="share a coset"):
            transfer_product(g, h, 2, reps=(0, 2))

    def test_element_leaving_the_cosets_rejected(self):
        g = cyclic_group(4)
        h = g.subgroup([0, 2])
        # over H alone the transfer from H to H is the identity map
        assert transfer_product(g, h, 2, reps=(0,)) == 2
        with pytest.raises(NotASubgroup, match="leaves the represented cosets"):
            transfer_product(g, h, 1, reps=(0,))

    def test_subgroup_transfer_matches_reindexed_group(self):
        # Ver_{S -> M} over S's cosets of M in G, against S rebuilt as a group
        # of its own with the transfer taken there and mapped back
        groups = [
            dihedral_group(4),
            direct_product(cyclic_group(2), cyclic_group(4)),
            cyclic_group(12),
            direct_product(dihedral_group(4), cyclic_group(2)),
        ]
        pairs = 0
        for g in groups:
            subgroups = _all_subgroups(g)
            for s in subgroups:
                s_group, to_sub, to_parent = as_group(s)
                for m in subgroups:
                    if not set(m.elements) <= set(s.elements):
                        continue
                    pairs += 1
                    q = abelianization(m)
                    m_in_s = s_group.subgroup(to_sub[x] for x in m.elements)
                    reps = tuple(c[0] for c in left_cosets(g, m) if c[0] in s)
                    for tau in s.elements:
                        ver = transfer_product(s_group, m_in_s, to_sub[tau])
                        got = transfer_product(g, m, tau, reps)
                        assert q.project(got) == q.project(to_parent[ver]), (g.order, s, m)
        assert pairs == 287

    def test_wrong_parent(self):
        g = cyclic_group(4)
        other = cyclic_group(8)
        h = other.subgroup([0, 4])
        with pytest.raises(NotASubgroup):
            transfer(g, h, 1)


def _all_subgroups(g):
    found = {g.trivial_subgroup().elements: g.trivial_subgroup()}
    frontier = [g.trivial_subgroup()]
    while frontier:
        current = frontier.pop()
        for x in g.elements():
            if x in current:
                continue
            bigger = subgroup_generated(g, tuple(current.elements) + (x,))
            if bigger.elements not in found:
                found[bigger.elements] = bigger
                frontier.append(bigger)
    return list(found.values())
