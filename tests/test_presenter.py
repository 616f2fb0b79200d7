"""The abelian presenter on the generators against the all-pairs presentation.

The oracle writes one relation e_a + e_b - e_ab for every unordered pair of
elements, so it needs no generating set; the library helper writes each
element as a word in a greedy generating set and takes the relations among
the generators from the edges of a Cayley graph.  Both must give the same
invariant factors, and the helper's coordinates must induce an isomorphism
from the group modulo its killed elements onto the product of the cyclic
factors.  Ray class groups are also counted without linear algebra, by the
e-th powers that land on a global unit.
"""

import math

import pytest

from cmcalc import intlinalg as la
from cmcalc import groups, quadratic
from cmcalc.battery import BATTERY_NAMES, battery_field
from cmcalc.errors import InternalInconsistency
from cmcalc.groups import abelianization, cyclic_group, dihedral_group, direct_product
from cmcalc.quadratic import QuadField, ideal_from_generator, ray_class_group
from cmtypes_oracle import commutator_subgroup, subgroup_generated
from linalg_oracle import snf_with_transforms
from quadratic_oracle import unit_residues

# the moduli of the benchmark's rayclass workload: (d, generator, power)
RAYCLASS_MODULI = (
    (-1, (7, 0), 1),
    (-1, (8, 0), 1),
    (-1, (1, 1), 5),
    (-1, (2, 1), 2),
    (-1, (3, 0), 1),
    (-1, (6, 0), 1),
    (-2, (5, 0), 1),
    (-2, (1, 1), 3),
    (-2, (0, 1), 5),
    (-3, (2, 1), 2),
    (-3, (4, 0), 1),
    (-3, (3, 0), 1),
    (-7, (3, 0), 1),
    (-7, (5, 0), 1),
    (-7, (0, 1), 5),
)


def all_pairs_presenter(n, mul, identity, killed=()):
    """Oracle: invariant factors > 1 from the all-pairs relation matrix."""
    rows = []
    for a in range(n):
        for b in range(a, n):
            row = [0] * n
            row[a] += 1
            row[b] += 1
            row[mul(a, b)] -= 1
            rows.append(tuple(row))
    for k in killed:
        row = [0] * n
        row[k] += 1
        rows.append(tuple(row))
    d, _, _ = snf_with_transforms(la.freeze(rows))
    diag = [d[i][i] for i in range(n)]
    assert 0 not in diag
    return tuple(x for x in diag if x > 1)


def _reach(mul, identity, gens):
    """The elements reached from the identity by right products with gens."""
    reached, frontier = {identity}, [identity]
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = mul(y, g)
            if z not in reached:
                reached.add(z)
                frontier.append(z)
    return reached


def assert_presentation(n, mul, identity, killed=()):
    moduli, coords = la.present_abelian(n, mul, identity, killed)
    assert moduli == all_pairs_presenter(n, mul, identity, killed)
    assert all(a % b == 0 for a, b in zip(moduli[1:], moduli))
    assert len(coords) == n
    order = 1
    for m in moduli:
        order *= m
    for x, cx in enumerate(coords):
        assert len(cx) == len(moduli)
        assert all(0 <= c < m for c, m in zip(cx, moduli))
        for y, cy in enumerate(coords):
            total = tuple((a + b) % m for a, b, m in zip(cx, cy, moduli))
            assert coords[mul(x, y)] == total
    # surjective onto the product, with kernel exactly <killed>
    assert len(set(coords)) == order
    kernel = {x for x in range(n) if not any(coords[x])}
    assert kernel == _reach(mul, identity, killed)
    return moduli


def _all_subgroups(g):
    found = {g.trivial_subgroup().elements: g.trivial_subgroup()}
    frontier = [g.trivial_subgroup()]
    while frontier:
        current = frontier.pop()
        for x in g.elements():
            if x not in current:
                bigger = subgroup_generated(g, current.elements + (x,))
                if bigger.elements not in found:
                    found[bigger.elements] = bigger
                    frontier.append(bigger)
    return sorted(found.values(), key=lambda s: s.elements)


def assert_abelianizations(g):
    """abelianization on every subgroup H of g against the coset route: the
    presenter on the cosets of [H,H] in H, ordered by least element.  On an
    abelian H both routes present the same table, so the coordinates agree;
    otherwise the invariants agree and the kernel is [H,H]."""
    subgroups = _all_subgroups(g)
    assert any(h.order == 1 for h in subgroups)
    for h in subgroups:
        comm = commutator_subgroup(h)
        cosets = []
        seen = set()
        for x in h.elements:
            if x not in seen:
                coset = tuple(sorted(g.mul(x, c) for c in comm.elements))
                cosets.append(coset)
                seen.update(coset)
        class_of = {x: i for i, coset in enumerate(cosets) for x in coset}
        reps = [c[0] for c in cosets]
        mul = lambda a, b: class_of[g.mul(reps[a], reps[b])]
        assert_presentation(len(cosets), mul, class_of[g.identity])
        moduli, coords = la.present_abelian(len(cosets), mul, class_of[g.identity])
        q = abelianization(h)
        assert q.moduli == moduli, h.elements
        if comm.order == 1:
            assert [q.project(x) for x in h.elements] == coords, h.elements
        else:
            kernel = tuple(x for x in h.elements if q.project(x) == q.zero)
            assert kernel == comm.elements, h.elements


@pytest.mark.parametrize("name", BATTERY_NAMES)
def test_every_battery_subgroup_abelianization(name):
    assert_abelianizations(battery_field(name).group)


def test_every_d4xc2_subgroup_abelianization():
    assert_abelianizations(direct_product(dihedral_group(4), cyclic_group(2)))


@pytest.mark.parametrize("d,gen,power", RAYCLASS_MODULI)
def test_rayclass_workload_moduli(d, gen, power):
    field = QuadField(d)
    modulus = ideal_from_generator(field.element(*gen) ** power)
    keys = unit_residues(modulus)
    index = {k: i for i, k in enumerate(keys)}

    def mul(i, j):
        x = field.element(*keys[i]) * field.element(*keys[j])
        return index[modulus.residue(x)]

    killed = [index[modulus.residue(u)] for u in field.units]
    assert_presentation(
        len(keys), mul, index[modulus.residue(field.one)], killed
    )


@pytest.mark.parametrize(
    "d,gen,power", RAYCLASS_MODULI + ((-1, (11, 0), 1), (-1, (13, 0), 1))
)
def test_ray_class_group_dlog_multiplicative(d, gen, power):
    # the all-pairs audit of the discrete-log table; the library certifies
    # the table at n*k cost instead (present_abelian)
    field = QuadField(d)
    modulus = ideal_from_generator(field.element(*gen) ** power)
    rcg = ray_class_group(field, modulus)
    elements = [field.element(*k) for k in unit_residues(modulus)]
    logs = [rcg.dlog(x) for x in elements]
    for x, dx in zip(elements, logs):
        for y, dy in zip(elements, logs):
            assert rcg.dlog(x * y) == rcg.add(dx, dy), (x, y)


def test_ray_class_group_builds_no_hermite_form(monkeypatch):
    # residue units are found by closed-form coprimality, not ideal sums
    def refuse(*args):
        raise AssertionError("ray_class_group built a Hermite form")

    monkeypatch.setattr(la, "hermite_normal_form", refuse)
    monkeypatch.setattr(quadratic, "ideal_from_elements", refuse)
    for d, gen, power in RAYCLASS_MODULI:
        field = QuadField(d)
        ray_class_group(field, ideal_from_generator(field.element(*gen) ** power))


def test_trivial_group_and_killed_everything():
    assert la.present_abelian(1, lambda a, b: 0, 0) == ((), [()])
    c6 = cyclic_group(6)
    assert la.present_abelian(6, c6.mul, 0, killed=[1]) == ((), [()] * 6)
    assert la.present_abelian(6, c6.mul, 0, killed=[3])[0] == (3,)


def test_identity_need_not_be_zero():
    # C3 relabelled so that the identity is element 1
    perm = (1, 2, 0)
    inv = {p: i for i, p in enumerate(perm)}
    mul = lambda a, b: perm[(inv[a] + inv[b]) % 3]
    assert assert_presentation(3, mul, perm[0]) == (3,)


def test_smith_form_has_one_column_per_generator(monkeypatch):
    # a greedy generator at least doubles the subgroup reached, so a group
    # of n elements has at most log2(n) of them; the Smith input never
    # grows with the number of elements
    shapes, sizes = [], []
    smith, present = la.smith_normal_form, la.present_abelian

    def recording_smith(m):
        shapes.append((sizes[-1], len(m[0]) if m else 0))
        return smith(m)

    def recording_present(n, *args, **kwargs):
        sizes.append(n)
        return present(n, *args, **kwargs)

    monkeypatch.setattr(la, "smith_normal_form", recording_smith)
    monkeypatch.setattr(la, "present_abelian", recording_present)
    monkeypatch.setattr(groups, "present_abelian", recording_present)
    for d, gen, power in RAYCLASS_MODULI + ((-1, (23, 0), 1),):
        field = QuadField(d)
        ray_class_group(field, ideal_from_generator(field.element(*gen) ** power))
    for name in BATTERY_NAMES:
        for h in _all_subgroups(battery_field(name).group):
            abelianization(h)
    assert len(shapes) == len(sizes) and max(n for n, _ in shapes) == 528
    for n, cols in shapes:
        assert cols <= n.bit_length(), (n, cols)


def test_each_edge_multiplied_once(monkeypatch):
    # the walk's edge table holds the only products of an element by a
    # greedy generator: n*k of them, and the certificate's closure of the
    # killed elements adds |<killed>| * |killed|
    counted, present = [], la.present_abelian

    def counting_present(n, mul, identity, killed=()):
        calls = []

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        result = present(n, counting_mul, identity, killed)
        counted.append((n, mul, identity, killed, len(calls)))
        return result

    monkeypatch.setattr(la, "present_abelian", counting_present)
    monkeypatch.setattr(groups, "present_abelian", counting_present)
    field = QuadField(-1)
    ray_class_group(field, ideal_from_generator(field.element(13)))
    g = direct_product(dihedral_group(4), cyclic_group(4))
    abelianization(g.subgroup(g.elements()))
    assert [n for n, *_ in counted] == [144, 32]
    for n, mul, identity, killed, calls in counted:
        gens, reached = [], {identity}
        for x in range(n):
            if x not in reached:
                gens.append(x)
                reached = _reach(mul, identity, gens)
        assert calls == n * len(gens) + len(_reach(mul, identity, killed)) * len(killed)


def test_certificate_refuses_a_nonabelian_table():
    # D3 with nothing killed: the walk's coordinates onto C2 are additive,
    # but 6 elements are not 2 * |<nothing>|
    d3 = dihedral_group(3)
    with pytest.raises(InternalInconsistency, match="presentation fails its certificate"):
        la.present_abelian(6, d3.mul, d3.identity)
    comms = commutator_subgroup(d3.subgroup(d3.elements())).elements
    assert la.present_abelian(6, d3.mul, d3.identity, killed=comms)[0] == (2,)


def test_certificate_refuses_coordinates_off_the_smith_form(monkeypatch):
    # V's column 0 added into column 3 on (7) over Z[i] (4 generators): the
    # coordinates still reach every class, but stop being additive
    smith = la.smith_normal_form

    def skewed(m):
        d, u, v = smith(m)
        return d, u, tuple(row[:3] + (row[3] + row[0],) + row[4:] for row in v)

    monkeypatch.setattr(la, "smith_normal_form", skewed)
    field = QuadField(-1)
    with pytest.raises(InternalInconsistency, match="coordinates are not additive"):
        ray_class_group(field, ideal_from_generator(field.element(7)))


@pytest.mark.parametrize(
    "d,p", [(-1, 11), (-1, 13), (-1, 23), (-3, 23)], ids=["i-11", "i-13", "i-23", "w-23"]
)
def test_ray_class_structure_by_power_counts(d, p):
    # for each divisor e of the exponent, the residue units x with x^e
    # congruent to a global unit, over the unit residues, are the elements
    # of order dividing e: prod gcd(e, d_i) in the printed structure
    field = QuadField(d)
    modulus = ideal_from_generator(field.element(p))
    structure = ray_class_group(field, modulus).structure
    keys = unit_residues(modulus)
    unit_keys = {modulus.residue(u) for u in field.units}
    exponent = structure[-1]
    for e in [e for e in range(1, exponent + 1) if exponent % e == 0]:
        hits = sum(modulus.residue(field.element(*k) ** e) in unit_keys for k in keys)
        expected = math.prod(math.gcd(e, m) for m in structure)
        assert hits == expected * len(unit_keys), (d, p, e)
