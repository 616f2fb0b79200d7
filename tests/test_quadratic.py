"""Imaginary quadratic arithmetic: elements, ideals, ray classes, characters."""

import random

import pytest

from cmcalc.cmtypes import CMFieldHandle
from cmcalc.errors import CMError, NoPrimaryGenerator, NotAnInteger, NotCoprime, NotPrime
from cmcalc.groups import cyclic_group
import cmcalc.quadratic as quadratic
from cmcalc.quadratic import (
    CLASS_NUMBER_ONE,
    MAX_IDEAL_NORM,
    HeckeCharacterSpec,
    QuadField,
    QuadIdeal,
    canonical_conductor,
    canonical_weight_one_spec,
    factor_rational_prime,
    find_generator,
    hecke_eval,
    ideal_from_elements,
    ideal_from_generator,
    is_rational_prime,
    parse_ideal,
    primary_generator,
    ray_class_group,
)
from cmcalc.serre import serre_character_lattice
from quadratic_oracle import canonical_moduli, infinity_type_lattice, unit_residues
from serre_oracle import weight_cocharacter

GAUSS = QuadField(-1)
EISENSTEIN = QuadField(-3)


def random_nonzero(field, rng, bound=15):
    while True:
        x = field.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not x.is_zero():
            return x


def exact_div(x, y):
    """x / y when it lies in the ring, else None."""
    n = y.norm()
    if n == 0:
        return None
    num = x * y.conj()
    if num.a % n or num.b % n:
        return None
    return x.field.element(num.a // n, num.b // n)


def hermite_basis(ideal):
    """The Z-basis n, c + d*omega of the ideal."""
    return (ideal.field.element(ideal.n), ideal.field.element(ideal.c, ideal.d))


def hnf_product(a, b):
    """Oracle: the Hermite reduction of the four basis products."""
    return ideal_from_elements(a.field, [x * y for x in hermite_basis(a) for y in hermite_basis(b)])


def hnf_sum(a, b):
    """Oracle: the Hermite reduction of both bases."""
    return ideal_from_elements(a.field, hermite_basis(a) + hermite_basis(b))


def spans_ideal(field, n, c, d):
    """Oracle: omega times each basis vector n, c + d*omega lies in the module."""
    omega = field.element(0, 1)
    for x in (field.element(n) * omega, field.element(c, d) * omega):
        q, r = divmod(x.b, d)
        if r or (x.a - q * c) % n:
            return False
    return True


class TestField:
    def test_whitelist(self):
        for d in CLASS_NUMBER_ONE:
            QuadField(d)
        with pytest.raises(CMError):
            QuadField(-5)
        with pytest.raises(CMError):
            QuadField(2)

    @pytest.mark.parametrize("d", [-1.0, -3.0, True, "-1"])
    def test_d_must_be_int(self, d):
        # -1.0 equalled QuadField(-1) and had float units
        with pytest.raises(NotAnInteger, match=f"d={d!r} is not an integer"):
            QuadField(d)

    def test_unit_counts(self):
        assert len(GAUSS.units) == 4
        assert len(EISENSTEIN.units) == 6
        assert len(QuadField(-7).units) == 2

    def test_units_are_units(self):
        for d in CLASS_NUMBER_ONE:
            f = QuadField(d)
            for u in f.units:
                assert u.norm() == 1

    def test_discriminants(self):
        assert GAUSS.discriminant == -4
        assert EISENSTEIN.discriminant == -3
        assert QuadField(-2).discriminant == -8
        assert QuadField(-7).discriminant == -7


class TestElements:
    def test_norm_positive_definite(self):
        rng = random.Random(1)
        for d in (-1, -3, -7, -43):
            f = QuadField(d)
            for _ in range(50):
                x = random_nonzero(f, rng)
                assert x.norm() > 0
                assert (x * x.conj()).a == x.norm()
                assert (x * x.conj()).b == 0

    def test_norm_multiplicative(self):
        rng = random.Random(2)
        for d in (-1, -3, -11):
            f = QuadField(d)
            for _ in range(50):
                x, y = random_nonzero(f, rng), random_nonzero(f, rng)
                assert (x * y).norm() == x.norm() * y.norm()

    def test_gauss_numbers(self):
        i = GAUSS.element(0, 1)
        assert (i * i).a == -1 and (i * i).b == 0
        assert GAUSS.element(2, 1).norm() == 5

    def test_eisenstein_sixth_root(self):
        w = EISENSTEIN.element(0, 1)
        assert (w**6).a == 1 and (w**6).b == 0
        assert (w**3).a == -1

    def test_exact_division(self):
        x = GAUSS.element(5, 5)
        y = GAUSS.element(1, 1)
        q = exact_div(x, y)
        assert q is not None and (q * y) == x
        assert exact_div(GAUSS.element(1, 0), GAUSS.element(1, 1)) is None

    def test_arithmetic_across_fields_refused(self):
        # the same field built twice is equal but not identical, so the
        # identity shortcut alone would refuse it
        x = GAUSS.element(2, 1)
        assert x + QuadField(-1).element(1, 1) == GAUSS.element(3, 2)
        for other in (QuadField(-3), QuadField(-7)):
            y = other.element(2, 1)
            for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
                with pytest.raises(CMError, match="different fields"):
                    op(x, y)
                with pytest.raises(CMError, match="different fields"):
                    op(y, x)

    @pytest.mark.parametrize("a, b", [(0.5, 0), (0, 0.5), (True, 0), (1, False), ("1", 0)])
    def test_coordinates_must_be_int(self, a, b):
        # QuadInt(GAUSS, 0.5, 0) had norm 0.25
        with pytest.raises(NotAnInteger, match="are not integers") as info:
            quadratic.QuadInt(GAUSS, a, b)
        assert info.value.witness == (a, b)
        with pytest.raises(NotAnInteger, match="are not integers"):
            GAUSS.element(a, b)

    def test_power_is_repeated_product(self):
        rng = random.Random(3)
        for d in (-1, -2, -3, -7):
            f = QuadField(d)
            for _ in range(10):
                x = random_nonzero(f, rng)
                expected = f.one
                for k in range(6):
                    assert x**k == expected, (d, x, k)
                    expected = expected * x
        with pytest.raises(ValueError):
            GAUSS.element(1, 1) ** -1


class TestIdeals:
    @pytest.mark.parametrize("basis", [(5, 2.0, 1), (5.0, 2, 1), (True, 0, True), (5, 2, 1.0)])
    def test_basis_must_be_int(self, basis):
        # each of these was accepted as the ideal it rounds to
        with pytest.raises(NotAnInteger, match="is not integral"):
            QuadIdeal(GAUSS, *basis)
        assert QuadIdeal(GAUSS, 5, 2, 1).norm == 5

    def test_canonical_forms_equal(self):
        a = ideal_from_generator(GAUSS.element(2, 1))
        b = ideal_from_generator(GAUSS.element(-1, 2))  # associate
        assert a == b

    def test_conjugate_distinct_for_split(self):
        a = ideal_from_generator(GAUSS.element(2, 1))
        assert a != a.conj()
        assert a.norm == a.conj().norm == 5

    def test_norm_is_index(self):
        # residues {x + y omega : 0 <= x < n, 0 <= y < d} are a transversal
        a = ideal_from_generator(GAUSS.element(1, 1) ** 3)
        assert a.norm == 8
        assert a.n * a.d == 8
        seen = set()
        for x in range(8):
            for y in range(8):
                q, r = divmod(y, a.d)
                seen.add(((x - q * a.c) % a.n, r))
        assert len(seen) == a.norm

    def test_closed_form_generator_matches_hnf_route(self):
        # the generic Hermite reduction of {x, x omega} is the oracle
        rng = random.Random(9)
        for d in CLASS_NUMBER_ONE:
            field = QuadField(d)
            xs = [field.element(a, b) for a in range(-6, 7) for b in range(-6, 7) if a or b]
            xs += [random_nonzero(field, rng, bound=10**6) for _ in range(200)]
            for x in xs:
                assert ideal_from_generator(x) == ideal_from_elements(field, [x]), x

    def test_closed_form_conj_matches_hnf_route(self):
        # the Hermite reduction of the conjugated basis is the oracle
        for d in CLASS_NUMBER_ONE:
            field = QuadField(d)
            for a in range(-12, 13):
                for b in range(-12, 13):
                    if a or b:
                        ideal = ideal_from_generator(field.element(a, b))
                        conjugates = [x.conj() for x in hermite_basis(ideal)]
                        assert ideal.conj() == ideal_from_elements(field, conjugates), (a, b)

    def test_multiplicativity_of_norm(self):
        rng = random.Random(3)
        for _ in range(40):
            x, y = random_nonzero(GAUSS, rng), random_nonzero(GAUSS, rng)
            a, b = ideal_from_generator(x), ideal_from_generator(y)
            assert ideal_from_generator(x * y).norm == a.norm * b.norm
            assert ideal_from_generator(x * y) == hnf_product(a, b)

    def test_containment(self):
        a = ideal_from_generator(GAUSS.element(1, 1))
        assert GAUSS.element(2, 0) in a  # 2 = -i (1+i)^2
        assert GAUSS.element(1, 0) not in a

    def test_sum_and_coprimality(self):
        two = ideal_from_generator(GAUSS.element(1, 1))
        three = ideal_from_generator(GAUSS.element(3, 0))
        assert two.is_coprime(three)
        assert not two.is_coprime(two)

    def test_ideal_test_matches_span_oracle(self):
        # every canonical (n, c, d) with n <= 60: one norm against the
        # membership of both omega multiples
        spans = triples = 0
        for field in map(QuadField, CLASS_NUMBER_ONE):
            for n in range(1, 61):
                for d in (d for d in range(1, n + 1) if n % d == 0):
                    for c in range(0, n, d):
                        triples += 1
                        if spans_ideal(field, n, c, d):
                            spans += 1
                            assert QuadIdeal(field, n, c, d).norm == n * d
                        else:
                            with pytest.raises(CMError, match="does not span an ideal"):
                                QuadIdeal(field, n, c, d)
        assert 0 < spans < triples == 27126

    @staticmethod
    def sample_ideals(field):
        """Small principal ideals, the first split pair (equal norms, yet
        coprime), and the convention conductor where the field has one."""
        ideals = {ideal_from_generator(field.element(a, b))
                  for a in range(-3, 4) for b in range(4) if a or b}
        split = next(fac for fac in (factor_rational_prime(field, p)
                                     for p in range(2, 100) if is_rational_prime(p))
                     if fac.kind == "split")
        ideals.update(split.primes)
        if field.d in (-1, -3):
            ideals.add(canonical_conductor(field))
        return ideals, split.primes

    def test_coprimality_matches_hnf_sum(self):
        for field in map(QuadField, CLASS_NUMBER_ONE):
            ideals, (first, second) = self.sample_ideals(field)
            for a in ideals:
                for b in ideals:
                    assert a.is_coprime(b) == (hnf_sum(a, b).norm == 1), (a, b)
            assert first.norm == second.norm and first.is_coprime(second)

    def test_generator_powers_match_hnf_products(self):
        for field in map(QuadField, CLASS_NUMBER_ONE):
            for a, b in ((1, 1), (0, 1), (2, 1), (3, 0), (1, -2)):
                base = ideal_from_elements(field, [field.element(a, b)])
                power, k = base, 1
                while base.norm > 1 and power.norm * base.norm <= MAX_IDEAL_NORM:
                    power, k = hnf_product(power, base), k + 1
                    assert parse_ideal(field, f"gen:{a},{b}^{k}") == power, (field.d, a, b, k)
        one_plus_i = ideal_from_elements(GAUSS, [GAUSS.element(1, 1)])
        cube = hnf_product(hnf_product(one_plus_i, one_plus_i), one_plus_i)
        assert canonical_conductor(GAUSS) == cube
        assert canonical_conductor(EISENSTEIN) == ideal_from_elements(
            EISENSTEIN, [EISENSTEIN.element(3)])

    def test_find_generator_roundtrip(self):
        rng = random.Random(4)
        for d in (-1, -3, -7):
            f = QuadField(d)
            for _ in range(25):
                x = random_nonzero(f, rng, bound=9)
                a = ideal_from_generator(x)
                g = find_generator(a)
                assert ideal_from_generator(g) == a

    def test_parse_ideal(self):
        a = parse_ideal(GAUSS, "gen:1,1^3")
        assert a == ideal_from_generator(GAUSS.element(1, 1) ** 3)
        b = parse_ideal(GAUSS, "gen:3,0")
        assert b == ideal_from_generator(GAUSS.element(3, 0))
        c = parse_ideal(GAUSS, {"gen": [2, 1]})
        assert c.norm == 5
        d = parse_ideal(GAUSS, {"n": 5, "c": 2, "d": 1})
        assert d.norm == 5
        with pytest.raises(CMError):
            parse_ideal(GAUSS, "nope:1")


class TestFactorization:
    def test_gauss_5_splits(self):
        fac = factor_rational_prime(GAUSS, 5)
        assert fac.kind == "split" and len(fac.primes) == 2
        assert fac.primes[0].conj() == fac.primes[1]
        assert fac.primes[0].norm == 5

    def test_gauss_3_inert(self):
        fac = factor_rational_prime(GAUSS, 3)
        assert fac.kind == "inert"
        assert fac.primes[0].norm == 9
        assert fac.residue_degrees == (2,)

    def test_gauss_2_ramified(self):
        fac = factor_rational_prime(GAUSS, 2)
        assert fac.kind == "ramified"
        assert fac.primes[0] == ideal_from_generator(GAUSS.element(1, 1))

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            factor_rational_prime(GAUSS, 6)
        with pytest.raises(NotPrime):
            factor_rational_prime(GAUSS, 1)

    def test_splitting_law_matches_symbol(self):
        # split iff p is a norm; exhaustive over small primes and fields
        for d in (-1, -2, -3, -7, -11):
            f = QuadField(d)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
                fac = factor_rational_prime(f, p)
                product = fac.primes[0]
                for extra in fac.primes[1:]:
                    product = hnf_product(product, extra)
                if fac.kind == "ramified":
                    product = hnf_product(product, fac.primes[0])
                assert product == ideal_from_generator(f.element(p))

    def test_split_pairs_in_hermite_order(self):
        for d in CLASS_NUMBER_ONE:
            f = QuadField(d)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
                fac = factor_rational_prime(f, p)
                if fac.kind == "split":
                    first, second = fac.primes
                    assert (first.n, first.c, first.d) < (second.n, second.c, second.d)

    def test_generators_generate_their_primes(self):
        for d in CLASS_NUMBER_ONE:
            f = QuadField(d)
            for p in range(2, 301):
                if not is_rational_prime(p):
                    continue
                fac = factor_rational_prime(f, p)
                assert len(fac.generators) == len(fac.primes), (d, p)
                for g, prime in zip(fac.generators, fac.primes):
                    assert ideal_from_generator(g) == prime, (d, p)

    def test_eisenstein_7_splits(self):
        fac = factor_rational_prime(EISENSTEIN, 7)
        assert fac.kind == "split"
        assert fac.primes[0].norm == 7


class TestPrimary:
    def test_canonical_conductors(self):
        assert canonical_conductor(GAUSS).norm == 8
        assert canonical_conductor(EISENSTEIN).norm == 9
        with pytest.raises(CMError):
            canonical_conductor(QuadField(-7))

    def test_worked_examples(self):
        p5 = ideal_from_generator(GAUSS.element(2, 1))
        g = primary_generator(p5)
        assert (g.a, g.b) == (-1, 2)
        p13 = ideal_from_generator(GAUSS.element(3, 2))
        g13 = primary_generator(p13)
        assert (g13.a, g13.b) == (3, 2)
        three = ideal_from_generator(GAUSS.element(3, 0))
        g3 = primary_generator(three)
        assert (g3.a, g3.b) == (-3, 0)

    def test_uniqueness_exhaustive(self):
        cond = canonical_conductor(GAUSS)
        rng = random.Random(9)
        for _ in range(40):
            x = random_nonzero(GAUSS, rng)
            a = ideal_from_generator(x)
            if not a.is_coprime(cond):
                continue
            g = primary_generator(a)
            hits = [u for u in GAUSS.units if (u * g - GAUSS.one) in cond]
            assert hits == [GAUSS.one]

    def test_multiplicative(self):
        rng = random.Random(10)
        cond = canonical_conductor(GAUSS)
        for _ in range(30):
            x, y = random_nonzero(GAUSS, rng), random_nonzero(GAUSS, rng)
            a, b = ideal_from_generator(x), ideal_from_generator(y)
            if not (a.is_coprime(cond) and b.is_coprime(cond)):
                continue
            ab = ideal_from_generator(x * y)
            assert primary_generator(ab) == primary_generator(a) * primary_generator(b)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            primary_generator(ideal_from_generator(GAUSS.element(1, 1)))

    def test_invalid_convention(self):
        # modulus (3) in the Gauss field: residue units outnumber the units,
        # so some ideals have no associate congruent to 1
        bad_conductor = ideal_from_generator(GAUSS.element(3, 0))
        victim = ideal_from_generator(GAUSS.element(1, 2))
        with pytest.raises(NoPrimaryGenerator):
            primary_generator(victim, conductor=bad_conductor)

    @staticmethod
    def scanned_associate(ideal, g, conductor):
        """Oracle: the scan over all units that the residue lookup replaced."""
        field = ideal.field
        matches = [u * g for u in field.units if (u * g - field.one) in conductor]
        if not matches and not ideal.is_coprime(conductor):
            raise NotCoprime("ideal is not coprime to the convention conductor")
        if len(matches) != 1:
            raise NoPrimaryGenerator(f"{len(matches)} associates")
        return matches[0]

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except (NotCoprime, NoPrimaryGenerator) as exc:
            return type(exc)

    @staticmethod
    def lifts(field, conductor):
        """Nonzero g = r + (a multiple of the conductor) for every residue r:
        a table keyed by g itself rather than its residue misses the lifts."""
        n0, c0 = hermite_basis(conductor)
        for b in range(conductor.d):
            for a in range(conductor.n):
                for x, y in ((0, 0), (1, 0), (-2, 1), (3, -2), (5, 7)):
                    g = field.element(a, b) + field.element(x) * n0 + field.element(y) * c0
                    if not g.is_zero():
                        yield g

    @pytest.mark.parametrize("field", [GAUSS, EISENSTEIN], ids=["gauss", "eisenstein"])
    def test_associate_lookup_against_unit_scan(self, field):
        cond = canonical_conductor(field)
        found = set()
        for g in self.lifts(field, cond):
            ideal = ideal_from_generator(g)
            got = self.outcome(quadratic._primary_associate, ideal, g)
            assert got == self.outcome(self.scanned_associate, ideal, g, cond), g
            if ideal.is_coprime(cond):
                assert got - field.one in cond and ideal_from_generator(got) == ideal
                found.add(cond.residue(g))
            else:
                # a residue meeting the conductor
                assert got is NotCoprime, g
        # every residue unit has its associate: the units fill (O/m)^x
        assert len(found) == len(field.units)
        # the lookup table lives on the conductor, not in a module cache
        assert vars(cond)["primary_units"] is cond.primary_units
        assert not hasattr(quadratic, "_primary_units")

    def test_associate_lookup_explicit_conductors(self):
        # explicit conductors, with and without a bijection from the units
        # onto the residue units; (2) over Z[i] sends 1 and -1 to one residue
        for field, gen in ((GAUSS, (2, 0)), (GAUSS, (3, 0)), (EISENSTEIN, (2, 0)),
                           (EISENSTEIN, (2, 1))):
            cond = ideal_from_generator(field.element(*gen))
            for g in self.lifts(field, cond):
                ideal = ideal_from_generator(g)
                got = self.outcome(quadratic._primary_associate, ideal, g, cond)
                assert got == self.outcome(self.scanned_associate, ideal, g, cond), (gen, g)
        two = ideal_from_generator(GAUSS.element(2, 0))
        for g in (GAUSS.element(1, 0), GAUSS.element(1, 2), GAUSS.element(0, 3)):
            with pytest.raises(NoPrimaryGenerator):
                quadratic._primary_associate(ideal_from_generator(g), g, two)
        with pytest.raises(NotCoprime):
            g = GAUSS.element(3, 1)  # norm 10, so (g) meets (2)
            quadratic._primary_associate(ideal_from_generator(g), g, two)

    def test_conjugation_preserves_primarity(self):
        for f in (GAUSS, EISENSTEIN):
            cond = canonical_conductor(f)
            for p in (5, 7, 13, 29, 37):
                fac = factor_rational_prime(f, p)
                if fac.kind != "split" or not fac.primes[0].is_coprime(cond):
                    continue
                g = primary_generator(fac.primes[0])
                assert primary_generator(fac.primes[0].conj()) == g.conj()


class TestRayClass:
    def test_gauss_conductor_trivial(self):
        rcg = ray_class_group(GAUSS, canonical_conductor(GAUSS))
        assert rcg.order == 1 and rcg.structure == ()

    def test_gauss_three(self):
        rcg = ray_class_group(GAUSS, ideal_from_generator(GAUSS.element(3, 0)))
        assert rcg.order == 2 and rcg.structure == (2,)

    def test_unit_modulus(self):
        rcg = ray_class_group(GAUSS, QuadIdeal(GAUSS, 1, 0, 1))
        assert rcg.order == 1

    def test_eisenstein_three_trivial(self):
        rcg = ray_class_group(EISENSTEIN, canonical_conductor(EISENSTEIN))
        assert rcg.order == 1

    def test_order_divides_residue_units(self):
        for f, gens in ((GAUSS, [(3, 0), (5, 0), (1, 2)]), (EISENSTEIN, [(2, 0), (5, 0)])):
            for a, b in gens:
                m = ideal_from_generator(f.element(a, b))
                rcg = ray_class_group(f, m)
                residue_units = sum(
                    1
                    for x in range(m.n)
                    for y in range(m.d)
                    if not f.element(x, y).is_zero()
                    and hnf_sum(ideal_from_generator(f.element(x, y)), m).norm == 1
                )
                assert residue_units % rcg.order == 0

    def test_dlog_additive(self):
        m = ideal_from_generator(GAUSS.element(5, 0))
        rcg = ray_class_group(GAUSS, m)
        rng = random.Random(11)
        for _ in range(30):
            x = random_nonzero(GAUSS, rng)
            y = random_nonzero(GAUSS, rng)
            try:
                dx, dy = rcg.dlog(x), rcg.dlog(y)
            except NotCoprime:
                continue
            assert rcg.dlog(x * y) == rcg.add(dx, dy)

    def test_gauss_eleven_and_thirteen(self):
        # 120 and 144 residue units: too large for an all-pairs presentation
        for p, structure in ((11, (30,)), (13, (3, 12))):
            rcg = ray_class_group(GAUSS, ideal_from_generator(GAUSS.element(p, 0)))
            assert rcg.structure == structure

    def test_dlog_rejects_noncoprime(self):
        m = ideal_from_generator(GAUSS.element(3, 0))
        rcg = ray_class_group(GAUSS, m)
        with pytest.raises(NotCoprime):
            rcg.dlog(GAUSS.element(3, 0))

    def test_residue_product_against_element_product(self):
        # every pair of residues of every modulus of norm <= 50
        pairs = 0
        for field in map(QuadField, CLASS_NUMBER_ONE):
            for m in canonical_moduli(field, 50):
                residues = [(a, b) for a in range(m.n) for b in range(m.d)]
                elements = [field.element(*x) for x in residues]
                for x, ex in zip(residues, elements):
                    for y, ey in zip(residues, elements):
                        assert m.residue_product(x, y) == m.residue(ex * ey), (m, x, y)
                pairs += len(residues) ** 2
        assert pairs == 297372

    def test_unit_residues_against_element_route(self):
        moduli = 0
        for field in map(QuadField, CLASS_NUMBER_ONE):
            for m in canonical_moduli(field, 200):
                assert list(m.unit_residues) == unit_residues(m), m
                moduli += 1
        assert moduli == 1308

    def test_cross_field_gates(self):
        three = ideal_from_generator(EISENSTEIN.element(3, 0))
        with pytest.raises(CMError, match="different field"):
            ray_class_group(GAUSS, three)
        cond = canonical_conductor(GAUSS)
        with pytest.raises(CMError, match="different field"):
            EISENSTEIN.element(8) in cond
        rcg = ray_class_group(GAUSS, cond)
        for x in (EISENSTEIN.one, EISENSTEIN.element(0, 1)):
            with pytest.raises(CMError, match="different field"):
                rcg.dlog(x)


class TestInfinityTypes:
    def test_rank_two_every_field(self):
        for d in CLASS_NUMBER_ONE:
            lat = infinity_type_lattice(QuadField(d))
            assert lat.rank == 2 and lat.ambient_rank == 2

    def test_agrees_with_quadratic_context(self):
        lat = infinity_type_lattice(GAUSS)
        g = cyclic_group(2)
        handle = CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())
        serre = serre_character_lattice(handle)
        assert lat.basis == serre.basis
        assert lat.action == serre.action

    def test_weight_matches(self):
        g = cyclic_group(2)
        handle = CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())
        w = weight_cocharacter(handle)
        assert w.functional == (-1, -1)


class TestHecke:
    def test_canonical_values(self):
        spec = canonical_weight_one_spec(GAUSS)
        v = hecke_eval(spec, ideal_from_generator(GAUSS.element(2, 1)))
        assert (v.a, v.b) == (-1, 2)
        v3 = hecke_eval(spec, ideal_from_generator(GAUSS.element(3, 0)))
        assert (v3.a, v3.b) == (-3, 0)

    def test_multiplicative(self):
        spec = canonical_weight_one_spec(GAUSS)
        x, y = GAUSS.element(2, 1), GAUSS.element(3, 2)
        a, b = ideal_from_generator(x), ideal_from_generator(y)
        ab = ideal_from_generator(x * y)
        assert hecke_eval(spec, ab) == hecke_eval(spec, a) * hecke_eval(spec, b)

    def test_weight_one_absolute_value(self):
        spec = canonical_weight_one_spec(GAUSS)
        for p in (5, 13, 17, 29):
            prime = factor_rational_prime(GAUSS, p).primes[0]
            v = hecke_eval(spec, prime)
            product = v * v.conj()
            assert product.a == p and product.b == 0

    def test_rejects_noncoprime(self):
        spec = canonical_weight_one_spec(GAUSS)
        with pytest.raises(NotCoprime):
            hecke_eval(spec, ideal_from_generator(GAUSS.element(1, 1)))

    @pytest.mark.parametrize("field,p", [(GAUSS, 5), (GAUSS, 3), (EISENSTEIN, 7)])
    def test_one_coprimality_test_per_value(self, monkeypatch, field, p):
        # primary_generator tests coprimality only when no associate matches
        spec = canonical_weight_one_spec(field)
        prime = factor_rational_prime(field, p).primes[0]
        calls = []
        is_coprime = QuadIdeal.is_coprime

        def counted(self, other):
            calls.append(other)
            return is_coprime(self, other)

        monkeypatch.setattr(QuadIdeal, "is_coprime", counted)
        hecke_eval(spec, prime)
        assert calls == [spec.conductor]

    def test_negative_infinity_type_rejected(self):
        with pytest.raises(CMError):
            HeckeCharacterSpec(
                field=GAUSS,
                conductor=canonical_conductor(GAUSS),
                infinity_type=(-1, 0),
            )

    @pytest.mark.parametrize("infinity_type, twist, witness", [
        ((1.0, 0), (), 1.0),  # verify_cm_zeta died in QuadInt.__pow__
        ((1, True), (), True),
        ((1, 0), (0.5,), 0.5),  # was reported as a wrong count
    ])
    def test_exponents_must_be_int(self, infinity_type, twist, witness):
        with pytest.raises(NotAnInteger, match="is not an integer") as info:
            HeckeCharacterSpec(field=GAUSS, conductor=canonical_conductor(GAUSS),
                               infinity_type=infinity_type, twist_exponents=twist)
        assert info.value.witness is witness

    @pytest.mark.parametrize("infinity_type", [(1, 0, 0), (1,), [1, 0]])
    def test_infinity_type_must_be_a_pair(self, infinity_type):
        # (1, 0, 0) raised a bare ValueError from tuple unpacking
        with pytest.raises(CMError, match="is not a pair"):
            HeckeCharacterSpec(field=GAUSS, conductor=canonical_conductor(GAUSS),
                               infinity_type=infinity_type)

    def test_twisted_character(self):
        # quadratic twist by the nontrivial class modulo 3*(1+i)^3
        conductor = ideal_from_generator(GAUSS.element(1, 1) ** 3 * GAUSS.element(3, 0))
        rcg = ray_class_group(GAUSS, conductor)
        assert any(d % 2 == 0 for d in rcg.structure)
        exps = tuple(d // 2 if d % 2 == 0 else 0 for d in rcg.structure)
        spec = HeckeCharacterSpec(
            field=GAUSS,
            conductor=conductor,
            infinity_type=(1, 0),
            twist_exponents=exps,
        )
        base = canonical_weight_one_spec(GAUSS)
        values = set()
        for p in (5, 13, 17, 29, 37, 41):
            prime = factor_rational_prime(GAUSS, p).primes[0]
            ratio = exact_div(hecke_eval(spec, prime), hecke_eval(base, prime))
            assert ratio is not None and ratio.norm() == 1
            values.add((ratio.a, ratio.b))
        assert len(values) > 1  # the twist is not identically trivial

    def test_zero_twist_of_wrong_length_rejected(self):
        m = ideal_from_generator(GAUSS.element(5, 0))
        assert ray_class_group(GAUSS, m).structure == (4,)
        with pytest.raises(CMError, match="count does not match"):
            HeckeCharacterSpec(
                field=GAUSS, conductor=m, infinity_type=(1, 0), twist_exponents=(0,) * 5
            )
        spec = HeckeCharacterSpec(field=GAUSS, conductor=m, infinity_type=(1, 0),
                                  twist_exponents=(0,))
        assert spec.to_json()["twist_exponents"] == [0]

    def test_twist_order_must_divide_units(self):
        m = ideal_from_generator(GAUSS.element(7, 0))
        rcg = ray_class_group(GAUSS, m)
        bad = None
        for i, d in enumerate(rcg.structure):
            if d % 3 == 0:
                bad = tuple(d // 3 if j == i else 0 for j in range(len(rcg.structure)))
                break
        if bad is None:
            pytest.skip("no order-3 component available")
        with pytest.raises(CMError):
            HeckeCharacterSpec(
                field=GAUSS, conductor=m, infinity_type=(1, 0), twist_exponents=bad
            )


class TestPrimality:
    def test_is_rational_prime(self):
        assert [p for p in range(60) if is_rational_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
        ]
