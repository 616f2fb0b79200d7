"""Point counts versus character values, and the scalar-restriction check."""

import bisect
import functools
import math
from collections import Counter

import pytest

from cmcalc.errors import (BadPrime, CMError, InternalInconsistency, NotAnInteger,
                           RamifiedOrBadPrime, WeilBoundViolation)
from cmcalc.quadratic import (
    CLASS_NUMBER_ONE,
    HeckeCharacterSpec,
    QuadField,
    canonical_conductor,
    canonical_weight_one_spec,
    factor_rational_prime,
    hecke_eval,
    ideal_from_generator,
    is_rational_prime,
    ray_class_group,
    _hecke_value,
    _primary_associate,
)
from cmcalc.zeta import (
    CurveSpec,
    EulerFactor,
    count_points,
    count_points_quadratic_extension,
    count_fp,
    count_fp2,
    euler_from_counts,
    euler_from_hecke,
    _multiple_in_interval,
    _non_residue,
    _point_multiples,
    _PrimeField,
    _QuadraticExtension,
    _cubic,
    _symbol_sum,
    verify_cm_zeta,
    verify_res_scalars,
)

from zeta_oracle import (add_points_fp, add_points_fp2, character_sum_fp, character_sum_fp2,
                         count_points_naive, multiply_fp, naive_count_fp2)

GAUSS = QuadField(-1)
EISENSTEIN = QuadField(-3)
CURVE = CurveSpec(a4=-1, a6=0, cm_field=GAUSS)
CUBE_CURVE = CurveSpec(a4=0, a6=16, cm_field=EISENSTEIN)
# (a4, a6): the two workload curves, then two without CM
COUNT_CURVES = ((-1, 0), (0, 16), (1, 1), (3, 5))


def good_odd_primes(a4, a6, p_max):
    disc = 4 * a4**3 + 27 * a6**2
    return [p for p in range(3, p_max + 1) if is_rational_prime(p) and disc % p]


def twisted_gauss_spec():
    """Weight one over Z[i], twisted by the order-2 characters of the ray
    class group modulo 3 (1+i)^3."""
    conductor = ideal_from_generator(GAUSS.element(1, 1) ** 3 * GAUSS.element(3, 0))
    rcg = ray_class_group(GAUSS, conductor)
    exps = tuple(d // 2 if d % 2 == 0 else 0 for d in rcg.structure)
    assert any(exps)
    return HeckeCharacterSpec(
        field=GAUSS, conductor=conductor, infinity_type=(1, 0), twist_exponents=exps
    )


def evaluate(factor, t):
    """The factor's polynomial at T = t, by Horner's rule."""
    acc = 0
    for c in reversed(factor.coefficients):
        acc = acc * t + c
    return acc


def hecke_eval_factor(spec, fac):
    """Oracle: the local factor from hecke_eval at each prime above p."""
    values = [hecke_eval(spec, prime) for prime in fac.primes]
    if fac.kind == "inert":
        assert values[0].b == 0
        return EulerFactor((1, 0, -values[0].a))
    total, prod = values[0] + values[1], values[0] * values[1]
    assert total.b == prod.b == 0
    return EulerFactor((1, -total.a, prod.a))


class TestCurveSpec:
    def test_discriminant_and_bad_primes(self):
        assert CURVE.discriminant == 64
        primes = [p for p in range(2, 50) if is_rational_prime(p)]
        assert [p for p in primes if not CURVE.is_good(p)] == [2]
        assert [p for p in primes if not CUBE_CURVE.is_good(p)] == [2, 3]

    def test_singular_rejected(self):
        with pytest.raises(CMError):
            CurveSpec(a4=0, a6=0, cm_field=GAUSS)

    @pytest.mark.parametrize("a4, a6", [(1.5, 0), (-1, 0.0), (True, 0), (-1, "0")])
    def test_coefficients_must_be_int(self, a4, a6):
        # a4 = 1.5 was accepted, and verify_cm_zeta then failed in legendre
        with pytest.raises(NotAnInteger, match="are not integers"):
            CurveSpec(a4=a4, a6=a6, cm_field=GAUSS)


class TestCounting:
    def test_p3(self):
        assert count_points(CURVE, 3) == (4, 0)

    def test_p5(self):
        assert count_points(CURVE, 5) == (8, -2)

    def test_p13(self):
        count, a13 = count_points(CURVE, 13)
        assert a13 == 6

    def test_bad_prime_rejected(self):
        with pytest.raises(BadPrime):
            count_points(CURVE, 2)
        with pytest.raises(BadPrime):
            count_points(CUBE_CURVE, 3)
        with pytest.raises(BadPrime):
            count_points(CURVE, 9)

    def test_naive_oracle_agreement(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            fast, _ = count_points(CURVE, p)
            assert fast == count_points_naive(CURVE, p)
            fast2, _ = count_points(CUBE_CURVE, p) if p != 3 else (None, None)
            if fast2 is not None:
                assert fast2 == count_points_naive(CUBE_CURVE, p)

    def test_naive_oracle_on_curves_without_cm(self):
        for a4, a6 in COUNT_CURVES[2:]:
            curve = CurveSpec(a4=a4, a6=a6, cm_field=GAUSS)
            for p in good_odd_primes(a4, a6, 100):
                assert count_points(curve, p)[0] == count_points_naive(curve, p)

    def test_extension_count_matches_lift(self):
        # #E(F_p^2) = p^2 + 1 - (a_p^2 - 2p) for a curve over F_p
        for p in (3, 7, 11, 19):
            _, a_p = count_points(CURVE, p)
            ext = count_points_quadratic_extension(
                GAUSS, GAUSS.element(-1), GAUSS.element(0), p
            )
            assert ext == p * p + 1 - (a_p * a_p - 2 * p)


class TestQuadraticExtensionCount:
    # (d, inert primes): F_{p^2} = F_p[omega] for the ring of integers
    INERT = ((-1, (3, 7, 11)), (-2, (5, 7, 13)), (-3, (5, 11, 17)), (-7, (3, 5, 13)))

    def test_inert_against_naive(self):
        for d, primes in self.INERT:
            field = QuadField(d)
            for p in primes:
                assert factor_rational_prime(field, p).kind == "inert"
                for a4, a6 in (((-1, 0), (0, 0)), ((2, 1), (3, -2)), ((0, 5), (7, 1))):
                    got = count_points_quadratic_extension(
                        field, field.element(*a4), field.element(*a6), p
                    )
                    assert got == naive_count_fp2(field.omega_relation, a4, a6, p)

    def test_split_form_against_naive(self):
        # the split places count over F_p(sqrt(n)), n a non-residue
        for p in (5, 7, 13, 17):
            relation = (0, _non_residue(p))
            for a4, a6 in ((-1, 0), (0, 16), (3, 5)):
                expected = naive_count_fp2(relation, (a4 % p, 0), (a6 % p, 0), p)
                assert count_fp2(relation, (a4, 0), (a6, 0), p) == expected
                assert character_sum_fp2(relation, (a4, 0), (a6, 0), p) == expected


class TestCounterGates:
    """count_fp and count_fp2 refuse what their contracts exclude before
    drawing any point."""

    @pytest.fixture(autouse=True)
    def no_points(self, monkeypatch):
        import cmcalc.zeta as zeta

        def refuse(*args):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(zeta, "_hasse_count", refuse)

    def test_fp_even_prime(self):
        with pytest.raises(BadPrime):
            count_fp(-1, 0, 2)

    def test_fp_singular(self):
        # y^2 = x^3 is singular, with 8 points over F_7; a Hasse search says 7
        with pytest.raises(BadPrime):
            count_fp(0, 0, 7)

    def test_fp2_even_prime(self):
        with pytest.raises(BadPrime):
            count_fp2((1, 1), (1, 0), (1, 0), 2)

    def test_fp2_reducible_relation(self):
        # theta^2 = 1 splits modulo 5, and so does omega^2 = -1: 5 splits in Z[i]
        with pytest.raises(BadPrime):
            count_fp2((0, 1), (1, 0), (1, 0), 5)
        with pytest.raises(BadPrime):
            count_points_quadratic_extension(GAUSS, GAUSS.element(-1), GAUSS.element(0), 5)

    def test_fp2_singular(self):
        # a4 = -3 c^2 and a6 = 2 c^3 with c = 1 + theta, theta^2 = -1, make
        # 4 a4^3 + 27 a6^2 vanish over F_49; neither lies in F_7
        with pytest.raises(BadPrime):
            count_fp2((0, -1), (0, -6), (-4, 4), 7)


class TestHasseCount:
    """Point orders in the Hasse interval, on E and its twist, against the
    character sums they replace."""

    def test_matches_character_sum(self):
        # the non-CM curves show the count never relies on CM
        for a4, a6 in COUNT_CURVES:
            for p in good_odd_primes(a4, a6, 2000):
                assert count_fp(a4, a6, p) == character_sum_fp(a4 % p, a6 % p, p), (a4, a6, p)

    @staticmethod
    def spy_on_symbol_sum(monkeypatch, fallbacks):
        """Record the characteristic of each field that falls back to the sum."""
        import cmcalc.zeta as zeta

        def counting(field, a4, a6):
            fallbacks.append(field.p)
            return _symbol_sum(field, a4, a6)

        monkeypatch.setattr(zeta, "_symbol_sum", counting)

    @staticmethod
    def relations(p):
        """theta^2 = n with n a non-residue, and every inert omega relation."""
        return [(0, _non_residue(p))] + [
            QuadField(d).omega_relation for d in CLASS_NUMBER_ONE
            if factor_rational_prime(QuadField(d), p).kind == "inert"
        ]

    def test_symbol_sum_matches_oracle_sums(self):
        for a4, a6 in COUNT_CURVES:
            for p in good_odd_primes(a4, a6, 299):
                got = _symbol_sum(_PrimeField(p), a4 % p, a6 % p)
                assert got == character_sum_fp(a4 % p, a6 % p, p), (a4, a6, p)
            for p in good_odd_primes(a4, a6, 13):
                for relation in self.relations(p):
                    field = _QuadraticExtension(relation, p)
                    got = _symbol_sum(field, (a4 % p, 0), (a6 % p, 0))
                    expected = character_sum_fp2(relation, (a4, 0), (a6, 0), p)
                    assert got == expected, (a4, a6, p, relation)

    def test_extension_matches_character_sum(self, monkeypatch):
        fallbacks = []
        self.spy_on_symbol_sum(monkeypatch, fallbacks)
        for a4, a6 in COUNT_CURVES:
            a4, a6 = (a4, 0), (a6, 0)
            for p in range(3, 81):
                if not is_rational_prime(p):
                    continue
                for relation in self.relations(p):
                    if self.nonsingular(relation, a4, a6, p):
                        expected = character_sum_fp2(relation, a4, a6, p)
                        assert count_fp2(relation, a4, a6, p) == expected, (a4, a6, p, relation)
        # points off F_p reach the twist, so only fields with fewer such
        # abscissae than the point budget fall back
        assert set(fallbacks) <= {3, 5, 7}

    @staticmethod
    def nonsingular(relation, a4, a6, p):
        # 4 a4^3 + 27 a6^2 != 0 in F_p[theta]
        s, t = relation

        def mul(u, v):
            return ((u[0] * v[0] + t * u[1] * v[1]) % p,
                    (u[0] * v[1] + u[1] * v[0] + s * u[1] * v[1]) % p)

        cube, square = mul(a4, mul(a4, a4)), mul(a6, a6)
        return ((4 * cube[0] + 27 * square[0]) % p, (4 * cube[1] + 27 * square[1]) % p) != (0, 0)

    def test_fallback_path(self, monkeypatch):
        fallbacks = []
        self.spy_on_symbol_sum(monkeypatch, fallbacks)
        for p in good_odd_primes(-1, 0, 300):
            assert count_fp(-1, 0, p) == character_sum_fp(p - 1, 0, p)
        # small fields leave several candidates after every point drawn
        assert fallbacks == [3, 5, 7, 11, 29]

    def test_no_order_three_draw(self, monkeypatch):
        # with a4 = 0, x = 0 gives the inflection point (0, c^2) of order 3
        import cmcalc.zeta as zeta

        fallbacks, drawn = [], []
        self.spy_on_symbol_sum(monkeypatch, fallbacks)
        original = zeta._point_multiples

        def spy(field, a, b, P, lo, hi):
            drawn.append(P)
            return original(field, a, b, P, lo, hi)

        monkeypatch.setattr(zeta, "_point_multiples", spy)
        fell_back = set()
        for a6 in (1, 2, 3, 5, 7, 16, -432):
            for p in good_odd_primes(0, a6, 2999):
                fallbacks.clear()
                count_fp(0, a6, p)
                if fallbacks:
                    fell_back.add((p, a6 % p))
        assert len(drawn) > 3000 and all(x != 0 for x, _ in drawn)
        # the same small fields fall back as when x = 0 was drawn
        assert fell_back == {(5, 2), (7, 1), (11, 7)}
        for p in good_odd_primes(0, 16, 29999):
            count_fp(0, 16, p)
        assert fallbacks == []

    def test_fallback_gate(self, monkeypatch):
        import cmcalc.zeta as zeta

        # over F_3 the points leave several candidates in [1, 7]; a sum that
        # lands outside them is refused with its inputs
        monkeypatch.setattr(zeta, "_symbol_sum", lambda field, a4, a6: 8)
        with pytest.raises(InternalInconsistency) as info:
            count_fp(-1, 0, 3)
        assert info.value.witness == (3, 2, 0, 8)

    def test_point_off_the_curve_raises(self):
        # (1, 1) is not on y^2 = x^3 - x over F_13; the chord-tangent law never
        # reads a6, so only the on-curve test stops it
        with pytest.raises(InternalInconsistency) as info:
            _point_multiples(_PrimeField(13), 13 - 1, 0, (1, 1), 14 - 7, 14 + 7)
        assert info.value.witness == (13, (1, 1), None)

    @pytest.mark.parametrize("k", [None, 16])
    def test_search_gate(self, monkeypatch, k):
        import cmcalc.zeta as zeta

        # (0, 4) has order 3 on y^2 = x^3 + 16 over F_13; a search that
        # finds nothing, or a first k that does not kill the point, is refused
        monkeypatch.setattr(zeta, "_multiple_in_interval",
                            lambda *args: [] if k is None else [k, 18])
        with pytest.raises(InternalInconsistency) as info:
            _point_multiples(_PrimeField(13), 0, 16 % 13, (0, 4), 14 - 7, 14 + 7)
        assert info.value.witness == (13, (0, 4), k)

    def test_point_order_exact(self):
        # (0, 4) has order 3 on y^2 = x^3 + 16 over every F_p with p > 3
        for p in (5, 7, 11, 13, 97):
            h = math.isqrt(4 * p)
            lo, hi = p + 1 - h, p + 1 + h
            assert _point_multiples(_PrimeField(p), 0, 16 % p, (0, 4), lo, hi) == [
                k for k in range(lo, hi + 1) if k % 3 == 0]


class TestMultiplesInInterval:
    """_multiple_in_interval against a naive scan by repeated addition, for
    every point of a curve over small fields."""

    @staticmethod
    def naive(field, a, P, lo, hi):
        """(order of P, every k in [lo, hi] with k P = O) by adding P to itself."""
        order, out, Q = None, [], None
        for k in range(1, hi + 1):
            Q = field.add_points(a, Q, P)
            if Q is None:
                order = order or k
                if k >= lo:
                    out.append(k)
        return order, out

    def check_every_point(self, field, elements, a4, a6):
        """The orders seen, each against m as _multiple_in_interval picks it."""
        q = field.q
        h = math.isqrt(4 * q)
        lo, hi = q + 1 - h, q + 1 + h
        m = math.isqrt((hi - lo) // 2) + 1
        roots = {}
        for y in elements:
            roots.setdefault(field.mul(y, y), []).append(y)
        seen = Counter()
        for x in elements:
            rhs = field.add(field.mul(field.add(field.mul(x, x), a4), x), a6)
            ys = roots.get(rhs, ())
            if not ys:
                continue
            # k P = O exactly when k (-P) = O: one scan serves both points
            order, expected = self.naive(field, a4, (x, ys[0]), lo, hi)
            for y in ys:
                assert _multiple_in_interval(field, a4, (x, y), lo, hi) == expected, (q, x, y)
                seen["n <= m" if order <= m else "m < n <= 2m" if order <= 2 * m else "n > 2m"] += 1
                seen[order - 2 * m] += 1
        return seen

    def test_prime_fields(self):
        seen = Counter()
        for a4, a6 in COUNT_CURVES:
            for p in good_odd_primes(a4, a6, 200):
                seen += self.check_every_point(_PrimeField(p), range(p), a4 % p, a6 % p)
        # orders below m, between m and 2m (where x alone finds the order)
        # and above 2m, with both edges of the giant-step window
        assert seen["n <= m"] and seen["m < n <= 2m"] and seen["n > 2m"]
        assert seen[0] and seen[1]

    def test_quadratic_extensions(self):
        # 7 is inert in Z[i], 5 in Z[omega]; theta^2 = 2 is irreducible mod 13
        seen = Counter()
        for relation, p in (((0, -1), 7), ((1, -1), 5), ((0, 2), 13)):
            field = _QuadraticExtension(relation, p)
            elements = [(u, v) for u in range(p) for v in range(p)]
            for a4, a6 in COUNT_CURVES:
                a4, a6 = (a4 % p, 0), (a6 % p, 0)
                if TestHasseCount.nonsingular(relation, a4, a6, p):
                    seen += self.check_every_point(field, elements, a4, a6)
        assert seen["n <= m"] and seen["m < n <= 2m"] and seen["n > 2m"]

    def test_work_per_point(self, monkeypatch):
        import cmcalc.zeta as zeta

        calls = Counter()
        for owner, name in ((zeta._PrimeField, "multiply"), (zeta, "_point_multiples")):
            original = getattr(owner, name)

            def wrapper(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)
        drawn = 0
        for a4, a6 in COUNT_CURVES:
            for p in good_odd_primes(a4, a6, 2000):
                calls.clear()
                count_fp(a4, a6, p)
                # one giant-step start and one direct check per point drawn;
                # no order is reduced
                assert calls["multiply"] <= 2 * calls["_point_multiples"], (a4, a6, p, calls)
                drawn += calls["_point_multiples"]
        assert drawn > 1000


def points(p, a4, a6):
    """Every affine point of y^2 = x^3 + a4 x + a6 over F_p."""
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in roots.get((x * x * x + a4 * x + a6) % p, ())]


@functools.lru_cache(maxsize=None)
def addition_cases(k, order):
    """What R = j P is before each addition of P in the double-and-add for
    k P, with P of the given order."""
    cases, j = [], 1
    for bit in bin(k)[3:]:
        j *= 2
        if bit == "1":
            r = j % order
            cases.append("R = O" if r == 0 else "R = P" if r == 1 else
                         "R = -P" if r == order - 1 else "R = j P")
            j += 1
    return tuple(cases)


class TestPointArithmetic:
    """The Jacobian scalar multiples over F_p and the F_{p^2} chord law on
    the pair integers, against the affine laws of tests/zeta_oracle.py."""

    def test_jacobian_multiply(self):
        seen = Counter()
        for a4, a6 in COUNT_CURVES:
            for p in good_odd_primes(a4, a6, 60):
                field, a = _PrimeField(p), a4 % p
                for P in points(p, a, a6 % p):
                    order, Q = 1, P
                    while Q is not None:
                        order, Q = order + 1, add_points_fp(p, a, Q, P)
                    seen["y = 0"] += P[1] == 0
                    for k in range(2 * p + 3):
                        assert field.multiply(a, k, P) == multiply_fp(p, a, k, P), (p, a, P, k)
                        seen["k P = O"] += k > 0 and k % order == 0
                        seen.update(addition_cases(k, order))
        assert all(seen[case] for case in ("y = 0", "k P = O", "R = O", "R = P", "R = -P"))

    def test_inline_fp2_law(self):
        # 7 is inert in Z[i], 5 in Z[omega]; theta^2 = 2 is irreducible mod 13
        seen = Counter()
        for relation, p in (((0, -1), 7), ((1, -1), 5), ((0, 2), 13)):
            field = _QuadraticExtension(relation, p)
            elements = [(u, v) for u in range(p) for v in range(p)]
            for a4, a6 in COUNT_CURVES:
                a4, a6 = (a4 % p, 0), (a6 % p, 0)
                rhs = {x: _cubic(field, a4, a6, x) for x in elements}
                pts = [None] + [(x, y) for x in elements for y in elements
                                if field.mul(y, y) == rhs[x]]
                for P in pts:
                    for Q in pts:
                        got = field.add_points(a4, P, Q)
                        assert got == add_points_fp2(relation, p, a4, P, Q), (relation, p, P, Q)
                        seen["P = Q" if P == Q else "O" if got is None else "chord"] += 1
        assert seen["P = Q"] and seen["O"] and seen["chord"]


class TestEulerFactors:
    def test_zero_trace(self):
        assert euler_from_counts(7, 0).coefficients == (1, 0, 7)

    def test_from_count_example(self):
        assert euler_from_counts(5, -2).coefficients == (1, 2, 5)

    def test_square_root_bound_gate(self):
        with pytest.raises(WeilBoundViolation) as info:
            euler_from_counts(5, 10)
        assert info.value.witness == (5, 10)

    def test_hecke_split(self):
        spec = canonical_weight_one_spec(GAUSS)
        assert euler_from_hecke(spec, factor_rational_prime(GAUSS, 5)).coefficients == (1, 2, 5)
        assert euler_from_hecke(spec, factor_rational_prime(GAUSS, 13)).coefficients == (1, -6, 13)

    def test_hecke_inert(self):
        spec = canonical_weight_one_spec(GAUSS)
        assert euler_from_hecke(spec, factor_rational_prime(GAUSS, 3)).coefficients == (1, 0, 3)

    def test_hecke_ramified_refused(self):
        spec = canonical_weight_one_spec(GAUSS)
        with pytest.raises(RamifiedOrBadPrime):
            euler_from_hecke(spec, factor_rational_prime(GAUSS, 2))
        spec3 = canonical_weight_one_spec(EISENSTEIN)
        with pytest.raises(RamifiedOrBadPrime):
            euler_from_hecke(spec3, factor_rational_prime(EISENSTEIN, 3))

    def test_hecke_conductor_refused(self):
        conductor = ideal_from_generator(GAUSS.element(1, 1) ** 3 * GAUSS.element(3, 0))
        spec = HeckeCharacterSpec(field=GAUSS, conductor=conductor, infinity_type=(1, 0))
        with pytest.raises(RamifiedOrBadPrime, match="meets the conductor"):
            euler_from_hecke(spec, factor_rational_prime(GAUSS, 3))

    def test_hecke_conductor_meeting_one_split_prime_refused(self):
        # (2 + i) divides (1+i)^3 (2+i) and its conjugate does not
        conductor = ideal_from_generator(GAUSS.element(1, 1) ** 3 * GAUSS.element(2, 1))
        spec = HeckeCharacterSpec(field=GAUSS, conductor=conductor, infinity_type=(1, 0))
        fac = factor_rational_prime(GAUSS, 5)
        assert sorted(q.is_coprime(conductor) for q in fac.primes) == [False, True]
        with pytest.raises(RamifiedOrBadPrime, match="meets the conductor"):
            euler_from_hecke(spec, fac)

    @pytest.mark.parametrize("make_spec,expected", [
        (lambda: canonical_weight_one_spec(GAUSS), 429),
        (lambda: canonical_weight_one_spec(EISENSTEIN), 429),
        (twisted_gauss_spec, 428),
    ], ids=["gauss", "eisenstein", "twisted"])
    def test_generators_against_hecke_eval(self, make_spec, expected):
        # hecke_eval searches each generator afresh and tests coprimality by
        # an ideal sum; euler_from_hecke must agree at every good p <= 3000
        # and refuse exactly the others
        spec = make_spec()
        checked = 0
        for p in range(2, 3001):
            if not is_rational_prime(p):
                continue
            fac = factor_rational_prime(spec.field, p)
            if fac.kind == "ramified" or not all(
                q.is_coprime(spec.conductor) for q in fac.primes
            ):
                with pytest.raises(RamifiedOrBadPrime):
                    euler_from_hecke(spec, fac)
                continue
            assert euler_from_hecke(spec, fac) == hecke_eval_factor(spec, fac), p
            checked += 1
        assert checked == expected

    @pytest.mark.parametrize("make_spec", [
        lambda: canonical_weight_one_spec(GAUSS),
        lambda: canonical_weight_one_spec(EISENSTEIN),
        lambda: HeckeCharacterSpec(field=GAUSS, conductor=canonical_conductor(GAUSS),
                                   infinity_type=(0, 1)),
        lambda: HeckeCharacterSpec(field=EISENSTEIN, conductor=canonical_conductor(EISENSTEIN),
                                   infinity_type=(2, 1)),
        lambda: HeckeCharacterSpec(field=GAUSS, conductor=canonical_conductor(GAUSS),
                                   infinity_type=(0, 0)),
        twisted_gauss_spec,
    ], ids=["gauss", "eisenstein", "conjugate", "weight-three", "trivial", "twisted"])
    def test_value_is_naive_product(self, make_spec):
        # twist * alpha^n1 * conj(alpha)^n2 by repeated products from the twist
        spec = make_spec()
        n1, n2 = spec.infinity_type
        for p in range(3, 400):
            if not is_rational_prime(p) or spec.conductor.norm % p == 0:
                continue
            fac = factor_rational_prime(spec.field, p)
            if fac.kind == "ramified":
                continue
            for prime, g in zip(fac.primes, fac.generators):
                alpha = _primary_associate(prime, g)
                expected = spec.twist_value(alpha)
                for factor in [alpha] * n1 + [alpha.conj()] * n2:
                    expected = expected * factor
                assert _hecke_value(spec, alpha) == expected, (p, alpha)

    def test_hecke_foreign_factorization_refused(self):
        spec = canonical_weight_one_spec(GAUSS)
        with pytest.raises(CMError, match="different field"):
            euler_from_hecke(spec, factor_rational_prime(EISENSTEIN, 7))

    def test_polynomial_ops(self):
        f = EulerFactor((1, 2, 5))
        g = EulerFactor((1, 0, 3))
        assert (f * g).coefficients == (1, 2, 8, 6, 15)
        assert evaluate(f, 1) == 8
        assert g.in_t_power(2).coefficients == (1, 0, 0, 0, 3)


class TestZetaSweep:
    def test_quick_run(self):
        rep = verify_cm_zeta(CURVE, canonical_weight_one_spec(GAUSS), 13)
        assert rep["passed"]
        by_p = {e["p"]: e for e in rep["primes"]}
        assert by_p[5]["a_p_count"] == -2
        assert by_p[13]["a_p_count"] == 6
        assert {e["p"] for e in rep["excluded"]} == {2}

    def test_supersingular_pattern(self):
        rep = verify_cm_zeta(CURVE, canonical_weight_one_spec(GAUSS), 500)
        assert rep["passed"]
        for entry in rep["primes"]:
            inert = entry["splitting"] == "inert"
            assert inert == (entry["a_p_count"] == 0)
            assert inert == (entry["p"] % 4 == 3)

    def test_split_trace_product_identities(self):
        # chi(P) + chi(P') = a_p and chi(P) chi(P') = p at split primes
        spec = canonical_weight_one_spec(GAUSS)
        from cmcalc.quadratic import hecke_eval

        for p in (5, 13, 17, 29):
            fac = factor_rational_prime(GAUSS, p)
            values = [hecke_eval(spec, q) for q in fac.primes]
            _, a_p = count_points(CURVE, p)
            total = values[0] + values[1]
            prod = values[0] * values[1]
            assert (total.a, total.b) == (a_p, 0)
            assert (prod.a, prod.b) == (p, 0)

    def test_wrong_weight_mismatches(self):
        spec = HeckeCharacterSpec(
            field=GAUSS, conductor=canonical_conductor(GAUSS), infinity_type=(2, 0)
        )
        rep = verify_cm_zeta(CURVE, spec, 60)
        assert not rep["passed"]
        assert rep["summary"]["mismatches"] == rep["summary"]["checked"]

    def test_twisted_character_mismatches(self):
        rep = verify_cm_zeta(CURVE, twisted_gauss_spec(), 100)
        assert not rep["passed"]
        assert 0 < rep["summary"]["mismatches"] < rep["summary"]["checked"]
        witness = rep["mismatch_witnesses"][0]
        assert witness["factor_count"] != witness["factor_hecke"]

    def test_conjugate_type_also_matches(self):
        spec = HeckeCharacterSpec(
            field=GAUSS, conductor=canonical_conductor(GAUSS), infinity_type=(0, 1)
        )
        assert verify_cm_zeta(CURVE, spec, 100)["passed"]

    def test_exclusion_reasons_in_order(self):
        # p = 3 is good for y^2 = x^3 - x, divides the norm of the (3)
        # convention modulus and ramifies in Q(sqrt(-3)): the conductor
        # reason is recorded first
        curve = CurveSpec(a4=-1, a6=0, cm_field=EISENSTEIN)
        rep = verify_cm_zeta(curve, canonical_weight_one_spec(EISENSTEIN), 20)
        assert rep["excluded"] == [
            {"p": 2, "reason": "bad_reduction"},
            {"p": 3, "reason": "conductor"},
        ]
        assert [e["p"] for e in rep["primes"]] == [5, 7, 11, 13, 17, 19]
        rs = verify_res_scalars(curve, 20)
        assert rs["excluded"] == [
            {"p": 2, "reason": "bad_reduction"},
            {"p": 3, "reason": "ramified"},
        ]

    def test_sieve_against_trial_division(self, monkeypatch):
        import cmcalc.zeta as zeta

        def refuse(p):
            raise AssertionError("the sweep tested a prime by trial division")

        monkeypatch.setattr(zeta, "is_rational_prime", refuse)
        top = 3000
        primes = [p for p in range(2, top + 1)
                  if all(p % f for f in range(2, math.isqrt(p) + 1))]
        for curve in (CURVE, CUBE_CURVE, CurveSpec(a4=-1, a6=0, cm_field=EISENSTEIN)):
            # each prime is factored once, so that every pmax stays cheap
            facs = {p: factor_rational_prime(curve.cm_field, p) for p in primes}
            monkeypatch.setattr(zeta, "factor_rational_prime", lambda field, p: facs[p])
            # the sieve is the same for every conductor norm: every pmax
            # runs with none, the full range also with the convention's
            for norm, p_maxes in ((1, range(top + 1)),
                                  (canonical_conductor(curve.cm_field).norm, [top])):
                checked, excluded = [], []
                for p in primes:
                    reason = ("bad_reduction" if p == 2 or curve.discriminant % p == 0
                              else "conductor" if norm % p == 0
                              else "ramified" if facs[p].kind == "ramified" else None)
                    if reason:
                        excluded.append({"p": p, "reason": reason})
                    else:
                        checked.append((p, facs[p]))
                checked_ps = [p for p, _ in checked]
                excluded_ps = [e["p"] for e in excluded]
                for p_max in p_maxes:
                    got_excluded = []
                    got = list(zeta._sweep_primes(curve, p_max, got_excluded, norm))
                    assert got == checked[:bisect.bisect(checked_ps, p_max)], (curve, p_max)
                    assert got_excluded == excluded[:bisect.bisect(excluded_ps, p_max)]

    def test_secondary_target_eisenstein(self):
        # frozen convention: generator congruent to 1 mod (3), no twist
        rep = verify_cm_zeta(CUBE_CURVE, canonical_weight_one_spec(EISENSTEIN), 300)
        assert rep["passed"]
        assert {e["p"] for e in rep["excluded"]} == {2, 3}
        for entry in rep["primes"]:
            assert (entry["splitting"] == "inert") == (entry["a_p_count"] == 0)


class TestScalarRestriction:
    def test_small_run(self):
        rep = verify_res_scalars(CURVE, 40)
        assert rep["passed"]
        kinds = {e["p"]: e["splitting"] for e in rep["primes"]}
        assert kinds[5] == "split" and kinds[3] == "inert"
        assert {e["p"] for e in rep["excluded"]} == {2}

    def test_split_factor_is_product_of_quadratics(self):
        rep = verify_res_scalars(CURVE, 20)
        entry = next(e for e in rep["primes"] if e["p"] == 5)
        assert len(entry["induced"]) == 5
        # the quartic evaluated at 1 equals the product of the two counts
        f = EulerFactor(tuple(entry["induced"]))
        assert evaluate(f, 1) == 8 * 8

    def test_inert_factor_in_t_squared(self):
        rep = verify_res_scalars(CURVE, 20)
        entry = next(e for e in rep["primes"] if e["p"] == 3)
        coeffs = entry["induced"]
        assert coeffs[1] == 0 and coeffs[3] == 0

    def test_eisenstein_curve(self):
        rep = verify_res_scalars(CUBE_CURVE, 40)
        assert rep["passed"]


class TestPrimeArithmeticOnce:
    """Each sweep factors each prime once and counts each curve once."""

    @staticmethod
    def counting(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    def test_zeta_sweep(self, monkeypatch):
        import cmcalc.quadratic as quadratic
        import cmcalc.zeta as zeta

        specs = [(curve, canonical_weight_one_spec(curve.cm_field))
                 for curve in (CURVE, CUBE_CURVE)]
        calls = []
        for module, name in ((zeta, "factor_rational_prime"),
                             (quadratic, "find_generator"),
                             (quadratic, "ideal_from_elements"),
                             (quadratic.QuadIdeal, "is_coprime")):
            self.counting(monkeypatch, module, name, calls)
        for curve, spec in specs:
            calls.clear()
            rep = zeta.verify_cm_zeta(curve, spec, 500)
            assert rep["passed"]
            # every prime past the bad-reduction and conductor tests is
            # factored once; the character is read off its generators
            factored = [args[1] for name, args in calls if name == "factor_rational_prime"]
            assert factored == [e["p"] for e in rep["primes"]]
            assert len(calls) == len(factored), curve

    def test_res_scalars(self, monkeypatch):
        import cmcalc.zeta as zeta

        calls = []
        for name in ("factor_rational_prime", "count_fp", "count_fp2"):
            self.counting(monkeypatch, zeta, name, calls)
        rep = zeta.verify_res_scalars(CURVE, 60)
        assert rep["passed"]
        kinds = {e["p"]: e["splitting"] for e in rep["primes"]}
        split = [p for p, kind in kinds.items() if kind == "split"]
        assert split and len(split) < len(kinds)
        factored = [args[1] for name, args in calls if name == "factor_rational_prime"]
        assert factored == list(kinds)
        # one F_p count per split prime, one F_{p^2} count per prime
        assert [args[2] for name, args in calls if name == "count_fp"] == split
        assert [args[3] for name, args in calls if name == "count_fp2"] == list(kinds)

    def test_factorization_calls_no_primary_generator(self, monkeypatch):
        import cmcalc.quadratic as quadratic

        def refuse(*args):
            raise AssertionError("factor_rational_prime asked for a primary generator")

        monkeypatch.setattr(quadratic, "primary_generator", refuse)
        for d in (-1, -3):
            for p in (3, 5, 7, 13, 97):
                factor_rational_prime(QuadField(d), p)
