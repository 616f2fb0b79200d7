"""Local zeta data of CM elliptic curves, reconstructed two ways.

At a good odd prime, the point count of y^2 = x^3 + a4 x + a6 over F_p
gives the local factor 1 - a_p T + p T^2; the attached weight-one ideal
character gives the same factor through its values at the primes above p.
The sweep compares the two exactly.  A second check reconstructs the
degree-4 local factor of the scalar-restricted surface from point counts
over F_p and F_{p^2} and compares it with the product of the per-place
factors in T^{f_v}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (BadPrime, CMError, InternalInconsistency, NotCoprime,
                     RamifiedOrBadPrime, WeilBoundViolation)
from .quadratic import (
    HeckeCharacterSpec,
    PrimeFactorization,
    QuadField,
    QuadInt,
    factor_rational_prime,
    hecke_eval,
    is_rational_prime,
    legendre,
)


@dataclass(frozen=True)
class CurveSpec:
    """y^2 = x^3 + a4 x + a6 over the rationals, with its CM field."""

    a4: int
    a6: int
    cm_field: QuadField

    def __post_init__(self):
        if self.discriminant == 0:
            raise CMError("singular curve")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a4**3 + 27 * self.a6**2)

    @cached_property
    def bad_primes(self) -> tuple[int, ...]:
        n = abs(self.discriminant)
        out = []
        f = 2
        while f * f <= n:
            if n % f == 0:
                out.append(f)
                while n % f == 0:
                    n //= f
            f += 1 if f == 2 else 2
        if n > 1:
            out.append(n)
        return tuple(out)

    def is_good(self, p: int) -> bool:
        return p not in self.bad_primes


@dataclass(frozen=True)
class EulerFactor:
    """Local factor as polynomial coefficients in T, ascending degree."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __mul__(self, other: "EulerFactor") -> "EulerFactor":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return EulerFactor(tuple(out))

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def in_t_power(self, k: int) -> "EulerFactor":
        """Substitute T^k for T."""
        out = [0] * ((len(self.coefficients) - 1) * k + 1)
        for i, c in enumerate(self.coefficients):
            out[i * k] = c
        return EulerFactor(tuple(out))


def legendre_table(p: int) -> list[int]:
    """leg[x] for x in 0..p-1, built by marking squares."""
    table = [-1] * p
    table[0] = 0
    for x in range(1, p):
        table[x * x % p] = 1
    return table


def _check_good_odd(curve: CurveSpec, p: int) -> None:
    if not is_rational_prime(p):
        raise BadPrime(f"{p} is not prime")
    if p == 2 or not curve.is_good(p):
        raise BadPrime(f"{p} is a bad or even prime for this curve")


def count_points(curve: CurveSpec, p: int) -> tuple[int, int]:
    """(#E(F_p) including infinity, a_p) by a quadratic-symbol sum."""
    _check_good_odd(curve, p)
    return _count_fp(curve.a4 % p, curve.a6 % p, p)


def _count_fp(a4: int, a6: int, p: int) -> tuple[int, int]:
    leg = legendre_table(p)
    total = 0
    for x in range(p):
        total += 1 + leg[(x * x % p * x + a4 * x + a6) % p]
    count = total + 1
    return count, p + 1 - count


def count_points_naive(curve: CurveSpec, p: int) -> int:
    """Oracle: direct enumeration of all (x, y) pairs, plus infinity."""
    _check_good_odd(curve, p)
    a4, a6 = curve.a4 % p, curve.a6 % p
    count = 1
    for x in range(p):
        rhs = (x * x % p * x + a4 * x + a6) % p
        for y in range(p):
            if y * y % p == rhs:
                count += 1
    return count


def euler_from_counts(p: int, a_p: int) -> EulerFactor:
    if a_p * a_p > 4 * p:
        raise WeilBoundViolation(f"a_p = {a_p} breaks a_p^2 <= 4p at p = {p}",
                                 witness=(p, a_p))
    return EulerFactor((1, -a_p, p))


def euler_from_hecke(spec: HeckeCharacterSpec, fac: PrimeFactorization) -> EulerFactor:
    """Local factor from character values at the primes of a factorization.

    Split p: (1 - chi(P) T)(1 - chi(P') T) with integer coefficients by
    conjugate symmetry; inert p: 1 - chi((p)) T^2.  Ramified primes and
    primes meeting the conductor are refused.
    """
    if any(prime.field != spec.field for prime in fac.primes):
        raise CMError("factorization belongs to a different field")
    if fac.kind == "ramified":
        raise RamifiedOrBadPrime(f"{fac.p} ramifies in the CM field")
    try:
        values = [hecke_eval(spec, prime) for prime in fac.primes]
    except NotCoprime as exc:
        raise RamifiedOrBadPrime(f"{fac.p} meets the conductor") from exc
    if fac.kind == "inert":
        value = values[0]
        if value.b != 0:
            raise InternalInconsistency("inert value must be rational")
        return EulerFactor((1, 0, -value.a))
    s = values[0] + values[1]
    q = values[0] * values[1]
    if s.b != 0 or q.b != 0:
        raise InternalInconsistency(
            "split factor coefficients must be rational integers"
        )
    return EulerFactor((1, -s.a, q.a))


def _sweep_primes(curve: CurveSpec, p_max: int, excluded: list, conductor_norm: int = 1):
    """Yield (p, factorization) for the primes p <= p_max that a sweep checks.

    Each other prime is appended to ``excluded`` with the first reason that
    applies: bad_reduction (p = 2 or bad for the curve), conductor (p divides
    ``conductor_norm``; 1 excludes none), ramified (in the CM field).
    """
    for p in range(2, p_max + 1):
        if not is_rational_prime(p):
            continue
        if p == 2 or not curve.is_good(p):
            excluded.append({"p": p, "reason": "bad_reduction"})
            continue
        if conductor_norm % p == 0:
            excluded.append({"p": p, "reason": "conductor"})
            continue
        fac = factor_rational_prime(curve.cm_field, p)
        if fac.kind == "ramified":
            excluded.append({"p": p, "reason": "ramified"})
            continue
        yield p, fac


def verify_cm_zeta(curve: CurveSpec, spec: HeckeCharacterSpec, p_max: int) -> dict:
    """Exact comparison of counting and character factors for odd good p."""
    primes_checked = []
    excluded = []
    mismatches = []
    for p, fac in _sweep_primes(curve, p_max, excluded, spec.conductor.norm):
        count, a_p = count_points(curve, p)
        from_counts = euler_from_counts(p, a_p)
        from_hecke = euler_from_hecke(spec, fac)
        match = from_counts == from_hecke
        entry = {
            "p": p,
            "splitting": fac.kind,
            "a_p_count": a_p,
            "factor_count": list(from_counts.coefficients),
            "factor_hecke": list(from_hecke.coefficients),
            "match": match,
        }
        primes_checked.append(entry)
        if not match:
            mismatches.append(entry)
    return {
        "law": "zeta_factorization",
        "curve": {"a4": curve.a4, "a6": curve.a6, "d": curve.cm_field.d},
        "character": spec.to_json(),
        "p_max": p_max,
        "primes": primes_checked,
        "excluded": excluded,
        "summary": {
            "checked": len(primes_checked),
            "mismatches": len(mismatches),
        },
        "mismatch_witnesses": mismatches,
        "passed": not mismatches and bool(primes_checked),
    }


# --- scalar restriction ------------------------------------------------------


def count_points_quadratic_extension(
    field: QuadField, a4: QuadInt, a6: QuadInt, p: int
) -> int:
    """#E(F_{p^2}) for an inert prime p, with F_{p^2} = F_p[omega]."""
    return _count_fp2(field.omega_relation, (a4.a, a4.b), (a6.a, a6.b), p)


def _count_fp2(relation: tuple[int, int], a4: tuple[int, int], a6: tuple[int, int], p: int) -> int:
    """#E(F_{p^2}) over F_{p^2} = F_p[theta], theta^2 = s theta + t irreducible.

    Coefficients are pairs (u, v) meaning u + v theta.  An element is a
    square exactly when its norm to F_p is, so one Legendre table over F_p
    suffices.
    """
    s, t = relation
    leg = legendre_table(p)
    a4a, a4b = a4[0] % p, a4[1] % p
    a6a, a6b = a6[0] % p, a6[1] % p
    total = 0
    for xa in range(p):
        ca = xa * xa % p
        ra0 = a4a * xa + a6a
        rb0 = a4b * xa + a6b
        for xb in range(p):
            # x = xa + xb theta: x^2 = qa + qb theta, then x^3 + a4 x + a6
            bb = xb * xb
            qa = (ca + t * bb) % p
            qb = (2 * xa * xb + s * bb) % p
            sb = s * xb + xa
            ra = (qa * xa + t * qb * xb + ra0 + t * a4b * xb) % p
            rb = (qa * xb + qb * sb + a4a * xb + a4b * s * xb + rb0) % p
            total += leg[(ra * ra + s * ra * rb - t * rb * rb) % p]
    return p * p + total + 1


def _weil_quartic_from_counts(p: int, n1: int, n2: int) -> EulerFactor:
    """Degree-4 local factor 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4 from
    the surface counts over F_p and F_{p^2} (n2 = P(1) * P(-1) * ... )."""
    if n2 % n1:
        raise InternalInconsistency("extension count not divisible by base count")
    p1 = n1  # P(1)
    pm1 = n2 // n1  # P(-1)
    num_c1 = p1 - pm1
    if num_c1 % (2 * (p + 1)):
        raise InternalInconsistency("counts incompatible with a quartic factor")
    c1 = num_c1 // (2 * (p + 1))
    num_c2 = p1 + pm1
    if num_c2 % 2:
        raise InternalInconsistency("counts incompatible with a quartic factor")
    c2 = num_c2 // 2 - 1 - p * p
    return EulerFactor((1, c1, c2, p * c1, p * p))


def verify_res_scalars(curve: CurveSpec, p_max: int) -> dict:
    """Scalar-restriction check: per-place factors against surface counts.

    The rational curve is read over the CM field.  For each good odd prime
    unramified there, the degree-4 factor reconstructed from the restricted
    surface's counts over F_p and F_{p^2} must equal the product over
    places v | p of the curve factors in T^{f_v}.
    """
    field = curve.cm_field
    results = []
    excluded = []
    mismatches = []
    for p, fac in _sweep_primes(curve, p_max, excluded):
        if fac.kind == "split":
            # both places have residue field F_p, where the rational curve
            # reduces to the same curve: count it once and square
            a4, a6 = curve.a4 % p, curve.a6 % p
            count, a_p = _count_fp(a4, a6, p)
            ext = _count_fp2((0, _non_residue(p)), (a4, 0), (a6, 0), p)
            # the two independent counts must satisfy the quadratic lift
            lift_consistent = ext == p * p + 1 - (a_p * a_p - 2 * p)
            place = euler_from_counts(p, a_p)
            induced = place * place
            n1 = count * count
            n2 = ext * ext
        else:
            lift_consistent = True
            count_ext = count_points_quadratic_extension(
                field, field.element(curve.a4), field.element(curve.a6), p
            )
            a_v = p * p + 1 - count_ext
            if a_v * a_v > 4 * p * p:
                raise WeilBoundViolation(f"a = {a_v} breaks a^2 <= 4q at q = {p}^2",
                                         witness=(p * p, a_v))
            place = EulerFactor((1, -a_v, p * p))
            induced = place.in_t_power(2)
            n1 = count_ext
            n2 = count_ext * count_ext
        quartic = _weil_quartic_from_counts(p, n1, n2)
        match = quartic == induced and lift_consistent
        entry = {
            "p": p,
            "splitting": fac.kind,
            "induced": list(induced.coefficients),
            "from_surface_counts": list(quartic.coefficients),
            "lift_consistent": lift_consistent,
            "match": match,
        }
        results.append(entry)
        if not match:
            mismatches.append(entry)
    return {
        "law": "scalar_restriction_local_factors",
        "curve": {"a4": curve.a4, "a6": curve.a6, "d": field.d},
        "p_max": p_max,
        "primes": results,
        "excluded": excluded,
        "summary": {
            "checked": len(results),
            "mismatches": len(mismatches),
        },
        "passed": not mismatches and bool(results),
    }


def _non_residue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p."""
    for x in range(2, p):
        if legendre(x, p) == -1:
            return x
    raise InternalInconsistency("no quadratic non-residue found")
