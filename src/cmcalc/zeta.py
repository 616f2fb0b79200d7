"""Local zeta data of CM elliptic curves, reconstructed two ways.

At a good odd prime, the point count of y^2 = x^3 + a4 x + a6 over F_p
gives the local factor 1 - a_p T + p T^2; the attached weight-one ideal
character gives the same factor through its values at the primes above p.
The sweep compares the two exactly.  A second check reconstructs the
degree-4 local factor of the scalar-restricted surface from point counts
over F_p and F_{p^2} and compares it with the product of the per-place
factors in T^{f_v}.

Counts never look at the CM field.  Over F_q (q = p or p^2) the count N is
one of the Hasse candidates q + 1 - h .. q + 1 + h, h = isqrt(4q).  A point
(c x, c^2) with c = f(x) != 0 needs no square root: it lies on E when c is
a square and on the quadratic twist, with 2q + 2 - N points, when not; on
a4 = 0 curves x = 0 is skipped, its point having order 3.  One baby-step
giant-step pass finds every multiple k of its order in the interval, with
scalar multiples over F_p in Jacobian coordinates (one inversion each); the
candidates left are those whose count on that curve is such a k
(Shanks-Mestre; Cohen, GTM 138, 7.4).  Points alternate between E and its
twist until one candidate is left; after _MAX_POINTS points the symbol sum
q + 1 + sum chi(f(x)) decides, written once over the same field arithmetic,
and it must be one of the surviving candidates.  The hand-expanded sums,
the naive enumeration and the affine point laws are test oracles
(tests/zeta_oracle.py).
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

from .errors import (BadPrime, CMError, InternalInconsistency, NotAnInteger,
                     RamifiedOrBadPrime, Record, WeilBoundViolation)
from .quadratic import (
    HeckeCharacterSpec,
    PrimeFactorization,
    QuadField,
    QuadInt,
    _hecke_value,
    _primary_associate,
    factor_rational_prime,
    is_rational_prime,
    legendre,
)


class CurveSpec(Record):
    """y^2 = x^3 + a4 x + a6 over the rationals, with its CM field."""

    _fields = ("a4", "a6", "cm_field")

    def __init__(self, a4: int, a6: int, cm_field: QuadField):
        self.__dict__.update(a4=a4, a6=a6, cm_field=cm_field)
        if type(self.a4) is not int or type(self.a6) is not int:
            raise NotAnInteger(f"coefficients a4={self.a4!r}, a6={self.a6!r} are not integers")
        if self.discriminant == 0:
            raise CMError("singular curve")

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a4**3 + 27 * self.a6**2)

    def is_good(self, p: int) -> bool:
        """Whether the prime p does not divide the discriminant."""
        return self.discriminant % p != 0


class EulerFactor(Record):
    """Local factor as polynomial coefficients in T, ascending degree."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        self.__dict__.update(coefficients=coefficients)

    def __mul__(self, other: "EulerFactor") -> "EulerFactor":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return EulerFactor(tuple(out))

    def in_t_power(self, k: int) -> "EulerFactor":
        """Substitute T^k for T."""
        out = [0] * ((len(self.coefficients) - 1) * k + 1)
        for i, c in enumerate(self.coefficients):
            out[i * k] = c
        return EulerFactor(tuple(out))


def count_points(curve: CurveSpec, p: int) -> tuple[int, int]:
    """(#E(F_p) including infinity, a_p); count_fp refuses bad and even p."""
    if not is_rational_prime(p):
        raise BadPrime(f"{p} is not prime")
    count = count_fp(curve.a4, curve.a6, p)
    return count, p + 1 - count


def count_fp(a4: int, a6: int, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + a4 x + a6 with good reduction at the odd
    prime p; BadPrime when p = 2 or the curve is singular over F_p."""
    a4, a6 = a4 % p, a6 % p
    if p == 2 or (4 * a4**3 + 27 * a6**2) % p == 0:
        raise BadPrime(f"{p} is a bad or even prime for this curve")
    return _hasse_count(_PrimeField(p), a4, a6)


# --- point counts in the Hasse interval --------------------------------------

# Points drawn before an ambiguous count falls back to the character sum.  On
# E and its twist together, Mestre's theorem leaves no ambiguity past p = 229.
_MAX_POINTS = 10


class _PrimeField:
    """F_p; elements are the integers 0..p-1."""

    def __init__(self, p: int):
        self.p = self.q = p
        self.zero = 0

    def add(self, x, y):
        return (x + y) % self.p

    def mul(self, x, y):
        return x * y % self.p

    def is_square(self, x) -> bool:
        return legendre(x, self.p) == 1

    def elements(self):
        return range(self.p)

    def abscissae(self):
        return range(self.p)

    def add_points(self, a, P, Q):
        """P + Q on Y^2 = X^3 + a X + b (the law never reads b); None is the
        point at infinity."""
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if y1 != y2 or y1 == 0:
                return None
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    def multiply(self, a, k, P):
        """k P for k >= 0, by double-and-add in Jacobian coordinates: (X, Y, Z)
        is (X/Z^2, Y/Z^3), Z = 0 the point at infinity.  One inversion at the
        end, none when k P = O."""
        p = self.p
        x, y = P
        X, Y, Z = (x, y, 1) if k else (1, 1, 0)
        for bit in bin(k)[3:]:
            # 2 R; Z = 0 stays 0, and Y = 0 (order 2) gives Z = 0
            YY = Y * Y % p
            S = 4 * X * YY % p
            ZZ = Z * Z % p
            M = (3 * X * X + a * ZZ * ZZ) % p
            Z = 2 * Y * Z % p
            X = (M * M - 2 * S) % p
            Y = (M * (S - X) - 8 * YY * YY) % p
            if bit == "1":
                # R + P, P affine
                if not Z:
                    X, Y, Z = x, y, 1
                    continue
                ZZ = Z * Z % p
                H = (x * ZZ - X) % p
                r = (y * ZZ * Z - Y) % p
                if not H:
                    if r:  # R = -P
                        Z = 0
                    else:  # R = P
                        Q = self.add_points(a, P, P)
                        X, Y, Z = (*Q, 1) if Q else (1, 1, 0)
                    continue
                HH = H * H % p
                HHH = H * HH % p
                V = X * HH % p
                X = (r * r - HHH - 2 * V) % p
                Y = (r * (V - X) - Y * HHH) % p
                Z = Z * H % p
        if not Z:
            return None
        w = pow(Z, -1, p)
        ww = w * w % p
        return (X * ww % p, Y * ww * w % p)


class _QuadraticExtension:
    """F_{p^2} = F_p[theta], theta^2 = s theta + t; elements are pairs (u, v)
    meaning u + v theta, with 0 <= u, v < p."""

    def __init__(self, relation: tuple[int, int], p: int):
        self.s, self.t = relation[0] % p, relation[1] % p
        self.p, self.q = p, p * p
        self.zero = (0, 0)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def mul(self, x, y):
        vv = x[1] * y[1]
        return ((x[0] * y[0] + self.t * vv) % self.p,
                (x[0] * y[1] + x[1] * y[0] + self.s * vv) % self.p)

    def norm(self, x) -> int:
        return (x[0] * x[0] + self.s * x[0] * x[1] - self.t * x[1] * x[1]) % self.p

    def is_square(self, x) -> bool:
        return legendre(self.norm(x), self.p) == 1

    def elements(self):
        return ((u, v) for u in range(self.p) for v in range(self.p))

    def abscissae(self):
        # off F_p: for a curve over F_p every f(x) with x in F_p is a square
        # in F_{p^2}, so only such x reach the twist
        return ((u, 1) for u in range(self.p))

    def add_points(self, a, P, Q):
        """P + Q on Y^2 = X^3 + a X + b, as _PrimeField.add_points, written
        out on the pair integers."""
        if P is None:
            return Q
        if Q is None:
            return P
        p, s, t = self.p, self.s, self.t
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if y1 != y2 or y1 == (0, 0):
                return None
            # slope (3 x1^2 + a) / (2 y1)
            u, v = x1
            vv = v * v
            nu, nv = 3 * (u * u + t * vv) + a[0], 3 * (2 * u * v + s * vv) + a[1]
            du, dv = 2 * y1[0], 2 * y1[1]
        else:
            nu, nv = y2[0] - y1[0], y2[1] - y1[1]
            du, dv = x2[0] - x1[0], x2[1] - x1[1]
        # n / d = n conj(d) / N(d), the conjugate of u + v theta being
        # (u + s v) - v theta
        w = pow((du * du + s * du * dv - t * dv * dv) % p, -1, p)
        cu, cv = (du + s * dv) * w % p, -dv * w % p
        vv = nv * cv
        lu, lv = (nu * cu + t * vv) % p, (nu * cv + nv * cu + s * vv) % p
        vv = lv * lv
        x3 = ((lu * lu + t * vv - x1[0] - x2[0]) % p,
              (2 * lu * lv + s * vv - x1[1] - x2[1]) % p)
        eu, ev = x1[0] - x3[0], x1[1] - x3[1]
        vv = lv * ev
        return x3, ((lu * eu + t * vv - y1[0]) % p, (lu * ev + lv * eu + s * vv - y1[1]) % p)

    def multiply(self, a, k, P):
        """k P for k >= 0, by affine double-and-add."""
        out = None
        for bit in bin(k)[2:]:
            out = self.add_points(a, out, out)
            if bit == "1":
                out = self.add_points(a, out, P)
        return out


def _mul(field, a, k: int, P):
    """k P for k >= 0, by the field's double-and-add."""
    return field.multiply(a, k, P)


def _point_multiples(field, a, b, P, lo: int, hi: int) -> list[int]:
    """Every k in [lo, hi] with k P = O, ascending, for P on Y^2 = X^3 + a X
    + b, whose group order lies in [lo, hi]; the first is checked directly."""
    x, y = P
    on_curve = field.mul(y, y) == _cubic(field, a, b, x)
    ks = _multiple_in_interval(field, a, P, lo, hi) if on_curve else []
    if not ks or _mul(field, a, ks[0], P) is not None:
        raise InternalInconsistency("no multiple of the point in the Hasse interval",
                                    witness=(field.q, P, ks[0] if ks else None))
    return ks


def _multiple_in_interval(field, a, P, lo: int, hi: int) -> list[int]:
    """Every k in [lo, hi] with k P = O, ascending, by baby-step giant-step.
    Baby steps j P, 1 <= j <= m, are keyed by x: c P = +-j P gives k = c -+ j.
    A step at O, with y = 0 or at the x of step j' gives the order n = j, 2j
    or j + j' <= 2m; else n > 2m, and each [c - m, c + m] holds at most one k."""
    m = isqrt((hi - lo) // 2) + 1
    baby = {}
    R = None
    for j in range(1, m + 1):
        R = field.add_points(a, R, P)
        if R is None:
            n = j
        elif R[1] == field.zero:
            n = 2 * j
        elif R[0] in baby:
            n = j + baby[R[0]][0]
        else:
            baby[R[0]] = (j, R[1])
            continue
        return list(range(-(-lo // n) * n, hi + 1, n))
    step = field.add_points(a, field.add_points(a, R, R), P)  # (2m + 1) P
    out = []
    G = _mul(field, a, lo + m, P)
    for c in range(lo + m, hi + m + 1, 2 * m + 1):
        if G is None:
            k = c
        elif G[0] in baby:
            j, y = baby[G[0]]
            k = c - j if G[1] == y else c + j
        else:
            k = None
        if k is not None and lo <= k <= hi:
            out.append(k)
        G = field.add_points(a, G, step)
    return out


def _cubic(field, a, b, x):
    """x^3 + a x + b in the field."""
    return field.add(field.mul(field.add(field.mul(x, x), a), x), b)


def _symbol_sum(field, a4, a6) -> int:
    """#E(F_q) = q + 1 + sum over x in F_q of chi(x^3 + a4 x + a6), with chi
    the quadratic character of F_q and chi(0) = 0."""
    total = field.q + 1
    for x in field.elements():
        c = _cubic(field, a4, a6, x)
        if c != field.zero:
            total += 1 if field.is_square(c) else -1
    return total


def _hasse_count(field, a4, a6) -> int:
    """#E(F_q) for y^2 = x^3 + a4 x + a6 nonsingular over the field.

    The count N lies in [lo, hi] = [q + 1 - h, q + 1 + h], h = isqrt(4q).
    For x with c = f(x) != 0, the point (c x, c^2) lies on Y^2 = X^3 + a4 c^2
    X + a6 c^3: E when c is a square, else its twist, with 2q + 2 - N points.
    That curve's count is among every multiple in [lo, hi] that kills the
    point, which strikes out the other candidates.  After _MAX_POINTS points
    _symbol_sum counts over the same field; it must be a candidate.
    """
    q = field.q
    h = isqrt(4 * q)
    lo, hi = q + 1 - h, q + 1 + h
    candidates = range(lo, hi + 1)
    drawn = 0
    twist = False
    for x in field.abscissae():
        c = _cubic(field, a4, a6, x)
        # alternate between E and its twist: one curve alone can have too
        # small an exponent to single out its count.  With a4 = 0, x = 0
        # gives the inflection point (0, c^2) of order 3, which decides nothing
        if c == field.zero or a4 == x == field.zero or field.is_square(c) == twist:
            continue
        c2 = field.mul(c, c)
        a, b = field.mul(a4, c2), field.mul(a6, field.mul(c2, c))
        ks = _point_multiples(field, a, b, (field.mul(c, x), c2), lo, hi)
        counts = map((2 * q + 2).__sub__, ks) if twist else ks
        candidates = candidates.intersection(counts) if drawn else set(counts)
        twist = not twist
        if len(candidates) == 1:
            return candidates.pop()
        if not candidates:
            raise InternalInconsistency("point orders exclude every Hasse candidate",
                                        witness=(q, a4, a6))
        drawn += 1
        if drawn == _MAX_POINTS:
            break
    count = _symbol_sum(field, a4, a6)
    if count not in candidates:
        raise InternalInconsistency("character sum outside the point-order candidates",
                                    witness=(q, a4, a6, count))
    return count


def euler_from_counts(p: int, a_p: int) -> EulerFactor:
    if a_p * a_p > 4 * p:
        raise WeilBoundViolation(f"a_p = {a_p} breaks a_p^2 <= 4p at p = {p}",
                                 witness=(p, a_p))
    return EulerFactor((1, -a_p, p))


def euler_from_hecke(spec: HeckeCharacterSpec, fac: PrimeFactorization) -> EulerFactor:
    """Local factor from character values at the primes of a factorization.

    Split p: (1 - chi(P) T)(1 - chi(P') T) with integer coefficients by
    conjugate symmetry; inert p: 1 - chi((p)) T^2, chi read at the primary
    associates of the factorization's generators.  Ramified primes and primes
    meeting the conductor m (exactly when p divides N(m)) are refused.
    """
    if any(prime.field != spec.field for prime in fac.primes):
        raise CMError("factorization belongs to a different field")
    if fac.kind == "ramified":
        raise RamifiedOrBadPrime(f"{fac.p} ramifies in the CM field")
    if spec.conductor.norm % fac.p == 0:
        raise RamifiedOrBadPrime(f"{fac.p} meets the conductor")
    values = [_hecke_value(spec, _primary_associate(prime, g))
              for prime, g in zip(fac.primes, fac.generators)]
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

    One sieve finds the primes.  Each prime not checked goes to ``excluded``
    with the first reason that applies: bad_reduction (p = 2 or bad for the
    curve), conductor (p divides ``conductor_norm``; 1 excludes none), ramified.
    """
    sieve = bytearray(2) + bytearray([1]) * (p_max - 1)
    for f in range(2, isqrt(max(p_max, 0)) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(sieve[f * f::f]))
    for p in compress(range(p_max + 1), sieve):
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
    return count_fp2(field.omega_relation, (a4.a, a4.b), (a6.a, a6.b), p)


def count_fp2(relation: tuple[int, int], a4: tuple[int, int], a6: tuple[int, int], p: int) -> int:
    """#E(F_{p^2}) over F_{p^2} = F_p[theta], theta^2 = s theta + t irreducible,
    for coefficients given as pairs (u, v) meaning u + v theta.  BadPrime when
    p = 2, the relation is reducible mod p or the curve is singular over F_{p^2}."""
    s, t = relation
    if p == 2 or legendre(s * s + 4 * t, p) != -1:
        raise BadPrime(f"{p} is even or theta^2 = {s} theta + {t} is reducible mod {p}")
    field = _QuadraticExtension(relation, p)
    a4 = (a4[0] % p, a4[1] % p)
    a6 = (a6[0] % p, a6[1] % p)
    cube, square = field.mul(field.mul(a4, a4), a4), field.mul(a6, a6)
    if all((4 * x + 27 * y) % p == 0 for x, y in zip(cube, square)):
        raise BadPrime(f"the curve is singular over F_{p}^2")
    return _hasse_count(field, a4, a6)


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
            count, a_p = count_points(curve, p)
            ext = count_fp2((0, _non_residue(p)), (curve.a4, 0), (curve.a6, 0), p)
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
