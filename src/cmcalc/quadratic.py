"""Exact arithmetic in class-number-one imaginary quadratic fields.

Elements, ideals in canonical Hermite basis form, prime factorization, ray
class groups, primary generators, infinity types, and algebraic Hecke
characters with values in the ring of integers.  Everything is integer
exact; the nine fields with class number one are hard-coded and nothing
here attempts general class-group computation.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from . import intlinalg as la
from .errors import (
    CMError,
    InternalInconsistency,
    NoPrimaryGenerator,
    NotAnInteger,
    NotCoprime,
    NotPrime,
    Record,
)

CLASS_NUMBER_ONE = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def is_rational_prime(p: int) -> bool:
    """Trial division by 2 and the odd numbers up to isqrt(p)."""
    return p > 1 and (p < 4 or p % 2 == 1 and all(p % f for f in range(3, math.isqrt(p) + 1, 2)))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class QuadField(Record):
    """Q(sqrt(d)) for squarefree d < 0 with class number one.

    The ring of integers is Z[omega] with omega = sqrt(d) or (1+sqrt(d))/2
    depending on d mod 4; omega satisfies omega^2 = s*omega + t.
    """

    _fields = ("d",)

    def __init__(self, d: int):
        self.__dict__.update(d=d)
        if type(self.d) is not int:
            raise NotAnInteger(f"d={self.d!r} is not an integer", witness=self.d)
        if self.d not in CLASS_NUMBER_ONE:
            raise CMError(f"d={self.d} is not a whitelisted class-number-one field")

    @property
    def uses_half_generator(self) -> bool:
        return self.d % 4 == 1

    @property
    def discriminant(self) -> int:
        return self.d if self.uses_half_generator else 4 * self.d

    @cached_property
    def omega_relation(self) -> tuple[int, int]:
        """(s, t) with omega^2 = s*omega + t."""
        if self.uses_half_generator:
            return (1, -(1 - self.d) // 4)
        return (0, self.d)

    def element(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(self, a, b)

    @property
    def one(self) -> "QuadInt":
        return self.element(1)

    @cached_property
    def units(self) -> tuple["QuadInt", ...]:
        """The powers of unit_root, from 1: i over Q(i), omega over Q(sqrt(-3))."""
        return tuple(self.unit_root**k for k in range({-1: 4, -3: 6}.get(self.d, 2)))

    @cached_property
    def unit_root(self) -> "QuadInt":
        """A generator of the unit group."""
        if self.d in (-1, -3):
            return self.element(0, 1)
        return self.element(-1)


class QuadInt(Record):
    """Ring integer a + b*omega."""

    _fields = ("field", "a", "b")

    def __init__(self, field: QuadField, a: int, b: int):
        if type(a) is not int or type(b) is not int:
            raise NotAnInteger(f"coordinates {(a, b)!r} are not integers", witness=(a, b))
        self.__dict__.update(field=field, a=a, b=b)

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._match(other)
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._match(other)
        return QuadInt(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._match(other)
        s, t = self.field.omega_relation
        # (a1 + b1 w)(a2 + b2 w) with w^2 = s w + t
        a = self.a * other.a + self.b * other.b * t
        b = self.a * other.b + self.b * other.a + self.b * other.b * s
        return QuadInt(self.field, a, b)

    def __pow__(self, k: int) -> "QuadInt":
        if k < 0:
            raise ValueError("negative powers leave the ring of integers")
        # square-and-multiply with no product by 1 and no square past the top bit
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.field.one if out is None else out

    def _match(self, other: "QuadInt") -> None:
        if self.field is not other.field and self.field != other.field:
            raise CMError("elements of different fields")

    def conj(self) -> "QuadInt":
        s, _ = self.field.omega_relation
        # conjugate of omega is s - omega
        return QuadInt(self.field, self.a + self.b * s, -self.b)

    def norm(self) -> int:
        s, t = self.field.omega_relation
        return self.a * self.a + s * self.a * self.b - t * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


class QuadIdeal(Record):
    """Nonzero ideal in canonical Hermite basis form Z*n + Z*(c + d*omega).

    Canonical means n > 0, d > 0, 0 <= c < n, d | n, d | c, and the basis
    spans an ideal, which holds exactly when n*d | N(c + d*omega); the norm
    is n*d.
    """

    _fields = ("field", "n", "c", "d")

    def __init__(self, field: QuadField, n: int, c: int, d: int):
        self.__dict__.update(field=field, n=n, c=c, d=d)
        if type(self.n) is not int or type(self.c) is not int or type(self.d) is not int:
            raise NotAnInteger(f"ideal basis {(self.n, self.c, self.d)!r} is not integral")
        if self.n <= 0 or self.d <= 0 or not 0 <= self.c < self.n:
            raise CMError("ideal basis is not in canonical form")
        if self.n % self.d or self.c % self.d:
            raise CMError("ideal basis is not in canonical form")
        # Z a + Z (b + omega) is an ideal iff a | N(b + omega); scale by d
        if self.field.element(self.c, self.d).norm() % (self.n * self.d):
            raise CMError("basis does not span an ideal")

    def residue(self, x: QuadInt) -> tuple[int, int]:
        """Coordinates (a, b) of the representative a + b*omega of x modulo
        the ideal, with 0 <= a < n and 0 <= b < d."""
        if x.field is not self.field and x.field != self.field:
            raise CMError("element belongs to a different field")
        q, r = divmod(x.b, self.d)
        return ((x.a - q * self.c) % self.n, r)

    def residue_product(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        """Residue pair of the product of the residue pairs x and y, reduced
        as residue reduces: (a1 + b1 w)(a2 + b2 w) with w^2 = s w + t."""
        (a1, b1), (a2, b2) = x, y
        s, t = self.field.omega_relation
        bb = b1 * b2
        q, r = divmod(a1 * b2 + a2 * b1 + s * bb, self.d)
        return ((a1 * a2 + t * bb - q * self.c) % self.n, r)

    @cached_property
    def unit_residues(self) -> tuple[tuple[int, int], ...]:
        """The pairs (a, b), ascending, whose x = a + b*omega is coprime to the
        ideal, that is, x, x*omega, n and c + d*omega span O.  For x = 0 only
        the minor n*d is left, so zero is a unit only modulo the unit ideal."""
        s, t = self.field.omega_relation
        n, c, d = self.n, self.c, self.d
        return tuple((a, b) for a in range(n) for b in range(d)
                     if _spans_ring((a, b), (b * t, a + b * s), (n, 0), (c, d)))

    @cached_property
    def primary_units(self) -> dict:
        """Residue of g -> the units u with u g = 1 modulo the ideal.  That
        holds exactly when g = conj(u), so there is one key per unit residue."""
        units = self.field.units
        keys = [self.residue(u.conj()) for u in units]
        return {key: tuple(u for u, k in zip(units, keys) if k == key) for key in keys}

    def __contains__(self, x: QuadInt) -> bool:
        return self.residue(x) == (0, 0)

    @property
    def norm(self) -> int:
        return self.n * self.d

    def conj(self) -> "QuadIdeal":
        # the conjugate of c + d omega is (c + d s) - d omega
        s, _ = self.field.omega_relation
        return QuadIdeal(self.field, self.n, (-self.c - self.d * s) % self.n, self.d)

    def is_coprime(self, other: "QuadIdeal") -> bool:
        if self.field != other.field:
            raise CMError("ideals of different fields")
        return _spans_ring((self.n, 0), (self.c, self.d), (other.n, 0), (other.c, other.d))

    def to_json(self) -> dict:
        return {"n": self.n, "c": self.c, "d": self.d}


def _spans_ring(*vectors: tuple[int, int]) -> bool:
    """Vectors of O = Z + Z*omega span O exactly when their 2x2 minors have
    gcd 1 (Cohen, GTM 138, section 5.2)."""
    return math.gcd(*(x1 * y2 - x2 * y1 for i, (x1, y1) in enumerate(vectors)
                      for x2, y2 in vectors[i + 1:])) == 1


def ideal_from_elements(field: QuadField, elements) -> QuadIdeal:
    """The ideal generated (as a module) by ring multiples of the elements.

    The general Hermite route, with no library caller: the tests hold it as
    the oracle of the closed forms, and cmbench/tracer.py wraps it by name.
    """
    rows = []
    for x in elements:
        rows.append((x.a, x.b))
        xw = x * field.element(0, 1)
        rows.append((xw.a, xw.b))
    # row HNF over coordinates (omega part, rational part) puts the pure
    # integer generator second and the omega generator first
    swapped = la.freeze([(b, a) for a, b in rows])
    basis = la.hnf_basis(swapped)
    if len(basis) != 2:
        raise CMError("elements do not generate a nonzero ideal")
    d, c = basis[0]
    z, n = basis[1]
    if z != 0:
        raise InternalInconsistency("ideal basis is not triangular")
    return QuadIdeal(field=field, n=n, c=c % n, d=d)


def ideal_from_generator(x: QuadInt) -> QuadIdeal:
    """The principal ideal (x) in closed form.

    (x) has the Z-basis x = a + b omega and x omega = b t + (a + b s) omega.
    Its Hermite basis is n, c + d omega with d = gcd(b, a + b s) = u b +
    v (a + b s), c = u a + v b t modulo n, and n = N(x) / d.
    """
    if x.is_zero():
        raise CMError("zero generates the zero ideal")
    s, t = x.field.omega_relation
    d, u, v = _xgcd(x.b, x.a + x.b * s)
    n = x.norm() // d
    return QuadIdeal(field=x.field, n=n, c=(u * x.a + v * x.b * t) % n, d=d)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) >= 0 and u a + v b = g."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if a < 0:
        return -a, -u0, -v0
    return a, u0, v0


def _norm_form_solutions(field: QuadField, n: int):
    """All ring elements of norm n (positive definite search)."""
    if n < 0:
        return
    s, t = field.omega_relation
    # N(a, b) = a^2 + s a b - t b^2 = (a + s b/2)^2 + |disc| b^2 / 4
    absd = -field.discriminant
    bmax = math.isqrt(4 * n // absd) + 1
    for b in range(-bmax, bmax + 1):
        # solve a^2 + (s b) a - (t b^2 + n) = 0 over the integers
        disc = s * s * b * b + 4 * (t * b * b + n)
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sign in (1, -1):
            num = -s * b + sign * r
            if num % 2 == 0:
                x = field.element(num // 2, b)
                if x.norm() == n:
                    yield x


def find_generator(ideal: QuadIdeal) -> QuadInt:
    """Some generator of the ideal (exists: class number one)."""
    target = ideal.norm
    for x in _norm_form_solutions(ideal.field, target):
        if x in ideal:
            return x
    raise InternalInconsistency("principal generator not found")


@lru_cache(maxsize=None)
def canonical_conductor(field: QuadField) -> QuadIdeal:
    """Modulus fixing the primary-generator convention for this field.

    For d = -1 this is (1+i)^3 and for d = -3 it is (3): in both cases the
    units map bijectively onto the residue units and the modulus is its own
    conjugate, so every coprime ideal has a unique generator congruent to 1
    and conjugation preserves primarity.  No other whitelisted field admits
    a self-conjugate modulus with both properties, so pass an explicit
    conductor to primary_generator for those.
    """
    if field.d == -1:
        return ideal_from_generator(field.element(1, 1) ** 3)
    if field.d == -3:
        return ideal_from_generator(field.element(3, 0))
    raise CMError(
        f"no built-in primary convention for d={field.d}; "
        "supply a conductor explicitly"
    )


def primary_generator(ideal: QuadIdeal, conductor: QuadIdeal | None = None) -> QuadInt:
    """The unique generator congruent to 1 modulo the convention conductor.

    Raises NotCoprime when the ideal meets the conductor and
    NoPrimaryGenerator when no unique associate is congruent to 1 (the
    convention is then invalid for this modulus).
    """
    return _primary_associate(ideal, find_generator(ideal), conductor)


def _primary_associate(ideal: QuadIdeal, g: QuadInt, conductor: QuadIdeal | None = None) -> QuadInt:
    """primary_generator's associate of the ideal's generator g, with its errors."""
    if conductor is None:
        conductor = canonical_conductor(ideal.field)
    units = conductor.primary_units.get(conductor.residue(g), ())
    # an associate congruent to 1 puts 1 in ideal + conductor, so only a
    # failure needs the coprimality test, to tell the two errors apart
    if not units and not ideal.is_coprime(conductor):
        raise NotCoprime("ideal is not coprime to the convention conductor")
    if len(units) != 1:
        raise NoPrimaryGenerator(
            f"{len(units)} associates congruent to 1 modulo the conductor"
        )
    return units[0] * g


class PrimeFactorization(Record):
    """Decomposition of a rational prime (split, inert or ramified) into
    prime ideals, with ``generators[i]`` a generator of ``primes[i]``."""

    _fields = ("p", "kind", "primes", "residue_degrees", "generators")

    def __init__(self, p: int, kind: str, primes: tuple[QuadIdeal, ...],
                 residue_degrees: tuple[int, ...], generators: tuple[QuadInt, ...]):
        self.__dict__.update(p=p, kind=kind, primes=primes, residue_degrees=residue_degrees,
                             generators=generators)


def factor_rational_prime(field: QuadField, p: int) -> PrimeFactorization:
    """Split/inert/ramified decision by the discriminant symbol, with
    explicit prime ideals and their generators (class number one makes them
    principal).  A split pair comes in Hermite order, ascending (n, c, d)."""
    if not is_rational_prime(p):
        raise NotPrime(f"{p} is not a rational prime")
    disc = field.discriminant
    if p == 2:
        symbol = 0 if disc % 2 == 0 else (1 if disc % 8 == 1 else -1)
    else:
        symbol = legendre(disc, p)
    if symbol == -1:
        return PrimeFactorization(
            p=p,
            kind="inert",
            primes=(ideal_from_generator(field.element(p)),),
            residue_degrees=(2,),
            generators=(field.element(p),),
        )
    gen = next(_norm_form_solutions(field, p), None)
    if gen is None:
        raise InternalInconsistency(f"no element of norm {p} in a split case")
    first = ideal_from_generator(gen)
    second = first.conj()
    if (first == second) != (symbol == 0):
        raise InternalInconsistency(f"conjugate factors of {p} disagree with its symbol {symbol}")
    if symbol == 0:
        return PrimeFactorization(
            p=p, kind="ramified", primes=(first,), residue_degrees=(1,), generators=(gen,)
        )
    primes, generators = zip(*sorted(((first, gen), (second, gen.conj())),
                                     key=lambda pair: (pair[0].n, pair[0].c, pair[0].d)))
    return PrimeFactorization(
        p=p, kind="split", primes=primes, residue_degrees=(1, 1), generators=generators
    )


class RayClassGroup(Record):
    """Residue units modulo the image of the global units, with modulus.

    ``structure`` lists invariant factors > 1; ``dlog`` sends a coprime
    residue to its coordinate tuple.
    """

    _fields = ("modulus", "structure")

    def __init__(self, modulus: QuadIdeal, structure: tuple[int, ...], _dlog: dict):
        self.__dict__.update(modulus=modulus, structure=structure, _dlog=_dlog)

    @property
    def order(self) -> int:
        return math.prod(self.structure)

    def dlog(self, x: QuadInt) -> tuple[int, ...]:
        key = self.modulus.residue(x)
        if key not in self._dlog:
            raise NotCoprime("element is not coprime to the modulus")
        return self._dlog[key]

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.structure)

    def add(self, u, v) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(u, v, self.structure))


def ray_class_group(field: QuadField, modulus: QuadIdeal) -> RayClassGroup:
    """(O/m)^x modulo global units, in invariant-factor form.

    Class number one makes every ideal principal, so this quotient is the
    full ray class group of the modulus.
    """
    if modulus.field is not field and modulus.field != field:
        raise CMError("modulus belongs to a different field")
    keys, product, ring = modulus.unit_residues, modulus.residue_product, modulus.field
    index = {k: i for i, k in enumerate(keys)}
    structure, coords = la.present_abelian(
        len(keys), lambda i, j: index[product(keys[i], keys[j])],
        index[modulus.residue(ring.one)], killed=[index[modulus.residue(u)] for u in ring.units]
    )
    # present_abelian certifies the table as an isomorphism onto the structure
    return RayClassGroup(modulus=modulus, structure=structure, _dlog=dict(zip(keys, coords)))


class HeckeCharacterSpec(Record):
    """An algebraic character of ideals: finite twist times a power of the
    primary generator and its conjugate.

    ``infinity_type`` = (n_id, n_conj) with nonnegative entries (values stay
    in the ring of integers).  ``twist_exponents`` are taken against the
    invariant factors of the conductor's ray class group; each twisted
    factor must have order dividing the unit group so that values stay
    exact.  The evaluation is multiplicative because the primary convention
    has trivial ray class group.
    """

    _fields = ("field", "conductor", "infinity_type", "twist_exponents")

    def __init__(self, field: QuadField, conductor: QuadIdeal, infinity_type: tuple[int, int],
                 twist_exponents: tuple[int, ...] = ()):
        self.__dict__.update(field=field, conductor=conductor, infinity_type=infinity_type,
                             twist_exponents=twist_exponents)
        if type(self.infinity_type) is not tuple or len(self.infinity_type) != 2:
            raise CMError(f"infinity type {self.infinity_type!r} is not a pair")
        for e in (*self.infinity_type, *self.twist_exponents):
            if type(e) is not int:
                raise NotAnInteger(f"exponent {e!r} is not an integer", witness=e)
        n1, n2 = self.infinity_type
        if n1 < 0 or n2 < 0:
            raise CMError("infinity type must be nonnegative for ring values")
        if self.conductor.field != self.field:
            raise CMError("conductor belongs to a different field")
        if self.twist_exponents:
            rcg = self.ray_class_group
            if len(self.twist_exponents) != len(rcg.structure):
                raise CMError("twist exponent count does not match the group")
            n_units = len(self.field.units)
            for e, d in zip(self.twist_exponents, rcg.structure):
                order = d // math.gcd(e, d)
                if n_units % order:
                    raise CMError(f"twist component of order {order} has no unit value")

    @cached_property
    def ray_class_group(self) -> RayClassGroup:
        return ray_class_group(self.field, self.conductor)

    def twist_value(self, alpha: QuadInt) -> QuadInt:
        if not any(self.twist_exponents):
            return self.field.one
        rcg = self.ray_class_group
        coords = rcg.dlog(alpha)
        n_units = len(self.field.units)
        exponent = 0
        for e, x, d in zip(self.twist_exponents, coords, rcg.structure):
            if e % d == 0:
                continue
            # component character of order o = d / gcd(e, d) valued in the
            # o-th roots inside the unit group
            g = math.gcd(e, d)
            o = d // g
            exponent += (n_units // o) * (((e * x) % d) // g)
        return self.field.unit_root ** (exponent % n_units)

    def to_json(self) -> dict:
        return {
            "d": self.field.d,
            "conductor": self.conductor.to_json(),
            "infinity_type": list(self.infinity_type),
            "twist_exponents": list(self.twist_exponents),
        }


def hecke_eval(spec: HeckeCharacterSpec, ideal: QuadIdeal) -> QuadInt:
    """chi(ideal) = twist * alpha^n1 * conj(alpha)^n2, alpha primary.

    Exact ring value; multiplicative in the ideal argument.
    """
    if ideal.field != spec.field:
        raise CMError("ideal belongs to a different field")
    if not ideal.is_coprime(spec.conductor):
        raise NotCoprime("ideal is not coprime to the conductor")
    return _hecke_value(spec, primary_generator(ideal))


def _hecke_value(spec: HeckeCharacterSpec, alpha: QuadInt) -> QuadInt:
    """chi at the ideal (alpha), for alpha primary and coprime to the conductor;
    only the factors other than 1 are multiplied."""
    n1, n2 = spec.infinity_type
    factors = ([alpha**n1] if n1 else []) + ([alpha.conj() ** n2] if n2 else [])
    if any(spec.twist_exponents):
        factors.append(spec.twist_value(alpha))
    return math.prod(factors[1:], start=factors[0]) if factors else spec.field.one


def canonical_weight_one_spec(field: QuadField) -> HeckeCharacterSpec:
    """The weight-one character with the field's primary convention as
    conductor, infinity type (1, 0), and no finite twist."""
    return HeckeCharacterSpec(
        field=field,
        conductor=canonical_conductor(field),
        infinity_type=(1, 0),
        twist_exponents=(),
    )


# keeps cm rayclass under a second: in-process on a shared 2-core host, Python
# 3.11, (97) (norm 9409) takes 0.3-0.4 s over Z[i] and Z[w], gen:82,57 (norm
# 9973) 0.1 s and (100) 0.09-0.14 s, in the presenter's walk, Smith form and certificate
MAX_IDEAL_NORM = 10**4


def parse_ideal(field: QuadField, data) -> QuadIdeal:
    """Ideal from a CLI string 'gen:a,b' / 'gen:a,b^k' / 'hnf:n,c,d'.  A norm
    above MAX_IDEAL_NORM raises CMError, for 'gen:a,b^k' before the power is
    built."""
    power = 1
    if not isinstance(data, str) or data[:4] not in ("gen:", "hnf:"):
        raise CMError(f"unrecognized ideal spec {data!r}")
    if data.startswith("gen:"):
        body = data[4:]
        if "^" in body:
            body, exp = body.split("^", 1)
            power = int(exp)
        a, b = (int(x) for x in body.split(","))
        gen = field.element(a, b)
        ideal = ideal_from_generator(gen)
    else:
        n, c, d = (int(x) for x in data[4:].split(","))
        ideal = QuadIdeal(field=field, n=n, c=c, d=d)
    # a norm N >= 2 has N^k > MAX_IDEAL_NORM once k reaches its bit length
    if ideal.norm > 1 and (
        power >= MAX_IDEAL_NORM.bit_length() or ideal.norm**power > MAX_IDEAL_NORM
    ):
        raise CMError(f"ideal norm exceeds {MAX_IDEAL_NORM}")
    # (x)^k = (x^k)
    return ideal if power == 1 else ideal_from_generator(gen**power)
