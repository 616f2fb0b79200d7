"""Point counts by hand-expanded sums and by enumeration, and the point
arithmetic written the plain way: the test oracles for cmcalc.zeta.

The library counts by point orders in the Hasse interval and falls back to
one symbol sum over its own field arithmetic.  Its scalar multiples over F_p
run in Jacobian coordinates, and its F_{p^2} chord law is written out on the
pair integers.  The routines here share none of that code: the F_p and
F_p[theta] arithmetic is written out inline, the chord law is affine and
composed from field operations, and nothing here imports cmcalc.
"""


def legendre_table(p):
    """leg[x] for x in 0..p-1, built by marking squares."""
    table = [-1] * p
    table[0] = 0
    for x in range(1, p):
        table[x * x % p] = 1
    return table


def character_sum_fp(a4, a6, p):
    """#E(F_p) for y^2 = x^3 + a4 x + a6 by the quadratic-symbol sum."""
    leg = legendre_table(p)
    total = 0
    for x in range(p):
        total += 1 + leg[(x * x % p * x + a4 * x + a6) % p]
    return total + 1


def character_sum_fp2(relation, a4, a6, p):
    """#E(F_{p^2}) over F_p[theta], theta^2 = s theta + t, by the
    quadratic-symbol sum.

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


def count_points_naive(curve, p):
    """#E(F_p) for the curve's y^2 = x^3 + a4 x + a6 at a good odd prime p,
    by direct enumeration of all (x, y) pairs, plus infinity."""
    a4, a6 = curve.a4 % p, curve.a6 % p
    count = 1
    for x in range(p):
        rhs = (x * x % p * x + a4 * x + a6) % p
        for y in range(p):
            if y * y % p == rhs:
                count += 1
    return count


def naive_count_fp2(relation, a4, a6, p):
    """#E(F_p[theta]) with theta^2 = s theta + t, by tabulating every square
    y^2 and matching it against every x^3 + a4 x + a6."""
    s, t = relation

    def mul(u, v):
        return ((u[0] * v[0] + t * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0] + s * u[1] * v[1]) % p)

    field = [(u, v) for u in range(p) for v in range(p)]
    roots = {}
    for y in field:
        sq = mul(y, y)
        roots[sq] = roots.get(sq, 0) + 1
    count = 1
    for x in field:
        x3 = mul(mul(x, x), x)
        ax = mul(a4, x)
        rhs = ((x3[0] + ax[0] + a6[0]) % p, (x3[1] + ax[1] + a6[1]) % p)
        count += roots.get(rhs, 0)
    return count


def add_points_fp(p, a, P, Q):
    """P + Q on y^2 = x^3 + a x + b over F_p by the affine chord-tangent
    law; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 != y2 or y1 == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def multiply_fp(p, a, k, P):
    """k P for k >= 0 over F_p by affine double-and-add."""
    out = None
    for bit in bin(k)[2:]:
        out = add_points_fp(p, a, out, out)
        if bit == "1":
            out = add_points_fp(p, a, out, P)
    return out


def add_points_fp2(relation, p, a, P, Q):
    """P + Q on y^2 = x^3 + a x + b over F_p[theta], theta^2 = s theta + t,
    composed from field operations: sum, negative, product and inverse."""
    s, t = relation

    def add(u, v):
        return ((u[0] + v[0]) % p, (u[1] + v[1]) % p)

    def neg(u):
        return (-u[0] % p, -u[1] % p)

    def mul(u, v):
        return ((u[0] * v[0] + t * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0] + s * u[1] * v[1]) % p)

    def inv(u):
        # u times its conjugate (u0 + s u1) - u1 theta is the norm
        n = pow((u[0] * u[0] + s * u[0] * u[1] - t * u[1] * u[1]) % p, -1, p)
        return ((u[0] + s * u[1]) * n % p, -u[1] * n % p)

    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 != y2 or y1 == (0, 0):
            return None
        xx = mul(x1, x1)
        lam = mul(add(add(xx, xx), add(xx, a)), inv(add(y1, y1)))
    else:
        lam = mul(add(y2, neg(y1)), inv(add(x2, neg(x1))))
    x3 = add(mul(lam, lam), neg(add(x1, x2)))
    return (x3, add(mul(lam, add(x1, neg(x3))), neg(y1)))
