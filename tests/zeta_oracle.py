"""Point counts by hand-expanded sums and by enumeration: the test oracle
for the counters of cmcalc.zeta.

The library counts by point orders in the Hasse interval and falls back to
one symbol sum over its own field arithmetic.  The routines here share none
of that code: the F_p and F_p[theta] arithmetic is written out inline, and
nothing here imports cmcalc.
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
