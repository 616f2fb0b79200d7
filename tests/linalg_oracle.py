"""Dense normal forms with their transforms: the test oracle for intlinalg.

These are the elimination routines cmcalc used before its outputs were
certified instead: the row HNF with its left transform U, the Smith form
with both transforms, and the solve and kernel read from the Smith form.
Each checks its transforms by multiplying them out.  Nothing here imports
cmcalc, so an oracle never shares code with the library it checks.
"""


def freeze(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def mat_mul(a, b):
    # sums only nonzero products: the transforms of relation matrices are sparse
    nc = len(b[0]) if b else 0
    b_terms = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * nc
        for x, terms in zip(row, b_terms):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def hnf_with_transform(m):
    """(H, U) with U unimodular and U @ m == H in row HNF."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    u = _identity(nr)

    def row_sub(i, q, k):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    r = 0
    for col in range(nc):
        while True:
            nz = [i for i in range(r, nr) if a[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][col]))
            a[r], a[i0] = a[i0], a[r]
            u[r], u[i0] = u[i0], u[r]
            clean = True
            p = a[r][col]
            for i in range(r + 1, nr):
                if a[i][col]:
                    row_sub(i, a[i][col] // p, r)
                    if a[i][col]:
                        clean = False
            if clean:
                break
        if not [i for i in range(r, nr) if a[i][col] != 0]:
            continue
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        p = a[r][col]
        for i in range(r):
            row_sub(i, a[i][col] // p, r)
        r += 1
        if r == nr:
            break
    h, uu = freeze(a), freeze(u)
    assert mat_mul(uu, m) == h, "U @ m != H"
    return h, uu


def snf_with_transforms(m):
    """(D, U, V) with U @ m @ V == D diagonal, d_i | d_{i+1}, d_i >= 0."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    u = _identity(nr)
    v = _identity(nc)

    def row_sub(i, q, k):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, q, k):
        if q:
            for row in a:
                row[j] -= q * row[k]
            for row in v:
                row[j] -= q * row[k]

    def swap_cols(j, k):
        for row in a + v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if abs(a[i][j]) == 1:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            pivots = [
                (abs(a[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if a[i][j] != 0
            ]
            if not pivots:
                break
            _, pi, pj = min(pivots)
            pivot = (pi, pj)
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        swap_cols(t, pj)
        redo = False
        p = a[t][t]
        for i in range(t + 1, nr):
            if a[i][t]:
                row_sub(i, a[i][t] // p, t)
                if a[i][t]:
                    redo = True
        if redo:
            continue
        for j in range(t + 1, nc):
            if a[t][j]:
                col_sub(j, a[t][j] // p, t)
                if a[t][j]:
                    redo = True
        if redo:
            continue
        p = a[t][t]
        bad = next(
            (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % p),
            None,
        )
        if bad is not None:
            row_sub(t, -1, bad)  # adds row `bad` into row t
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d, uu, vv = freeze(a), freeze(u), freeze(v)
    assert mat_mul(mat_mul(uu, m), vv) == d, "U @ m @ V != D"
    return d, uu, vv


def snf_solve(m, b):
    """One integer solution of m @ x == b read from the Smith form, or None."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d, u, v = snf_with_transforms(m)
    ub = mat_vec(u, b)
    w = [0] * nc
    for i in range(nr):
        di = d[i][i] if i < min(nr, nc) else 0
        if di:
            if ub[i] % di:
                return None
            w[i] = ub[i] // di
        elif ub[i]:
            return None
    return mat_vec(v, w)


def snf_kernel(m):
    """HNF basis of the right kernel: the columns of V past the rank."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nc == 0:
        return ()
    d, _, v = snf_with_transforms(m)
    r = sum(1 for i in range(min(nr, nc)) if d[i][i])
    cols = tuple(zip(*v))[r:]
    if not cols:
        return ()
    h, _ = hnf_with_transform(cols)
    return tuple(row for row in h if any(row))
