"""Exact integer linear algebra on dense matrices of Python ints.

Matrices are tuples of tuples (rows); vectors are tuples.  Everything is
arbitrary precision and no floating point appears anywhere.  Sublattices of
Z^n are represented by their row-style Hermite normal form, so lattice
equality is syntactic equality of the canonical bases.

Conventions:
  * row HNF: ``U @ M == H`` with U unimodular, pivots positive, entries
    above a pivot reduced into [0, pivot);
  * Smith form: ``U @ M @ V == D`` diagonal with d_i | d_{i+1}, d_i >= 0;
  * linear maps act on column vectors, lattices are spanned by basis rows.
"""

from __future__ import annotations

from .errors import InternalInconsistency

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise InternalInconsistency("dimension mismatch", witness=(a, b))
    # sums only nonzero products: transforms and relation rows are sparse
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


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Return (H, U) with U unimodular and U @ m == H in row HNF."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]

    def row_sub(i, q, k):
        if q:
            ai, ak = a[i], a[k]
            for j in range(nc):
                ai[j] -= q * ak[j]
            ui, uk = u[i], u[k]
            for j in range(nr):
                ui[j] -= q * uk[j]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
            row_neg(r)
        p = a[r][col]
        for i in range(r):
            row_sub(i, a[i][col] // p, r)
        r += 1
        if r == nr:
            break
    h, uu = freeze(a), freeze(u)
    if mat_mul(uu, m) != h:
        raise InternalInconsistency("HNF transform fails U @ m == H", witness=m)
    return h, uu


def hnf_basis(m: Matrix) -> Matrix:
    """Canonical basis (nonzero HNF rows) of the row span of m."""
    h, _ = hermite_normal_form(m)
    return tuple(row for row in h if any(row))


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U @ m @ V == D, diagonal, d_i | d_{i+1} >= 0."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_sub(i, q, k):
        if q:
            for j in range(nc):
                a[i][j] -= q * a[k][j]
            for j in range(nr):
                u[i][j] -= q * u[k][j]

    def col_sub(j, q, k):
        if q:
            for i in range(nr):
                a[i][j] -= q * a[i][k]
            for i in range(nc):
                v[i][j] -= q * v[i][k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nr, nc):
        # prefer a unit pivot (common in the incidence systems built here)
        pivot = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                if abs(row[j]) == 1:
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
        swap_rows(t, pi)
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
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_sub(t, -1, bad)  # adds row `bad` into row t
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d, uu, vv = freeze(a), freeze(u), freeze(v)
    if mat_mul(mat_mul(uu, m), vv) != d:
        raise InternalInconsistency("Smith transform fails U @ m @ V == D", witness=m)
    return d, uu, vv


def snf_diagonal(m: Matrix) -> tuple[int, ...]:
    d, _, _ = smith_normal_form(m)
    k = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(k))


def present_abelian(n: int, mul, identity: int, killed=()):
    """(moduli, coords) of the abelian group 0..n-1 under ``mul`` modulo
    ``killed``: invariant factors > 1 and each element's coordinates.

    Rows: e_identity, e_x + e_g - e_{xg} for each x and each g of a greedy
    generating set, and e_k per killed k.  Along these Cayley-graph edges
    each e_x reduces to a word in the generators and the graph's cycles span
    the kernel, so n*k + 1 + len(killed) rows replace n(n+1)/2 pair rows.
    """
    gens: list[int] = []
    reached = {identity}
    for x in range(n):
        if x in reached:
            continue
        gens.append(x)
        frontier = list(reached)
        while frontier:
            y = frontier.pop()
            for z in [mul(y, g) for g in gens]:
                if z not in reached:
                    reached.add(z)
                    frontier.append(z)
    rows = [[int(i == identity) for i in range(n)]]
    for x in range(n):
        for g in gens:
            row = [0] * n
            row[x] += 1
            row[g] += 1
            row[mul(x, g)] -= 1
            rows.append(row)
    rows += [[int(i == k) for i in range(n)] for k in killed]
    d, _, v = smith_normal_form(freeze(rows))
    diag = [d[i][i] for i in range(n)]
    if 0 in diag:
        raise InternalInconsistency("presented group is infinite", witness=diag)
    kept = [i for i in range(n) if diag[i] > 1]
    moduli = tuple(diag[i] for i in kept)
    coords = [tuple(v[x][i] % diag[i] for i in kept) for x in range(n)]
    return moduli, coords


def rank(m: Matrix) -> int:
    return len(hnf_basis(m))


def integer_kernel(m: Matrix) -> Matrix:
    """HNF basis (rows) of the right kernel {v : m @ v == 0}.

    The kernel of an integer matrix is always saturated, so this basis spans
    every rational kernel vector with integer coordinates.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nc == 0:
        return ()
    if nr == 0:
        return identity_matrix(nc)
    d, _, v = smith_normal_form(m)
    r = sum(1 for i in range(min(nr, nc)) if d[i][i] != 0)
    cols = transpose(v)
    return hnf_basis(cols[r:]) if r < nc else ()


def image_lattice(m: Matrix) -> Matrix:
    """HNF basis (rows) of the lattice {m @ v : v integral} in Z^rows."""
    return hnf_basis(transpose(m))


def lattice_equal(a_rows: Matrix, b_rows: Matrix) -> bool:
    return hnf_basis(a_rows) == hnf_basis(b_rows)


def in_row_span(basis_hnf: Matrix, vec: Vector) -> bool:
    """Membership of vec in the integer row span of an HNF basis."""
    v = list(vec)
    for row in basis_hnf:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            continue
        if v[j] % row[j] == 0:
            q = v[j] // row[j]
            if q:
                for k in range(len(v)):
                    v[k] -= q * row[k]
    return not any(v)


def lattice_contains(big_rows: Matrix, small_rows: Matrix) -> bool:
    basis = hnf_basis(big_rows)
    return all(in_row_span(basis, row) for row in small_rows)


def solve_integer(m: Matrix, b: Vector):
    """One integer solution x of m @ x == b, or None."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d, u, v = smith_normal_form(m)
    ub = mat_vec(u, b)
    w = [0] * nc
    r = min(nr, nc)
    for i in range(nr):
        di = d[i][i] if i < r else 0
        if di:
            if ub[i] % di != 0:
                return None
            w[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    return mat_vec(v, tuple(w))


def lattice_index(sub_rows: Matrix, sup_rows: Matrix):
    """Index [sup : sub] for sub a sublattice of sup; None when infinite.

    Raises ValueError if sub is not contained in sup.
    """
    sup = hnf_basis(sup_rows)
    sub = hnf_basis(sub_rows)
    supt = transpose(sup)
    coords = []
    for row in sub:
        x = solve_integer(supt, row)
        if x is None:
            raise ValueError("not a sublattice")
        coords.append(x)
    if len(sub) < len(sup):
        return None
    idx = 1
    for di in snf_diagonal(freeze(coords)):
        idx *= di
    return abs(idx)
