"""Exact integer linear algebra on dense matrices of Python ints.

Matrices are tuples of tuples (rows); vectors are tuples.  Everything is
arbitrary precision and no floating point appears anywhere.  Sublattices of
Z^n are represented by their row-style Hermite normal form, so lattice
equality is syntactic equality of the canonical bases.

No transform is built that no caller reads.  Each output is certified
instead, and a failed certificate raises InternalInconsistency:
  * row HNF H of M: pivots positive in strictly increasing columns, entries
    above a pivot in [0, pivot), and every row of M reduces to zero against
    H (the row operations are unimodular, so span H lies in span M);
  * kernels and solves reuse that elimination on [M^T | I]: M @ k == 0 and
    rank M + len(kernel) == cols, and M @ x == b;
  * Smith form: only D (diagonal, d_i | d_{i+1}, d_i >= 0) and V are built;
    present_abelian presents a finite abelian group as Z^k modulo the
    relations of one Cayley walk on k greedy generators (the package's one
    closure walk, also used by groups), which multiplies each edge once and
    whose edge table the certificate reads, so the Smith form has k columns;
  * linear maps act on column vectors, lattices are spanned by basis rows.
"""

from __future__ import annotations

from math import prod

from .errors import InternalInconsistency

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def hermite_normal_form(m: Matrix) -> Matrix:
    """Row HNF of m (nonzero rows, then zero rows), certified as above."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m if any(row)]  # zero rows never pivot
    n = len(a)
    r = 0
    for col in range(nc):
        if r == n:
            break
        while True:
            nz = [i for i in range(r, n) if a[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][col]))
            a[r], a[i0] = a[i0], a[r]
            prow = a[r]
            clean = True
            for i in nz:
                if i > r and a[i][col]:
                    q = a[i][col] // prow[col]
                    a[i] = [x - q * y for x, y in zip(a[i], prow)]
                    clean = clean and not a[i][col]
            if clean:
                break
        prow = a[r]
        if not prow[col]:
            continue
        if prow[col] < 0:
            a[r] = prow = [-x for x in prow]
        for i in range(r):
            q = a[i][col] // prow[col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], prow)]
        r += 1
    h = freeze(a[:r])
    pivots = _pivots(h)
    for k, (row, j) in enumerate(zip(h, pivots)):
        if row[j] <= 0 or (k and j <= pivots[k - 1]) or any(
            not 0 <= h[i][j] < row[j] for i in range(k)
        ):
            raise InternalInconsistency("HNF fails its shape certificate", witness=m)
    if not rows_in_span(h, m):
        raise InternalInconsistency("HNF does not span the input rows", witness=m)
    return h + ((0,) * nc,) * (nr - r)


def _pivots(rows: Matrix) -> list[int]:
    """Column of each row's first nonzero entry (0 for a zero row)."""
    return [row.index(next(filter(None, row), 0)) for row in rows]


def _reduce(rows: Matrix, pivots: list[int], vec: Vector):
    """vec minus the multiples of echelon rows that clear their pivot
    entries; None once a pivot entry is not divisible (vec is outside)."""
    v = list(vec)
    for row, j in zip(rows, pivots):
        if v[j]:
            q, rem = divmod(v[j], row[j])
            if rem:
                return None
            v = [x - q * y for x, y in zip(v, row)]
    return v


def hnf_basis(m: Matrix) -> Matrix:
    """Canonical basis (nonzero HNF rows) of the row span of m."""
    return tuple(row for row in hermite_normal_form(m) if any(row))


def smith_normal_form(m: Matrix) -> tuple[Matrix, tuple, Matrix]:
    """Return (D, (), V): D = U @ m @ V diagonal with d_i | d_{i+1}, d_i >= 0,
    for a unimodular U that is not built; present_abelian certifies what it
    reads from D and V."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [list(row) for row in m]
    v = [list(row) for row in identity_matrix(nc)]

    def row_sub(i, q, k):
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]

    def col_sub(j, q, k):
        if q:
            for row in a + v:
                row[j] -= q * row[k]

    t = 0
    while t < min(nr, nc):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        for row in a + v:
            row[t], row[pj] = row[pj], row[t]
        redo = False
        p = a[t][t]
        for i in range(t + 1, nr):
            if a[i][t]:
                row_sub(i, a[i][t] // p, t)
                redo = redo or bool(a[i][t])
        if redo:
            continue
        for j in range(t + 1, nc):
            if a[t][j]:
                col_sub(j, a[t][j] // p, t)
                redo = redo or bool(a[t][j])
        if redo:
            continue
        p = a[t][t]
        rest = range(t + 1, nc)
        bad = next((i for i in range(t + 1, nr) for j in rest if a[i][j] % p), None)
        if bad is not None:
            row_sub(t, -1, bad)  # adds row `bad` into row t
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return freeze(a), (), freeze(v)


def closure(mul, edges: dict, gens) -> dict:
    """Grow the walk ``edges`` (each reached y -> [mul(y, g) for g in gens])
    in place to its closure under ``gens`` and return it; resumed with more
    generators, it multiplies by the new ones only: one product per edge."""
    frontier = list(edges)
    while frontier:
        y = frontier.pop()
        for g in gens[len(edges[y]):]:
            edges[y].append(z := mul(y, g))
            if z not in edges:
                edges[z] = []
                frontier.append(z)
    return edges


def generating_set(elements, mul, identity: int) -> tuple[list[int], dict]:
    """Greedy generators of ``elements`` and their walk's edge table (see
    closure): each element, in the given order, that the earlier ones do not
    reach from the identity, so a product of generators (also under a ``mul``
    not known to be associative).  Each at least doubles the subgroup
    reached, so 2^k <= its order."""
    gens, edges = [], {identity: []}
    for x in elements:
        if x not in edges:
            gens.append(x)
            closure(mul, edges, gens)
    return gens, edges


def present_abelian(n: int, mul, identity: int, killed=()):
    """(moduli, coords) of the abelian group 0..n-1 under ``mul`` modulo
    ``killed``: invariant factors > 1 and each element's coordinates.

    A breadth-first walk from the identity along the edge table of a greedy
    generating set g_1..g_k (each edge multiplied once, in generating_set)
    gives each element x a word w_x in Z^k, with w_{x g_j} = w_x + e_j along
    the walk's tree.  The group is Z^k modulo the rows w_x + e_j - w_{x g_j}
    of the edges off the tree and w_y per killed y (Cohen, GTM 138, 2.4.3),
    so the Smith form has one column per generator.
    """
    gens, edges = generating_set(range(n), mul, identity)
    k = len(gens)
    words = {identity: (0,) * k}
    queue, rows = [identity], []
    for y in queue:  # grows while it is walked: breadth first
        for j, z in enumerate(edges[y]):
            step = list(words[y])
            step[j] += 1
            if z not in words:
                words[z] = tuple(step)
                queue.append(z)
            elif any(row := [a - b for a, b in zip(step, words[z])]):  # off the tree
                rows.append(row)
    rows += [words[y] for y in killed]
    d, _, v = smith_normal_form(freeze(rows))
    diag = [row[i] for i, row in zip(range(k), d)]
    if len(diag) < k or 0 in diag:
        raise InternalInconsistency("presented group is infinite", witness=diag)
    kept = [i for i in range(k) if diag[i] > 1]
    coords = [
        tuple(sum(w * v[j][i] for j, w in enumerate(words[x])) % diag[i] for i in kept)
        for x in range(n)
    ]
    moduli = tuple(diag[i] for i in kept)
    _certify_presentation(n, mul, identity, killed, gens, edges, moduli, coords)
    return moduli, coords


def _certify_presentation(n, mul, identity, killed, gens, edges, moduli, coords) -> None:
    """coords is an isomorphism from the group modulo <killed> onto the
    product of the Z/d_i, in invariant-factor form: it is additive along
    every edge of the table (so a homomorphism, by induction on word length),
    kills <killed>, reaches prod d_i points, and n / prod d_i = |<killed>|."""
    order = prod(moduli)
    if (
        any(d < 2 for d in moduli)
        or any(b % a for a, b in zip(moduli, moduli[1:]))
        or any(coords[identity])
        or any(any(coords[k]) for k in killed)
        or len(set(coords)) != order
        or n != order * len(closure(mul, {identity: []}, killed))
    ):
        raise InternalInconsistency("presentation fails its certificate", witness=moduli)
    for x in range(n):
        for g, xg in zip(gens, edges[x]):
            total = tuple((a + b) % d for a, b, d in zip(coords[x], coords[g], moduli))
            if coords[xg] != total:
                raise InternalInconsistency("coordinates are not additive", witness=(x, g))


def rank(m: Matrix) -> int:
    return len(hnf_basis(m))


def _augmented(m: Matrix) -> Matrix:
    """[m^T | I]: row j is (column j of m, e_j), so its row span is the
    lattice of pairs (m @ x, x)."""
    nc = len(m[0]) if m else 0
    return tuple(
        tuple(row[j] for row in m) + tuple(int(i == j) for i in range(nc))
        for j in range(nc)
    )


def integer_kernel(m: Matrix) -> Matrix:
    """HNF basis (rows) of the right kernel {v : m @ v == 0}.

    The rows of HNF[m^T | I] with a zero left part are (0, k) for k running
    over the HNF basis of the kernel.  The kernel of an integer matrix is
    always saturated, so this basis spans every rational kernel vector with
    integer coordinates.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    h = hnf_basis(_augmented(m))
    rank_m = sum(1 for row in h if any(row[:nr]))
    kernel = tuple(row[nr:] for row in h if not any(row[:nr]))
    if rank_m + len(kernel) != nc or any(any(mat_vec(m, k)) for k in kernel):
        raise InternalInconsistency("kernel fails m @ k == 0 or the rank count", witness=m)
    return kernel


def image_lattice(m: Matrix) -> Matrix:
    """HNF basis (rows) of the lattice {m @ v : v integral} in Z^rows."""
    return hnf_basis(transpose(m))


def lattice_equal(a_rows: Matrix, b_rows: Matrix) -> bool:
    return hnf_basis(a_rows) == hnf_basis(b_rows)


def rows_in_span(basis_hnf: Matrix, rows) -> bool:
    """Whether every row lies in the integer row span of an HNF basis."""
    basis = tuple(row for row in basis_hnf if any(row))
    pivots = _pivots(basis)
    for vec in rows:
        v = _reduce(basis, pivots, vec)
        if v is None or any(v):
            return False
    return True


def lattice_contains(big_rows: Matrix, small_rows: Matrix) -> bool:
    return rows_in_span(hnf_basis(big_rows), small_rows)


def solve_integer(m: Matrix, b: Vector):
    """One integer solution x of m @ x == b, or None.

    Reducing (b, 0) against the rows (m @ y, y) of HNF[m^T | I] with a
    nonzero left part leaves (0, -x) exactly when b is in the image.
    """
    nr = len(m)
    left = tuple(row for row in hnf_basis(_augmented(m)) if any(row[:nr]))
    v = _reduce(left, _pivots(left), tuple(b) + (0,) * (len(m[0]) if nr else 0))
    if v is None or any(v[:nr]):
        return None
    x = tuple(-y for y in v[nr:])
    if mat_vec(m, x) != tuple(b):
        raise InternalInconsistency("solution fails m @ x == b", witness=(m, b))
    return x


def lattice_index(sub_rows: Matrix, sup_rows: Matrix):
    """Index [sup : sub] for sub a sublattice of sup; None when infinite.

    Raises ValueError if sub is not contained in sup.
    """
    sup, sub = hnf_basis(sup_rows), hnf_basis(sub_rows)
    supt = transpose(sup)
    coords = [solve_integer(supt, row) for row in sub]
    if None in coords:
        raise ValueError("not a sublattice")
    if len(sub) < len(sup):
        return None
    # |det| of the square coordinate matrix: the product of its HNF diagonal
    h = hnf_basis(freeze(coords))
    return prod(h[i][i] for i in range(len(h)))
