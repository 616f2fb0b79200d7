"""Exact linear algebra: normal forms, kernels, images, lattice comparisons."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcalc import intlinalg as la
from cmcalc.errors import InternalInconsistency
from linalg_oracle import hnf_with_transform, snf_kernel, snf_solve, snf_with_transforms
from test_presenter import assert_presentation


def random_matrix(rng, rows, cols, bound=9):
    return la.freeze(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


class TestHermite:
    def test_identity_fixed(self):
        m = la.identity_matrix(3)
        assert la.hermite_normal_form(m) == m
        h, u = hnf_with_transform(m)
        assert h == m
        assert u == m

    def test_worked_example(self):
        m = la.freeze([[2, 4], [1, 3]])
        h = la.hermite_normal_form(m)
        # canonical fully reduced form; spans the same lattice as [[1,3],[0,2]]
        assert h == ((1, 1), (0, 2))
        oracle_h, u = hnf_with_transform(m)
        assert oracle_h == h
        assert la.mat_mul(u, m) == h
        assert la.lattice_equal(h, ((1, 3), (0, 2)))

    def test_zero_matrix(self):
        m = ((0, 0, 0), (0, 0, 0))
        assert la.hermite_normal_form(m) == m
        assert hnf_with_transform(m)[0] == m

    def test_recomposition_random(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            h, u = hnf_with_transform(m)
            assert la.hermite_normal_form(m) == h
            assert la.mat_mul(u, m) == h
            # unimodularity: u has an integer inverse (solve u x = e_i)
            for i in range(len(u)):
                e = tuple(1 if j == i else 0 for j in range(len(u)))
                assert la.solve_integer(u, e) is not None

    def test_pivot_normalization(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_matrix(rng, 4, 4)
            h = la.hermite_normal_form(m)
            pivots = []
            for row in h:
                nz = [j for j, x in enumerate(row) if x]
                if not nz:
                    continue
                j = nz[0]
                assert row[j] > 0
                pivots.append(j)
            assert pivots == sorted(pivots)
            for k, j in enumerate(pivots):
                for above in range(k):
                    assert 0 <= h[above][j] < h[k][j]


class TestMatMul:
    def test_matches_dense_definition(self):
        rng = random.Random(5)
        for _ in range(80):
            n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
            # mostly zeros, as in the transforms and relation matrices
            a = la.freeze([[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(k)]
                           for _ in range(n)])
            b = la.freeze([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(m)]
                           for _ in range(k)])
            dense = tuple(
                tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                for i in range(n)
            )
            assert la.mat_mul(a, b) == dense

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InternalInconsistency):
            la.mat_mul(la.identity_matrix(2), la.identity_matrix(3))


class TestSmith:
    def test_diag_2_3(self):
        d, u, v = la.smith_normal_form(la.freeze([[2, 0], [0, 3]]))
        assert d == ((1, 0), (0, 6))

    def test_identity(self):
        m = la.identity_matrix(4)
        d, _, _ = la.smith_normal_form(m)
        assert d == m

    def test_rank_deficient(self):
        m = la.freeze([[1, 2], [2, 4]])
        d, _, _ = la.smith_normal_form(m)
        assert d == ((1, 0), (0, 0))
        assert snf_with_transforms(m)[0] == d

    def test_divisibility_chain_random(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            d, u, v = snf_with_transforms(m)
            assert la.mat_mul(la.mat_mul(u, m), v) == d
            assert la.smith_normal_form(m) == (d, (), v)
            diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if a and b:
                    assert b % a == 0
                if a == 0:
                    assert b == 0


class TestKernelImage:
    def test_kernel_of_sum_map(self):
        # x + y = 0 in Z^2
        k = la.integer_kernel(la.freeze([[1, 1]]))
        assert k == ((1, -1),)

    def test_kernel_saturated(self):
        # 2x + 2y = 0 has the same saturated kernel
        k = la.integer_kernel(la.freeze([[2, 2]]))
        assert k == ((1, -1),)

    def test_kernel_orthogonality_random(self):
        rng = random.Random(19)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            for row in la.integer_kernel(m):
                assert all(x == 0 for x in la.mat_vec(m, row))

    def test_image_lattice(self):
        m = la.freeze([[2, 0], [0, 2]])
        assert la.image_lattice(m) == ((2, 0), (0, 2))

    def test_index(self):
        sub = la.freeze([[2, 0], [0, 2]])
        sup = la.identity_matrix(2)
        assert la.lattice_index(sub, sup) == 4
        assert la.lattice_index(((1, 0),), sup) is None
        with pytest.raises(ValueError):
            la.lattice_index(((1, 1),), ((2, 0), (0, 2)))

    def test_index_multiplicative_along_chain(self):
        a = la.freeze([[4, 0], [0, 2]])
        b = la.freeze([[2, 0], [0, 2]])
        c = la.identity_matrix(2)
        assert la.lattice_index(a, b) * la.lattice_index(b, c) == la.lattice_index(a, c)

    def test_lattice_equal_is_equivalence(self):
        a = la.freeze([[1, 3], [0, 2]])
        b = la.freeze([[1, 1], [0, 2]])
        c = la.freeze([[1, 1], [1, 3]])
        assert la.lattice_equal(a, a)
        assert la.lattice_equal(a, b) == la.lattice_equal(b, a)
        assert la.lattice_equal(a, b) and la.lattice_equal(b, c)
        assert la.lattice_equal(a, c)


class TestSolve:
    def test_solvable(self):
        m = la.freeze([[2, 1], [0, 3]])
        x = la.solve_integer(m, (5, 3))
        assert x is not None and la.mat_vec(m, x) == (5, 3)

    def test_unsolvable_parity(self):
        m = la.freeze([[2, 0], [0, 2]])
        assert la.solve_integer(m, (1, 0)) is None

    def test_random_consistency(self):
        rng = random.Random(23)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x = tuple(rng.randint(-5, 5) for _ in range(len(m[0])))
            b = la.mat_vec(m, x)
            y = la.solve_integer(m, b)
            assert y is not None and la.mat_vec(m, y) == b

    def test_membership(self):
        basis = la.hnf_basis(la.freeze([[2, 0], [0, 3]]))
        assert la.rows_in_span(basis, [(4, 3)])
        assert not la.rows_in_span(basis, [(1, 0)])


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
ENTRIES = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return la.freeze(draw(st.lists(
        st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )))


class TestAgainstOracle:
    """The certified transform-free routines against the dense oracles."""

    @PROPERTY
    @given(matrices())
    def test_hnf_basis(self, m):
        h, _ = hnf_with_transform(m)
        assert la.hnf_basis(m) == tuple(row for row in h if any(row))

    @PROPERTY
    @given(matrices())
    def test_integer_kernel(self, m):
        assert la.integer_kernel(m) == snf_kernel(m)

    @PROPERTY
    @given(matrices(), st.data())
    def test_solve_integer(self, m, data):
        if data.draw(st.booleans()):  # b in the image
            b = la.mat_vec(m, data.draw(st.tuples(*[st.integers(-5, 5)] * len(m[0]))))
        else:
            b = data.draw(st.tuples(*[st.integers(-9, 9)] * len(m)))
        x = la.solve_integer(m, b)
        assert (x is None) == (snf_solve(m, b) is None)
        if x is not None:
            assert la.mat_vec(m, x) == b

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_present_abelian(self, n1, n2, data):
        # Z/n1 x Z/n2 relabelled by a permutation, modulo a few elements
        n = n1 * n2
        label = data.draw(st.permutations(range(n)))
        pos = {x: i for i, x in enumerate(label)}

        def mul(a, b):
            (a1, a2), (b1, b2) = divmod(pos[a], n2), divmod(pos[b], n2)
            return label[((a1 + b1) % n1) * n2 + (a2 + b2) % n2]

        killed = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
        assert_presentation(n, mul, label[0], killed)

    @PROPERTY
    @given(matrices(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                          st.integers(-3, 3)), max_size=8))
    def test_hnf_unique_under_unimodular_rows(self, m, ops):
        # q == 0 swaps rows i and k and negates one; otherwise row i += q row k
        rows = [list(row) for row in m]
        for i, k, q in ops:
            i, k = i % len(rows), k % len(rows)
            if i == k:
                rows[i] = [-x for x in rows[i]]
            elif q == 0:
                rows[i], rows[k] = rows[k], [-x for x in rows[i]]
            else:
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[k])]
        assert la.hermite_normal_form(la.freeze(rows)) == la.hermite_normal_form(m)

    @PROPERTY
    @given(matrices())
    def test_snf_divisibility_chain(self, m):
        d, _, _ = la.smith_normal_form(m)
        assert d == snf_with_transforms(m)[0]
        k = min(len(m), len(m[0]))
        assert all(d[i][j] == 0 for i in range(len(m)) for j in range(len(m[0])) if i != j)
        diag = [d[i][i] for i in range(k)]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
