from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import classification_table

from singclass import jets, linalg
from singclass.bvp import PeriodicProblem, make_periodic_bvp
from singclass.errors import NonFiniteMatrix, SingularBorder
from singclass.gallery import gallery_map
from singclass.jets import Jet, constant, unit


class TestNegligible:
    def test_floor_at_one(self):
        assert linalg.negligible(1e-9, 0.0, 1e-8)
        assert not linalg.negligible(2e-8, 1e-3, 1e-8)
        assert linalg.negligible(-2e-8, 1e3, 1e-8)

    def test_elementwise_with_sign_free_reference(self):
        got = linalg.negligible(np.array([5.0, -0.5, 0.05]), -100.0, 1e-2)
        assert got.tolist() == [False, True, True]


class TestRankDecision:
    def test_identity(self):
        assert linalg.rank_decision(np.eye(3), 1e-9).rank == 3

    def test_proportional_rows(self):
        assert linalg.rank_decision(np.array([[1.0, 0.0], [2.0, 0.0]]), 1e-9).rank == 1

    def test_zero_matrix(self):
        dec = linalg.rank_decision(np.zeros((2, 4)))
        assert dec.rank == 0

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(3)
        dec = linalg.rank_decision(rng.standard_normal((4, 6)))
        sv = list(dec.singular_values)
        assert sv == sorted(sv, reverse=True)

    @given(seed=st.integers(0, 10_000), scale=st.floats(0.5, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_invariance_under_permutation_and_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 5), rng.integers(2, 6)
        rows = rng.standard_normal((m, n))
        if rng.uniform() < 0.4:
            rows[m - 1] = rows[0] * rng.uniform(-1, 1)  # plant a dependency
        base = linalg.rank_decision(rows).rank
        perm = rng.permutation(m)
        scaled = rows[perm].copy()
        scaled[0] *= scale
        assert linalg.rank_decision(scaled).rank == base


class TestKernelCokernel:
    def test_diag_with_one_zero(self):
        lin = linalg.Linearization.of_matrix(np.diag([0.0, 1.0]), 1e-9)
        assert lin.kdim == 1
        w, c = lin.last_pair
        np.testing.assert_allclose(np.abs(c), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(w), [1.0, 0.0], atol=1e-14)

    def test_cubic_head_jacobian_at_origin(self):
        from singclass.gallery import gallery_map

        model = gallery_map("cusp_source_t3").model
        assert linalg.linearize(model, np.zeros(2)).kdim == 1

    def test_nonsingular_matrix(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        lin = linalg.Linearization.of_matrix(A)
        assert lin.kdim == 0 and lin.range_basis.shape == (4, 4)

    def test_residual_bounds(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((5, 3))
        A = B @ rng.standard_normal((3, 5))  # rank 3
        lin = linalg.Linearization.of_matrix(A, 1e-9)
        assert lin.kdim == 2
        norm = np.linalg.norm(A, 2)
        w, c = lin.last_pair
        assert np.linalg.norm(A @ c) <= 10 * 1e-9 * norm
        assert np.linalg.norm(w @ A) <= 10 * 1e-9 * norm
        # the range basis spans the complement of the cokernel
        np.testing.assert_allclose(lin.range_basis.T @ w, 0.0, atol=1e-12)
        assert np.linalg.matrix_rank(np.hstack([lin.range_basis, A])) == 3

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_kernel_and_left_null_dimensions_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        r = int(rng.integers(0, n + 1))
        A = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        lin = linalg.Linearization.of_matrix(A)
        assert lin.kdim == n - r
        assert [v.shape for v in lin.last_pair] == [(n,), (n,)]
        assert lin.range_basis.shape == (n, lin.rank)

    def test_sign_convention_deterministic(self):
        lin = linalg.Linearization.of_matrix(np.diag([0.0, 1.0, 2.0]))
        w, c = lin.last_pair
        assert c[0] > 0 and w[0] > 0

    @pytest.mark.parametrize("N", [32, 128, 512])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_lu_pair_on_the_quartic_problem(self, N, p):
        model = make_periodic_bvp(PeriodicProblem(N=N, a_terms=((1, 0.0, 1.0),),
                                                  p_terms=((0, p, 0.0),)))
        assert_lu_pair_is_the_svd_pair(jets.jacobian(model, np.zeros(N)))

    def test_lu_pair_on_the_gallery_table(self):
        simple = 0
        for name, params in classification_table():
            entry = gallery_map(name, params)
            for point in (pt for exp in entry.expected for pt in exp.points):
                A = jets.jacobian(entry.model, np.array(point, dtype=float))
                if linalg.Linearization.of_matrix(A).kdim == 1:
                    assert_lu_pair_is_the_svd_pair(A)
                    simple += 1
        assert simple >= 40

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_lu_pair_on_rank_deficient_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        assert_lu_pair_is_the_svd_pair(A)

    @pytest.mark.parametrize("A", [np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 2.0]), np.zeros((1, 1)),
                                   jets.jacobian(gallery_map("whitney", {"k": 2, "dimZ": 2}).model,
                                                 np.zeros(4))],
                             ids=["diag01", "diag012", "zero1x1", "whitney"])
    def test_lu_pair_with_exact_zero_pivots(self, A):
        assert_lu_pair_is_the_svd_pair(A)

    @pytest.mark.parametrize("sigma", [5e-4, 1e-6])  # sigma_n / sigma_{n-1} = 1e-5 and 5e-3
    def test_lu_pair_at_a_gap_that_takes_several_steps(self, sigma):
        assert_lu_pair_is_the_svd_pair(with_singular_values([1.0, 0.5, sigma, 5e-9], seed=11))

    def test_small_gap_reads_the_full_svd(self):
        """sigma_n / sigma_{n-1} = 0.2 needs more inverse-iteration steps than
        one SVD costs: the vectors are the full SVD's, bit for bit."""
        A = with_singular_values([1.0, 0.5, 4e-8, 8e-9], seed=11)
        lin = linalg.Linearization.of_matrix(A)
        assert lin.kdim == 1
        w, c = lin.last_pair
        w_svd, c_svd, Q_svd = svd_reading(A)
        assert np.array_equal(w, w_svd) and np.array_equal(c, c_svd)
        assert np.array_equal(lin.range_basis, Q_svd)
        assert np.array_equal(lin.range_rows(A), Q_svd.T @ A)


def with_singular_values(sv, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((len(sv), len(sv))))[0] for _ in range(2))
    return U @ np.diag(sv) @ V.T


@contextmanager
def square_svd_kinds():
    """The ``compute_uv`` flag of every SVD taken inside the block."""
    kinds, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        kinds.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    np.linalg.svd = recording
    try:
        yield kinds
    finally:
        np.linalg.svd = svd


def svd_reading(A):
    """The full SVD's sign-fixed last left and right singular vectors and
    its range basis U[:, :n-1]: the oracle for a kdim = 1 linearization."""
    U, _, Vt = np.linalg.svd(A)
    lead = lambda v: v * (-1.0 if v[np.argmax(np.abs(v))] < 0 else 1.0)
    return lead(U[:, -1]), lead(Vt[-1]), U[:, :-1]


def assert_lu_pair_is_the_svd_pair(A):
    """At kdim = 1 the null pair and the range basis need no singular vectors
    (a 1 x 1 matrix has no sigma_{n-1} and reads the full SVD); the pair is
    the full SVD's to 1e-12, and Q is an orthonormal basis of w-perp."""
    n = A.shape[0]
    with square_svd_kinds() as kinds:
        lin = linalg.Linearization.of_matrix(A)
        w, c = lin.last_pair
        Q = lin.range_basis
        QtA = lin.range_rows(A)
    assert lin.kdim == 1 and kinds == ([False] if n > 1 else [False, True])
    w_svd, c_svd, _ = svd_reading(A)
    assert 1 - abs(c @ c_svd) <= 1e-12 and 1 - abs(w @ w_svd) <= 1e-12
    assert Q.shape == (n, n - 1)
    assert np.abs(Q.T @ Q - np.eye(n - 1)).max(initial=0.0) <= 1e-14
    assert np.abs(Q.T @ w).max(initial=0.0) <= 1e-14
    np.testing.assert_allclose(QtA, Q.T @ A, rtol=0, atol=1e-13 * max(1.0, np.abs(A).max()))


def bordered(A, b, c, trans=0):
    """``bordered_solve`` against the ``border_factor`` of A's constant term:
    the right-hand side is (0, .., 0, 1)."""
    lu = linalg.border_factor(A.const if isinstance(A, Jet) else A, b, c)
    return linalg.bordered_solve(A, lu, trans=trans)


class TestBorderedSolve:
    def test_direct_substitution(self):
        x, s = bordered(np.diag([0.0, 1.0]), [1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-14)
        assert s == pytest.approx(0.0, abs=1e-14)

    def test_block_elimination_on_nonsingular_matrix(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = rng.standard_normal(3)
        c = rng.standard_normal(3)
        x, s = bordered(A, b, c)
        # x = -s A^{-1} b with the unique s making c.x = 1
        np.testing.assert_allclose(x, -s * np.linalg.solve(A, b), atol=1e-12)
        assert np.dot(c, x) == pytest.approx(1.0)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
            b, c = rng.standard_normal(4), rng.standard_normal(4)
            for trans, (M, top, bottom) in enumerate(((A, b, c), (A.T, c, b))):
                x, s = bordered(A, b, c, trans=trans)
                res = np.linalg.norm(M @ x + s * top) + abs(np.dot(bottom, x) - 1.0)
                assert res <= 1e-10 * (1 + np.linalg.norm(A, 2))

    def test_singular_border_raises(self):
        # b inside the range and c orthogonal to the kernel make the border singular
        A = np.diag([0.0, 1.0])
        with pytest.raises(SingularBorder):
            bordered(A, [0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_raises_before_any_svd(self, bad):
        A = np.diag([bad, 1.0])
        with pytest.raises(NonFiniteMatrix, match="F'\\(u\\)"):
            linalg.Linearization.of_matrix(A)
        with pytest.raises(NonFiniteMatrix, match="row stack"):
            linalg.rank_decision(A)
        with pytest.raises(NonFiniteMatrix, match="bordered matrix"):
            linalg.border_factor(A, [1.0, 0.0], [1.0, 0.0])

    def test_jet_valued_fold_path(self):
        # frozen oracle by block elimination: A(s) = diag(2s, 1), b = c = e1,
        # rhs = (0, 1): row 3 gives x1 = 1, row 2 gives x2 = 0, row 1 gives
        # s_border = -2s; so x(s) = (1, 0) exactly and the border multiplier
        # carries the s-dependence.
        name = jets.fresh_name("s")
        svar = unit((name,), (1,), name)
        A = jets.stack(
            [
                jets.stack([svar * 2.0, constant(0.0, (name,), (1,))]),
                jets.stack([constant(0.0, (name,), (1,)), constant(1.0, (name,), (1,))]),
            ]
        )
        x, s = bordered(A, [1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(x.const, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.asarray(x.extract({name: 1})), [0.0, 0.0], atol=1e-14)
        assert float(s.const) == pytest.approx(0.0, abs=1e-14)
        assert float(s.extract({name: 1})) == pytest.approx(-2.0)

    def test_jet_solve_matches_scalar_expansion(self):
        # compare against plain solves of the perturbed system at small steps
        rng = np.random.default_rng(17)
        A0 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        A1 = rng.standard_normal((3, 3))
        b, c = rng.standard_normal(3), rng.standard_normal(3)
        name = jets.fresh_name("s")
        Aj = constant(A0, (name,), (2,))
        co = Aj.coeffs.copy()
        co[..., 1] = A1
        Aj = Jet((name,), (2,), co)
        x, s = bordered(Aj, b, c)
        h = 1e-5
        xp, _ = bordered(A0 + h * A1, b, c)
        xm, _ = bordered(A0 - h * A1, b, c)
        fd1 = (xp - xm) / (2 * h)
        np.testing.assert_allclose(np.asarray(x.extract({name: 1})), fd1, rtol=1e-6, atol=1e-8)

    def test_transposed_jet_solve(self):
        # trans=1 solves [[A^T, c], [b^T, 0]] with A's jet terms transposed too
        rng = np.random.default_rng(19)
        A0 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        A1 = rng.standard_normal((3, 3))
        b, c = rng.standard_normal(3), rng.standard_normal(3)
        name = jets.fresh_name("s")
        Aj = constant(A0, (name,), (2,)) + unit((name,), (2,), name) * A1
        x, s = bordered(Aj, b, c, trans=1)
        top = jets.matvec(jets.transpose_mat(Aj), x) + s * c
        bottom = jets.dot(b, x) - 1.0
        assert max(np.abs(top.coeffs).max(), np.abs(bottom.coeffs).max()) < 1e-12
        h = 1e-5
        xp, _ = bordered(A0 + h * A1, b, c, trans=1)
        xm, _ = bordered(A0 - h * A1, b, c, trans=1)
        fd1 = (xp - xm) / (2 * h)
        np.testing.assert_allclose(np.asarray(x.extract({name: 1})), fd1, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("trans", [0, 1])
    def test_batched_jet_equals_unbatched_solves(self, trans):
        # probe batching: one constant term, a different nilpotent part per probe
        rng = np.random.default_rng(23)
        n = 4
        A0 = rng.standard_normal((n, n)) + n * np.eye(n)
        b, c = rng.standard_normal(n), rng.standard_normal(n)
        name = jets.fresh_name("s")
        co = np.zeros((3, n, n, 3))
        co[..., 0] = A0
        co[..., 1:] = rng.standard_normal((3, n, n, 2))
        lu = linalg.border_factor(A0, b, c)
        x, s = linalg.bordered_solve(Jet((name,), (2,), co), lu, trans=trans)
        assert x.value_shape == (3, n) and s.value_shape == (3,)
        for i in range(3):
            xi, si = bordered(Jet((name,), (2,), co[i]), b, c, trans=trans)
            np.testing.assert_array_equal(x.coeffs[i], xi.coeffs)
            np.testing.assert_array_equal(s.coeffs[i], si.coeffs)


class TestExtendInverse:
    """``extend_inverse``: the Taylor coefficients of the bordered matrix's
    inverse along s, one degree per call, for a jet and an operator A(s)."""

    @pytest.mark.parametrize("operator", [False, True], ids=["jet", "operator"])
    def test_coefficients_invert_the_bordered_series(self, operator):
        rng = np.random.default_rng(29)
        n, K = 4, 3
        A0 = rng.standard_normal((n, n)) + n * np.eye(n)
        b, c = rng.standard_normal(n), rng.standard_normal(n)
        d = Jet(("s",), (K,), rng.standard_normal((n, K + 1)))
        A = jets.add_diag(A0, d) if operator else constant(A0, ("s",), (K,)) + (
            unit(("s",), (K,), "s") * rng.standard_normal((n, n)))
        M = [np.zeros((n + 1, n + 1)) for _ in range(K + 1)]  # M(s) = sum_j M_j s^j
        cols = jets.matvec(A, constant(np.eye(n), ("s",), (K,)))  # [i, r]: A(s)[r, i]
        for j in range(K + 1):
            M[j][:n, :n] = cols.extract({"s": j}).T
        M[0][:n, n], M[0][n, :n] = b, c
        lu, W = linalg.border_factor(M[0][:n, :n], b, c), []
        for _ in range(K + 1):
            linalg.extend_inverse(lu, A, W)
        scale = max(np.abs(m).max() for m in M) * max(np.abs(w).max() for w in W)
        for j in range(K + 1):  # [s^j] M(s) W(s) = identity at j = 0, zero above
            prod = sum(M[i] @ W[j - i] for i in range(j + 1))
            np.testing.assert_allclose(prod, np.eye(n + 1) * (j == 0), atol=1e-14 * scale)

