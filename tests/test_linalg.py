"""Tensor-space linear algebra: tensor products, partial trace, determinants,
Schmidt decompositions, and the determinant identities the decay law rests on."""

import functools
import math

import numpy as np
import pytest

from entlab.linalg import (DensityMatrix, LocalDims, PureState, _checked_densities,
                           _kron_stacks, determinant, kron, kron_all,
                           partial_trace, schmidt_decompose)
from entlab.sampling import RandomStream, ginibre, random_density

RNG = RandomStream(20240811)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def kron_oracle(a, b):
    """Entrywise index-formula evaluation, independent of np.kron."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def det_cofactor(m):
    """Recursive cofactor expansion along the first row."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * det_cofactor(minor)
    return total


def ptrace_oracle_first(mat, da, db):
    """Keep the first party of a (da x db) system by explicit double loop."""
    out = np.zeros((da, da), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                out[i, j] += mat[i * db + k, j * db + k]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_bit_flip_permutes_basis(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.allclose(kron(X, X) @ e0, [0, 0, 0, 1])

    def test_matches_index_formula(self):
        g = RNG.child(1).generator()
        for _ in range(10):
            a = ginibre(2, 2, g)
            b = ginibre(2, 2, g)
            assert np.allclose(kron(a, b), kron_oracle(a, b), atol=0)

    def test_associative(self):
        g = RNG.child(2).generator()
        a, b, c = (ginibre(2, 2, g) for _ in range(3))
        lhs = kron(kron(a, b), c)
        rhs = kron(a, kron(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_desk_scale_limit(self):
        big = np.eye(70)
        with pytest.raises(ValueError, match="desk-scale"):
            kron(big, big)


class TestKronStacks:
    """The stacked Kronecker product is np.kron member by member, byte for
    byte, with no size cap."""

    SHAPES = ((2, 2), (3, 3), (1, 4), (2, 3), (1, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrices_equal_np_kron(self, n):
        g = RNG.child(30, n).generator()
        for i in range(10):
            mats = [ginibre(*self.SHAPES[(i + k) % 5], g) for k in range(n)]
            assert _kron_stacks(mats).tobytes() == functools.reduce(np.kron, mats).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacks_equal_np_kron_per_member(self, n):
        g = RNG.child(31, n).generator()
        for i in range(10):
            m = int(g.integers(1, 5))
            stacks = [np.stack([ginibre(*self.SHAPES[(i + k) % 5], g) for _ in range(m)])
                      for k in range(n)]
            loop = np.stack([functools.reduce(np.kron, [s[j] for s in stacks])
                             for j in range(m)])
            out = _kron_stacks(stacks)
            assert out.shape == loop.shape
            assert out.tobytes() == loop.tobytes()

    def test_row_vectors_and_signed_zeros(self):
        g = RNG.child(32).generator()
        rows = [ginibre(1, 4, g), np.array([[0.0, -0.0, 1e-300, -2.0]]),
                np.array([[-0.0j, 3.0 - 0.0j]])]
        assert _kron_stacks(rows).tobytes() == functools.reduce(np.kron, rows).tobytes()

    def test_no_desk_scale_cap(self):
        rows = [np.ones((1, 256)), np.ones((1, 256))]
        assert _kron_stacks(rows).shape == (1, 65536)
        with pytest.raises(ValueError, match="desk-scale"):
            kron_all(rows)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = PureState(amps, LocalDims((2, 2))).density()
        for party in (0, 1):
            red = partial_trace(rho, {party})
            assert np.allclose(red.mat, I2 / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        g = RNG.child(3).generator()
        ra = random_density((2,), 2, g)
        rb = random_density((3,), 3, g)
        joint = DensityMatrix(kron(ra.mat, rb.mat), LocalDims((2, 3)))
        assert np.max(np.abs(partial_trace(joint, {0}).mat - ra.mat)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, {1}).mat - rb.mat)) < 1e-12

    def test_matches_double_loop_oracle(self):
        g = RNG.child(4).generator()
        rho = random_density((2, 2), 4, g)
        red = partial_trace(rho, {0})
        assert np.allclose(red.mat, ptrace_oracle_first(rho.mat, 2, 2), atol=1e-14)
        assert abs(red.trace - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        rho = random_density((2, 2), 2, RNG.child(5))
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(rho, set())


class TestDeterminant:
    def test_identity(self):
        for d in (1, 2, 3, 5):
            assert abs(determinant(np.eye(d)) - 1.0) < 1e-14

    def test_diagonal(self):
        gamma = 0.36
        m = np.diag([1.0, math.sqrt(1.0 - gamma)])
        assert abs(determinant(m) - math.sqrt(1.0 - gamma)) < 1e-15

    def test_matches_cofactor_oracle(self):
        g = RNG.child(6).generator()
        for _ in range(20):
            m = ginibre(3, 3, g)
            assert abs(determinant(m) - det_cofactor(m)) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            determinant(np.ones((2, 3)))


class TestDeterminantIdentities:
    def test_det_of_kron(self):
        # det(A x B) = det(A)^b det(B)^a for A (a x a), B (b x b)
        g = RNG.child(7).generator()
        for _ in range(10):
            a = ginibre(2, 2, g)
            b = ginibre(3, 3, g)
            lhs = determinant(kron(a, b))
            rhs = determinant(a) ** 3 * determinant(b) ** 2
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_det_of_gram(self):
        g = RNG.child(8).generator()
        for d in (2, 3, 4):
            a = ginibre(d, d, g)
            lhs = determinant(a @ a.conj().T).real
            rhs = abs(determinant(a)) ** 2
            assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)

    def test_minkowski_inequality_for_psd_sums(self):
        g = RNG.child(9).generator()
        for d in (2, 3, 4):
            for _ in range(50):
                p = ginibre(d, d, g)
                q = ginibre(d, d, g)
                p = p @ p.conj().T
                q = q @ q.conj().T
                lhs = determinant(p + q).real ** (1.0 / d)
                rhs = determinant(p).real ** (1.0 / d) + determinant(q).real ** (1.0 / d)
                assert lhs >= rhs - 1e-10

    def test_ptrace_of_kron_recovers_factor(self):
        g = RNG.child(10).generator()
        ra = random_density((2,), 2, g)
        rb = random_density((2,), 1, g)
        joint = DensityMatrix(kron(ra.mat, rb.mat), LocalDims((2, 2)))
        assert np.max(np.abs(partial_trace(joint, {0}).mat - ra.mat)) < 1e-12


class TestSchmidt:
    def test_maximally_entangled(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        dec = schmidt_decompose(PureState(amps, LocalDims((2, 2))), {0})
        assert np.allclose(dec.coeffs, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_product_state(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        amps = np.kron(np.array([1.0, 0.0]), plus)
        dec = schmidt_decompose(PureState(amps, LocalDims((2, 2))), {0})
        assert abs(dec.coeffs[0] - 1.0) < 1e-12
        assert dec.coeffs[1] < 1e-12

    def test_reconstruction(self):
        g = RNG.child(11).generator()
        from entlab.sampling import random_pure_state
        psi = random_pure_state((3, 3), g)
        dec = schmidt_decompose(psi, {0})
        rebuilt = sum(c * np.kron(dec.left[:, k], dec.right[k, :])
                      for k, c in enumerate(dec.coeffs))
        assert np.linalg.norm(rebuilt - psi.amps) < 1e-10
        assert abs(np.sum(dec.coeffs ** 2) - 1.0) < 1e-12

    def test_coefficients_descend(self):
        psi = __import__("entlab").random_pure_state((2, 2, 2), RNG.child(12))
        dec = schmidt_decompose(psi, {0, 2})
        assert all(a >= b for a, b in zip(dec.coeffs, dec.coeffs[1:]))

    def test_invalid_bipartition(self):
        psi = __import__("entlab").random_pure_state((2, 2), RNG.child(13))
        with pytest.raises(ValueError):
            schmidt_decompose(psi, {0, 1})
        with pytest.raises(ValueError):
            schmidt_decompose(psi, set())


class TestValueTypes:
    def test_pure_state_checks_length_and_finiteness(self):
        with pytest.raises(ValueError):
            PureState(np.ones(3), LocalDims((2, 2)))
        with pytest.raises(ValueError):
            PureState(np.array([np.nan, 0, 0, 0]), LocalDims((2, 2)))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, LocalDims((2, 2)))

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2, LocalDims((2, 2)))
        # relaxed variant accepts any positive trace
        DensityMatrix(np.eye(4) / 2, LocalDims((2, 2)), unit_trace=False)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(m, LocalDims((2, 2)))

    def test_local_dims_bounds(self):
        with pytest.raises(ValueError):
            LocalDims((1, 2))
        with pytest.raises(ValueError):
            LocalDims((64, 65))

    def test_unnormalized_state_carries_weight(self):
        psi = PureState(np.array([0.6, 0, 0, 0]), LocalDims((2, 2)))
        assert abs(psi.weight - 0.36) < 1e-15
        assert not psi.is_normalized


class TestCheckedDensities:
    """The stacked density check: each member as DensityMatrix checks it
    alone, with DensityMatrix's messages, and the same symmetrized matrix."""

    @staticmethod
    def good(count, g, d=4):
        return np.stack([random_density((d,), int(g.integers(1, d + 1)), g).mat
                         for _ in range(count)])

    @staticmethod
    def bad_members():
        skew = np.eye(4) / 4
        skew[0, 1] = 1e-9
        return [
            ("finite", np.diag([np.nan, 0.5, 0.25, 0.25]).astype(complex), True),
            ("Hermitian", skew, True),
            ("trace must be 1", np.eye(4) / 2, True),
            ("trace must be positive", -np.eye(4) / 4, False),
            ("negative eigenvalue", np.diag([0.7, 0.5, -0.1, -0.1]), True),
        ]

    @pytest.mark.parametrize("kind", range(5))
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_bad_member_raises_the_density_matrix_message(self, kind, where):
        match, bad, unit = self.bad_members()[kind]
        with pytest.raises(ValueError, match=match) as alone:
            DensityMatrix(bad, LocalDims((4,)), unit_trace=unit)
        stack = self.good(5, RNG.child(50, kind, where).generator()).copy()
        stack[where] = bad
        with pytest.raises(ValueError, match=match) as stacked:
            _checked_densities(stack, unit)
        assert str(stacked.value) == str(alone.value)

    def test_unit_trace_flag_per_member(self):
        stack = np.stack([np.eye(4) / 4, np.eye(4) / 2]).astype(complex)
        out = _checked_densities(stack, np.array([True, False]))
        assert out.tobytes() == stack.tobytes()
        with pytest.raises(ValueError, match="trace must be 1 within 1e-12, got 2.0"):
            _checked_densities(stack, np.array([False, True]))
        with pytest.raises(ValueError, match="trace must be 1"):
            _checked_densities(-stack, np.array([True, False]))
        with pytest.raises(ValueError, match="trace must be positive, got -2.0"):
            _checked_densities(stack * [[[1.0]], [[-1.0]]], np.array([True, False]))
        # any truthy flag asks for unit trace, as DensityMatrix always took it
        with pytest.raises(ValueError, match="trace must be 1 within 1e-12, got 2.0"):
            DensityMatrix(np.eye(4) / 2, LocalDims((2, 2)), unit_trace=1)

    @pytest.mark.parametrize("d", [2, 4, 8, 9])
    def test_members_equal_density_matrix_bitwise(self, d):
        g = RNG.child(51, d).generator()
        stack = self.good(6, g, d)
        # members off exact Hermiticity by less than the tolerance
        stack = stack + 1e-14 * (ginibre(d, d, g) - ginibre(d, d, g).T)
        out = _checked_densities(stack)
        for m, member in zip(stack, out):
            alone = DensityMatrix(m, LocalDims((d,))).mat
            assert member.tobytes() == alone.tobytes()
            # the symmetrization DensityMatrix has always applied
            assert alone.tobytes() == ((m + m.conj().T) / 2.0).tobytes()

    def test_empty_stack_passes(self):
        assert _checked_densities(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)

    def test_density_matrix_shape_messages_kept(self):
        with pytest.raises(ValueError, match="expected a matrix"):
            DensityMatrix(np.ones(4), LocalDims((2, 2)))
        with pytest.raises(ValueError, match="expected 4 rows, got 3"):
            DensityMatrix(np.eye(3), LocalDims((2, 2)))
