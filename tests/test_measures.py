"""Pure-state measures, their invariance/homogeneity, and the Wootters oracle."""

import math

import numpy as np
import pytest

from entlab.linalg import LocalDims, PureState, kron_all
from entlab.measures import (_YY, _wootters_batch, adjugate, concurrence,
                             g_concurrence, measure_pure,
                             measure_unnormalized, polynomial_measure,
                             sl_invariance_deviation, sqrt_three_tangle,
                             wootters_concurrence)
from entlab.families import bell_state, ghz_state, w_state, werner_state
from entlab.sampling import RandomStream, random_pure_state, random_sl

RNG = RandomStream(31415)


def cayley_hyperdet(a):
    """Independent oracle: the three Cayley coefficient groups, term by term."""
    def idx(i, j, k):
        return 4 * i + 2 * j + k
    d1 = (a[idx(0, 0, 0)] ** 2 * a[idx(1, 1, 1)] ** 2
          + a[idx(0, 0, 1)] ** 2 * a[idx(1, 1, 0)] ** 2
          + a[idx(0, 1, 0)] ** 2 * a[idx(1, 0, 1)] ** 2
          + a[idx(1, 0, 0)] ** 2 * a[idx(0, 1, 1)] ** 2)
    d2 = (a[idx(0, 0, 0)] * a[idx(1, 1, 1)] * a[idx(0, 1, 1)] * a[idx(1, 0, 0)]
          + a[idx(0, 0, 0)] * a[idx(1, 1, 1)] * a[idx(1, 0, 1)] * a[idx(0, 1, 0)]
          + a[idx(0, 0, 0)] * a[idx(1, 1, 1)] * a[idx(1, 1, 0)] * a[idx(0, 0, 1)]
          + a[idx(0, 1, 1)] * a[idx(1, 0, 0)] * a[idx(1, 0, 1)] * a[idx(0, 1, 0)]
          + a[idx(0, 1, 1)] * a[idx(1, 0, 0)] * a[idx(1, 1, 0)] * a[idx(0, 0, 1)]
          + a[idx(1, 0, 1)] * a[idx(0, 1, 0)] * a[idx(1, 1, 0)] * a[idx(0, 0, 1)])
    d3 = (a[idx(0, 0, 0)] * a[idx(1, 1, 0)] * a[idx(1, 0, 1)] * a[idx(0, 1, 1)]
          + a[idx(1, 1, 1)] * a[idx(0, 0, 1)] * a[idx(0, 1, 0)] * a[idx(1, 0, 0)])
    return d1 - 2 * d2 + 4 * d3


class TestConcurrence:
    def test_bell_and_product_values(self):
        assert abs(measure_pure(concurrence(), bell_state()) - 1.0) < 1e-12
        prod = PureState(np.array([0, 1, 0, 0], dtype=complex), LocalDims((2, 2)))
        assert measure_pure(concurrence(), prod) < 1e-15

    def test_schmidt_form_gives_twice_product(self):
        g = RNG.child(0).generator()
        for _ in range(20):
            a, b = g.normal(size=2) + 1j * g.normal(size=2)
            n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / n, b / n
            psi = PureState(np.array([a, 0, 0, b]), LocalDims((2, 2)))
            assert abs(measure_pure(concurrence(), psi) - 2 * abs(a * b)) < 1e-12

    def test_dims_mismatch_rejected(self):
        psi = random_pure_state((2, 3), RNG.child(1))
        with pytest.raises(ValueError, match="dimensions"):
            measure_pure(concurrence(), psi)


class TestThreeTangle:
    def test_ghz_and_w_limits(self):
        tangle = sqrt_three_tangle()
        assert abs(measure_pure(tangle, ghz_state()) - 1.0) < 1e-12
        assert measure_pure(tangle, w_state()) < 1e-15

    def test_matches_cayley_oracle(self):
        g = RNG.child(2).generator()
        tangle = sqrt_three_tangle()
        for _ in range(25):
            a = g.normal(size=8) + 1j * g.normal(size=8)
            psi = PureState(a / np.linalg.norm(a), LocalDims((2, 2, 2)))
            expected = 2.0 * abs(cayley_hyperdet(psi.amps)) ** 0.5
            assert abs(measure_pure(tangle, psi) - expected) < 1e-12

    @staticmethod
    def row_gradient(a):
        """The hyperdeterminant's gradient, one row at a time with numpy
        scalars: dDet/da_m = (4 p_slot - 2 sum p) a_partner + 4 a_i a_j a_k."""
        partner = (7, 6, 5, 4, 3, 2, 1, 0)
        slot = (0, 1, 2, 3, 3, 2, 1, 0)
        quad = ((3, 5, 6), (2, 4, 7), (1, 4, 7), (0, 5, 6),
                (1, 2, 7), (0, 3, 6), (0, 3, 5), (1, 2, 4))
        p = np.array([a[0] * a[7], a[1] * a[6], a[2] * a[5], a[3] * a[4]])
        s = p.sum()
        out = np.empty(8, dtype=np.complex128)
        for m in range(8):
            i, j, k = quad[m]
            out[m] = (4.0 * p[slot[m]] - 2.0 * s) * a[partner[m]] + 4.0 * a[i] * a[j] * a[k]
        return out

    def test_stacked_gradient_equals_the_row_formula_bitwise(self):
        g = RNG.child(15).generator()
        rows = g.standard_normal((2000, 8)) + 1j * g.standard_normal((2000, 8))
        rows[:5, :4] = 0.0  # products that vanish exactly
        stacked = sqrt_three_tangle().eval_grad_batch(rows)
        reference = np.stack([self.row_gradient(r) for r in rows])
        assert np.array_equal(stacked, reference)

    def test_gradient_matches_central_differences(self):
        measure = sqrt_three_tangle()
        g = RNG.child(16).generator()
        rows = g.standard_normal((4, 8)) + 1j * g.standard_normal((4, 8))
        rows[1] = np.kron(rows[1, :2], np.kron(rows[1, 2:4], rows[1, 4:6]))  # product
        grads = measure.eval_grad_batch(rows)
        h = 1e-6
        for r, row in enumerate(rows):
            for j in range(8):
                e = np.zeros(8, dtype=np.complex128)
                e[j] = h
                plus, minus = measure.eval_poly_batch(np.stack([row + e, row - e]))
                fd = (plus - minus) / (2.0 * h)
                assert abs(grads[r, j] - fd) < 1e-7 * max(1.0, abs(fd))


class TestGConcurrence:
    def test_reduces_to_concurrence_for_qubits(self):
        g2 = g_concurrence(2)
        c = concurrence()
        for i in range(50):
            psi = random_pure_state((2, 2), RNG.child(3, i))
            assert abs(measure_pure(g2, psi) - measure_pure(c, psi)) < 1e-10

    def test_maximally_entangled_scores_one(self):
        from entlab.families import max_entangled_state
        for d in (2, 3, 4):
            assert abs(measure_pure(g_concurrence(d), max_entangled_state(d)) - 1.0) < 1e-12


    def test_gradient_of_the_qutrit_g_concurrence_matches_central_differences(self):
        measure = g_concurrence(3)
        g = RNG.child(12).generator()
        rows = g.standard_normal((4, 9)) + 1j * g.standard_normal((4, 9))
        rows[1] = np.outer(rows[1, :3], rows[1, 3:6]).reshape(-1)  # rank one
        grads = measure.eval_grad_batch(rows)
        h = 1e-6
        for r, row in enumerate(rows):
            for j in range(9):
                e = np.zeros(9, dtype=np.complex128)
                e[j] = h
                plus, minus = measure.eval_poly_batch(np.stack([row + e, row - e]))
                fd = (plus - minus) / (2.0 * h)
                assert abs(grads[r, j] - fd) < 1e-7 * max(1.0, abs(fd))


class TestAdjugate:
    @staticmethod
    def cofactor_adjugate(m):
        d = m.shape[0]
        out = np.empty((d, d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
                out[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
        return out

    @pytest.mark.parametrize("d", [3, 4])
    def test_mixed_stack_of_regular_and_singular_members(self, d):
        g = RNG.child(13, d).generator()
        mats = g.standard_normal((5, d, d)) + 1j * g.standard_normal((5, d, d))
        mats[1, -1] = mats[1, 0] + 2.0 * mats[1, 1]        # rank d - 1
        mats[3] = np.outer(mats[3, 0], mats[3, 1])          # rank one: adj = 0 for d >= 3
        mats[4, :, 2] = 0.0                                 # zero column
        adj = adjugate(mats)
        for m, a in zip(mats, adj):
            det = np.linalg.det(m)
            assert np.allclose(a @ m, det * np.eye(d), atol=1e-10)
            assert np.allclose(a, self.cofactor_adjugate(m), atol=1e-10)
        assert np.abs(adj[1]).max() > 1e-3  # rank d - 1 keeps a nonzero adjugate
        assert np.abs(adj[3]).max() < 1e-10

    @pytest.mark.parametrize("d", [4, 8])
    def test_cofactor_reference_within_relative_1e_12(self, d):
        g = RNG.child(14, d).generator()
        mats = g.standard_normal((6, d, d)) + 1j * g.standard_normal((6, d, d))
        for k in (1, 4):                                    # rank d - 1
            mats[k, -1] = mats[k, 0] - (0.5 + 1.5j) * mats[k, 1]
        for m, a in zip(mats, adjugate(mats)):
            ref = self.cofactor_adjugate(m)
            assert np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()


class TestHomogeneity:
    def test_scaled_bell_state(self):
        for r in (0.25, 1.0, 3.0):
            scaled = PureState(math.sqrt(r) * bell_state().amps, LocalDims((2, 2)))
            assert abs(measure_unnormalized(concurrence(), scaled) - r) < 1e-12

    def test_scale_factors_out(self):
        psi = random_pure_state((2, 2), RNG.child(4))
        base = measure_pure(concurrence(), psi)
        scaled = PureState(math.sqrt(0.3) * psi.amps, psi.dims)
        assert abs(measure_unnormalized(concurrence(), scaled) - 0.3 * base) < 1e-12

    def test_polynomial_and_normalization_paths_agree(self):
        g = RNG.child(5).generator()
        for kind in (concurrence(), g_concurrence(3), sqrt_three_tangle()):
            dims = kind.dims
            v = g.normal(size=dims.total) + 1j * g.normal(size=dims.total)
            tilde = PureState(v, dims)
            direct = measure_unnormalized(kind, tilde)
            via_norm = tilde.weight * measure_pure(kind, tilde.normalized())
            assert abs(direct - via_norm) < 1e-10 * max(1.0, direct)

    def test_zero_vector_rejected(self):
        zero = PureState(np.zeros(4), LocalDims((2, 2)))
        with pytest.raises(ValueError, match="zero"):
            measure_unnormalized(concurrence(), zero)


class TestWootters:
    def test_bell_projector(self):
        assert abs(wootters_concurrence(bell_state().density()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        from entlab.linalg import DensityMatrix
        rho = DensityMatrix(np.eye(4) / 4, LocalDims((2, 2)))
        assert wootters_concurrence(rho) < 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_werner_closed_form(self, p):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(wootters_concurrence(werner_state(p)) - expected) < 1e-12

    def test_wrong_dims_rejected(self):
        from entlab.sampling import random_density
        rho = random_density((2, 3), 2, RNG.child(6))
        with pytest.raises(ValueError, match="dims"):
            wootters_concurrence(rho)


def wootters_alone(mat):
    """Wootters' formula on one matrix, step by step in scalar form."""
    w, v = np.linalg.eigh(mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


class TestWoottersStack:
    """The concurrence oracle runs on whole stacks; each member's value is
    bitwise what the formula gives on that member alone."""

    @staticmethod
    def states(g):
        from entlab.linalg import DensityMatrix
        from entlab.sampling import random_density
        out = [random_density((2, 2), rank, g) for rank in (1, 2, 3, 4) for _ in range(3)]
        for _ in range(3):
            a, b = (random_density((2,), int(g.integers(1, 3)), g).mat for _ in range(2))
            out.append(DensityMatrix(np.kron(a, b), (2, 2)))
        out += [werner_state(p) for p in (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0)]
        out.append(bell_state().density())
        return out

    def test_stack_members_equal_the_single_state_value(self):
        for i in range(10):
            states = self.states(RNG.child(40, i).generator())
            stacked = _wootters_batch(np.stack([rho.mat for rho in states]))
            assert stacked.shape == (len(states),)
            for rho, value in zip(states, stacked):
                assert float(value).hex() == wootters_concurrence(rho).hex()
                assert float(value).hex() == wootters_alone(rho.mat).hex()

    def test_measure_oracle_is_the_stacked_kernel(self):
        states = self.states(RNG.child(41).generator())
        mats = np.stack([rho.mat for rho in states])
        assert concurrence().exact_mixed(mats).tobytes() == _wootters_batch(mats).tobytes()
        assert concurrence().exact_mixed(mats[:0]).shape == (0,)

    def test_two_qubit_g_concurrence_has_the_wootters_oracle(self):
        states = self.states(RNG.child(43).generator())
        stacked = g_concurrence(2).exact_mixed(np.stack([rho.mat for rho in states]))
        assert [float(v).hex() for v in stacked] == \
            [wootters_concurrence(rho).hex() for rho in states]
        assert g_concurrence(3).exact_mixed is None

    def test_separable_members_score_zero(self):
        states = self.states(RNG.child(42).generator())[12:16]
        assert np.all(_wootters_batch(np.stack([rho.mat for rho in states])) < 1e-12)


class TestSLInvariance:
    @pytest.mark.parametrize("kind", [concurrence(), g_concurrence(3), sqrt_three_tangle()],
                             ids=lambda k: k.name)
    def test_pure_state_invariance(self, kind):
        # value of the normalized image times the squared norm stays put
        for i in range(10):
            g = RNG.child(7, i).generator()
            psi = random_pure_state(kind.dims, g)
            sl = kron_all([random_sl(d, g) for d in kind.dims])
            mapped = PureState(sl @ psi.amps, kind.dims)
            before = measure_pure(kind, psi)
            after = mapped.weight * measure_pure(kind, mapped.normalized())
            assert abs(after - before) <= 1e-8 * max(before, 1e-4)

    def test_mixed_state_invariance_via_wootters(self):
        from entlab.linalg import DensityMatrix, kron
        from entlab.sampling import random_density
        for i in range(25):
            g = RNG.child(8, i).generator()
            rho = random_density((2, 2), int(g.integers(1, 5)), g)
            c0 = wootters_concurrence(rho)
            if c0 < 1e-3:
                continue
            sl = kron(random_sl(2, g), random_sl(2, g))
            mapped = sl @ rho.mat @ sl.conj().T
            tr = np.trace(mapped).real
            c1 = tr * wootters_concurrence(DensityMatrix(mapped / tr, (2, 2)))
            assert abs(c1 - c0) / c0 < 1e-8


class TestPolynomialPlugin:
    def test_reproduces_concurrence_with_fd_gradient(self):
        yy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real

        def poly(psi):
            return complex(psi @ yy @ psi)

        custom = polynomial_measure(poly, degree=2, dims=(2, 2), name="custom")
        builtin = concurrence()
        for i in range(10):
            psi = random_pure_state((2, 2), RNG.child(9, i))
            assert abs(measure_pure(custom, psi) - measure_pure(builtin, psi)) < 1e-12

    def test_finite_difference_gradient_matches_the_builtin(self):
        custom = polynomial_measure(lambda psi: complex(psi[0] * psi[3] - psi[1] * psi[2]),
                                    degree=2, dims=(2, 2), name="custom")
        g = RNG.child(14).generator()
        rows = g.standard_normal((6, 4)) + 1j * g.standard_normal((6, 4))
        fd = custom.eval_grad_batch(rows)
        exact = concurrence().eval_grad_batch(rows)
        assert np.max(np.abs(fd - exact)) < 1e-8

    def test_invariance_spot_check(self):
        dev = sl_invariance_deviation(concurrence(), RNG.child(10))
        assert dev < 1e-8

    def test_non_invariant_polynomial_is_flagged(self):
        bogus = polynomial_measure(lambda psi: complex(psi[0] ** 2), degree=2,
                                   dims=(2, 2), name="bogus")
        dev = sl_invariance_deviation(bogus, RNG.child(11))
        assert dev > 1e-3
