"""Representation search for the resilience factor and its witness bounds."""

import itertools
import math

import numpy as np
import pytest

from entlab.channels import (SeparableChannel, SeparableKrausOperator, apply,
                             apply_kraus, decay_factor, embed_one_sided,
                             tensor_channels, verify_evolution)
from entlab.erf import (MixingSearchOptions, erf_bounds, erf_minimize,
                        tensor_bound_check, _mix, _products_are_rescaled_kraus,
                        _realign, _search_mixings, _search_objective, _split_terms)
from entlab.linalg import DensityMatrix, LocalDims, kron, kron_all
from entlab.measures import concurrence, measure_pure, wootters_concurrence
from entlab.families import (amplitude_damping_kraus, bell_state,
                             bit_flip_correlated, max_entangled_state,
                             phase_damping_kraus, random_local_kraus,
                             random_separable_channel)
from entlab.sampling import (RandomStream, ginibre, random_density, random_isometry,
                             random_pure_state)

RNG = RandomStream(1618)

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

QUICK = MixingSearchOptions(restarts=3, max_iterations=100)


def local_channel(ops):
    return SeparableChannel(LocalDims((2,)),
                            tuple(SeparableKrausOperator((k,)) for k in ops))


class TestSplitTerms:
    def test_two_party_product_gives_zero(self):
        assert np.max(np.abs(_split_terms(kron(X, X)[None], (2, 2)))) < 1e-14
        g = RNG.child(0).generator()
        a, b = (ginibre(2, 2, g) for _ in range(2))
        assert np.max(np.abs(_split_terms(kron(a, b)[None], (2, 2)))) < 1e-14

    def test_three_party_product_gives_zero(self):
        g = RNG.child(0).generator()
        a, b, c = (ginibre(2, 2, g) for _ in range(3))
        terms = _split_terms(kron_all([a, b, c])[None], (2, 2, 2))
        assert terms.shape == (1, 3)
        assert np.max(np.abs(terms)) < 1e-14

    def test_balanced_two_term_operator(self):
        k = (kron(I2, I2) + kron(X, X)) / math.sqrt(2)
        terms = _split_terms(k[None], (2, 2))
        assert abs(math.sqrt(terms[0, 0]) - 1 / math.sqrt(2)) < 1e-12

    def test_three_party_factor_splits_off_one_cut(self):
        # A x (B x C + B' x C') is a product across party 0 only
        g = RNG.child(1).generator()
        a, b, c, b2, c2 = (ginibre(2, 2, g) for _ in range(5))
        k = kron(a, kron(b, c) + kron(b2, c2))
        terms = _split_terms(k[None], (2, 2, 2))[0]
        assert abs(terms[0]) < 1e-14
        assert terms[1] > 1e-3 and terms[2] > 1e-3

    def test_squares_round_as_libm_pow(self):
        # the search amplifies last-bit changes; x * x rounds differently
        g = RNG.child(2).generator()
        ks = np.stack([ginibre(4, 4, g) for _ in range(4000)])
        s1 = np.linalg.svd(_realign(ks, (2, 2), 0), compute_uv=False)[:, 0]
        norms2 = np.einsum("jab,jab->j", ks, ks.conj()).real
        assert np.any(s1 * s1 != np.float_power(s1, 2.0))
        libm = [1.0 - math.pow(s, 2.0) / n for s, n in zip(s1.tolist(), norms2.tolist())]
        assert _split_terms(ks, (2, 2))[:, 0].tolist() == libm

    def test_zero_operator_carries_no_term(self):
        k = (kron(I2, I2) + kron(X, X)) / math.sqrt(2)
        terms = _split_terms(np.stack([np.zeros((4, 4), dtype=complex), k]), (2, 2))
        assert terms[0, 0] == 0.0
        assert abs(terms[1, 0] - 0.5) < 1e-12


class TestErfMinimize:
    def test_bit_flip_value_stays_one(self):
        est = erf_minimize(bit_flip_correlated(0.3))
        assert abs(est.value - 1.0) < 1e-12
        assert est.separability_residual < 1e-6
        # nothing feasible beats the given representation
        assert min(est.feasible_values) > 1.0 - 1e-9

    def test_search_never_exceeds_given_representation(self):
        ch = embed_one_sided(amplitude_damping_kraus(0.36), 0, (2, 2))
        est = erf_minimize(ch, QUICK)
        assert est.value <= decay_factor(ch) + 1e-12

    def test_feasible_values_respect_unit_bound(self):
        for i in range(5):
            g = RNG.child(2, i).generator()
            ch = local_channel(random_local_kraus(2, int(g.integers(2, 4)), g))
            est = erf_minimize(ch, QUICK)
            assert all(v <= 1.0 + 1e-8 for v in est.feasible_values)

    def test_searched_mixing_still_represents_the_channel(self):
        g = RNG.child(3).generator()
        ch = local_channel(random_local_kraus(2, 2, g))
        est = erf_minimize(ch, QUICK)
        ks = np.stack(ch.joint_ops)
        mixed = _mix(ks, est.mixing_isometry)
        rho = random_density((2,), 2, g)
        out_a = apply_kraus(ch.joint_ops, rho.mat)
        out_b = apply_kraus(list(mixed), rho.mat)
        assert np.max(np.abs(out_a - out_b)) < 1e-8

    def test_one_sided_search_matches_exhaustive_grid(self):
        # for a two-operator qubit channel, scan the full unitary mixing
        # group on a coarse grid as an independent oracle
        ops = amplitude_damping_kraus(0.4)
        ch = local_channel(ops)
        est = erf_minimize(ch, MixingSearchOptions(restarts=6, max_iterations=200))

        def mixed_value(theta, phi, alpha):
            c, s = math.cos(theta), math.sin(theta)
            u = np.array([[c, -s * np.exp(-1j * phi)],
                          [s * np.exp(1j * phi), c]], dtype=complex)
            u = u @ np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
            k0 = u[0, 0] * ops[0] + u[0, 1] * ops[1]
            k1 = u[1, 0] * ops[0] + u[1, 1] * ops[1]
            return abs(np.linalg.det(k0)) + abs(np.linalg.det(k1))

        grid = np.linspace(0, math.pi, 21)
        brute = min(mixed_value(t, p, a)
                    for t, p, a in itertools.product(grid, grid, grid))
        assert est.value <= brute + 1e-9

    def test_one_sided_search_matches_extended_state_oracle(self):
        # minimal determinant sum equals the concurrence of the channel
        # acting on half of a maximally entangled pair
        for i in range(5):
            ops = random_local_kraus(2, 2, RNG.child(4, i))
            est = erf_minimize(local_channel(ops),
                               MixingSearchOptions(restarts=4, max_iterations=200))
            emb = embed_one_sided(ops, 0, (2, 2))
            oracle = wootters_concurrence(apply(emb, max_entangled_state(2).density()))
            assert abs(est.value - oracle) < 1e-6

    def test_extra_operators_allow_longer_representations(self):
        ch = local_channel(amplitude_damping_kraus(0.3))
        est = erf_minimize(ch, MixingSearchOptions(restarts=2, max_iterations=80,
                                                   extra_operators=1))
        assert est.mixing_isometry.shape == (3, 2)
        assert est.value <= decay_factor(ch) + 1e-12

    def test_failed_search_falls_back_to_given_representation(self):
        # bit-flip passes the rank test, so nothing is searched and the
        # given representation is the only feasible one; the search's own
        # fallback is checked on a rank-failing channel below
        ch = bit_flip_correlated(0.3)
        est = erf_minimize(ch, MixingSearchOptions(restarts=2, max_iterations=1))
        assert not est.search_feasible
        assert est.value == decay_factor(ch)

    def test_failed_search_on_rank_failing_channel_falls_back(self):
        # a tensor pair fails the rank test, so the search runs; every mixing
        # of a one-sided list is a product, so that would test nothing here
        ch = tensor_pair(1)
        est = erf_minimize(ch, MixingSearchOptions(restarts=2, max_iterations=1))
        assert not est.search_feasible
        assert not est.exact
        assert est.value == decay_factor(ch)


def exact_path_channels():
    chans = [bit_flip_correlated(0.3)]
    for i, dims in enumerate(((2, 2), (2, 2), (2, 2), (2, 2, 2), (2, 2, 2), (3, 3))):
        g = RNG.child(10, i).generator()
        chans.append(random_separable_channel(dims, int(g.integers(2, 5)), g))
    return chans


def tensor_pair(i):
    g = RNG.child(11, i).generator()
    return tensor_channels([local_channel(random_local_kraus(2, 2, g)) for _ in range(2)])


class TestExactPath:
    @pytest.mark.parametrize("extra", [0, 1])
    def test_exact_value_is_the_given_decay(self, extra):
        for ch in exact_path_channels():
            est = erf_minimize(ch, MixingSearchOptions(extra_operators=extra))
            m = len(ch)
            assert est.exact
            assert est.value == decay_factor(ch)
            assert np.array_equal(est.mixing_isometry, np.eye(m + extra, m))
            assert est.feasible_values == (est.value,)
            assert est.separability_residual == 0.0
            assert not est.search_feasible

    @pytest.mark.parametrize("ch", [
        embed_one_sided(amplitude_damping_kraus(0.36), 0, (2, 2)),
        local_channel(random_local_kraus(2, 2, RNG.child(12))),
        local_channel(random_local_kraus(2, 3, RNG.child(13))),
        tensor_pair(1),
    ], ids=["one-sided", "single-party-2", "single-party-3", "tensor-pair"])
    def test_rank_failing_channels_search(self, ch):
        assert not _products_are_rescaled_kraus(ch)
        assert not erf_minimize(ch, QUICK).exact

    def test_zero_operator_fails_the_rank_test(self):
        zero = SeparableKrausOperator((np.zeros((2, 2)), I2))
        ch = bit_flip_correlated(0.3)
        assert not _products_are_rescaled_kraus(SeparableChannel(ch.dims, ch.ops + (zero,)))

    def test_shared_factor_tensor_pair_still_gains(self):
        ch = tensor_pair(0)
        est = erf_minimize(ch, QUICK)
        assert not est.exact
        assert est.value < decay_factor(ch) - 1e-3

    def test_search_finds_nothing_below_the_exact_value(self):
        # the search, run where the rank test says every separable
        # representation rescales the given one, finds nothing better beyond
        # the separability slack
        for ch in exact_path_channels()[1:6]:
            assert _products_are_rescaled_kraus(ch)
            est = _search_mixings(ch, QUICK)
            assert not est.exact
            assert est.value >= decay_factor(ch) - 1e-7


def local_triple():
    g = RNG.child(14).generator()
    return tensor_channels([local_channel(random_local_kraus(2, count, g))
                            for count in (2, 2, 1)])


class TestSearchObjective:
    @pytest.mark.parametrize("make", [
        lambda: tensor_pair(2),
        local_triple,
        lambda: embed_one_sided(amplitude_damping_kraus(0.36), 1, (2, 2, 2)),
    ], ids=["tensor-pair", "2-2-1-triple", "one-sided-party-1"])
    def test_gradient_matches_central_differences(self, make):
        # at weight 100 a 10% error in either the determinant part or the
        # separability part of the gradient fails the check
        ch = make()
        m = len(ch)
        fun = _search_objective(ch.joint_ops, ch.dims, 100.0)
        u = np.stack([random_isometry(m + 1, m, RNG.child(15, i)) for i in range(2)])
        _, grad = fun(u, True)
        g = RNG.child(16).generator()
        h = 1e-6
        for _ in range(10):
            d = g.standard_normal(u.shape) + 1j * g.standard_normal(u.shape)
            fd = (np.sum(fun(u + h * d, False)[0]) - np.sum(fun(u - h * d, False)[0])) / (2 * h)
            exact = 2.0 * np.sum(grad.conj() * d).real
            assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))


class TestErfBounds:
    def test_bit_flip_on_bell_state_saturates(self):
        b = erf_bounds(bit_flip_correlated(0.3), bell_state(), concurrence())
        assert abs(b.lower - 1.0) < 1e-12
        assert abs(b.upper - 1.0) < 1e-12
        assert b.exact

    def test_bit_flip_on_generic_state_decays_strictly(self):
        for i in range(10):
            g = RNG.child(5, i).generator()
            while True:
                psi = random_pure_state((2, 2), g)
                c = measure_pure(concurrence(), psi)
                if 1e-2 < c < 1 - 1e-2:
                    break
            b = erf_bounds(bit_flip_correlated(0.3), psi, concurrence())
            assert b.lower < 1.0 - 1e-6

    @pytest.mark.parametrize("gamma", [0.19, 0.36, 0.75])
    def test_one_sided_damping_brackets_collapse(self, gamma):
        ch = embed_one_sided(amplitude_damping_kraus(gamma), 0, (2, 2))
        for i in range(3):
            g = RNG.child(6, int(gamma * 100), i).generator()
            while True:
                psi = random_pure_state((2, 2), g)
                if measure_pure(concurrence(), psi) > 1e-2:
                    break
            b = erf_bounds(ch, psi, concurrence())
            assert abs(b.lower - b.upper) < 1e-6
            assert abs(b.lower - math.sqrt(1 - gamma)) < 1e-6

    def test_ordering_around_the_searched_value(self):
        for i in range(10):
            g = RNG.child(7, i).generator()
            from entlab.families import random_separable_channel
            ch = random_separable_channel((2, 2), int(g.integers(2, 5)), g)
            while True:
                rho = random_density((2, 2), int(g.integers(1, 5)), g)
                if wootters_concurrence(rho) > 1e-3:
                    break
            est = erf_minimize(ch, QUICK)
            b = erf_bounds(ch, rho, concurrence())
            assert b.exact
            assert b.lower <= est.value + 1e-6
            assert est.value <= b.upper + 1e-6

    def test_upper_witness_is_the_verified_average_ratio(self):
        g = RNG.child(8).generator()
        from entlab.families import random_separable_channel
        ch = random_separable_channel((2, 2), 3, g)
        pure = bell_state()
        mixed = random_density((2, 2), 2, g)
        assert wootters_concurrence(mixed) > 1e-3
        for rho in (pure, mixed):
            report = verify_evolution(ch, rho, concurrence())
            b = erf_bounds(ch, rho, concurrence())
            ratio = report.average_output_entanglement / report.input_entanglement
            assert b.upper == ratio
            assert b.exact == report.exact

    def test_zero_entanglement_input_rejected(self):
        sep = DensityMatrix(np.eye(4) / 4, LocalDims((2, 2)))
        with pytest.raises(ValueError, match="entanglement"):
            erf_bounds(bit_flip_correlated(0.3), sep, concurrence())


class TestTensorBound:
    def test_identity_pair(self):
        rep = tensor_bound_check([local_channel([I2]), local_channel([I2])], QUICK)
        assert abs(rep.joint_value - 1.0) < 1e-10
        assert rep.ok

    def test_two_depolarizing_channels(self):
        from entlab.families import depolarizing_kraus
        ch = local_channel(depolarizing_kraus(0.5))
        rep = tensor_bound_check([ch, ch], MixingSearchOptions(restarts=2,
                                                               max_iterations=60))
        assert rep.ok

    def test_unitary_times_arbitrary(self):
        g = RNG.child(8).generator()
        from entlab.sampling import random_haar_unitary
        unitary = local_channel([random_haar_unitary(2, g)])
        noisy = local_channel(random_local_kraus(2, 2, g))
        rep = tensor_bound_check([unitary, noisy], QUICK)
        assert rep.ok
        # the unitary factor contributes a factor of one
        assert rep.joint_value <= rep.local_values[1] + 1e-6

    def test_random_pairs(self):
        for i in range(3):
            g = RNG.child(9, i).generator()
            a = local_channel(random_local_kraus(2, 2, g))
            b = local_channel(random_local_kraus(2, 2, g))
            rep = tensor_bound_check([a, b], MixingSearchOptions(restarts=2,
                                                                 max_iterations=80))
            assert rep.ok
