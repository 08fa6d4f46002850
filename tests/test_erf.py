"""Representation search for the resilience factor and its witness bounds."""

import functools
import itertools
import math

import numpy as np
import pytest

from entlab.breaking import schmidt_number_upper
from entlab.channels import (SeparableChannel, SeparableKrausOperator, apply,
                             apply_kraus, decay_factor, embed_one_sided,
                             tensor_channels, verify_evolution)
from entlab import erf
from entlab.erf import (MixingSearchOptions, erf_bounds, erf_minimize,
                        tensor_bound_check, _cut_rows, _full_row_rank, _mix,
                        _products_are_rescaled_kraus, _realign, _search_mixings,
                        _search_objective, _split_terms)
from entlab.linalg import DensityMatrix, LocalDims, kron, kron_all
from entlab.measures import (concurrence, g_concurrence, measure_pure,
                             wootters_concurrence)
from entlab.families import (amplitude_damping_kraus, bell_state,
                             bit_flip_correlated, max_entangled_state,
                             phase_damping_kraus, random_local_kraus,
                             random_separable_channel)
from entlab.roof import _ensemble_objective, _isometry_objective
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

    def test_value_and_gradient_paths_give_the_same_terms(self):
        # the search compares values from both paths, and amplifies last-bit
        # differences between them
        g = RNG.child(2).generator()
        for dims, d in (((2, 2), 4), ((2, 2, 2), 8)):
            ks = np.stack([ginibre(d, d, g) for _ in range(1000)])
            terms = _split_terms(ks, dims)
            grads = np.zeros_like(ks)
            assert _split_terms(ks, dims, grads).tobytes() == terms.tobytes()
            norms2 = np.einsum("jab,jab->j", ks, ks.conj()).real
            # column t is the cut around party t, for two parties and three
            for t in range(terms.shape[1]):
                s1 = np.linalg.svd(_realign(ks, dims, t), compute_uv=False)[:, 0]
                assert np.allclose(terms[:, t], 1.0 - s1 ** 2 / norms2, rtol=0, atol=1e-14)

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



def choi_state(ops, d):
    return apply(embed_one_sided(ops, 0, (d, d)), max_entangled_state(d).density())


class TestCutFreeSearch:
    # a one-party list has no separability penalty, so its search is the
    # G-concurrence roof of the Choi state and must reach the roof's oracles

    @pytest.mark.parametrize("seed", range(6))
    def test_three_operator_qubit_list_reaches_wootters(self, seed):
        ops = random_local_kraus(2, 3, RandomStream(seed))
        est = erf_minimize(local_channel(ops), MixingSearchOptions(extra_operators=6))
        assert abs(est.value - wootters_concurrence(choi_state(ops, 2))) < 1e-9

    @pytest.mark.parametrize("seed", [60, 61, 63])
    def test_qutrit_list_with_schmidt_rank_two_choi_state_reaches_zero(self, seed):
        # a Schmidt-rank-2 ensemble of J has zero G-concurrence in 3 x 3
        ops = random_local_kraus(3, 3, RandomStream(seed))
        assert schmidt_number_upper(choi_state(ops, 3), 2).found
        ch = SeparableChannel(LocalDims((3,)),
                              tuple(SeparableKrausOperator((k,)) for k in ops))
        assert erf_minimize(ch).value <= 1e-6

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


def reference_rows(channel):
    """The rank test's rows operator by operator, with np.kron."""
    factors = [[f.reshape(-1) for f in op.factors] for op in channel.ops]
    for t in range(len(channel.dims)):
        own = np.stack([fs[t] for fs in factors])
        rest = np.stack([functools.reduce(np.kron, fs[:t] + fs[t + 1:], np.ones(1))
                         for fs in factors])
        yield own, rest


def rank_test_channels():
    g = RNG.child(40).generator()
    zero = SeparableKrausOperator((np.zeros((2, 2)), I2))
    bit_flip = bit_flip_correlated(0.3)
    chans = [local_channel(random_local_kraus(2, 3, g)),
             SeparableChannel(LocalDims((3,)), (SeparableKrausOperator((np.eye(3),)),)),
             embed_one_sided(amplitude_damping_kraus(0.36), 0, (2, 2)),
             embed_one_sided(random_local_kraus(2, 3, g), 2, (2, 3, 2)),
             tensor_pair(0), tensor_pair(1),
             SeparableChannel(bit_flip.dims, bit_flip.ops + (zero,))]
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2)):
        for _ in range(6):
            chans.append(random_separable_channel(dims, int(g.integers(1, 6)), g))
    return chans


class TestRankTestRows:
    """The rank test reads the channel's per-party stacks; its rows and
    verdicts are those of the operator-by-operator np.kron construction."""

    def test_rows_equal_the_per_operator_kron(self):
        for ch in rank_test_channels():
            rows = list(_cut_rows(ch))
            ref = list(reference_rows(ch))
            assert len(rows) == len(ref) == len(ch.dims)
            for (own, rest), (own_ref, rest_ref) in zip(rows, ref):
                assert own.shape == own_ref.shape and rest.shape == rest_ref.shape
                assert np.array_equal(own, own_ref)
                assert np.array_equal(rest, rest_ref)

    def test_verdicts_equal_the_per_operator_kron(self):
        verdicts = []
        for ch in rank_test_channels():
            ref = any(_full_row_rank(own) and _full_row_rank(rest)
                      for own, rest in reference_rows(ch))
            assert _products_are_rescaled_kraus(ch) == ref
            verdicts.append(ref)
        # both verdicts occur, so the comparison is not vacuous
        assert any(verdicts) and not all(verdicts)

    def test_rest_rows_are_not_capped(self):
        # the rest rows of party 0 have 16^4 columns, beyond kron_all's cap
        ch = SeparableChannel((2, 16, 16), (SeparableKrausOperator(
            (np.eye(2), np.eye(16), np.eye(16))),))
        own, rest = next(_cut_rows(ch))
        assert own.shape == (1, 4) and rest.shape == (1, 65536)
        assert _products_are_rescaled_kraus(ch)


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
        basis = ch.joint_ops.reshape(m, -1) / math.sqrt(ch.dims.total)
        fun = _isometry_objective(_search_objective(ch.dims, 100.0), basis)
        u = np.stack([random_isometry(m + 1, m, RNG.child(15, i)) for i in range(2)])
        _, grad = fun(u, True)
        g = RNG.child(16).generator()
        h = 1e-6
        for _ in range(10):
            d = g.standard_normal(u.shape) + 1j * g.standard_normal(u.shape)
            fd = (np.sum(fun(u + h * d, False)[0]) - np.sum(fun(u - h * d, False)[0])) / (2 * h)
            exact = 2.0 * np.sum(grad.conj() * d).real
            assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))

    @pytest.mark.parametrize("make", [
        lambda: tensor_pair(2),
        local_triple,
        lambda: embed_one_sided(amplitude_damping_kraus(0.36), 1, (2, 2, 2)),
    ], ids=["tensor-pair", "2-2-1-triple", "one-sided-party-1"])
    def test_one_pullback_matches_the_two_part_form(self, make):
        # the separability gradient accumulates into the roof's member rows
        # before one pullback; pulled back part by part and summed, as the
        # two objectives once were, it differs only by rounding
        ch = make()
        m, d = len(ch), ch.dims.total
        basis = ch.joint_ops.reshape(m, -1) / math.sqrt(d)
        u = np.stack([random_isometry(m + 1, m, RNG.child(15, i)) for i in range(2)])
        _, grad = _isometry_objective(_search_objective(ch.dims, 100.0), basis)(u, True)
        n, j = u.shape[:2]
        rows = (u @ basis).reshape(n * j, -1)
        _, roof_rows = _ensemble_objective(g_concurrence(d))(rows, n, True)
        penalty_rows = np.zeros((n * j, d, d), dtype=complex)
        _split_terms(rows.reshape(-1, d, d), ch.dims, penalty_rows, 100.0)
        basis_h = basis.conj().T
        two_part = (roof_rows.reshape(n, j, -1) @ basis_h
                    + penalty_rows.reshape(n, j, -1) @ basis_h)
        assert np.linalg.norm(grad - two_part) <= 1e-12 * np.linalg.norm(two_part)


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

    def test_seed_is_the_kron_of_the_local_mixings(self, monkeypatch):
        calls = []

        def recording(ch, opts, initial_mixings=()):
            est = erf_minimize(ch, opts, initial_mixings)
            calls.append((est, initial_mixings))
            return est

        monkeypatch.setattr(erf, "erf_minimize", recording)
        g = RNG.child(41).generator()
        chans = [local_channel(random_local_kraus(2, 2, g)),
                 local_channel(random_local_kraus(2, 3, g))]
        tensor_bound_check(chans, MixingSearchOptions(restarts=1, max_iterations=20))
        *local, (_, (seed,)) = calls
        expected = functools.reduce(np.kron, [est.mixing_isometry for est, _ in local])
        assert seed.shape == (6, 6)
        assert seed.tobytes() == expected.tobytes()

    def test_extra_operators_size_the_joint_search_to_the_seed(self, monkeypatch):
        from entlab.families import depolarizing_kraus
        calls = []

        def recording(ch, opts, initial_mixings=()):
            calls.append((opts.extra_operators, initial_mixings))
            return erf_minimize(ch, opts, initial_mixings)

        monkeypatch.setattr(erf, "erf_minimize", recording)
        ch = local_channel(depolarizing_kraus(0.5))
        opts = MixingSearchOptions(extra_operators=1, restarts=1, max_iterations=20)
        rep = tensor_bound_check([ch, ch], opts)
        # two lists of 4 operators: the seed mixes 16 into (4 + 1)^2 = 25
        extra, (seed,) = calls[-1]
        assert seed.shape == (25, 16)
        assert extra == 25 - 16
        assert rep.ok
        assert rep.joint_value <= math.prod(rep.local_values) + 1e-12

    def test_random_pairs(self):
        for i in range(3):
            g = RNG.child(9, i).generator()
            a = local_channel(random_local_kraus(2, 2, g))
            b = local_channel(random_local_kraus(2, 2, g))
            rep = tensor_bound_check([a, b], MixingSearchOptions(restarts=2,
                                                                 max_iterations=80))
            assert rep.ok
