"""Schmidt machinery and partial entanglement-breaking classification."""

import contextlib
import signal

import numpy as np
import pytest

from entlab.breaking import (SchmidtSearchOptions, eb_threshold_scan, is_ppt,
                             is_separable_small, r_peb_test,
                             schmidt_number_upper, schmidt_rank)
from entlab.linalg import DensityMatrix, LocalDims, PureState, partial_transpose
from entlab.measures import wootters_concurrence
from entlab.families import (amplitude_damping_kraus, bell_state,
                             depolarizing_kraus, identity_kraus,
                             isotropic_state, max_entangled_state,
                             phase_damping_kraus, werner_state)
from entlab.sampling import RandomStream, random_density, random_pure_state

RNG = RandomStream(8128)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds``, so a loop that does
    not end fails the test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSchmidtRank:
    def test_product_state(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        psi = PureState(np.kron([1, 0], plus), LocalDims((2, 2)))
        assert schmidt_rank(psi, {0}) == 1

    def test_bell_state(self):
        assert schmidt_rank(bell_state(), {0}) == 2

    def test_random_qutrit_pair_has_full_rank(self):
        for i in range(10):
            psi = random_pure_state((3, 3), RNG.child(0, i))
            assert schmidt_rank(psi, {0}) == 3


class TestPpt:
    def test_bell_state_is_npt_with_known_spectrum(self):
        rho = bell_state().density()
        assert not is_ppt(rho)
        ev = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims, (1,)))
        assert abs(ev.min() + 0.5) < 1e-12

    def test_maximally_mixed_is_ppt(self):
        rho = DensityMatrix(np.eye(4) / 4, LocalDims((2, 2)))
        assert is_ppt(rho)
        assert is_separable_small(rho)

    def test_werner_threshold(self):
        assert not is_ppt(werner_state(0.4))       # concurrence 0.1 > 0
        assert is_ppt(werner_state(0.3))
        assert is_separable_small(werner_state(0.3))
        assert abs(wootters_concurrence(werner_state(0.4)) - 0.1) < 1e-12

    def test_exact_separability_limited_to_small_dims(self):
        rho = random_density((3, 3), 2, RNG.child(1))
        with pytest.raises(ValueError, match="2x2 and 2x3"):
            is_separable_small(rho)

    def test_concurrence_and_ppt_agree_for_two_qubits(self):
        for i in range(30):
            g = RNG.child(2, i).generator()
            rho = random_density((2, 2), int(g.integers(1, 5)), g)
            entangled = wootters_concurrence(rho) > 1e-8
            assert entangled == (not is_ppt(rho))


class TestSchmidtNumberSearch:
    def test_pure_state_certificates_match_the_rank(self):
        for d in (2, 3):
            psi = max_entangled_state(d)
            rho = psi.density()
            at_rank = schmidt_number_upper(rho, d)
            assert at_rank.found
            below = schmidt_number_upper(rho, d - 1)
            assert not below.found

    def test_random_pure_states(self):
        for i in range(3):
            psi = random_pure_state((3, 3), RNG.child(3, i))
            rho = psi.density()
            k = schmidt_rank(psi, {0})
            assert schmidt_number_upper(rho, k).found
            assert not schmidt_number_upper(rho, k - 1).found

    def test_separable_mixture_certified_at_one(self):
        g = RNG.child(4).generator()
        mat = np.zeros((4, 4), dtype=complex)
        w = g.dirichlet(np.ones(6))
        for i in range(6):
            a = g.normal(size=2) + 1j * g.normal(size=2)
            b = g.normal(size=2) + 1j * g.normal(size=2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            mat += w[i] * np.outer(v, v.conj())
    # construction guarantees separability; cross-check with the exact verdict
        rho = DensityMatrix(mat, LocalDims((2, 2)))
        assert is_separable_small(rho)
        cert = schmidt_number_upper(rho, 1)
        assert cert.found
        rebuilt = sum(p * np.outer(s.amps, s.amps.conj()) for p, s in cert.ensemble)
        assert np.linalg.norm(rebuilt - rho.mat) < 1e-7

    def test_high_fidelity_isotropic_state_resists_two(self):
        cert = schmidt_number_upper(isotropic_state(3, 0.9), 2,
                                    SchmidtSearchOptions(restarts=4))
        assert not cert.found
        assert cert.max_tail_coefficient > 1e-3


class TestPebTest:
    def test_identity_channel_is_not_breaking(self):
        report = r_peb_test(identity_kraus(2), 1, probes=3)
        assert report.breaking is False
        assert report.agreement

    def test_strong_depolarizing_breaks(self):
        report = r_peb_test(depolarizing_kraus(0.8), 1, probes=5)
        assert report.breaking is True
        assert report.agreement

    def test_probe_agreement_across_the_depolarizing_family(self):
        for p in (0.2, 0.5, 0.9):
            report = r_peb_test(depolarizing_kraus(p), 1, probes=10)
            assert report.agreement, f"divergent probes at p={p}"

    def test_non_closing_list_rejected(self):
        with pytest.raises(ValueError, match="close"):
            r_peb_test([np.eye(2) * 0.5], 1)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            r_peb_test([], 1)

    @pytest.mark.parametrize("p, breaking", [(0.0, False), (0.36, False), (1.0, True)])
    def test_phase_damping(self, p, breaking):
        # full dephasing measures in the computational basis and so breaks
        assert r_peb_test(phase_damping_kraus(p), 1, probes=2).breaking is breaking


E3 = np.eye(3, dtype=complex)


class TestQutritProbes:
    """On qutrits every verdict comes from the Schmidt-number search: the
    PPT criterion is exact only on 2 x 2 and 2 x 3."""

    @pytest.mark.parametrize("ops, target, breaking", [
        (identity_kraus(3), 1, False),
        ([np.outer(E3[0], E3[i]) for i in range(3)], 1, True),
        (identity_kraus(3), 2, None),
        ([np.diag([1.0, 1.0, 0.0]).astype(complex), np.outer(E3[0], E3[2])], 2, True),
    ], ids=["identity-r1", "measure-prepare-r1", "identity-r2", "rank-two-r2"])
    def test_roof_search_verdicts(self, ops, target, breaking):
        report = r_peb_test(ops, target, probes=2)
        assert [v.method for v in report.verdicts] == ["roof-search"] * 3
        assert report.breaking is breaking
        assert report.agreement


class TestThresholdScan:
    def test_depolarizing_threshold(self):
        scan = eb_threshold_scan(depolarizing_kraus, 1)
        assert scan.threshold is not None
        assert abs(scan.threshold - 2.0 / 3.0) < 1e-3

    def test_amplitude_damping_never_breaks_below_full_damping(self):
        scan = eb_threshold_scan(amplitude_damping_kraus, 1, 0.0, 0.99)
        assert scan.never_breaking
        assert scan.threshold is None

    def test_identity_family_reports_never_breaking(self):
        scan = eb_threshold_scan(lambda p: identity_kraus(2), 1)
        assert scan.never_breaking

    def test_non_monotone_family_rejected(self):
        # breaking at small parameter, not at large: flips the verdict order
        def family(p):
            return depolarizing_kraus(0.9 - 0.8 * p)
        with pytest.raises(ValueError, match="monotone"):
            eb_threshold_scan(family, 1)

    @pytest.mark.parametrize("tol", [1e-20, 5e-324])
    def test_tolerance_below_the_float_spacing_ends(self, tol):
        with time_limit(10):
            scan = eb_threshold_scan(depolarizing_kraus, 1, tol=tol)
        a, b = scan.bracket
        # bisected until no float lies strictly inside the bracket
        assert np.nextafter(a, b) == b
        assert a <= scan.threshold <= b
        assert abs(scan.threshold - 2.0 / 3.0) < 1e-9

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-3}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"lo": 1.0, "hi": 0.0}, "lo < hi"),
        ({"lo": 0.5, "hi": 0.5}, "lo < hi"),
    ])
    def test_invalid_bisection_input_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            eb_threshold_scan(depolarizing_kraus, 1, **kwargs)
