"""Convex-roof solver against the closed-form two-qubit oracle."""

from functools import partial

import numpy as np
import pytest

from entlab.breaking import SchmidtSearchOptions, _tail_objective
from entlab.linalg import DensityMatrix, LocalDims
from entlab.measures import (concurrence, g_concurrence, measure_pure,
                             sqrt_three_tangle, wootters_concurrence)
from entlab.roof import (RoofOptions, RoofResult, convex_roof, _ensemble_objective,
                         _ensemble_search)
from entlab.families import werner_state
from entlab.sampling import RandomStream, random_density, random_pure_state
from entlab.stiefel import minimize_on_stiefel, qf_retract

RNG = RandomStream(2718)

FAST = RoofOptions(restarts=6, max_iterations=600)


def test_pure_state_recovers_pure_value():
    psi = random_pure_state((2, 2), RNG.child(0))
    res = convex_roof(concurrence(), psi.density(), RoofOptions(restarts=2))
    assert abs(res.value - measure_pure(concurrence(), psi)) < 1e-8


def test_matches_wootters_on_rank_two_states():
    for i in range(5):
        g = RNG.child(1, i).generator()
        rho = random_density((2, 2), 2, g)
        res = convex_roof(concurrence(), rho, FAST)
        assert abs(res.value - wootters_concurrence(rho)) < 1e-4


def test_separable_mixture_scores_zero():
    g = RNG.child(2).generator()
    mat = np.zeros((4, 4), dtype=complex)
    w = g.dirichlet(np.ones(8))
    for i in range(8):
        a = g.normal(size=2) + 1j * g.normal(size=2)
        b = g.normal(size=2) + 1j * g.normal(size=2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        mat += w[i] * np.outer(v, v.conj())
    rho = DensityMatrix(mat, LocalDims((2, 2)))
    res = convex_roof(concurrence(), rho, FAST)
    assert res.value < 1e-4


def test_werner_point_nine():
    res = convex_roof(concurrence(), werner_state(0.9), FAST)
    assert abs(res.value - 0.85) < 1e-4


def test_homogeneous_in_the_state():
    rho = random_density((2, 2), 2, RNG.child(3))
    base = convex_roof(concurrence(), rho, FAST).value
    scaled = DensityMatrix(0.3 * rho.mat, rho.dims, unit_trace=False)
    res = convex_roof(concurrence(), scaled, FAST)
    assert abs(res.value - 0.3 * base) < 1e-4


def test_convexity_of_the_roof():
    g = RNG.child(4).generator()
    r1 = random_density((2, 2), 2, g)
    r2 = random_density((2, 2), 2, g)
    lam = 0.4
    mix = DensityMatrix(lam * r1.mat + (1 - lam) * r2.mat, r1.dims)
    v_mix = convex_roof(concurrence(), mix, FAST).value
    v1 = convex_roof(concurrence(), r1, FAST).value
    v2 = convex_roof(concurrence(), r2, FAST).value
    assert v_mix <= lam * v1 + (1 - lam) * v2 + 1e-4


def test_descent_is_monotone_within_a_restart():
    rho = random_density((2, 2), 3, RNG.child(5))
    lam, vecs = np.linalg.eigh(rho.mat)
    keep = lam > 1e-12
    basis = np.sqrt(lam[keep])[:, None] * vecs[:, keep].T
    fun = _ensemble_objective(concurrence(), basis)
    v0 = qf_retract(np.reshape(
        RNG.child(6).generator().normal(size=(9, int(keep.sum()))), (9, -1)
    ).astype(complex))
    res = minimize_on_stiefel(fun, v0[None], max_iterations=200)
    history = res.histories[0]
    assert all(a >= b - 1e-15 for a, b in zip(history, history[1:]))


def test_result_ensemble_invariants():
    rho = random_density((2, 2), 3, RNG.child(7))
    res = convex_roof(concurrence(), rho, FAST)
    weights = np.array([p for p, _ in res.ensemble])
    assert abs(weights.sum() - 1.0) < 1e-10
    rebuilt = sum(p * np.outer(s.amps, s.amps.conj()) for p, s in res.ensemble)
    assert np.linalg.norm(rebuilt - rho.mat) < 1e-8
    avg = sum(p * measure_pure(concurrence(), s) for p, s in res.ensemble)
    assert abs(avg - res.value) < 1e-10


def test_best_restart_index_is_deterministic():
    rho = random_density((2, 2), 2, RNG.child(9))
    a = convex_roof(concurrence(), rho, FAST)
    b = convex_roof(concurrence(), rho, FAST)
    assert a.best_restart_index == b.best_restart_index
    assert a.value == b.value


# Restart values (as float.hex), best restart and summed iterations, recorded
# with the descent that ran one restart at a time.  Running the restarts as
# one stack must reproduce them bit for bit.
GOLDEN_ROOFS = {
    "concurrence": (
        concurrence, (2, 2), 3, 3,
        ("0x1.7fb7ac09db25dp-4", "0x1.7fb7ac09db27ap-4", "0x1.7fb7ac09db27ep-4"), 0, 248),
    "g_concurrence(3)": (
        lambda: g_concurrence(3), (3, 3), 2, 4,
        ("0x1.baae98963776ap-3", "0x1.9ed2d65cdfd46p-3", "0x1.a861fb1487106p-3",
         "0x1.a202a564f19d0p-3"), 1, 457),
    "sqrt_three_tangle": (
        sqrt_three_tangle, (2, 2, 2), 2, 4,
        ("0x1.fe6ec9e16dc9ap-3", "0x1.ee803f49e6dccp-3", "0x1.cf80f320fab8ap-3",
         "0x1.faa45ba182ba6p-3"), 2, 441),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROOFS))
def test_roof_restarts_match_the_recorded_values_bitwise(name):
    make, dims, rank, restarts, values, best, iterations = GOLDEN_ROOFS[name]
    index = list(GOLDEN_ROOFS).index(name)
    rho = random_density(dims, rank, RandomStream(4711).child(index))
    res = convex_roof(make(), rho, RoofOptions(restarts=restarts, max_iterations=200,
                                               seed=index))
    assert tuple(v.hex() for v in res.restart_values) == values
    assert res.best_restart_index == best
    assert res.iterations == iterations


def _product_mixture(seed, k):
    """3 x 3 mixture of two pure states of Schmidt rank k."""
    g = np.random.default_rng(seed)
    rho = np.zeros((9, 9), dtype=complex)
    for w in g.dirichlet(np.ones(2)):
        a = g.standard_normal((3, k)) + 1j * g.standard_normal((3, k))
        b = g.standard_normal((k, 3)) + 1j * g.standard_normal((k, 3))
        v = (a @ b).reshape(-1)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix((rho + rho.conj().T) / 2, (3, 3))


# (seed, target, restart values, best restart, iterations) of a three-restart
# Schmidt search.  Every restart runs and the lowest is kept; the leading
# values are those recorded when the search stopped at the first restart
# below 1e-16, so running on past it left them bitwise unchanged.
GOLDEN_SCHMIDT_RESTARTS = (
    (0, 1, ("0x1.5c6d59578f802p-68", "0x1.38954dbd77cdbp-94",
            "0x1.f53bbcec74798p-68"), 1, 35),
    (7, 2, ("0x1.2167cee0db3bep-24", "0x1.fcfdad1c9dcbep-63",
            "0x1.286a87bbb3c92p-80"), 2, 140),
)


@pytest.mark.parametrize("seed,target,values,best,iterations", GOLDEN_SCHMIDT_RESTARTS)
def test_schmidt_search_keeps_its_lowest_restart(seed, target, values, best, iterations):
    opts = SchmidtSearchOptions(restarts=3, max_iterations=100, seed=seed)
    stage = (partial(_tail_objective, target=target, d_a=3, d_b=3), opts.max_iterations)
    res = _ensemble_search(_product_mixture(seed, target), [stage], opts, 1e-10,
                           target=target)
    assert tuple(v.hex() for v in res.restart_values) == values
    assert res.best_restart_index == best
    assert res.iterations == iterations
