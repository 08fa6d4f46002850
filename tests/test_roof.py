"""Convex-roof solver against the closed-form two-qubit oracle."""

from functools import partial

import numpy as np
import pytest

from entlab.breaking import SchmidtSearchOptions, _tail_objective, schmidt_number_upper
from entlab.linalg import DensityMatrix, LocalDims
from entlab.measures import (concurrence, g_concurrence, measure_pure,
                             sqrt_three_tangle, wootters_concurrence)
from entlab.roof import (RoofOptions, RoofResult, convex_roof, _ensemble_objective,
                         _ensemble_search)
from entlab import roof as roof_module
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



@pytest.mark.parametrize("mu", [1e-2, 1e-5, 0.0])
@pytest.mark.parametrize("make, dims", [
    (lambda: g_concurrence(3), (3, 3)),
    (concurrence, (2, 2)),
    (sqrt_three_tangle, (2, 2, 2)),
], ids=["g_concurrence(3)", "concurrence", "sqrt_three_tangle"])
def test_objective_gradient_matches_central_differences(make, dims, mu):
    rho = random_density(dims, 2, RNG.child(10))
    lam, vecs = np.linalg.eigh(rho.mat)
    keep = lam > 1e-12
    basis = np.sqrt(lam[keep])[:, None] * vecs[:, keep].T
    fun = _ensemble_objective(make(), basis, mu)
    g = RNG.child(11).generator()
    v = qf_retract(g.standard_normal((2, 4, 2)) + 1j * g.standard_normal((2, 4, 2)))
    _, grad = fun(v, True)
    h = 1e-6
    for _ in range(10):
        d = g.standard_normal(v.shape) + 1j * g.standard_normal(v.shape)
        fd = (np.sum(fun(v + h * d, False)[0]) - np.sum(fun(v - h * d, False)[0])) / (2 * h)
        exact = 2.0 * np.sum(grad.conj() * d).real
        assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))

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
# with each restart run alone, as a stack of one.  Running the restarts as
# one stack must reproduce them bit for bit.
GOLDEN_ROOFS = {
    "concurrence": (
        concurrence, (2, 2), 3, 3,
        ("0x1.7fb7ac09db25cp-4", "0x1.7fb7ac09db25cp-4", "0x1.7fb7ac09db25ep-4"), 0, 218),
    "g_concurrence(3)": (
        lambda: g_concurrence(3), (3, 3), 2, 4,
        ("0x1.babfb72ecd746p-3", "0x1.9ee707f999c2ap-3", "0x1.a8d925311f4e7p-3",
         "0x1.a1918c0689bf5p-3"), 1, 457),
    "sqrt_three_tangle": (
        sqrt_three_tangle, (2, 2, 2), 2, 4,
        ("0x1.e60799de653ccp-3", "0x1.a4560c36141a2p-3", "0x1.d70210b715016p-3",
         "0x1.d6bf2cefeeaa6p-3"), 1, 459),
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
# Schmidt search.  Every restart runs and the lowest is kept; the values were
# recorded with each restart run alone, as a stack of one.
GOLDEN_SCHMIDT_RESTARTS = (
    (0, 1, ("0x1.5c6dda89ae714p-68", "0x1.3894a11dc805fp-94",
            "0x1.f53bd5072286cp-68"), 1, 35),
    (7, 2, ("0x1.2168accf87c1fp-24", "0x1.fcfda7e3007c4p-63",
            "0x1.28682f4aba275p-80"), 2, 140),
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


def test_negative_iteration_budget_is_refused():
    # the smoothing stages would pass a negative share of the budget on to
    # the descent, which refuses it with a message about its own argument
    with pytest.raises(ValueError, match="max_iterations must be >= 0, got -5"):
        convex_roof(concurrence(), werner_state(0.9), RoofOptions(max_iterations=-5))
    with pytest.raises(ValueError, match="max_iterations must be >= 0, got -1"):
        schmidt_number_upper(_product_mixture(0, 1), 1,
                             SchmidtSearchOptions(max_iterations=-1))


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_a_small_budget_is_not_exceeded(budget):
    rho = werner_state(0.9)
    res = convex_roof(concurrence(), rho, RoofOptions(restarts=1, max_iterations=budget))
    assert res.iterations <= budget
    weights = np.array([p for p, _ in res.ensemble])
    rebuilt = sum(p * np.outer(s.amps, s.amps.conj()) for p, s in res.ensemble)
    assert abs(weights.sum() - 1.0) < 1e-10
    assert np.linalg.norm(rebuilt - rho.mat) < 1e-10


def _descent_calls(monkeypatch):
    """Per descent: value calls, gradient calls, and the isometries that
    each kind of call evaluated."""
    log = []

    def counted(fun, v0, **kwargs):
        calls = [0, 0, 0, 0]

        def objective(v, need_grad):
            calls[need_grad] += 1
            calls[2 + need_grad] += v.shape[0]
            return fun(v, need_grad)

        result = minimize_on_stiefel(objective, v0, **kwargs)
        log.append(tuple(calls))
        return result

    monkeypatch.setattr(roof_module, "minimize_on_stiefel", counted)
    return log


# (value calls, gradient calls, isometries in value calls, isometries in
# gradient calls) of each descent of three seeded searches: the pattern of
# objective calls that the line search makes, recorded before its
# bookkeeping was rewritten.  A change to that bookkeeping keeps it.
CALL_PATTERNS = {
    "g_concurrence(3)": [(84, 51, 600, 204), (88, 51, 768, 204), (32, 18, 294, 57)],
    "sqrt_three_tangle": [(88, 51, 860, 306), (139, 51, 1712, 306), (22, 13, 382, 67)],
    "schmidt": [(35, 33, 142, 68)],
}


@pytest.mark.parametrize("name", sorted(CALL_PATTERNS))
def test_descents_keep_their_call_pattern(name, monkeypatch):
    rng = RandomStream(16180)
    log = _descent_calls(monkeypatch)
    if name == "g_concurrence(3)":
        res = convex_roof(g_concurrence(3), random_density((3, 3), 2, rng.child(8, 0)),
                          RoofOptions(restarts=4, max_iterations=200, seed=1))
        assert res.iterations == 457
    elif name == "sqrt_three_tangle":
        res = convex_roof(sqrt_three_tangle(), random_density((2, 2, 2), 2, rng.child(8, 1)),
                          RoofOptions(restarts=6, max_iterations=200, seed=2))
        assert res.iterations == 667
    else:
        g = rng.child(8, 2).generator()
        mat = np.zeros((9, 9), dtype=complex)
        for w in g.dirichlet(np.ones(2)):
            a = g.standard_normal((3, 2)) + 1j * g.standard_normal((3, 2))
            b = g.standard_normal((2, 3)) + 1j * g.standard_normal((2, 3))
            v = (a @ b).reshape(-1)
            v /= np.linalg.norm(v)
            mat += w * np.outer(v, v.conj())
        opts = SchmidtSearchOptions(restarts=3, max_iterations=100, seed=3)
        stage = (partial(_tail_objective, target=2, d_a=3, d_b=3), opts.max_iterations)
        res = _ensemble_search(DensityMatrix((mat + mat.conj().T) / 2, (3, 3)), [stage],
                               opts, 1e-10, target=2)
        assert res.iterations == 68
    assert log == CALL_PATTERNS[name]
