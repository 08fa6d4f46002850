"""The stacked Stiefel descent: a stack of restarts runs as its restarts
would run one at a time."""

import numpy as np
import pytest

from entlab.breaking import _tail_objective
from entlab.linalg import DensityMatrix
from entlab.measures import concurrence, sqrt_three_tangle
from entlab.roof import _eigenbasis, _ensemble_objective
from entlab.sampling import RandomStream, random_density, random_isometry
from entlab.stiefel import minimize_on_stiefel

RNG = RandomStream(16180)


def _basis(rho):
    lam, vecs = _eigenbasis(rho)
    return np.sqrt(lam)[:, None] * vecs.T


def separable_concurrence_case():
    """A separable two-qubit state whose first start is stationary: the
    identity isometry maps its eigenbasis to product members, where every
    concurrence and its gradient vanish."""
    rho = DensityMatrix(np.diag([0.6, 0.0, 0.0, 0.4]).astype(complex), (2, 2))
    fun = _ensemble_objective(concurrence(), _basis(rho))
    starts = [np.eye(4, 2, dtype=complex)]
    starts += [random_isometry(4, 2, RNG.child(0, j)) for j in range(4)]
    return fun, np.stack(starts), 120


def tangle_case():
    rho = random_density((2, 2, 2), 2, RNG.child(1))
    fun = _ensemble_objective(sqrt_three_tangle(), _basis(rho), mu=1e-5)
    return fun, np.stack([random_isometry(4, 2, RNG.child(1, j)) for j in range(5)]), 80


def schmidt_tail_case():
    """A mixture of two product states on 3 x 3, searched for Schmidt rank 1."""
    g = RNG.child(2).generator()
    mat = np.zeros((9, 9), dtype=complex)
    for w in (0.3, 0.7):
        v = np.kron(g.normal(size=3) + 1j * g.normal(size=3),
                    g.normal(size=3) + 1j * g.normal(size=3))
        mat += w * np.outer(v, v.conj()) / np.vdot(v, v).real
    fun = _tail_objective(_basis(DensityMatrix(mat, (3, 3))), target=1, d_a=3, d_b=3)
    return fun, np.stack([random_isometry(4, 2, RNG.child(2, j)) for j in range(4)]), 60


@pytest.mark.parametrize("case", [separable_concurrence_case, tangle_case,
                                  schmidt_tail_case])
def test_a_stack_runs_as_its_restarts_one_at_a_time(case):
    fun, starts, budget = case()
    stacked = minimize_on_stiefel(fun, starts, max_iterations=budget)
    for i in range(starts.shape[0]):
        alone = minimize_on_stiefel(fun, starts[i:i + 1], max_iterations=budget)
        assert np.array_equal(stacked.points[i], alone.points[0])
        assert stacked.values[i] == alone.values[0]
        assert stacked.stop_reasons[i] == alone.stop_reasons[0]
        assert stacked.restart_iterations[i] == alone.restart_iterations[0]
        assert stacked.histories[i] == alone.histories[0]
    assert stacked.iterations == sum(stacked.restart_iterations)
    # each returned point realizes its restart's returned (and last) value
    again, _ = fun(stacked.points, False)
    assert tuple(float(x) for x in again) == stacked.values
    assert all(h[-1] == v for h, v in zip(stacked.histories, stacked.values))


def test_a_stationary_start_stops_on_the_gradient_at_once():
    fun, starts, budget = separable_concurrence_case()
    res = minimize_on_stiefel(fun, starts, max_iterations=budget)
    assert res.stop_reasons[0] == "gradient"
    assert res.restart_iterations[0] == 1
    assert res.histories[0] == (0.0,)
    assert np.array_equal(res.points[0], starts[0])
    # the other restarts move, and the stack mixes stop reasons
    assert all(len(h) > 1 for h in res.histories[1:])
    assert len(set(res.stop_reasons)) >= 3


def test_stop_below_cuts_the_restarts_after_the_first_below_it():
    fun, starts, budget = tangle_case()
    free = minimize_on_stiefel(fun, starts, max_iterations=budget)
    # restart 0 ends lowest and passes restart 1's final value first
    threshold = free.values[1]
    assert min(free.values) == free.values[0]
    step = next(k for k, v in enumerate(free.histories[0]) if v < threshold)
    cut = minimize_on_stiefel(fun, starts, max_iterations=budget, stop_below=threshold)
    assert cut.stop_reasons[0] == free.stop_reasons[0]
    assert cut.histories[0] == free.histories[0]
    assert np.array_equal(cut.points[0], free.points[0])
    for i in range(1, starts.shape[0]):
        assert cut.stop_reasons[i] == "cut"
        assert cut.restart_iterations[i] == step
        assert cut.histories[i] == free.histories[i][:step + 1]


def test_a_single_isometry_is_refused():
    fun, starts, _ = tangle_case()
    with pytest.raises(ValueError, match="stack"):
        minimize_on_stiefel(fun, starts[0])
