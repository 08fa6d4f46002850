"""The stacked Stiefel descent: a stack of restarts runs as its restarts
would run one at a time."""

import numpy as np
import pytest

from entlab.breaking import _tail_objective
from entlab.channels import SeparableChannel, SeparableKrausOperator, tensor_channels
from entlab.erf import PENALTY_WEIGHTS, _search_objective
from entlab.families import random_local_kraus
from entlab.linalg import DensityMatrix, LocalDims
from entlab.measures import concurrence, g_concurrence, sqrt_three_tangle
from entlab.roof import _eigenbasis, _ensemble_objective
from entlab.sampling import RandomStream, random_density, random_isometry
from entlab.stiefel import (MAX_STEP, _vdots, minimize_on_stiefel, project_tangent,
                            qf_retract)

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


def g_concurrence_case():
    """The exact G-concurrence roof of a rank-2 3 x 3 state.  The first start
    has zero members, whose adjugates vanish; they and the invertible
    members of the other starts take the same cofactor path."""
    rho = random_density((3, 3), 2, RNG.child(4))
    fun = _ensemble_objective(g_concurrence(3), _basis(rho))
    starts = [np.eye(4, 2, dtype=complex)]
    starts += [random_isometry(4, 2, RNG.child(4, j)) for j in range(4)]
    return fun, np.stack(starts), 60


def erf_case():
    """The resilience-factor objective, with its separability penalty, on
    the Choi rows of a tensor product of two qubit channels."""
    gen = RNG.child(5).generator()
    channel = tensor_channels([
        SeparableChannel(LocalDims((2,)), tuple(SeparableKrausOperator((k,))
                                                 for k in random_local_kraus(2, count, gen)))
        for count in (2, 3)])
    ks = channel.joint_ops
    m = ks.shape[0]
    fun = _search_objective(ks.reshape(m, 16) / 2.0, channel.dims, PENALTY_WEIGHTS[0])
    return fun, np.stack([random_isometry(m, m, RNG.child(5, j)) for j in range(4)]), 40


def uphill_case():
    """||V - V0||^2 with a gradient that is the true one plus a fixed small
    push.  Restart 0 starts at the minimum V0, where every step goes uphill,
    so it stalls at once; the others descend until the push dominates."""
    target = np.eye(4, 2, dtype=complex)
    g = RNG.child(6).generator()
    push = 1e-3 * (g.standard_normal((4, 2)) + 1j * g.standard_normal((4, 2)))

    def fun(v, need_grad):
        diff = v - target
        return _vdots(diff, diff), (2.0 * diff + push if need_grad else None)

    starts = [target] + [random_isometry(4, 2, RNG.child(6, j)) for j in range(3)]
    return fun, np.stack(starts), 60


def ladder_exits_case():
    """A stiff quadratic whose restarts leave their first line search by
    every exit: restart 0 stalls, 1 takes its full trial step, 2 its half
    in the same call and 3 a step from a later run of halvings."""
    target = np.eye(4, 2, dtype=complex)
    weights = np.array([0.1, 0.1, 4.0, 4.0])[:, None]
    g = RNG.child(8).generator()
    push = 1e-3 * (g.standard_normal((4, 2)) + 1j * g.standard_normal((4, 2)))

    def fun(v, need_grad):
        diff = v - target
        weighted = weights * diff
        return _vdots(diff, weighted), (2.0 * weighted + push if need_grad else None)

    near = qf_retract((target + 0.1 * (random_isometry(4, 2, RNG.child(9)) - target))[None])[0]
    starts = [target, random_isometry(4, 2, RNG.child(8, 0)),
              random_isometry(4, 2, RNG.child(8, 2)), near]
    return fun, np.stack(starts), 60


@pytest.mark.parametrize("case", [separable_concurrence_case, tangle_case,
                                  schmidt_tail_case, g_concurrence_case, erf_case,
                                  uphill_case, ladder_exits_case])
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
    # and is an isometry to working precision
    gram = stacked.points.conj().swapaxes(1, 2) @ stacked.points
    assert np.abs(gram - np.eye(starts.shape[2])).max() < 1e-13


def _householder_q(a):
    """Q of numpy's Householder QR, its columns rephased so that R has a
    positive real diagonal."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@pytest.mark.parametrize("m, r", [(4, 2), (9, 3), (16, 4)])
@pytest.mark.parametrize("rank_one", [False, True], ids=["full-rank", "rank-one"])
def test_retraction_is_the_sign_fixed_qr_factor(m, r, rank_one):
    g = RNG.child(7, m).generator()
    v = np.stack([random_isometry(m, r, RNG.child(7, m, j)) for j in range(20)])

    def gauss(*shape):
        return g.standard_normal(shape) + 1j * g.standard_normal(shape)

    if rank_one:
        # (I - V V^dag) x y^dag: tangent, since V^dag G = 0, and of rank one
        x = gauss(20, m, 1)
        tangent = (x - v @ (v.conj().swapaxes(1, 2) @ x)) @ gauss(20, 1, r)
    else:
        tangent = project_tangent(v, gauss(20, m, r))
    tangent /= np.sqrt(_vdots(tangent, tangent))[:, None, None]
    for t in (1e-3, 0.3, 1.0, 3.0, 30.0, MAX_STEP):
        a = v - t * tangent
        q = qf_retract(a)
        gram = q.conj().swapaxes(1, 2) @ q
        assert np.abs(gram - np.eye(r)).max() < 1e-13
        assert np.abs(q - _householder_q(a)).max() < 1e-12


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


def test_a_stalled_line_search_costs_few_calls():
    fun, starts, budget = uphill_case()
    calls = {True: 0, False: 0}

    def counted(v, need_grad):
        calls[need_grad] += 1
        return fun(v, need_grad)

    res = minimize_on_stiefel(counted, starts[:1], max_iterations=budget)
    assert res.stop_reasons == ("stalled",)
    assert res.restart_iterations == (1,)
    assert res.histories == ((0.0,),)
    # one value call per doubling run of halvings, from step 2 down to MIN_STEP
    assert calls == {True: 1, False: 5}
    # in the stack the other restarts accept steps while restart 0 stalls
    stacked = minimize_on_stiefel(fun, starts, max_iterations=budget)
    assert stacked.stop_reasons[0] == "stalled"
    assert all(len(h) > 1 for h in stacked.histories[1:])


@pytest.mark.parametrize("shape", [(1, 4, 2), (5, 9, 3), (8, 6, 6)])
def test_vdots_equal_one_vdot_per_member(shape):
    g = RNG.child(3).generator()
    a, b = (g.standard_normal(shape) + 1j * g.standard_normal(shape) for _ in range(2))
    for x, y in ((a, b), (a, a)):
        loop = np.array([np.vdot(u, v).real for u, v in zip(x, y)])
        assert _vdots(x, y).tobytes() == loop.tobytes()


def test_a_single_isometry_is_refused():
    fun, starts, _ = tangle_case()
    with pytest.raises(ValueError, match="stack"):
        minimize_on_stiefel(fun, starts[0])


def test_the_ladder_exits_case_takes_every_exit_in_its_first_step():
    """The first step's trial step is 2 for every restart; which rung each
    restart took shows in its value calls and its first accepted value."""
    fun, starts, _ = ladder_exits_case()
    exits = []
    for v0 in starts:
        value_calls = []

        def counted(v, need_grad):
            value_calls.append(not need_grad)
            return fun(v, need_grad)

        res = minimize_on_stiefel(counted, v0[None], max_iterations=1)
        if res.stop_reasons[0] == "stalled":
            exits.append("stalled")
            continue
        gt = project_tangent(v0[None], fun(v0[None], True)[1])
        first = res.histories[0][1]
        if sum(value_calls) > 1:
            exits.append("deeper")
        elif first == fun(qf_retract(v0[None] - 2.0 * gt), False)[0][0]:
            exits.append("full")
        elif first == fun(qf_retract(v0[None] - 1.0 * gt), False)[0][0]:
            exits.append("half")
        else:
            exits.append("unexplained")
    assert exits == ["stalled", "full", "half", "deeper"]

