"""Convex-roof extension of pure-state measures to mixed states.

The roof value ``min sum_i p_i E(psi_i)`` over ensembles decomposing rho is
estimated by parametrizing ensembles through isometries acting on the
eigendecomposition of rho: with ``rho = sum_j lam_j |e_j><e_j|`` of rank r,
every size-M ensemble is ``psi~_i = sum_j V_ij sqrt(lam_j) |e_j>`` for an
M x r isometry V.  The optimizer returns an upper estimate of the true roof
together with the realizing ensemble; exactness is only claimed where an
independent oracle exists (pure inputs, two-qubit Wootters).

The same ensemble search, with a different objective, finds the low
Schmidt-rank decompositions behind the Schmidt-number certificate in
:mod:`entlab.breaking`.  Restarts are independent given their derived streams
and could run concurrently; the minimum is reduced deterministically by
restart index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import DensityMatrix, PureState
from .measures import Measure
from .sampling import RandomStream, random_isometry
from .stiefel import minimize_on_stiefel

EIGENVALUE_CUT = 1e-12
POLY_ZERO = 1e-200


@dataclass(frozen=True)
class RoofOptions:
    """Knobs of the roof search.

    ``ensemble_size`` defaults to rank(rho)**2, which covers the known
    optimal-decomposition cardinality bounds; it must be >= rank(rho).
    """

    ensemble_size: int | None = None
    restarts: int = 20
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-8
    seed: int = 0


@dataclass(frozen=True)
class RoofResult:
    value: float
    ensemble: tuple[tuple[float, PureState], ...]
    converged: bool
    best_restart_index: int
    restart_values: tuple[float, ...]
    iterations: int


def _ensemble_objective(measure: Measure, basis: np.ndarray, mu: float = 0.0):
    """Roof objective and gradient as a function of the mixing isometry.

    basis is the r x D matrix whose j-th row is sqrt(lam_j) e_j^T, so the
    ensemble members are the rows of V @ basis.  A positive ``mu`` replaces
    |f|**(2/k) by the smooth surrogate (|f|^2 + mu^2)**(1/k) - mu**(2/k),
    which removes the kink at f = 0; the mu = 0 objective is the roof itself.
    """
    c = measure.scale
    k = measure.degree
    basis_h = basis.conj().T

    def fun(v, need_grad):
        states = v @ basis
        f = measure.eval_poly_batch(states)
        absf2 = (f * f.conj()).real
        if mu > 0.0:
            value = float(c * np.sum((absf2 + mu * mu) ** (1.0 / k) - mu ** (2.0 / k)))
        else:
            value = float(c * np.sum(absf2 ** (1.0 / k)))
        if not need_grad:
            return value, None
        grads = measure.eval_grad_batch(states)
        if mu > 0.0:
            coeff = (c / k) * (absf2 + mu * mu) ** (1.0 / k - 1.0) * f
        else:
            live = absf2 > POLY_ZERO
            coeff = np.zeros_like(f)
            coeff[live] = (c / k) * absf2[live] ** (1.0 / k - 1.0) * f[live]
        w = coeff[:, None] * grads.conj()
        return value, w @ basis_h

    return fun


def _eigenbasis(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of rho above 1e-12 * max(1, lam_max), with their
    eigenvectors as columns."""
    lam, vecs = np.linalg.eigh(rho.mat)
    keep = lam > EIGENVALUE_CUT * max(1.0, lam[-1])
    return lam[keep], vecs[:, keep]


def _ensemble_search(rho: DensityMatrix, stages, opts, gradient_tolerance: float,
                     target: int = 1, stop_below: float = -np.inf) -> RoofResult:
    """Minimize an ensemble objective over the decompositions of rho.

    ``stages`` lists ``(make_objective, budget)`` pairs: ``make_objective``
    takes the r x D basis whose j-th row is sqrt(lam_j) e_j^T and returns the
    descent objective of the mixing isometry.  Each of ``opts.restarts``
    restarts runs the stages in turn from a Haar-random isometry with
    ``opts.ensemble_size`` rows, by default rank * max(rank, target); they
    stop early once the best value falls below ``stop_below``.  The result
    holds the best restart's value and its normalized ensemble.
    """
    lam, vecs = _eigenbasis(rho)
    rank = lam.size
    m = opts.ensemble_size if opts.ensemble_size is not None else rank * max(rank, target)
    if m < rank:
        raise ValueError(f"ensemble size {m} below rank {rank}")
    basis = np.sqrt(lam)[:, None] * vecs.T
    objectives = [(make(basis), budget) for make, budget in stages]
    stream = RandomStream(opts.seed)

    best = None
    best_index = 0
    values = []
    total_iterations = 0
    for j in range(max(1, opts.restarts)):
        point = random_isometry(m, rank, stream.child(j))
        for fun, budget in objectives:
            res = minimize_on_stiefel(fun, point, max_iterations=budget,
                                      gradient_tolerance=gradient_tolerance)
            point = res.point
            total_iterations += res.iterations
        values.append(res.value)
        if best is None or res.value < best.value:
            best = res
            best_index = j
        if best.value < stop_below:
            break

    states = best.point @ basis
    weights = np.einsum("ij,ij->i", states, states.conj()).real
    ensemble = tuple(
        (float(w), PureState(s / np.sqrt(w), rho.dims))
        for w, s in zip(weights, states) if w > 1e-14
    )
    return RoofResult(value=best.value, ensemble=ensemble,
                      converged=best.converged,
                      best_restart_index=best_index,
                      restart_values=tuple(values),
                      iterations=total_iterations)


def convex_roof(measure: Measure, rho: DensityMatrix,
                opts: RoofOptions = RoofOptions()) -> RoofResult:
    """Upper estimate of the convex roof of ``measure`` at ``rho``.

    Runs ``opts.restarts`` independent descents from Haar-random isometries
    and keeps the best; ties resolve to the lowest restart index.  The
    returned ensemble reconstructs rho and realizes the returned value.  A
    result is flagged unconverged when the best restart exhausted its
    iteration budget without reaching a stationary point.
    """
    measure.check_dims(rho.dims)
    quarter = opts.max_iterations // 4
    # graduated smoothing: polish on the exact objective after two warm stages
    stages = [(partial(_ensemble_objective, measure, mu=mu), max(1, budget))
              for mu, budget in ((1e-2, quarter), (1e-5, quarter),
                                 (0.0, opts.max_iterations - 2 * quarter))]
    return _ensemble_search(rho, stages, opts, opts.gradient_tolerance)
