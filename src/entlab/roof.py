"""Convex-roof extension of pure-state measures to mixed states.

The roof value ``min sum_i p_i E(psi_i)`` over ensembles decomposing rho is
estimated by parametrizing ensembles through isometries acting on the
eigendecomposition of rho: with ``rho = sum_j lam_j |e_j><e_j|`` of rank r,
every size-M ensemble is ``psi~_i = sum_j V_ij sqrt(lam_j) |e_j>`` for an
M x r isometry V.  The optimizer returns an upper estimate of the true roof
together with the realizing ensemble; exactness is only claimed where an
independent oracle exists (pure inputs, two-qubit Wootters).

The same ensemble search, with other objectives, finds the low Schmidt-rank
decompositions behind the Schmidt-number certificate in :mod:`entlab.breaking`
and, on a channel's Choi state, the Kraus representations behind the
resilience factor in :mod:`entlab.erf`.  Restarts are independent given their
derived streams and run together as one (restarts, M, r) stack through the
stacked descent of :mod:`entlab.stiefel`, so ensemble objectives take a stack
of isometries and return one value per restart; the minimum is reduced
deterministically by restart index.
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
GRADIENT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RoofOptions:
    """Knobs of the roof search.  Ensembles have rank(rho)**2 members, which
    covers the known optimal-decomposition cardinality bounds."""

    restarts: int = 20
    max_iterations: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class RoofResult:
    ensemble: tuple[tuple[float, PureState], ...]
    converged: bool
    best_restart_index: int
    restart_values: tuple[float, ...]
    iterations: int

    @property
    def value(self) -> float:
        """The best restart's final value."""
        return self.restart_values[self.best_restart_index]


def _ensemble_objective(measure: Measure, basis: np.ndarray, mu: float = 0.0):
    """Roof objective and gradient of a stack of mixing isometries.

    basis is the r x D matrix whose j-th row is sqrt(lam_j) e_j^T, so the
    ensemble members of restart i are the rows of V[i] @ basis; the measure
    sees the members of every restart as one stack of rows.  A positive
    ``mu`` replaces |f|**(2/k) by the smooth surrogate
    (|f|^2 + mu^2)**(1/k) - mu**(2/k), which removes the kink at f = 0; the
    mu = 0 objective is the roof itself, evaluated without the two zero
    terms (|f|^2 >= +0, so adding and subtracting +0 changes no bit).
    """
    c = measure.scale
    k = measure.degree
    basis_h = basis.conj().T

    def fun(v, need_grad):
        n, m = v.shape[:2]
        states = (v @ basis).reshape(n * m, -1)
        f = measure.eval_poly_batch(states)
        base = (f * f.conj()).real
        if mu:
            base = base + mu * mu
            terms = base ** (1.0 / k) - mu ** (2.0 / k)
        else:
            terms = base ** (1.0 / k)
        value = c * terms.reshape(n, m).sum(axis=1)
        if not need_grad:
            return value, None
        grads = measure.eval_grad_batch(states)
        pw = np.power(base, 1.0 / k - 1.0, out=np.zeros_like(base), where=base > POLY_ZERO)
        coeff = (c / k) * pw * f
        w = coeff[:, None] * grads.conj()
        return value, w.reshape(n, m, -1) @ basis_h

    return fun


def _eigenbasis(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of rho above 1e-12 * max(1, lam_max), with their
    eigenvectors as columns."""
    lam, vecs = np.linalg.eigh(rho.mat)
    keep = lam > EIGENVALUE_CUT * max(1.0, lam[-1])
    return lam[keep], vecs[:, keep]


def _search_core(basis: np.ndarray, members: int, stages, opts,
                 gradient_tolerance: float, extra_starts=(), callback=None):
    """Run the ``(make_objective, budget)`` stages, ``make_objective(basis)``
    being the stacked objective of members x rows isometries, on one stack:
    the Haar-random isometries of ``stream.child(j)``, j < ``opts.restarts``,
    then ``extra_starts``; ``callback`` follows each accepted step.  Returns
    the last :class:`StiefelResult` and the iterations summed over stages."""
    stream = RandomStream(opts.seed)
    points = np.stack([random_isometry(members, basis.shape[0], stream.child(j))
                       for j in range(opts.restarts)] + list(extra_starts))
    iterations = 0
    for make, budget in stages:
        res = minimize_on_stiefel(make(basis), points, max_iterations=budget,
                                  gradient_tolerance=gradient_tolerance,
                                  callback=callback)
        points = res.points
        iterations += res.iterations
    return res, iterations


def _ensemble_search(rho: DensityMatrix, stages, opts, gradient_tolerance: float,
                     target: int = 1) -> RoofResult:
    """Minimize an ensemble objective over the decompositions of rho: the
    :func:`_search_core` on rows sqrt(lam_j) e_j^T with rank * max(rank,
    target) members.  Every restart's final value is reported and the lowest
    is kept, with its normalized ensemble; ties go to the lowest index."""
    if opts.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {opts.restarts}")
    if opts.max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {opts.max_iterations}")
    lam, vecs = _eigenbasis(rho)
    rank = lam.size
    basis = np.sqrt(lam)[:, None] * vecs.T
    res, iterations = _search_core(basis, rank * max(rank, target), stages, opts,
                                   gradient_tolerance)
    best = int(np.argmin(res.values))

    states = res.points[best] @ basis
    weights = np.einsum("ij,ij->i", states, states.conj()).real
    ensemble = tuple(
        (float(w), PureState(s / np.sqrt(w), rho.dims))
        for w, s in zip(weights, states) if w > 1e-14
    )
    return RoofResult(ensemble=ensemble, converged=res.converged[best],
                      best_restart_index=best, restart_values=res.values,
                      iterations=iterations)


def _smoothing_stages(measure: Measure, total: int):
    """Graduated smoothing: polish on the exact objective after two warm
    stages.  The stages split the budget as a quarter, a quarter and the
    rest, so they run at most ``total`` iterations together; a budget of 0
    values the starts and takes no step."""
    quarter = total // 4
    return [(partial(_ensemble_objective, measure, mu=mu), budget)
            for mu, budget in ((1e-2, quarter), (1e-5, quarter),
                               (0.0, total - 2 * quarter))]


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
    return _ensemble_search(rho, _smoothing_stages(measure, opts.max_iterations),
                            opts, GRADIENT_TOLERANCE)
