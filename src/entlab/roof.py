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
and run together as one (restarts, M, r) stack through the stacked descent of
:mod:`entlab.stiefel`, so ensemble objectives take a stack of isometries and
return one value per restart; the minimum is reduced deterministically by
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
    mu = 0 objective is the roof itself.
    """
    c = measure.scale
    k = measure.degree
    basis_h = basis.conj().T

    def fun(v, need_grad):
        n, m = v.shape[:2]
        states = (v @ basis).reshape(n * m, -1)
        f = measure.eval_poly_batch(states)
        base = (f * f.conj()).real + mu * mu
        terms = base ** (1.0 / k) - mu ** (2.0 / k)
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


def _ensemble_search(rho: DensityMatrix, stages, opts, gradient_tolerance: float,
                     target: int = 1) -> RoofResult:
    """Minimize an ensemble objective over the decompositions of rho.

    ``stages`` lists ``(make_objective, budget)`` pairs: ``make_objective``
    takes the r x D basis whose j-th row is sqrt(lam_j) e_j^T and returns the
    stacked descent objective of the mixing isometries.  All
    ``opts.restarts`` restarts run each stage as one stack, restart j from
    the Haar-random isometry of ``stream.child(j)`` with
    rank * max(rank, target) rows.  The result reports every restart's
    final value and holds the lowest, with its normalized ensemble; ties
    resolve to the lowest restart index.
    """
    lam, vecs = _eigenbasis(rho)
    rank = lam.size
    m = rank * max(rank, target)
    basis = np.sqrt(lam)[:, None] * vecs.T
    objectives = [(make(basis), budget) for make, budget in stages]
    stream = RandomStream(opts.seed)
    restarts = opts.restarts
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    points = np.stack([random_isometry(m, rank, stream.child(j))
                       for j in range(restarts)])
    iterations = 0
    for fun, budget in objectives:
        res = minimize_on_stiefel(fun, points, max_iterations=budget,
                                  gradient_tolerance=gradient_tolerance)
        points = res.points
        iterations += res.iterations
    best = int(np.argmin(res.values))

    states = points[best] @ basis
    weights = np.einsum("ij,ij->i", states, states.conj()).real
    ensemble = tuple(
        (float(w), PureState(s / np.sqrt(w), rho.dims))
        for w, s in zip(weights, states) if w > 1e-14
    )
    return RoofResult(ensemble=ensemble, converged=res.converged[best],
                      best_restart_index=best, restart_values=res.values,
                      iterations=iterations)


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
    return _ensemble_search(rho, stages, opts, GRADIENT_TOLERANCE)
