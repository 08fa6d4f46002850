"""Gradient descent on the complex Stiefel manifold of isometries.

Shared by the convex-roof solver, the Kraus-mixing search and the Schmidt
number search.  Retraction is the Q factor of QR, taken by Cholesky-QR;
gradients are Euclidean conjugate-Wirtinger gradients projected onto the
tangent space; trial steps use the Barzilai-Borwein spectral length
safeguarded by a monotone Armijo backtracking line search.

Every function here works on an (R, m, r) stack of R independent restarts,
one m x r isometry each.  Per step, the descent makes one gradient call on
the sub-stack of restarts still running and value calls on the restarts
still searching for a step, each call trying a doubling run of halvings of
every such restart's trial step (2, then 4, 8, ... steps), so a stack of R
restarts costs about as many numpy calls as one.  Each restart keeps its
own step length, line search and stop state, and no restart's stop depends
on another's; when the objective evaluates each member of a stack as it
would evaluate it alone, a restart's iterates are bitwise those of a
descent run on it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _vdots

ARMIJO_C = 1e-4
MIN_STEP = 1e-14
MAX_STEP = 1e3
PLATEAU_WINDOW = 40
PLATEAU_REL = 1e-11
REPASS_NORM2 = 4.0


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def qf_retract(a: np.ndarray) -> np.ndarray:
    """Q factors, with positive real diagonal of R, of the QR decompositions
    of a stack of trial points A = V - tG: A L^-dag for L = chol(A^dag A).

    One pass loses about eps * cond(A)^2 of orthogonality; for V an isometry
    and G tangent, cond(A)^2 <= 1 + r (c - 1) for c the largest column norm^2
    of A, the largest entry of Re A^dag A.  Members with c > ``REPASS_NORM2``
    are retracted again from their first Q, whose unit columns need one pass.
    """
    gram = _dagger(a) @ a
    q = a @ _dagger(np.linalg.inv(np.linalg.cholesky(gram)))
    if gram.real.max() > REPASS_NORM2:
        again = gram.real.max(axis=(-2, -1)) > REPASS_NORM2
        q[again] = qf_retract(q[again])
    return q


def project_tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project Euclidean gradients onto the tangent spaces at a stack of
    isometries."""
    vhg = _dagger(v) @ g
    return g - v @ ((vhg + _dagger(vhg)) / 2.0)


@dataclass(frozen=True)
class StiefelResult:
    """Outcome of a stacked descent; entry i of every per-restart field
    belongs to restart i of the starting stack.

    ``stop_reasons`` entries are 'gradient', 'stalled', 'plateau' or
    'max_iterations'; ``iterations`` is the total over restarts.
    """

    points: np.ndarray
    stop_reasons: tuple[str, ...]
    restart_iterations: tuple[int, ...]
    histories: tuple[tuple[float, ...], ...]

    @property
    def values(self) -> tuple[float, ...]:
        """Each restart's final value, the last entry of its history."""
        return tuple(h[-1] for h in self.histories)

    @property
    def iterations(self) -> int:
        return sum(self.restart_iterations)

    @property
    def converged(self) -> tuple[bool, ...]:
        """Whether each restart stopped at a stationary point to working
        precision rather than on its iteration budget."""
        return tuple(s in ("gradient", "stalled", "plateau") for s in self.stop_reasons)


def minimize_on_stiefel(fun, v0: np.ndarray, *, max_iterations: int = 300,
                        gradient_tolerance: float = 1e-8,
                        callback=None) -> StiefelResult:
    """Minimize fun over isometries by safeguarded spectral descent, from
    every start of the (R, m, r) stack ``v0`` at once.

    ``fun(stack, need_grad)`` takes a (k, m, r) stack of isometries and
    returns ``(values, grads_or_None)``: k values and, when asked, a
    (k, m, r) stack of gradients.  Each step makes one call with gradients
    at the running restarts' accepted points and one or more value-only
    calls on trial points: the first tries every running restart's trial
    step and its half, each further call the next 4, 8, ... halvings for the
    restarts that have none accepted yet.  A restart takes its longest
    passing step, the one that halving one trial per call would take, so
    accepted steps are monotone by construction (Armijo condition).  A
    collapsed line search (no step down to ``MIN_STEP`` passes) or a plateau
    (no measurable progress over a 40-iteration window) counts as
    convergence at a stationary point to working precision.  A restart that
    has stopped is not evaluated again.  ``callback`` receives the stack of
    restarts that accepted a step, after each step.
    """
    points = np.array(v0, dtype=np.complex128)
    if points.ndim != 3:
        raise ValueError(f"v0 must be an (R, m, r) stack of isometries, got shape {points.shape}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    n = points.shape[0]
    reasons = ["max_iterations"] * n
    iterations = [max_iterations] * n
    lengths = np.full(n, max_iterations + 1)
    # history[k, i] is restart i's value after k accepted steps
    history = np.empty((max_iterations + 1, n))

    # the running restarts: their indices and their state, in index order
    live = np.arange(n)
    v = points.copy()
    value, grad = fun(v, True)
    history[0] = value
    step = np.ones(n)
    prev_v = prev_gt = None

    def retire(mask, reason, it):
        nonlocal live, v, value, grad, step, prev_v, prev_gt
        done = live[mask]
        points[done] = v[mask]
        lengths[done] = it
        for i in done:
            reasons[i] = reason
            iterations[i] = it
        keep = ~mask
        live, v, value, step = live[keep], v[keep], value[keep], step[keep]
        grad = grad[keep]
        if prev_v is not None:
            prev_v, prev_gt = prev_v[keep], prev_gt[keep]
        return keep

    for it in range(1, max_iterations + 1):
        gt = project_tangent(v, grad)
        gn2 = _vdots(gt, gt)
        stop = np.sqrt(gn2) < gradient_tolerance
        if stop.any():
            keep = retire(stop, "gradient", it)
            gt, gn2 = gt[keep], gn2[keep]
        if it > PLATEAU_WINDOW:
            window_gain = history[it - PLATEAU_WINDOW - 1, live] - value
            stop = window_gain < PLATEAU_REL * np.maximum(1.0, np.abs(value))
            if stop.any():
                keep = retire(stop, "plateau", it)
                gt, gn2 = gt[keep], gn2[keep]
        if live.size == 0:
            break
        if prev_v is not None:
            # Barzilai-Borwein trial length from ambient differences
            s = v - prev_v
            sy = np.abs(_vdots(s, gt - prev_gt))
            ss = _vdots(s, s)
            spectral = sy > 1e-300
            step = np.where(spectral, ss / np.where(spectral, sy, 1.0), step * 2.0)
        else:
            step = step * 2.0
        step = np.clip(step, MIN_STEP, MAX_STEP)

        # Armijo backtracking as a ladder: each objective call tries, for
        # every restart still searching, the next run of halvings of its
        # trial step (2, then 4, 8, ... rungs).  A restart takes its first
        # rung that passes and is >= MIN_STEP: the step that one halving
        # per call would accept, since scaling by a power of two is exact.
        # Rungs below MIN_STEP in a restart's last run are tried, never taken.
        trial_v = np.empty_like(v)
        accepted = np.zeros(live.size, dtype=bool)
        # the searching restarts' positions and, one row each, their base
        # points, directions, trial steps, values and squared gradient norms
        rows = np.arange(live.size)
        base = (v[:, None], gt[:, None], step[:, None], value[:, None], gn2[:, None])
        halvings, width = 0, 2
        while True:
            base_v, base_gt, top, base_value, base_gn2 = base
            rungs = top * 2.0 ** -np.arange(halvings, halvings + width)
            cand = qf_retract((base_v - rungs[..., None, None] * base_gt)
                              .reshape(-1, *v.shape[1:]))
            new_value, _ = fun(cand, False)
            ok = ((new_value.reshape(rungs.shape)
                   <= base_value - ARMIJO_C * rungs * base_gn2) & (rungs >= MIN_STEP))
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            done = rows[hit]
            trial_v[done] = cand[np.flatnonzero(hit) * width + first]
            step[done] = rungs[hit, first]
            accepted[done] = True
            more = ~hit & (rungs[:, -1] / 2.0 >= MIN_STEP)
            if not more.any():
                break
            rows = rows[more]
            base = tuple(a[more] for a in base)
            halvings += width
            width *= 2
        if not accepted.all():
            keep = retire(~accepted, "stalled", it)
            gt, trial_v = gt[keep], trial_v[keep]
        if live.size == 0:
            break
        prev_v, prev_gt = v, gt
        v = trial_v
        value, grad = fun(v, True)
        history[it, live] = value
        if callback is not None:
            callback(v)

    points[live] = v
    return StiefelResult(
        points=points,
        stop_reasons=tuple(reasons),
        restart_iterations=tuple(iterations),
        histories=tuple(tuple(history[:lengths[i], i].tolist()) for i in range(n)),
    )
