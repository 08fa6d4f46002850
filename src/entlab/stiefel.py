"""Gradient descent on the complex Stiefel manifold of isometries.

Shared by the convex-roof solver, the Kraus-mixing search and the Schmidt
number search.  Retraction is sign-fixed QR; gradients are Euclidean
conjugate-Wirtinger gradients projected onto the tangent space; trial steps
use the Barzilai-Borwein spectral length safeguarded by a monotone Armijo
backtracking line search.

Every function here works on an (R, m, r) stack of R independent restarts,
one m x r isometry each.  The descent evaluates the objective once per step
on the sub-stack of restarts still running, so a stack of R restarts costs
about as many numpy calls as one.  Each restart keeps its own step length,
line search and stop state, and no restart's stop depends on another's;
when the objective evaluates each member of a stack as it would evaluate it
alone, a restart's iterates are bitwise those of a descent run on it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARMIJO_C = 1e-4
MIN_STEP = 1e-14
MAX_STEP = 1e3
PLATEAU_WINDOW = 40
PLATEAU_REL = 1e-11


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> per member of two stacks, bitwise as np.vdot gives it."""
    n = a.shape[0]
    return (a.conj().reshape(n, 1, -1) @ b.reshape(n, -1, 1))[:, 0, 0].real


def qf_retract(a: np.ndarray) -> np.ndarray:
    """Q factors of the QR decompositions of a stack, with positive real
    diagonal of R."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


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

    ``fun(stack, need_grad)`` takes a (k, m, r) sub-stack of the running
    restarts and returns ``(values, grads_or_None)``: k values and, when
    asked, a (k, m, r) stack of gradients.  Accepted steps are monotone by
    construction (Armijo condition); a collapsed line search or a plateau
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

        # Armijo backtracking, one objective call per round over the
        # restarts still searching
        trial_v = np.empty_like(v)
        accepted = np.zeros(live.size, dtype=bool)
        searching = np.arange(live.size)
        while searching.size:
            cand = qf_retract(v[searching] - step[searching, None, None] * gt[searching])
            new_value, _ = fun(cand, False)
            ok = new_value <= (value[searching]
                               - ARMIJO_C * step[searching] * gn2[searching])
            trial_v[searching[ok]] = cand[ok]
            accepted[searching[ok]] = True
            searching = searching[~ok]
            step[searching] /= 2.0
            searching = searching[step[searching] >= MIN_STEP]
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
