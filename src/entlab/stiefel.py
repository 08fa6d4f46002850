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

A step's own bookkeeping is arithmetic on a few restarts, where each numpy
call costs more in overhead than in work, so it is written for few calls:
the rungs' scales come from a table of exact powers of two; when every
restart passes at its full trial step, the first call's full-step
candidates are the new points as they are; otherwise the per-restart
choices of rung, and the stop tests, are made on Python lists.
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

# 2**-j, exactly, for every halving a line search can try: trial steps lie
# in [MIN_STEP, MAX_STEP] and a run of halvings starts only while its first
# rung is >= MIN_STEP, so no run reaches rung 62
_HALVINGS = np.ldexp(1.0, -np.arange(64))


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


def _line_search(fun, v, gt, step, value, gn2):
    """Armijo backtracking as a ladder, for a stack of restarts at points v
    with projected gradients gt, trial steps, values and squared gradient
    norms.  Returns the accepted points, the accepted steps and the mask of
    restarts that accepted one, or None when every restart did.

    Each objective call tries, for every restart still searching, the next
    run of halvings of its trial step (2, then 4, 8, ... rungs).  A restart
    takes its first rung that passes and is >= MIN_STEP: the step that one
    halving per call would accept.  Rungs below MIN_STEP in a restart's last
    run are tried, never taken.
    """
    k, shape = v.shape[0], v.shape[1:]
    # each restart's Armijo decrease at its full trial step.  Rung j's
    # threshold is this times 2**-j, which is exactly the decrease at the
    # step t 2**-j: scaling by a power of two is exact above the subnormal
    # range, and t >= MIN_STEP and |g|^2 >= tolerance^2 keep it far above
    drop = (ARMIJO_C * step) * gn2
    rungs = step[:, None] * _HALVINGS[:2]
    cand = qf_retract((v[:, None] - rungs[..., None, None] * gt[:, None]).reshape(-1, *shape))
    new_value, _ = fun(cand, False)
    full = (new_value[::2] <= value - drop).tolist()
    if all(full):
        # every restart takes its full trial step
        return cand[::2], step, None

    # a few restarts and rungs are left: decide on them in Python
    passed_half = (new_value[1::2] <= value - drop * _HALVINGS[1]).tolist()
    halves = rungs[:, 1].tolist()
    steps = step.tolist()
    pick = list(range(0, 2 * k, 2))
    rows, stalled = [], []
    for i, passed in enumerate(full):
        if passed:
            continue
        if passed_half[i] and halves[i] >= MIN_STEP:
            pick[i] += 1
            steps[i] = halves[i]
        elif halves[i] / 2.0 >= MIN_STEP:
            rows.append(i)
        else:
            stalled.append(i)
    # every restart's full or half step; searching restarts' rows are
    # overwritten when they pass, and stalled ones are dropped by the caller
    trial = cand[pick]

    # the doubling runs, for the restarts that passed no rung yet
    halvings, width = 2, 4
    while rows:
        scales = _HALVINGS[halvings:halvings + width]
        idx = np.array(rows)
        rungs = step[idx][:, None] * scales
        cand = qf_retract((v[idx][:, None] - rungs[..., None, None] * gt[idx][:, None])
                          .reshape(-1, *shape))
        new_value, _ = fun(cand, False)
        ok = new_value.reshape(rungs.shape) <= value[idx][:, None] - drop[idx][:, None] * scales
        more = []
        for j, (i, passed, tried) in enumerate(zip(rows, ok.tolist(), rungs.tolist())):
            for r, (p, t) in enumerate(zip(passed, tried)):
                if p and t >= MIN_STEP:
                    trial[i] = cand[j * width + r]
                    steps[i] = t
                    break
            else:
                (more if tried[-1] / 2.0 >= MIN_STEP else stalled).append(i)
        rows = more
        halvings += width
        width *= 2
    accepted = None
    if stalled:
        accepted = np.ones(k, dtype=bool)
        accepted[stalled] = False
    return trial, np.array(steps), accepted


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
    accepted steps are monotone by construction (Armijo condition).  When
    every restart passes at its full trial step, the first call's full-step
    candidates are taken as they are.  The Armijo threshold of the step
    t 2**-j is computed as the full step's decrease c t |g|^2 times 2**-j,
    which is bitwise c (t 2**-j) |g|^2, since scaling by a power of two is
    exact away from the subnormal range.  A collapsed line search (no step
    down to ``MIN_STEP`` passes) or a plateau (no measurable progress over a
    40-iteration window) counts as convergence at a stationary point to
    working precision.  A restart that has stopped is not evaluated again.
    ``callback`` receives the stack of restarts that accepted a step, after
    each step.
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
        stop = gradient = np.sqrt(gn2) < gradient_tolerance
        plateau = None
        if it > PLATEAU_WINDOW:
            past = history[it - PLATEAU_WINDOW - 1]
            if live.size < n:
                past = past[live]
            plateau = past - value < PLATEAU_REL * np.maximum(1.0, np.abs(value))
            stop = gradient | plateau
        # one test tells whether any restart stops
        if any(stop.tolist()):
            if any(gradient.tolist()):
                keep = retire(gradient, "gradient", it)
                gt, gn2 = gt[keep], gn2[keep]
                if plateau is not None:
                    plateau = plateau[keep]
            if plateau is not None and any(plateau.tolist()):
                keep = retire(plateau, "plateau", it)
                gt, gn2 = gt[keep], gn2[keep]
            if live.size == 0:
                break
        if prev_v is not None:
            # Barzilai-Borwein trial length from ambient differences
            s = v - prev_v
            k = s.shape[0]
            s_conj = s.conj().reshape(k, 1, -1)
            sy = np.abs((s_conj @ (gt - prev_gt).reshape(k, -1, 1))[:, 0, 0].real)
            ss = (s_conj @ s.reshape(k, -1, 1))[:, 0, 0].real
            spectral = sy > 1e-300
            if all(spectral.tolist()):
                step = ss / sy
            else:
                step = np.where(spectral, ss / np.where(spectral, sy, 1.0), step * 2.0)
        else:
            step = step * 2.0
        step = step.clip(MIN_STEP, MAX_STEP)

        trial_v, step, accepted = _line_search(fun, v, gt, step, value, gn2)
        if accepted is not None:
            keep = retire(~accepted, "stalled", it)
            gt, trial_v = gt[keep], trial_v[keep]
            if live.size == 0:
                break
        prev_v, prev_gt = v, gt
        v = trial_v
        value, grad = fun(v, True)
        # basic indexing while no restart has retired
        if live.size < n:
            history[it, live] = value
        else:
            history[it] = value
        if callback is not None:
            callback(v)

    points[live] = v
    return StiefelResult(
        points=points,
        stop_reasons=tuple(reasons),
        restart_iterations=tuple(iterations),
        histories=tuple(tuple(history[:lengths[i], i].tolist()) for i in range(n)),
    )
