"""Entanglement resilience factor: minimum determinant weight over separable
Kraus representations of a channel.

Alternative representations are parametrized by isometries U mixing the given
Kraus list, ``K~_j = sum_m U_jm K_m``; separability of every mixed operator is
enforced softly through a graduated penalty on product residuals, with a hard
feasibility threshold at the end.  The reported value is an upper bound on
the true minimum by construction (it minimizes over a searched subset of
representations); infeasible searches are reported, never silently rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (SeparableChannel, SeparableKrausOperator,
                       _branch_entanglement, _mixed_entanglement, apply,
                       apply_kraus, tensor_channels)
from .linalg import PureState, _as_local_dims, as_complex_matrix, kron_all
from .measures import Measure, adjugate
from .sampling import RandomStream, random_density, random_isometry
from .stiefel import minimize_on_stiefel

DET_ZERO = 1e-200
NORM_ZERO = 1e-14
# strictly increasing weights of the graduated separability penalty
PENALTY_WEIGHTS = (10.0, 100.0, 1000.0, 10000.0)
SEPARABILITY_THRESHOLD = 1e-6
TENSOR_BOUND_TOL = 1e-6


# ---------------------------------------------------------------------------
# nearest product operator

def _split_perm(n: int, t: int) -> list[int]:
    """Axis permutation grouping party t's (row, col) indices first."""
    rest = [i for i in range(n) if i != t]
    return [t, n + t] + rest + [n + i for i in rest]


def _realign(k: np.ndarray, dims, t: int) -> np.ndarray:
    """Rearrange K so rows index party t's operator entries, columns the
    rest; leading axes of K index a stack of operators."""
    dims = list(dims)
    n = len(dims)
    d_t = dims[t]
    d_rest = math.prod(dims) // d_t
    lead = list(k.shape[:-2])
    tensor = k.reshape(lead + dims + dims).transpose(
        list(range(len(lead))) + [len(lead) + p for p in _split_perm(n, t)])
    return tensor.reshape(lead + [d_t * d_t, d_rest * d_rest])


def _unrealign(r: np.ndarray, dims, t: int) -> np.ndarray:
    dims = list(dims)
    n = len(dims)
    rest = [i for i in range(n) if i != t]
    shape = [dims[t], dims[t]] + [dims[i] for i in rest] + [dims[i] for i in rest]
    lead = list(r.shape[:-2])
    inv = np.argsort(_split_perm(n, t))
    d = math.prod(dims)
    return r.reshape(lead + shape).transpose(
        list(range(len(lead))) + [len(lead) + p for p in inv]).reshape(lead + [d, d])


def _zero_factors(dims) -> tuple[np.ndarray, ...]:
    out = [np.zeros((dims[0], dims[0]), dtype=np.complex128)]
    out += [np.eye(d, dtype=np.complex128) for d in list(dims)[1:]]
    return tuple(out)


def nearest_product_operator(k, dims) -> tuple[tuple[np.ndarray, ...], float]:
    """Best tensor-product approximation of a joint-space operator.

    Returns factors (A_1, ..., A_n) minimizing ||K - A_1 x ... x A_n||_F and
    the relative residual of the fit.  Bipartite operators use the leading
    term of the operator-Schmidt decomposition; more parties use an
    alternating (higher-order power) fit initialized from the bipartite
    splits.  The zero operator is a product by convention (residual 0).
    """
    dims = _as_local_dims(dims)
    d = dims.total
    k = as_complex_matrix(k, d, d)
    n = dims.n_parties
    if n == 1:
        return (k,), 0.0
    norm2 = float(np.vdot(k, k).real)
    if norm2 < NORM_ZERO ** 2:
        return _zero_factors(dims), 0.0

    if n == 2:
        r = _realign(k, dims, 0)
        u, s, vh = np.linalg.svd(r, full_matrices=False)
        lead = math.sqrt(s[0])
        a = lead * u[:, 0].reshape(dims[0], dims[0])
        # svd returns rows of vh as v_k^dag, which is already the conjugate
        b = lead * vh[0, :].reshape(dims[1], dims[1])
        factors = (a, b)
        # direct difference avoids cancellation when the fit is near exact
        residual = float(np.linalg.norm(k - np.kron(a, b)) / math.sqrt(norm2))
        return factors, residual

    # alternating rank-1 fit on the party-operator tensor
    tensor = k.reshape(list(dims) + list(dims))
    tensor = tensor.transpose([ax for t in range(n) for ax in (t, n + t)])
    tensor = tensor.reshape([dd * dd for dd in dims])
    modes = []
    for t in range(n):
        u, s, _ = np.linalg.svd(_realign(k, dims, t), full_matrices=False)
        modes.append(u[:, 0])
    overlap = 0.0
    for _ in range(200):
        prev = overlap
        for t in range(n):
            contracted = tensor
            for s_idx in range(n - 1, -1, -1):
                if s_idx == t:
                    continue
                contracted = np.tensordot(contracted, modes[s_idx].conj(), axes=([s_idx], [0]))
            nrm = np.linalg.norm(contracted)
            if nrm < NORM_ZERO:
                return _zero_factors(dims), 0.0
            modes[t] = contracted / nrm
        full = tensor
        for s_idx in range(n - 1, -1, -1):
            full = np.tensordot(full, modes[s_idx].conj(), axes=([s_idx], [0]))
        overlap = complex(full)
        if abs(abs(overlap) - abs(prev)) <= 1e-13 * max(1.0, abs(overlap)):
            break
    scale = abs(overlap) ** (1.0 / n)
    factors = []
    for t in range(n):
        f = scale * modes[t].reshape(dims[t], dims[t])
        if t == 0 and abs(overlap) > 0:
            f = f * (overlap / abs(overlap))
        factors.append(f)
    residual = float(np.linalg.norm(k - kron_all(factors)) / math.sqrt(norm2))
    return tuple(factors), residual


# ---------------------------------------------------------------------------
# representation search

@dataclass(frozen=True)
class MixingSearchOptions:
    """Search controls for the Kraus-mixing minimization.

    ``extra_operators`` enlarges the isometry to reach representations with
    more Kraus terms.
    """

    extra_operators: int = 0
    restarts: int = 6
    max_iterations: int = 120
    seed: int = 0

    def __post_init__(self):
        if self.extra_operators < 0:
            raise ValueError("extra_operators must be >= 0")


@dataclass(frozen=True)
class ErfEstimate:
    """Outcome of the representation search.

    ``value`` is the best feasible determinant sum found (an upper bound on
    the true resilience factor).  ``search_feasible`` records whether any
    searched alternative met the separability threshold; when none did, the
    value falls back to the given representation.
    """

    value: float
    separability_residual: float
    mixing_isometry: np.ndarray
    search_feasible: bool
    feasible_values: tuple[float, ...]


def _mix(ks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mixed Kraus operators sum_m U_jm K_m, for one isometry or a stack."""
    return np.einsum("...jm,mab->...jab", u, ks)


def _representation_value(joints, dims):
    """Spec objective on projected product factors, plus feasibility data."""
    value = 0.0
    max_residual = 0.0
    for k in joints:
        factors, residual = nearest_product_operator(k, dims)
        max_residual = max(max_residual, residual)
        value += SeparableKrausOperator(factors).det_weight()
    return value, max_residual, max_residual < SEPARABILITY_THRESHOLD


def _libm_square(x: np.ndarray) -> np.ndarray:
    """Squares as the C library's pow rounds them, which is how a numpy
    scalar's ``** 2`` rounds; numpy's array square differs in the last bit on
    about 0.1% of inputs, and the search amplifies such differences."""
    return np.array([math.pow(v, 2.0) for v in x.tolist()])


def _search_objective(ks: np.ndarray, dims, weight: float):
    """Smooth inner objective: |det K~|^(2/D) sum plus split-residual penalty,
    for a stack of mixing isometries.

    The determinant term agrees with the projected-factor objective exactly
    at product operators, which is where the penalty drives the search.  The
    mixed operators of every restart form one stack, so each split costs one
    SVD call and the determinants one call.
    """
    dims_t = tuple(dims)
    n = len(dims_t)
    d = math.prod(dims_t)
    splits = [0] if n == 2 else list(range(n)) if n > 2 else []
    expo = 2.0 / d

    def fun(u, need_grad):
        restarts, j = u.shape[:2]
        kt = _mix(ks, u).reshape(restarts * j, d, d)
        dets = np.linalg.det(kt)
        absdet = np.abs(dets)
        value = np.sum((absdet ** expo).reshape(restarts, j), axis=1)
        norms2 = np.einsum("jab,jab->j", kt, kt.conj()).real
        grads = np.zeros_like(kt) if need_grad else None

        if need_grad:
            live = absdet > DET_ZERO
            if np.any(live):
                adj = adjugate(kt[live])
                coeff = (expo / 2.0) * absdet[live] ** (expo - 2.0) * dets[live]
                grads[live] += coeff[:, None, None] * np.conj(np.transpose(adj, (0, 2, 1)))

        # operators of (numerically) zero norm carry no penalty
        ok = norms2 >= NORM_ZERO ** 2
        norms2_ok = norms2[ok]
        terms = np.zeros((restarts * j, len(splits)))
        for col, t in enumerate(splits):
            r = _realign(kt[ok], dims_t, t)
            if need_grad:
                uu, ss, vvh = np.linalg.svd(r, full_matrices=False)
                s1 = ss[:, 0]
                s1_sq = _libm_square(s1)
                terms[ok, col] = 1.0 - s1_sq / norms2_ok
                # d(s1^2)/dR~ = s1 u1 v1^dag; vvh rows already carry the dagger
                lead = uu[:, :, 0, None] * vvh[:, None, 0, :]
                g_r = (s1_sq / _libm_square(norms2_ok))[:, None, None] * r \
                    - (s1 / norms2_ok)[:, None, None] * lead
                grads[ok] += weight * _unrealign(g_r, dims_t, t)
            else:
                ss = np.linalg.svd(r, compute_uv=False)
                terms[ok, col] = 1.0 - _libm_square(ss[:, 0]) / norms2_ok
        # summed operator by operator, split by split, in order
        penalty = np.add.accumulate(terms.reshape(restarts, -1), axis=1)[:, -1] \
            if splits else np.zeros(restarts)
        value = value + weight * penalty
        if not need_grad:
            return value, None
        gu = np.einsum("mab,njab->njm", ks.conj(), grads.reshape(restarts, j, d, d))
        return value, gu

    return fun


def erf_minimize(channel: SeparableChannel,
                 opts: MixingSearchOptions = MixingSearchOptions(),
                 initial_mixings=()) -> ErfEstimate:
    """Search separable Kraus representations for the smallest decay factor.

    The given representation is always a candidate, so the result can only
    improve on :func:`decay_factor`.  Extra starting isometries (e.g. products
    of locally optimal mixings for tensor-product channels) can be supplied
    through ``initial_mixings``.  Every start, random or supplied, runs each
    penalty stage as one stack.  The physical channel is asserted unchanged
    at every accepted iterate of every start.
    """
    ks = np.stack(channel.joint_ops)
    m = ks.shape[0]
    j = m + opts.extra_operators
    dims = channel.dims
    identity = np.eye(j, m, dtype=np.complex128)

    stream = RandomStream(opts.seed)
    probe = random_density(dims, dims.total, stream.child(0xFEED)).mat
    reference = apply_kraus(channel.joint_ops, probe)

    def assert_channel_preserved(us):
        kt = _mix(ks, us)
        out = np.sum(kt @ probe @ kt.conj().swapaxes(-1, -2), axis=1)
        if np.any(np.linalg.norm(out - reference, axis=(1, 2)) > 1e-8):
            raise RuntimeError("Kraus mixing stopped preserving the channel")

    candidates = []  # (value, residual, isometry, from_search, feasible)
    value0, res0, feas0 = _representation_value(channel.joint_ops, dims)
    candidates.append((value0, res0, identity, False, feas0))

    starts = [random_isometry(j, m, stream.child(i)) for i in range(opts.restarts)]
    starts += [as_complex_matrix(u, j, m) for u in initial_mixings]
    if starts:
        us = np.stack(starts)
        for w in PENALTY_WEIGHTS:
            res = minimize_on_stiefel(_search_objective(ks, dims, w), us,
                                      max_iterations=opts.max_iterations,
                                      gradient_tolerance=1e-10,
                                      callback=assert_channel_preserved)
            us = res.points
        for u in us:
            value, residual, feasible = _representation_value(_mix(ks, u), dims)
            candidates.append((value, residual, u, True, feasible))

    feasible = [c for c in candidates if c[4]]
    search_feasible = any(c[3] for c in feasible)
    pool = feasible if feasible else candidates[:1]
    best = min(pool, key=lambda c: c[0])
    return ErfEstimate(
        value=best[0],
        separability_residual=best[1],
        mixing_isometry=best[2],
        search_feasible=search_feasible,
        feasible_values=tuple(sorted(c[0] for c in feasible)),
    )


# ---------------------------------------------------------------------------
# bounds and the tensor-product inequality

@dataclass(frozen=True)
class ErfBounds:
    """Witness ratios bracketing the resilience factor for one input state."""

    lower: float
    upper: float
    exact: bool


def erf_bounds(channel: SeparableChannel, rho, measure: Measure) -> ErfBounds:
    """Lower/upper witnesses E(L(rho))/E(rho) and sum_m p_m E(sigma_m)/E(rho).

    Exact when every mixed evaluation uses the measure's exact mixed-state
    oracle; otherwise the lower witness rests on a roof upper estimate and
    the pair is flagged heuristic (``exact=False``).
    """
    e_in, _, total, exact = _branch_entanglement(channel, rho, measure)
    rho_mat = rho.density() if isinstance(rho, PureState) else rho
    e_out, out_exact = _mixed_entanglement(measure, apply(channel, rho_mat))
    return ErfBounds(lower=e_out / e_in, upper=total / e_in,
                     exact=exact and out_exact)


@dataclass(frozen=True)
class TensorBoundReport:
    joint_value: float
    local_values: tuple[float, ...]
    product_bound: float
    slack: float
    ok: bool


def tensor_bound_check(local_channels,
                       opts: MixingSearchOptions = MixingSearchOptions()
                       ) -> TensorBoundReport:
    """Check F(joint) <= prod F(local) within 1e-6 on the searched
    representations.

    The joint search is seeded with the tensor product of the locally optimal
    mixings, which is itself a valid separable representation of the joint
    channel, so the inequality holds by construction and the free search can
    only improve it.
    """
    local_channels = list(local_channels)
    locals_found = [erf_minimize(ch, opts) for ch in local_channels]
    joint = tensor_channels(local_channels)
    seed_mixing = locals_found[0].mixing_isometry
    for est in locals_found[1:]:
        seed_mixing = np.kron(seed_mixing, est.mixing_isometry)
    joint_est = erf_minimize(joint, opts, initial_mixings=(seed_mixing,))
    bound = math.prod(est.value for est in locals_found)
    slack = bound - joint_est.value
    return TensorBoundReport(
        joint_value=joint_est.value,
        local_values=tuple(est.value for est in locals_found),
        product_bound=bound,
        slack=slack,
        ok=joint_est.value <= bound + TENSOR_BOUND_TOL,
    )
