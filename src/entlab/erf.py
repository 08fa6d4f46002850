"""Entanglement resilience factor: minimum determinant weight over separable
Kraus representations of a channel.

Every Kraus representation mixes the given list by an isometry U,
``K~_j = sum_m U_jm K_m``.  When, for some party t, the factors K_m^(t) are
linearly independent and so are the products of the other parties' factors,
the only product operators in span{K_m} are multiples of single K_m, so every
separable representation has the given decay factor and that value is exact
(:func:`_products_are_rescaled_kraus`).  Otherwise the isometries are
searched: separability of every mixed operator is enforced softly through a
graduated penalty on the realignment terms of :func:`_split_terms`, and the
same terms decide feasibility at the end.  A searched value is an upper
estimate: it minimizes over a searched subset of representations, and since
their operators are products only up to the 1e-6 separability threshold it
can also sit slightly below the true minimum; infeasible searches are
reported, never silently rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (SeparableChannel, _mixed_entanglement, apply,
                       apply_kraus, decay_factor, tensor_channels,
                       verify_evolution)
from .linalg import PureState, as_complex_matrix
from .measures import Measure, adjugate
from .sampling import RandomStream, random_density, random_isometry
from .stiefel import minimize_on_stiefel

DET_ZERO = 1e-200
NORM_ZERO = 1e-14
# strictly increasing weights of the graduated separability penalty
PENALTY_WEIGHTS = (10.0, 100.0, 1000.0, 10000.0)
SEPARABILITY_THRESHOLD = 1e-6
TENSOR_BOUND_TOL = 1e-6
# smallest singular value of a row-normalised factor stack that counts as full
# row rank; a stack nearer to deficient than this keeps the search
RANK_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# realignment

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


def _cuts(n: int) -> list[int]:
    """Parties t whose realignment the separability terms use: the one cut
    of two parties, every single-party cut of three or more, none of one."""
    return [0] if n == 2 else list(range(n)) if n > 2 else []


def _split_terms(kt: np.ndarray, dims, grads=None, weight=1.0) -> np.ndarray:
    """Separability terms 1 - s1^2/||K||^2 of a stack of operators, one
    column per cut of :func:`_cuts`, where s1 is the leading singular value
    of K realigned around party t.

    A term vanishes exactly when K factors across its cut; for two parties
    its square root is the relative distance ||K - A x B|| / ||K|| to the
    nearest product (Eckart-Young).  Operators of (numerically) zero norm
    carry no terms.

    Given ``grads``, shaped as ``kt``, the full SVD also gives each term's
    gradient, and ``weight`` times it is added into ``grads`` cut by cut:
    accumulated, not returned, since weight*(a+b+c) and weight*a + weight*b
    + weight*c round differently and the search's gradient is the latter.
    """
    norms2 = np.einsum("jab,jab->j", kt, kt.conj()).real
    ok = norms2 >= NORM_ZERO ** 2
    norms2_ok = norms2[ok]
    cuts = _cuts(len(dims))
    terms = np.zeros((kt.shape[0], len(cuts)))
    for col, t in enumerate(cuts):
        r = _realign(kt[ok], dims, t)
        if grads is None:
            ss = np.linalg.svd(r, compute_uv=False)
        else:
            uu, ss, vvh = np.linalg.svd(r, full_matrices=False)
        s1 = ss[:, 0]
        # libm's pow, as a numpy scalar's ** 2; x * x differs in the last bit
        s1_sq = np.float_power(s1, 2.0)
        terms[ok, col] = 1.0 - s1_sq / norms2_ok
        if grads is not None:
            # d(s1^2)/dR~ = s1 u1 v1^dag; vvh rows already carry the dagger
            lead = uu[:, :, 0, None] * vvh[:, None, 0, :]
            g_r = (s1_sq / np.float_power(norms2_ok, 2.0))[:, None, None] * r \
                - (s1 / norms2_ok)[:, None, None] * lead
            grads[ok] += weight * _unrealign(g_r, dims, t)
    return terms


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
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")


@dataclass(frozen=True)
class ErfEstimate:
    """Outcome of the resilience-factor computation.

    ``exact`` is True when the rank test of
    :func:`_products_are_rescaled_kraus` passed: no separable representation
    differs from the given one up to rescaling, so ``value`` is
    :func:`decay_factor` exactly, the mixing is the identity and nothing was
    searched.  Otherwise ``value`` is the best feasible determinant sum found,
    never above :func:`decay_factor`; such a searched value can sit below the
    true resilience factor by the slack of the 1e-6 separability threshold.
    ``separability_residual`` is the square root of the chosen
    representation's largest summed separability term (0 for the given one).
    ``search_feasible`` records whether any searched alternative met the
    threshold; when none did, the value falls back to the given representation.
    """

    value: float
    separability_residual: float
    mixing_isometry: np.ndarray
    feasible_values: tuple[float, ...]
    exact: bool

    @property
    def search_feasible(self) -> bool:
        """Whether a searched alternative joined the given representation
        among the feasible values."""
        return len(self.feasible_values) > 1


def _mix(ks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Mixed Kraus operators sum_m U_jm K_m, for one isometry or a stack."""
    return np.einsum("...jm,mab->...jab", u, ks)


def _search_objective(ks: np.ndarray, dims, weight: float):
    """Smooth inner objective: |det K~|^(2/D) sum plus the weighted sum of the
    separability terms of :func:`_split_terms`, for a stack of mixing
    isometries.

    The mixed operators of every restart form one stack, so each cut costs
    one SVD call and the determinants one call.
    """
    dims_t = tuple(dims)
    d = math.prod(dims_t)
    expo = 2.0 / d

    def fun(u, need_grad):
        restarts, j = u.shape[:2]
        kt = _mix(ks, u).reshape(restarts * j, d, d)
        dets = np.linalg.det(kt)
        absdet = np.abs(dets)
        value = np.sum((absdet ** expo).reshape(restarts, j), axis=1)
        grads = None
        if need_grad:
            grads = np.zeros_like(kt)
            live = absdet > DET_ZERO
            adj = adjugate(kt[live])
            coeff = (expo / 2.0) * absdet[live] ** (expo - 2.0) * dets[live]
            grads[live] += coeff[:, None, None] * np.conj(np.transpose(adj, (0, 2, 1)))
        terms = _split_terms(kt, dims_t, grads, weight)
        # summed operator by operator, cut by cut, in order
        penalty = np.add.accumulate(terms.reshape(restarts, -1), axis=1)[:, -1] \
            if terms.size else np.zeros(restarts)
        value = value + weight * penalty
        if not need_grad:
            return value, None
        gu = np.einsum("mab,njab->njm", ks.conj(), grads.reshape(restarts, j, d, d))
        return value, gu

    return fun


def _full_row_rank(rows: np.ndarray) -> bool:
    """Whether the rows, each scaled to unit norm, have smallest singular
    value above ``RANK_THRESHOLD``; a zero row or more rows than columns
    fails."""
    norms = np.linalg.norm(rows, axis=1)
    if rows.shape[0] > rows.shape[1] or np.any(norms < NORM_ZERO):
        return False
    return bool(np.linalg.svd(rows / norms[:, None], compute_uv=False)[-1] > RANK_THRESHOLD)


def _products_are_rescaled_kraus(channel: SeparableChannel) -> bool:
    """Rank test: the only product operators in span{K_m} are multiples of
    single K_m.

    Realigned around party t, K_m is the rank-one a_m b_m^T with a_m the
    vectorised factor K_m^(t) and b_m the vectorised product of the other
    factors.  When the a_m are linearly independent and so are the b_m,
    sum_m c_m a_m b_m^T has rank equal to the number of nonzero c_m, so it is
    a product across that cut only when one c_m is nonzero (Kruskal, Linear
    Algebra Appl. 18, 95 (1977)).  The test passes when some party t
    qualifies.
    """
    factors = [[f.reshape(-1) for f in op.factors] for op in channel.ops]
    for t in range(len(channel.dims)):
        own = np.stack([fs[t] for fs in factors])
        rest = np.stack([functools.reduce(np.kron, fs[:t] + fs[t + 1:], np.ones(1))
                         for fs in factors])
        if _full_row_rank(own) and _full_row_rank(rest):
            return True
    return False


def erf_minimize(channel: SeparableChannel,
                 opts: MixingSearchOptions = MixingSearchOptions(),
                 initial_mixings=()) -> ErfEstimate:
    """Smallest decay factor over the separable Kraus representations.

    When the rank test of :func:`_products_are_rescaled_kraus` passes, every
    separable representation rescales the given operators, whose squared
    weights sum to one per operator, so the result is :func:`decay_factor`
    exactly (``exact=True``) and no search runs.  Otherwise
    :func:`_search_mixings` searches, with ``exact=False``.
    """
    if not _products_are_rescaled_kraus(channel):
        return _search_mixings(channel, opts, initial_mixings)
    m = len(channel)
    value = decay_factor(channel)
    return ErfEstimate(
        value=value,
        separability_residual=0.0,
        mixing_isometry=np.eye(m + opts.extra_operators, m, dtype=np.complex128),
        feasible_values=(value,),
        exact=True,
    )


def _search_mixings(channel: SeparableChannel, opts: MixingSearchOptions,
                    initial_mixings=()) -> ErfEstimate:
    """Search separable Kraus representations for the smallest decay factor.

    The given representation is always a candidate, so the result never
    exceeds :func:`decay_factor`.  Extra starting isometries (e.g. products
    of locally optimal mixings for tensor-product channels) can be supplied
    through ``initial_mixings``.  Every start, random or supplied, runs each
    penalty stage as one stack.  The physical channel is asserted unchanged
    at every accepted iterate of every start.

    A searched endpoint is feasible when every mixed operator's summed
    separability terms lie below ``SEPARABILITY_THRESHOLD**2``.
    """
    ks = channel.joint_ops
    m = ks.shape[0]
    j = m + opts.extra_operators
    dims = channel.dims
    identity = np.eye(j, m, dtype=np.complex128)

    stream = RandomStream(opts.seed)
    probe = random_density(dims, dims.total, stream.child(0xFEED)).mat
    reference = apply_kraus(ks, probe)

    def assert_channel_preserved(us):
        out = apply_kraus(_mix(ks, us), probe)
        if np.any(np.linalg.norm(out - reference, axis=(1, 2)) > 1e-8):
            raise RuntimeError("Kraus mixing stopped preserving the channel")

    # the given representation is separable by type
    values = np.array([decay_factor(channel)])
    residuals = np.zeros(1)
    isometries = identity[None]

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
        kt = _mix(ks, us)
        d = dims.total
        worst = np.max(np.sum(_split_terms(kt.reshape(-1, d, d), dims), axis=1)
                       .reshape(len(us), j), axis=1)
        feasible = worst < SEPARABILITY_THRESHOLD ** 2
        searched = np.sum(np.abs(np.linalg.det(kt)) ** (2.0 / d), axis=1)
        values = np.concatenate((values, searched[feasible]))
        residuals = np.concatenate((residuals, np.sqrt(np.maximum(worst[feasible], 0.0))))
        isometries = np.concatenate((isometries, us[feasible]))

    best = int(np.argmin(values))
    return ErfEstimate(
        value=float(values[best]),
        separability_residual=float(residuals[best]),
        mixing_isometry=isometries[best],
        feasible_values=tuple(sorted(values.tolist())),
        exact=False,
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
    """Lower/upper witnesses E(L(rho))/E(rho) and sum_m p_m E(sigma_m)/E(rho),
    the upper one read from :func:`verify_evolution`'s report.

    Exact when every mixed evaluation uses the measure's exact mixed-state
    oracle; otherwise the lower witness rests on a roof upper estimate and
    the pair is flagged heuristic (``exact=False``).
    """
    report = verify_evolution(channel, rho, measure)
    e_in = report.input_entanglement
    rho_mat = rho.density() if isinstance(rho, PureState) else rho
    e_out, out_exact = _mixed_entanglement(measure, apply(channel, rho_mat))
    return ErfBounds(lower=e_out / e_in,
                     upper=report.average_output_entanglement / e_in,
                     exact=report.exact and out_exact)


@dataclass(frozen=True)
class TensorBoundReport:
    joint_value: float
    local_values: tuple[float, ...]
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
    seed_mixing = functools.reduce(np.kron, [est.mixing_isometry for est in locals_found])
    joint_est = erf_minimize(joint, opts, initial_mixings=(seed_mixing,))
    bound = math.prod(est.value for est in locals_found)
    slack = bound - joint_est.value
    return TensorBoundReport(
        joint_value=joint_est.value,
        local_values=tuple(est.value for est in locals_found),
        slack=slack,
        ok=joint_est.value <= bound + TENSOR_BOUND_TOL,
    )
