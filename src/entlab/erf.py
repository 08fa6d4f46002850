"""Entanglement resilience factor: minimum determinant weight over separable
Kraus representations of a channel.

Every Kraus representation mixes the given list by an isometry U,
``K~_j = sum_m U_jm K_m``.  When, for some party t, the factors K_m^(t) are
linearly independent and so are the products of the other parties' factors,
the only product operators in span{K_m} are multiples of single K_m, so every
separable representation has the given decay factor and that value is exact
(:func:`_products_are_rescaled_kraus`).  Otherwise the roof's search core
searches the ensembles (K~_j x I)|phi+> of the Choi state, whose
``g_concurrence(D)`` roof objective is the determinant sum: separability of
every mixed operator is enforced softly through a graduated penalty on the
realignment terms of :func:`_split_terms`, which also decide feasibility at
the end; a list on one party has no cut and gets the roof's smoothing
instead.  A searched value is an upper estimate: it minimizes over a searched
subset of representations, and since their operators are products only up to
the 1e-6 separability threshold it can also sit slightly below the true
minimum; infeasible searches are reported, never silently rounded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import (SeparableChannel, _evolution_pass, _running_sum,
                       apply_kraus, decay_factor, tensor_channels)
from .linalg import _kron_stacks, as_complex_matrix
from .measures import Measure, g_concurrence
from .roof import _ensemble_objective, _search_core, _smoothing_stages
from .sampling import RandomStream, random_density

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

@functools.cache
def _realign_index(dims: tuple, t: int) -> np.ndarray:
    """Flat indices of the realignment R~ of a D x D operator K around party
    t, R~.flat[i] = K.flat[index.flat[i]]: rows index party t's operator
    entries, columns the rest's."""
    n = len(dims)
    rest = [i for i in range(n) if i != t]
    d = math.prod(dims)
    index = np.arange(d * d).reshape(dims + dims).transpose(
        [t, n + t] + rest + [n + i for i in rest])
    index = index.reshape(dims[t] ** 2, -1)
    index.setflags(write=False)
    return index


def _realign(k: np.ndarray, dims, t: int) -> np.ndarray:
    """Rearrange K so rows index party t's operator entries, columns the
    rest; leading axes of K index a stack of operators."""
    # np.take, not k[..., index]: the contiguous result keeps the rounding
    # of the matmuls that read it
    return np.take(k.reshape(*k.shape[:-2], -1), _realign_index(tuple(dims), t), axis=-1)


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

    s1^2 is the top eigenvalue of R~ R~^dag, whose eigenvector u1 also gives,
    when ``grads`` (shaped as ``kt``) is passed, each term's gradient:
    ``weight`` times it is added into ``grads`` cut by cut, accumulated,
    not returned, since weight*(a+b+c) and weight*a + weight*b + weight*c
    round differently and the search's gradient is the latter.  Both paths
    take s1^2 from the one eigh call, so they give the same terms.
    """
    norms2 = np.einsum("jab,jab->j", kt, kt.conj()).real
    ok = norms2 >= NORM_ZERO ** 2
    norms2_ok = norms2[ok]
    cuts = _cuts(len(dims))
    terms = np.zeros((kt.shape[0], len(cuts)))
    for col, t in enumerate(cuts):
        r = _realign(kt[ok], dims, t)
        lam, u = np.linalg.eigh(r @ r.conj().swapaxes(-1, -2))
        s1_sq = lam[:, -1]
        terms[ok, col] = 1.0 - s1_sq / norms2_ok
        if grads is not None:
            # d(s1^2)/dR~ = s1 u1 v1^dag = u1 u1^dag R~
            u1 = u[:, :, -1]
            lead = u1[:, :, None] * (u1.conj()[:, None, :] @ r)
            g_r = (s1_sq / np.float_power(norms2_ok, 2.0))[:, None, None] * r \
                - (1.0 / norms2_ok)[:, None, None] * lead
            back = np.argsort(_realign_index(tuple(dims), t), axis=None)
            grads[ok] += weight * np.take(g_r.reshape(len(g_r), -1), back,
                                          axis=-1).reshape(-1, *kt.shape[1:])
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
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


@dataclass(frozen=True)
class ErfEstimate:
    """Outcome of the resilience-factor computation.

    ``exact`` is True when the rank test of
    :func:`_products_are_rescaled_kraus` passed: no separable representation
    differs from the given one up to rescaling, so ``value`` is
    :func:`decay_factor` exactly, the mixing is the identity and nothing was
    searched.  Otherwise ``value`` is the best feasible determinant sum the
    roof's search finds on the Choi rows, never above :func:`decay_factor`; it
    can sit below the true value by the slack of the 1e-6 separability
    threshold, and above it when ``M + extra_operators`` terms are too few.
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


def _search_objective(dims, weight: float):
    """The ``g_concurrence(D)`` roof objective of the members K~ / sqrt(D),
    the |det K~|^(2/D) sum, plus ``weight`` times the summed separability
    terms of :func:`_split_terms`, which are scale-free and so are taken on
    the members themselves; their gradients accumulate into the roof's
    gradient rows.
    """
    d = math.prod(dims)
    roof = _ensemble_objective(g_concurrence(d))

    def fun(rows, n, need_grad):
        value, grad = roof(rows, n, need_grad)
        kt = rows.reshape(-1, d, d)
        grads = grad.reshape(kt.shape) if need_grad else None
        terms = _split_terms(kt, dims, grads, weight)
        # summed operator by operator, cut by cut, in order
        penalty = np.add.accumulate(terms.reshape(n, -1), axis=1)[:, -1]
        return value + weight * penalty, (grads.reshape(rows.shape) if need_grad else None)

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
    return any(_full_row_rank(own) and _full_row_rank(rest)
               for own, rest in _cut_rows(channel))


def _cut_rows(channel: SeparableChannel):
    """Per party t, the (M, d_t^2) rows a_m and the rows b_m of the rank
    test, read from the channel's per-party factor stacks; a list on one
    party has the (M, 1) rest rows of ones."""
    m = len(channel)
    rows = [f.reshape(m, 1, -1) for f in channel._factors]
    for t, f in enumerate(channel._factors):
        others = rows[:t] + rows[t + 1:]
        rest = _kron_stacks(others)[:, 0] if others else np.ones((m, 1))
        yield f.reshape(m, -1), rest


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
    through ``initial_mixings``.  The roof's search core runs every start on
    the Choi rows vec(K_m) / sqrt(D) with ``M + extra_operators`` members, in
    the four penalty stages, or in the roof's smoothing stages when the list
    has no cut; the channel is asserted unchanged at every accepted iterate.

    A searched endpoint is feasible when every mixed operator's summed
    separability terms lie below ``SEPARABILITY_THRESHOLD**2``.
    """
    ks = channel.joint_ops
    m = ks.shape[0]
    j = m + opts.extra_operators
    dims = channel.dims
    d = dims.total

    probe = random_density(dims, d, RandomStream(opts.seed).child(0xFEED)).mat
    reference = apply_kraus(ks, probe)

    def assert_channel_preserved(us):
        out = apply_kraus(_mix(ks, us), probe)
        if np.any(np.linalg.norm(out - reference, axis=(1, 2)) > 1e-8):
            raise RuntimeError("Kraus mixing stopped preserving the channel")

    # the given representation is separable by type
    values = np.array([decay_factor(channel)])
    residuals = np.zeros(1)
    isometries = np.eye(j, m, dtype=np.complex128)[None]

    if _cuts(len(dims)):
        stages = [(_search_objective(dims, w), opts.max_iterations)
                  for w in PENALTY_WEIGHTS]
    else:
        # no cut, no penalty: the roof's smoothing over the same budget
        stages = _smoothing_stages(g_concurrence(d),
                                   len(PENALTY_WEIGHTS) * opts.max_iterations)
    starts = [as_complex_matrix(u, j, m) for u in initial_mixings]
    if opts.restarts or starts:
        us = _search_core(ks.reshape(m, d * d) / math.sqrt(d), j, stages, opts,
                          1e-10, starts, assert_channel_preserved)[0].points
        kt = _mix(ks, us)
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
    """Lower/upper witnesses E(L(rho))/E(rho) and sum_m p_m E(sigma_m)/E(rho).

    Both are read from one evolution pass over the branches K_m rho K_m^dag
    (or K_m psi), the pass behind :func:`~entlab.channels.verify_evolution`,
    which also values the output L(rho).  Exact when every mixed evaluation
    uses the measure's exact mixed-state oracle; otherwise the pair rests on
    roof upper estimates and is flagged heuristic (``exact=False``).
    """
    e_in, values, exact, e_out = _evolution_pass(channel, rho, measure, with_output=True)
    return ErfBounds(lower=e_out / e_in, upper=_running_sum(values) / e_in, exact=exact)


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
    only improve it.  The seed has prod_i (M_i + extra_operators) rows, so
    the joint search takes that many operators.
    """
    local_channels = list(local_channels)
    locals_found = [erf_minimize(ch, opts) for ch in local_channels]
    joint = tensor_channels(local_channels)
    seed_mixing = _kron_stacks([est.mixing_isometry for est in locals_found])
    joint_opts = replace(
        opts, extra_operators=seed_mixing.shape[0] - seed_mixing.shape[1])
    joint_est = erf_minimize(joint, joint_opts, initial_mixings=(seed_mixing,))
    bound = math.prod(est.value for est in locals_found)
    slack = bound - joint_est.value
    return TensorBoundReport(
        joint_value=joint_est.value,
        local_values=tuple(est.value for est in locals_found),
        slack=slack,
        ok=joint_est.value <= bound + TENSOR_BOUND_TOL,
    )
