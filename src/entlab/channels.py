"""Separable CPTP operations as lists of product Kraus operators.

A separable channel stores each Kraus operator as one square factor per
party, stacked per party once at construction; the joint operators are the
tensor products of the factors.  The decay factor
``sum_m prod_i |det K_m^(i)|**(2/d_i)`` ties the average output
entanglement of any SL-invariant measure to the input entanglement.

One function forms the branches K_m psi or K_m rho K_m^dag of a state as one
stack, and is the one check of the state's dims against the channel's;
``apply`` and ``outcomes`` read it, and so does one evolution pass, the one
place that tells pure inputs from mixed ones.  The pass values a pure
input's branches in one polynomial batch and a mixed input's in one density
check and one call of the measure's exact mixed-state oracle.
``verify_evolution`` checks the identity outcome by outcome from the pass;
the resilience factor's witness bounds read the same pass, which then also
values the output L(rho).  The module also holds the JSON forms of channels
and states.

Channels and reports are immutable values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (DensityMatrix, LocalDims, PureState, _as_local_dims,
                     _checked_densities, _kron_stacks, _vdots, as_complex_matrix,
                     kron_all)
from .measures import Measure, _value_of_poly, measure_pure
from .roof import convex_roof

CLOSURE_TOL = 1e-10
NULL_OUTCOME_TOL = 1e-12
MIN_INPUT_ENTANGLEMENT = 1e-8
RANDOM_UNITARY_TOL = 1e-10


def _weight_of_dets(dets, dims) -> float:
    """prod_i |det_i|**(2/d_i) as numpy scalar operations in party order:
    numpy's array power rounds differently from its scalar one."""
    w = 1.0
    for det, d in zip(dets, dims):
        w *= abs(det) ** (2.0 / d)
    return w


@dataclass(frozen=True)
class SeparableKrausOperator:
    """One Kraus operator stored as an n-tuple of square local factors."""

    factors: tuple[np.ndarray, ...]
    label: str | None = None

    def __post_init__(self):
        factors = tuple(as_complex_matrix(f) for f in self.factors)
        if not factors:
            raise ValueError("a Kraus operator needs at least one factor")
        for i, f in enumerate(factors):
            if f.shape[0] != f.shape[1]:
                raise ValueError(f"factor {i} must be square, got {f.shape}")
        for f in factors:
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def joint(self) -> np.ndarray:
        return kron_all(self.factors)

    def det_weight(self) -> float:
        """prod_i |det factor_i|**(2/d_i), the operator's decay weight."""
        return _weight_of_dets([np.linalg.det(f) for f in self.factors], self.dims)


@dataclass(frozen=True)
class SeparableChannel:
    """Separable operation given by product Kraus operators.

    Construction checks structure (factor counts and shapes); the closure
    condition is checked by :func:`validate`, so intentionally broken
    channels can still be built and diagnosed.

    Construction also stacks each party's factors once, as a read-only
    (M, d_i, d_i) array in the private ``_factors`` tuple.  These stacks are
    the one source for the joint operators, :func:`det_weights`,
    :func:`is_random_unitary` and the resilience factor's rank test.
    """

    dims: LocalDims
    ops: tuple[SeparableKrausOperator, ...]

    def __post_init__(self):
        dims = _as_local_dims(self.dims)
        ops = tuple(self.ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for m, op in enumerate(ops):
            if op.dims != dims.dims:
                raise ValueError(
                    f"Kraus operator {m} has factor dimensions {op.dims}, "
                    f"channel dims are {dims.dims}"
                )
        # one (M, d_i, d_i) stack per party; the joint stack is their
        # left-to-right Kronecker product member by member, as kron_all gives it
        factors = tuple(np.stack([op.factors[i] for op in ops])
                        for i in range(dims.n_parties))
        joints = _kron_stacks(factors)
        for a in factors + (joints,):
            a.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_joints", joints)

    @property
    def joint_ops(self) -> np.ndarray:
        """The joint operators as one read-only (M, D, D) stack, built once."""
        return self._joints

    def __len__(self):
        return len(self.ops)


@dataclass(frozen=True)
class ChannelDiagnostics:
    closure_residual: float
    ok: bool
    issues: tuple[str, ...] = ()


@dataclass(frozen=True)
class Outcome:
    """One measurement branch: probability and (normalized) post state.

    Branches with probability <= 1e-12 keep their probability but carry no
    state; they contribute zero entanglement by convention.
    """

    probability: float
    state: DensityMatrix | None


@dataclass(frozen=True)
class OutcomeEnsemble:
    outcomes: tuple[Outcome, ...]

    @property
    def total_probability(self) -> float:
        return _running_sum(o.probability for o in self.outcomes)


@dataclass(frozen=True)
class EvolutionReport:
    """Outcome-by-outcome check of the determinant decay identity."""

    decay: float
    per_outcome_residuals: tuple[float, ...]
    aggregate_residual: float
    input_entanglement: float
    average_output_entanglement: float
    exact: bool


def _running_sum(values) -> float:
    """Left-to-right sum; the builtin sum() compensates on Python >= 3.12."""
    total = 0.0
    for v in values:
        total += v
    return float(total)


def _closure_residual(ops, d: int) -> float:
    """Frobenius norm of ``sum_k K_k^dag K_k - I`` on dimension d."""
    ks = np.asarray(ops, dtype=np.complex128)
    acc = np.sum(ks.conj().swapaxes(-1, -2) @ ks, axis=0, initial=0.0)
    return float(np.linalg.norm(acc - np.eye(d)))


def validate(channel: SeparableChannel) -> ChannelDiagnostics:
    """Closure diagnostics; a channel is accepted iff the Frobenius residual
    of ``sum_m K_m^dag K_m - I`` is below 1e-10."""
    residual = _closure_residual(channel.joint_ops, channel.dims.total)
    issues = ()
    if residual >= CLOSURE_TOL:
        issues = (f"closure residual {residual:.3e} exceeds {CLOSURE_TOL:.0e}",)
    return ChannelDiagnostics(closure_residual=residual,
                              ok=residual < CLOSURE_TOL, issues=issues)


def apply_kraus(ops, mat: np.ndarray) -> np.ndarray:
    """sum_m K_m mat K_m^dag for joint-space operators.

    ``ops`` is a list of D x D operators or a (..., M, D, D) stack; the sum
    runs over the operator axis M, so a stack with leading axes gives one
    D x D sum per leading index, each equal to the call on that slice alone.
    """
    ks = np.asarray(ops, dtype=np.complex128)
    # one operator after another onto +0.0, so even signed zeros match a += loop
    return np.sum(ks @ mat @ ks.conj().swapaxes(-1, -2), axis=-3, initial=0.0)


def _branches(channel: SeparableChannel, state) -> np.ndarray:
    """The branch stack of ``state`` under ``channel``: K_m psi per operator,
    an (M, D) stack, for a PureState; K_m rho K_m^dag, an (M, D, D) stack,
    for a DensityMatrix.  The one check of the state's dims against the
    channel's."""
    if state.dims.dims != channel.dims.dims:
        raise ValueError(f"state dims do not match channel dims: {state.dims.dims} "
                         f"against {channel.dims.dims}")
    ks = channel.joint_ops
    if isinstance(state, PureState):
        return ks @ state.amps
    return ks @ state.mat @ ks.conj().swapaxes(-1, -2)


def apply(channel: SeparableChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel action on a density matrix; trace is preserved."""
    # summed onto +0.0 operator by operator, as apply_kraus sums
    out = np.sum(_branches(channel, rho), axis=-3, initial=0.0)
    return DensityMatrix(out, rho.dims, unit_trace=rho.unit_trace)


def outcomes(channel: SeparableChannel, rho: DensityMatrix) -> OutcomeEnsemble:
    """The ensemble {(p_m, sigma_m)} with p_m sigma_m = K_m rho K_m^dag."""
    outs = []
    for branch in _branches(channel, rho):
        p = float(np.trace(branch).real)
        if p > NULL_OUTCOME_TOL:
            outs.append(Outcome(p, DensityMatrix(branch / p, rho.dims)))
        else:
            outs.append(Outcome(max(p, 0.0), None))
    return OutcomeEnsemble(tuple(outs))


def det_weights(channel: SeparableChannel) -> list:
    """Each operator's :meth:`~SeparableKrausOperator.det_weight`, from one
    stacked det per party."""
    dets = [np.linalg.det(f) for f in channel._factors]
    return [_weight_of_dets(row, channel.dims.dims) for row in zip(*dets)]


def decay_factor(channel: SeparableChannel) -> float:
    """sum_m prod_i |det K_m^(i)|**(2/d_i) for this representation."""
    return _running_sum(det_weights(channel))


def _require_input_entanglement(e_in: float) -> None:
    if e_in <= MIN_INPUT_ENTANGLEMENT:
        raise ValueError(
            "input entanglement vanishes; the evolution identity requires a "
            "nonzero input value"
        )


def _evolution_pass(channel: SeparableChannel, rho, measure: Measure,
                    with_output: bool):
    """The values behind :func:`verify_evolution` and the resilience
    factor's witness bounds, from one branch stack of :func:`_branches`.

    Returns (E(rho), the p_m E(sigma_m) per operator with 0 for null
    branches (p_m <= 1e-12), whether every value is exact, E(L(rho)) or
    None).  A pure input's branches K_m psi are valued exactly in one
    polynomial batch; with ``with_output``, L(psi psi^dag) as :func:`apply`
    gives it is valued by the measure's exact mixed-state oracle, else by
    :func:`convex_roof` at the default options.  A mixed input's live
    branches, normalized, are checked as one stack and, with the oracle,
    valued together with rho in one call; without one, each gets its own
    roof once rho's roof has shown a nonzero input.  With ``with_output``
    the stack also carries L(rho), the branch sum.
    """
    measure.check_dims(channel.dims)
    branches = _branches(channel, rho)
    if isinstance(rho, PureState):
        e_in = measure_pure(measure, rho)
        _require_input_entanglement(e_in)
        if not np.all(np.isfinite(branches)):
            raise ValueError("amplitudes must be finite")
        live = _vdots(branches, branches) > NULL_OUTCOME_TOL
        values = [_value_of_poly(measure, f) if keep else 0.0
                  for f, keep in zip(measure.eval_poly_batch(branches), live)]
        if not with_output:
            return e_in, values, True, None
        out = apply(channel, rho.density())
        if measure.exact_mixed is not None:
            return e_in, values, True, float(measure.exact_mixed(out.mat[None])[0])
        return e_in, values, False, convex_roof(measure, out).value
    p = branches.diagonal(0, -2, -1).sum(-1).real
    live = p > NULL_OUTCOME_TOL
    mats = branches[live] / p[live, None, None]
    n = len(mats)
    unit = True
    if with_output:
        mats = np.concatenate((mats, np.sum(branches, axis=-3, initial=0.0)[None]))
        # the normalized branches have unit trace, L(rho) has rho's trace
        unit = rho.unit_trace or np.arange(n + 1) < n
    states = _checked_densities(mats, unit)
    if measure.exact_mixed is not None:
        vals = measure.exact_mixed(np.concatenate((rho.mat[None], states)))
        e_in, vals, exact = float(vals[0]), vals[1:], True
        _require_input_entanglement(e_in)
    else:
        e_in, exact = convex_roof(measure, rho).value, False
        _require_input_entanglement(e_in)
        vals = np.array([convex_roof(measure, DensityMatrix(s, rho.dims, bool(u))).value
                         for s, u in zip(states, np.broadcast_to(unit, len(states)))])
    values = np.zeros(len(p))
    values[live] = p[live] * vals[:n]
    return e_in, values.tolist(), exact, float(vals[-1]) if with_output else None


def verify_evolution(channel: SeparableChannel, rho,
                     measure: Measure) -> EvolutionReport:
    """Check p_m E(sigma_m) = prod_i |det K_m^(i)|**(2/d_i) * E(rho) per outcome.

    ``rho`` may be a PureState (exact for every compatible measure) or a
    DensityMatrix (exact only with the measure's exact mixed-state oracle;
    any other mixed evaluation is a roof upper estimate and the report is
    flagged ``exact=False``).  Branches with p_m <= 1e-12 contribute zero.
    Raises if the input entanglement is <= 1e-8, since the identity presumes
    a nonzero denominator.
    """
    e_in, values, exact, _ = _evolution_pass(channel, rho, measure, with_output=False)
    total = _running_sum(values)
    weights = det_weights(channel)
    decay = _running_sum(weights)
    return EvolutionReport(
        decay=decay,
        per_outcome_residuals=tuple(abs(lhs - w * e_in)
                                    for w, lhs in zip(weights, values)),
        aggregate_residual=abs(total - decay * e_in),
        input_entanglement=e_in,
        average_output_entanglement=total,
        exact=exact,
    )


def is_random_unitary(channel: SeparableChannel) -> bool:
    """True iff every local factor K satisfies K^dag K = c I with c > 0,
    within 1e-10 * max(1, c) in Frobenius norm."""
    for f in channel._factors:
        d = f.shape[-1]
        a = f.conj().swapaxes(-1, -2) @ f
        c = np.trace(a, axis1=-2, axis2=-1).real / d
        if np.any(c <= 0.0):
            return False
        residual = np.linalg.norm(a - c[:, None, None] * np.eye(d), axis=(-2, -1))
        if np.any(residual > RANDOM_UNITARY_TOL * np.maximum(1.0, c)):
            return False
    return True


def embed_one_sided(local_ops, party: int, dims) -> SeparableChannel:
    """Lift a single-party Kraus list to the full space, identity elsewhere."""
    dims = _as_local_dims(dims)
    if not 0 <= party < dims.n_parties:
        raise ValueError(f"party {party} out of range for {dims.n_parties} parties")
    d = dims[party]
    local = [as_complex_matrix(k, d, d) for k in local_ops]
    if not local:
        raise ValueError("local Kraus list needs at least one Kraus operator")
    residual = _closure_residual(local, d)
    if residual >= CLOSURE_TOL:
        raise ValueError(
            f"local Kraus list does not close on dimension {d}: residual {residual:.3e}"
        )
    ops = []
    for k in local:
        factors = [np.eye(dims[i], dtype=np.complex128) for i in range(dims.n_parties)]
        factors[party] = k
        ops.append(SeparableKrausOperator(tuple(factors)))
    return SeparableChannel(dims, tuple(ops))


def tensor_channels(channels) -> SeparableChannel:
    """Tensor product of independent channels on disjoint party groups.

    The Kraus list is the Cartesian product of the local lists, indexed
    lexicographically by (j_1, ..., j_n).
    """
    channels = list(channels)
    if not channels:
        raise ValueError("need at least one channel")
    dims = LocalDims(tuple(d for ch in channels for d in ch.dims))
    ops = []
    for combo in itertools.product(*(ch.ops for ch in channels)):
        factors = tuple(f for op in combo for f in op.factors)
        ops.append(SeparableKrausOperator(factors))
    return SeparableChannel(dims, tuple(ops))


# ---------------------------------------------------------------------------
# JSON interchange (shared with the command-line harness).  Complex entries
# are [re, im] pairs, matrices are row-major nested lists.

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _matrix_from_json(rows) -> np.ndarray:
    try:
        m = np.array([[complex(e[0], e[1]) for e in row] for row in rows],
                     dtype=np.complex128)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    return as_complex_matrix(m)


def _dims_from_json(value) -> LocalDims:
    """The 'dims' entry: a list of integers.  Strings, bools and non-integral
    numbers are refused, not coerced ("22" is not (2, 2))."""
    if not isinstance(value, (list, tuple)) or not all(
            (isinstance(d, int) and not isinstance(d, bool))
            or (isinstance(d, float) and d.is_integer()) for d in value):
        raise ValueError(f"'dims' must be a list of integers, got {value!r}")
    return LocalDims(tuple(int(d) for d in value))


def state_to_json(state) -> dict:
    """Dict form of a pure state (amplitude list) or a density matrix."""
    if isinstance(state, PureState):
        return {"dims": list(state.dims.dims), "type": "pure",
                "data": _matrix_to_json(state.amps[None, :])[0]}
    if isinstance(state, DensityMatrix):
        return {"dims": list(state.dims.dims), "type": "mixed",
                "data": _matrix_to_json(state.mat)}
    raise ValueError(f"cannot serialize {type(state)!r} as a state")


def state_from_json(data: dict):
    """Parse the dict form produced by :func:`state_to_json`."""
    if not isinstance(data, dict) or not {"dims", "type", "data"} <= data.keys():
        raise ValueError("state JSON needs 'dims', 'type' and 'data' keys")
    dims = _dims_from_json(data["dims"])
    kind = data["type"]
    if kind == "pure":
        return PureState(_matrix_from_json([data["data"]])[0], dims)
    if kind == "mixed":
        return DensityMatrix(_matrix_from_json(data["data"]), dims)
    raise ValueError(f"unknown state type {kind!r}")


def channel_to_json(channel: SeparableChannel) -> dict:
    """Dict form of a channel, ready for json.dump."""
    ops = []
    for op in channel.ops:
        entry = {"factors": [_matrix_to_json(f) for f in op.factors]}
        if op.label is not None:
            entry["label"] = op.label
        ops.append(entry)
    return {"dims": list(channel.dims.dims), "ops": ops}


def channel_from_json(data: dict) -> SeparableChannel:
    """Parse the dict form produced by :func:`channel_to_json`."""
    if not isinstance(data, dict) or "dims" not in data or "ops" not in data:
        raise ValueError("channel JSON needs 'dims' and 'ops' keys")
    dims = _dims_from_json(data["dims"])
    ops = []
    for m, entry in enumerate(data["ops"]):
        if "factors" not in entry:
            raise ValueError(f"op {m}: missing 'factors'")
        factors = tuple(_matrix_from_json(f) for f in entry["factors"])
        if len(factors) != dims.n_parties:
            raise ValueError(
                f"op {m}: {len(factors)} factors for {dims.n_parties} parties"
            )
        ops.append(SeparableKrausOperator(factors, label=entry.get("label")))
    return SeparableChannel(dims, tuple(ops))
