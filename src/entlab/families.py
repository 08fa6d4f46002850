"""Named channel families and reference states used by tests and the CLI."""

from __future__ import annotations

import math

import numpy as np

from .channels import SeparableChannel, SeparableKrausOperator, embed_one_sided
from .linalg import DensityMatrix, LocalDims, PureState, _as_local_dims
from .measures import SIGMA_X, SIGMA_Y, SIGMA_Z
from .sampling import (_haar_unitaries, as_generator, random_haar_unitary,
                       random_isometry)


# --- reference states -------------------------------------------------------

def max_entangled_state(d: int) -> PureState:
    """|Phi+> = sum_k |kk> / sqrt(d) on a d x d bipartite space."""
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return PureState(v, LocalDims((d, d)))


def bell_state() -> PureState:
    return max_entangled_state(2)


def ghz_state() -> PureState:
    v = np.zeros(8, dtype=np.complex128)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    return PureState(v, LocalDims((2, 2, 2)))


def w_state() -> PureState:
    v = np.zeros(8, dtype=np.complex128)
    v[1] = v[2] = v[4] = 1.0 / math.sqrt(3.0)
    return PureState(v, LocalDims((2, 2, 2)))


def werner_state(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4; concurrence max(0, (3p-1)/2)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    phi = bell_state().density().mat
    return DensityMatrix(p * phi + (1.0 - p) * np.eye(4) / 4.0, LocalDims((2, 2)))


def isotropic_state(d: int, q: float) -> DensityMatrix:
    """q |Phi+_d><Phi+_d| + (1-q) I/d^2."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    phi = max_entangled_state(d).density().mat
    return DensityMatrix(q * phi + (1.0 - q) * np.eye(d * d) / (d * d),
                         LocalDims((d, d)))


# --- local Kraus families ---------------------------------------------------

def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("damping strength must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return [k0, k1]


def phase_damping_kraus(p: float) -> list[np.ndarray]:
    if not 0.0 <= p <= 1.0:
        raise ValueError("damping strength must lie in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128)
    k1 = np.array([[0.0, 0.0], [0.0, math.sqrt(p)]], dtype=np.complex128)
    return [k0, k1]


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Qubit depolarizing channel rho -> (1-p) rho + p I/2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    eye = np.eye(2, dtype=np.complex128)
    return [math.sqrt(1.0 - 3.0 * p / 4.0) * eye,
            math.sqrt(p / 4.0) * SIGMA_X,
            math.sqrt(p / 4.0) * SIGMA_Y,
            math.sqrt(p / 4.0) * SIGMA_Z]


def identity_kraus(d: int) -> list[np.ndarray]:
    return [np.eye(d, dtype=np.complex128)]


def random_local_kraus(d: int, count: int, rng) -> list[np.ndarray]:
    """Random CPTP Kraus list on dimension d via a Haar-random isometry."""
    if count < 1:
        raise ValueError("need at least one Kraus operator")
    q = random_isometry(d * count, d, rng)
    return [q[i * d:(i + 1) * d, :] for i in range(count)]


# --- separable channel constructors -----------------------------------------

def identity_channel(dims) -> SeparableChannel:
    dims = _as_local_dims(dims)
    factors = tuple(np.eye(d, dtype=np.complex128) for d in dims)
    return SeparableChannel(dims, (SeparableKrausOperator(factors),))


def bit_flip_correlated(p: float) -> SeparableChannel:
    """Two-qubit channel {sqrt(p) I x I, sqrt(1-p) X x X}.

    Leaves |Phi+> invariant and has unit decay factor; its only separable
    representations are relabelings of this one.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("mixing probability must lie strictly in (0, 1)")
    eye = np.eye(2, dtype=np.complex128)
    ops = (
        SeparableKrausOperator((math.sqrt(p) * eye, eye), label="keep"),
        SeparableKrausOperator((math.sqrt(1.0 - p) * SIGMA_X, SIGMA_X), label="flip"),
    )
    return SeparableChannel(LocalDims((2, 2)), ops)


def random_unitary_separable(dims, count: int, rng) -> SeparableChannel:
    """sqrt(p_m) U_m^(1) x ... x U_m^(n) with random weights and unitaries."""
    dims = _as_local_dims(dims)
    g = as_generator(rng)
    w = g.dirichlet(np.ones(count))
    ops = []
    for m in range(count):
        factors = [random_haar_unitary(d, g) for d in dims]
        factors[0] = math.sqrt(w[m]) * factors[0]
        ops.append(SeparableKrausOperator(tuple(factors)))
    return SeparableChannel(dims, tuple(ops))


def _correlated_factors(dims, count: int, g, singular: bool = False
                        ) -> list[list[np.ndarray]]:
    """Factor lists of a correlated separable channel drawn from g: one party
    carries a genuine local channel, the remaining parties see a different
    random unitary per branch.

    Closure holds because the unitary factors drop out of K^dag K.  With
    ``singular=True`` the noisy party uses amplitude damping (padded with
    unitary branches), exercising zero-determinant Kraus operators.
    """
    party = int(g.integers(dims.n_parties))
    d = dims[party]
    if singular and d == 2 and count >= 2:
        gamma = float(g.uniform(0.2, 0.8))
        local = amplitude_damping_kraus(gamma)
        while len(local) < count:
            # split the first operator into two unitarily-mixed halves
            a = local.pop(0)
            local = [a / math.sqrt(2.0), random_haar_unitary(d, g) @ a / math.sqrt(2.0)] + local
    else:
        local = random_local_kraus(d, count, g)
    # every bystander unitary from one block of normals, drawn branch by
    # branch and party by party as one draw per unitary would take them
    others = [i for i in range(dims.n_parties) if i != party]
    sizes = [2 * dims[i] ** 2 for i in others]
    normals = np.split(g.standard_normal((len(local), sum(sizes))),
                       np.cumsum(sizes)[:-1], axis=1)
    unitaries = {i: _haar_unitaries(block.reshape(-1, 2, dims[i], dims[i]))
                 for i, block in zip(others, normals)}
    return [[unitaries[i][m] if i != party else k for i in range(dims.n_parties)]
            for m, k in enumerate(local)]


def random_separable_channel(dims, count: int, rng) -> SeparableChannel:
    """Random separable channel with the requested number of Kraus operators.

    Mixes three constructions: correlated local noise with unitary
    bystanders, a convex mixture of two such channels, and (sometimes)
    branches with singular factors.
    """
    dims = _as_local_dims(dims)
    g = as_generator(rng)
    if count < 1:
        raise ValueError("need at least one Kraus operator")
    style = g.integers(3)
    if style == 0 or count < 2:
        factor_lists = _correlated_factors(dims, count, g)
    elif style == 1:
        factor_lists = _correlated_factors(dims, count, g, singular=True)
    else:
        n1 = int(g.integers(1, count))
        lam = float(g.uniform(0.2, 0.8))
        factor_lists = []
        for weight, part in ((lam, n1), (1.0 - lam, count - n1)):
            for factors in _correlated_factors(dims, part, g):
                factor_lists.append([math.sqrt(weight) * factors[0]] + factors[1:])
    return SeparableChannel(dims, tuple(SeparableKrausOperator(tuple(f))
                                        for f in factor_lists))


# Registry used by the command-line harness: name -> (builder, kind).
# Channel families take the parameter value; state families likewise.
CHANNEL_FAMILIES = {
    "identity": lambda param, dims: identity_channel(dims),
    "bit-flip-correlated": lambda param, dims: bit_flip_correlated(param),
    "depolarizing": lambda param, dims: embed_one_sided(
        depolarizing_kraus(param), 0, dims),
    "amplitude-damping": lambda param, dims: embed_one_sided(
        amplitude_damping_kraus(param), 0, dims),
    "phase-damping": lambda param, dims: embed_one_sided(
        phase_damping_kraus(param), 0, dims),
}

LOCAL_FAMILIES = {
    "identity": lambda param=None: identity_kraus(2),
    "depolarizing": depolarizing_kraus,
    "amplitude-damping": amplitude_damping_kraus,
    "phase-damping": phase_damping_kraus,
}

STATE_FAMILIES = {
    "bell": lambda param=None: bell_state(),
    "ghz": lambda param=None: ghz_state(),
    "w": lambda param=None: w_state(),
    "werner": lambda param=0.5: werner_state(param),
}
