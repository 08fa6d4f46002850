"""SL-invariant pure-state entanglement measures.

Every measure here has the form ``scale * |f(psi)|**(2/degree)`` where ``f``
is a polynomial of the stated degree in the amplitudes, invariant under
determinant-1 local transformations.  With the exponent 2/degree the value is
homogeneous of degree 1 in the density operator, which is what makes the
evolution identities of the channel module exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DensityMatrix, LocalDims, PureState, _as_local_dims

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

# sigma_y (x) sigma_y, the symmetric bilinear form behind the two-qubit
# concurrence.  Real-valued: [[0,0,0,-1],[0,0,1,0],[0,1,0,0],[-1,0,0,0]].
_YY = np.kron(SIGMA_Y, SIGMA_Y).real.astype(np.complex128)

_FD_STEP = 1e-6
SL_INVARIANCE_TRIALS = 20


@dataclass(frozen=True)
class Measure:
    """An SL-invariant measure ``scale * |poly|**(2/degree)``.

    ``poly_batch`` maps an (m, D) stack of amplitude rows to the m values of
    a polynomial homogeneous of ``degree`` in the amplitudes;
    ``poly_grad_batch`` returns the holomorphic gradient of each row.  Both
    work on whole stacks so optimizers can evaluate an ensemble in one numpy
    call; a single state is a one-row stack.  ``exact_mixed``, when set,
    gives the exact mixed-state value (the convex roof in closed form).
    """

    name: str
    dims: LocalDims
    degree: int
    scale: float
    poly_batch: Callable[[np.ndarray], np.ndarray]
    poly_grad_batch: Callable[[np.ndarray], np.ndarray]
    exact_mixed: Callable[[DensityMatrix], float] | None = None

    def check_dims(self, dims) -> None:
        dims = _as_local_dims(dims)
        if dims.dims != self.dims.dims:
            raise ValueError(
                f"measure {self.name!r} requires local dimensions {self.dims.dims}, "
                f"got {dims.dims}"
            )

    # methods over the poly_batch fields so that the benchmark tracer can
    # wrap them by name
    def eval_poly_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.poly_batch(rows)

    def eval_grad_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.poly_grad_batch(rows)


def _fd_poly_grad(poly, psi: np.ndarray) -> np.ndarray:
    """Central-difference holomorphic gradient (real step, step 1e-6)."""
    out = np.empty(psi.size, dtype=np.complex128)
    for j in range(psi.size):
        e = np.zeros(psi.size, dtype=np.complex128)
        e[j] = _FD_STEP
        out[j] = (poly(psi + e) - poly(psi - e)) / (2.0 * _FD_STEP)
    return out


def concurrence() -> Measure:
    """Wootters concurrence of two qubits, |<psi*| sigma_y x sigma_y |psi>|."""
    def poly_batch(rows):
        return np.einsum("ij,jk,ik->i", rows, _YY, rows)

    def grad_batch(rows):
        return 2.0 * rows @ _YY.T

    # the module attribute is looked up on each call, so rebinding
    # wootters_concurrence (say, to profile it) also reaches this measure
    return Measure("concurrence", LocalDims((2, 2)), degree=2, scale=1.0,
                   poly_batch=poly_batch, poly_grad_batch=grad_batch,
                   exact_mixed=lambda rho: wootters_concurrence(rho))


def adjugate(mats: np.ndarray) -> np.ndarray:
    """Adjugates of an (n, d, d) stack, each with adj(M) @ M = det(M) I.

    Members whose smallest singular value exceeds 1e-8 * max(1, max|M_ij|)
    use det(M) inv(M); the others use explicit cofactors.
    """
    out = np.empty_like(mats)
    d = mats.shape[-1]
    if d == 2:
        out[:, 0, 0] = mats[:, 1, 1]
        out[:, 1, 1] = mats[:, 0, 0]
        out[:, 0, 1] = -mats[:, 0, 1]
        out[:, 1, 0] = -mats[:, 1, 0]
        return out
    dets = np.linalg.det(mats)
    smin = np.linalg.svd(mats, compute_uv=False)[:, -1]
    good = smin > 1e-8 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    out[good] = dets[good, None, None] * np.linalg.inv(mats[good])
    if not good.all():
        # keep[i] lists every index but i; minors[k, i, j] drops row i and
        # column j of member k, and adj(M)[j, i] is its signed determinant
        keep = np.array([[c for c in range(d) if c != i] for i in range(d)])
        minors = mats[~good][:, keep[:, None, :, None], keep[None, :, None, :]]
        sign = (-1) ** np.add.outer(np.arange(d), np.arange(d))
        out[~good] = (sign * np.linalg.det(minors)).transpose(0, 2, 1)
    return out


def g_concurrence(d: int) -> Measure:
    """G-concurrence on d x d bipartite states, d * |det M|^(2/d).

    M is the d x d coefficient matrix of the state.  The scale d makes the
    maximally entangled state score 1, and d=2 reproduces the concurrence.
    """
    if d < 2:
        raise ValueError("G-concurrence needs local dimension >= 2")

    def poly_batch(rows):
        return np.linalg.det(rows.reshape(-1, d, d))

    def grad_batch(rows):
        # d(det M)/dM = adj(M)^T, flattened back to amplitude order
        adj = adjugate(rows.reshape(-1, d, d))
        return adj.transpose(0, 2, 1).reshape(rows.shape[0], -1)

    return Measure(f"g_concurrence({d})", LocalDims((d, d)), degree=d,
                   scale=float(d), poly_batch=poly_batch,
                   poly_grad_batch=grad_batch)


# 2x2x2 hyperdeterminant in Cayley form.  With amplitudes indexed a[ijk] ->
# a[4i+2j+k], the four "pair products" are a0*a7, a1*a6, a2*a5, a3*a4 and
#   d1 = sum of squared pairs, d2 = sum of the six cross products,
#   d3 = a0*a3*a5*a6 + a1*a2*a4*a7,
#   Det = d1 - 2*d2 + 4*d3 = 2*sum(p^2) - (sum p)^2 + 4*d3.
_PAIR_PARTNER = np.array([7, 6, 5, 4, 3, 2, 1, 0])
_PAIR_SLOT = np.array([0, 1, 2, 3, 3, 2, 1, 0])
# the three amplitudes sharing d3's quartic term with amplitude m
_QUAD = np.array([(3, 5, 6), (2, 4, 7), (1, 4, 7), (0, 5, 6),
                  (1, 2, 7), (0, 3, 6), (0, 3, 5), (1, 2, 4)])


def _hyperdet_batch(rows: np.ndarray) -> np.ndarray:
    a = rows
    p = np.stack([a[:, 0] * a[:, 7], a[:, 1] * a[:, 6],
                  a[:, 2] * a[:, 5], a[:, 3] * a[:, 4]], axis=1)
    s = p.sum(axis=1)
    d3 = a[:, 0] * a[:, 3] * a[:, 5] * a[:, 6] + a[:, 1] * a[:, 2] * a[:, 4] * a[:, 7]
    return 2.0 * (p * p).sum(axis=1) - s * s + 4.0 * d3


def _cmul(xr, xi, yr, yi):
    """Complex product in real arithmetic: rounds as numpy's scalar complex
    multiply does, where its SIMD array multiply may round differently."""
    return xr * yr - xi * yi, xr * yi + xi * yr


def _hyperdet_grad_batch(rows: np.ndarray) -> np.ndarray:
    """Holomorphic gradient of each row's hyperdeterminant,

        dDet/da_m = (4 p_slot(m) - 2 sum_k p_k) a_partner(m)
                    + 4 prod_{q in quad(m)} a_q.

    Every entry rounds exactly as this formula does when evaluated on one
    row with numpy scalars: products in real arithmetic, the pair sum in
    numpy's pairwise order.  The tangle roof's restarts are sensitive to the
    last bit of this gradient.
    """
    ar, ai = rows.real, rows.imag
    pr, pi = _cmul(ar[:, :4], ai[:, :4], ar[:, 7:3:-1], ai[:, 7:3:-1])
    sr = (pr[:, 0] + pr[:, 1]) + (pr[:, 2] + pr[:, 3])
    si = (pi[:, 0] + pi[:, 1]) + (pi[:, 2] + pi[:, 3])
    pair_r, pair_i = _cmul(4.0 * pr[:, _PAIR_SLOT] - 2.0 * sr[:, None],
                           4.0 * pi[:, _PAIR_SLOT] - 2.0 * si[:, None],
                           ar[:, _PAIR_PARTNER], ai[:, _PAIR_PARTNER])
    quad_r, quad_i = 4.0 * ar[:, _QUAD[:, 0]], 4.0 * ai[:, _QUAD[:, 0]]
    for q in _QUAD[:, 1:].T:
        quad_r, quad_i = _cmul(quad_r, quad_i, ar[:, q], ai[:, q])
    out = np.empty(rows.shape, dtype=np.complex128)
    out.real = pair_r + quad_r
    out.imag = pair_i + quad_i
    return out


def sqrt_three_tangle() -> Measure:
    """Square root of the three-tangle, sqrt(4 |Det222|), on three qubits."""
    return Measure("sqrt_three_tangle", LocalDims((2, 2, 2)), degree=4,
                   scale=2.0, poly_batch=_hyperdet_batch,
                   poly_grad_batch=_hyperdet_grad_batch)


def polynomial_measure(poly, degree: int, dims, grad=None,
                       name: str = "polynomial") -> Measure:
    """Wrap a user-supplied homogeneous SL-invariant polynomial.

    ``poly`` maps one amplitude vector to a complex number and ``grad``, if
    given, to its holomorphic gradient; without ``grad`` the gradient is
    taken by central finite differences.  ``degree`` counts the degree in the
    amplitudes.  SL-invariance of ``poly`` is the caller's responsibility;
    :func:`sl_invariance_deviation` gives a numerical spot check.
    """
    if degree < 1:
        raise ValueError("polynomial degree must be >= 1")

    def poly_batch(rows):
        return np.array([poly(r) for r in rows], dtype=np.complex128)

    row_grad = grad if grad is not None else (lambda psi: _fd_poly_grad(poly, psi))

    def grad_batch(rows):
        return np.stack([row_grad(r) for r in rows])

    return Measure(name, _as_local_dims(dims), degree=int(degree), scale=1.0,
                   poly_batch=poly_batch, poly_grad_batch=grad_batch)


def _value_of_row(measure: Measure, amps: np.ndarray) -> float:
    f = complex(measure.poly_batch(amps[None, :])[0])
    return measure.scale * abs(f) ** (2.0 / measure.degree)


def measure_pure(measure: Measure, psi: PureState) -> float:
    """Measure value of a normalized pure state."""
    measure.check_dims(psi.dims)
    psi.require_normalized()
    return _value_of_row(measure, psi.amps)


def measure_unnormalized(measure: Measure, psi: PureState) -> float:
    """Degree-1 homogeneous extension to unnormalized vectors.

    Equals ``<psi|psi> * measure_pure(psi / ||psi||)``; computed directly as
    ``scale * |poly(psi)|**(2/degree)``, which is the same thing.
    """
    measure.check_dims(psi.dims)
    if psi.weight <= 0.0:
        raise ValueError("measure of the zero vector is undefined")
    return _value_of_row(measure, psi.amps)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Closed-form two-qubit mixed-state concurrence.

    max(0, l1 - l2 - l3 - l4) with the descending square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy).  This is the exact convex
    roof of the pure-state concurrence and serves as the oracle for the
    roof optimizer.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError(f"wootters_concurrence needs dims (2, 2), got {rho.dims.dims}")
    # The l_i are the singular values of sqrt(rho) (sy x sy) sqrt(rho)*,
    # a numerically better-conditioned form than the eigenvalues of the
    # non-Hermitian product rho (sy x sy) rho* (sy x sy).
    w, v = np.linalg.eigh(rho.mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def sl_invariance_deviation(measure: Measure, rng) -> float:
    """Largest relative deviation of the measure under random SL factors,
    over 20 random states.

    Numerical spot check for plug-in polynomial measures; a genuinely
    SL-invariant measure stays below ~1e-8 on well-conditioned draws.
    """
    from .linalg import kron_all
    from .sampling import as_generator, random_pure_state, random_sl

    g = as_generator(rng)
    worst = 0.0
    for _ in range(SL_INVARIANCE_TRIALS):
        psi = random_pure_state(measure.dims, g)
        sl = kron_all([random_sl(d, g) for d in measure.dims])
        mapped = PureState(sl @ psi.amps, measure.dims)
        before = measure_unnormalized(measure, psi)
        after = measure_unnormalized(measure, mapped)
        worst = max(worst, abs(after - before) / max(before, 1e-12))
    return worst
