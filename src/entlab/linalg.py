"""Dense complex linear algebra over multipartite tensor-product spaces.

States and operators are plain ``numpy`` arrays tagged with the tuple of
local dimensions they live on.  Everything here is a pure function of its
inputs; all value types are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Desk-scale cap on the joint Hilbert-space dimension.  Dense storage only;
# anything larger is out of scope for this library.
MAX_TOTAL_DIM = 4096

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
NORMALIZED_TOL = 1e-10


def as_complex_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a dense complex128 matrix and validate it.

    Parameters
    ----------
    a : array_like
        Anything ``np.asarray`` accepts, expected two-dimensional.
    rows, cols : int, optional
        If given, the exact shape the matrix must have.

    Returns
    -------
    np.ndarray
        A complex128 matrix with all entries finite.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128, copy=True)
    a.setflags(write=False)
    return a


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> per member of two stacks, bitwise as np.vdot gives it."""
    n = a.shape[0]
    return (a.conj().reshape(n, 1, -1) @ b.reshape(n, -1, 1))[:, 0, 0].real


def _checked_densities(mats: np.ndarray, unit_trace=True) -> np.ndarray:
    """DensityMatrix's checks on a (k, D, D) complex stack, member by member.

    Every member must have finite entries, be Hermitian within 1e-12 * scale
    (scale = max(1, |tr|)), have trace 1 within 1e-12 (or a positive trace
    where ``unit_trace``, a bool or one bool per member, is False) and no
    eigenvalue below -1e-10 * scale.  Returns the stack symmetrized as
    (M + M^dag) / 2; raises DensityMatrix's ValueError if a member fails.
    """
    if not np.isfinite(mats).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    adj = mats.conj().swapaxes(-1, -2)
    # the symmetrized diagonal is the real part of the given one, so this
    # real part is also the symmetrized trace, bit for bit
    tr = mats.diagonal(0, -2, -1).sum(-1)
    scale = np.maximum(1.0, abs(tr))
    tr = tr.real
    if (abs(mats - adj).max(axis=(-2, -1)) > HERMITIAN_TOL * scale).any():
        raise ValueError("density matrix must be Hermitian within 1e-12")
    mats = (mats + adj) / 2.0
    off = (abs(tr - 1.0) > TRACE_TOL) & np.asarray(unit_trace, dtype=bool)
    if off.any():
        raise ValueError(f"trace must be 1 within 1e-12, got {float(tr[off][0])!r}")
    if (tr <= 0.0).any():
        raise ValueError(f"trace must be positive, got {float(tr[tr <= 0.0][0])!r}")
    if (np.linalg.eigvalsh(mats)[..., 0] < EIGENVALUE_FLOOR * scale).any():
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return mats


@dataclass(frozen=True)
class LocalDims:
    """Ordered local Hilbert-space dimensions (d_1, ..., d_n)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("need at least one party")
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        if math.prod(dims) > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {math.prod(dims)} exceeds desk-scale limit {MAX_TOTAL_DIM}"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


def _as_local_dims(dims) -> LocalDims:
    if isinstance(dims, LocalDims):
        return dims
    return LocalDims(tuple(dims))


@dataclass(frozen=True)
class PureState:
    """State vector on a multipartite space.

    ``amps`` has length ``prod(dims)`` in row-major party order.  Normalized
    states satisfy ``sum |amps|^2 = 1`` within 1e-12; unnormalized vectors are
    allowed and carry their squared norm through :attr:`weight`.
    """

    amps: np.ndarray
    dims: LocalDims

    def __post_init__(self):
        dims = _as_local_dims(self.dims)
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != dims.total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, dims require {dims.total}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amps", _freeze(amps))
        object.__setattr__(self, "dims", dims)

    @property
    def weight(self) -> float:
        """Squared norm <psi|psi>."""
        return float(np.vdot(self.amps, self.amps).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.weight - 1.0) <= NORM_TOL

    def require_normalized(self) -> None:
        if abs(self.weight - 1.0) > NORMALIZED_TOL:
            raise ValueError(f"state is not normalized: <psi|psi> = {self.weight!r}")

    def normalized(self) -> "PureState":
        w = self.weight
        if w <= 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.amps / math.sqrt(w), self.dims)

    def density(self) -> "DensityMatrix":
        amps = self.amps
        return DensityMatrix(np.outer(amps, amps.conj()), self.dims,
                             unit_trace=self.is_normalized)


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite operator tagged with local dimensions.

    Unit-trace is enforced by default; pass ``unit_trace=False`` for positive
    operators of arbitrary (positive) trace, e.g. sub-normalized outcomes.
    """

    mat: np.ndarray
    dims: LocalDims
    unit_trace: bool = True

    def __post_init__(self):
        dims = _as_local_dims(self.dims)
        d = dims.total
        mat = np.asarray(self.mat, dtype=np.complex128)
        if mat.shape != (d, d):
            as_complex_matrix(mat, d, d)  # raises its shape message
        mat = _checked_densities(mat[None], self.unit_trace)[0]
        object.__setattr__(self, "mat", _freeze(mat))
        object.__setattr__(self, "dims", dims)

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def normalized(self) -> "DensityMatrix":
        return DensityMatrix(self.mat / self.trace, self.dims)


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two matrices.

    Satisfies ``(a kron b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]``.
    """
    return kron_all([a, b])


def kron_all(mats) -> np.ndarray:
    """Left-to-right tensor product of a sequence of matrices."""
    mats = [as_complex_matrix(m) for m in mats]
    if not mats:
        raise ValueError("need at least one factor")
    rows = math.prod(m.shape[0] for m in mats)
    cols = math.prod(m.shape[1] for m in mats)
    if max(rows, cols) > MAX_TOTAL_DIM:
        raise ValueError(
            f"kron result {rows}x{cols} exceeds desk-scale limit {MAX_TOTAL_DIM}"
        )
    return _kron_stacks(mats)


def _kron_stacks(stacks) -> np.ndarray:
    """Left-to-right Kronecker product of (..., r_i, c_i) stacks, member by
    member over their shared leading axes; each member is bitwise what
    ``np.kron`` gives for it.  Unlike :func:`kron_all` it neither validates
    nor caps the size."""
    out = stacks[0]
    for s in stacks[1:]:
        shape = out.shape[:-2] + (out.shape[-2] * s.shape[-2], out.shape[-1] * s.shape[-1])
        out = (out[..., :, None, :, None] * s[..., None, :, None, :]).reshape(shape)
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not listed in ``keep``.

    Party order of the result follows the original ordering of the kept
    indices.  The trace is preserved.
    """
    keep = sorted(set(int(k) for k in keep))
    n = rho.dims.n_parties
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} parties")
    dims = list(rho.dims)
    t = rho.mat.reshape(dims + dims)
    traced = [p for p in range(n) if p not in keep]
    remaining = list(range(n))
    for p in sorted(traced, reverse=True):
        idx = remaining.index(p)
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        remaining.pop(idx)
    d_keep = math.prod(dims[k] for k in keep)
    out = t.reshape(d_keep, d_keep)
    return DensityMatrix(out, LocalDims(tuple(dims[k] for k in keep)),
                         unit_trace=rho.unit_trace)


def partial_transpose(rho_mat: np.ndarray, dims, transposed) -> np.ndarray:
    """Transpose the listed parties of a multipartite operator."""
    dims = list(_as_local_dims(dims))
    n = len(dims)
    transposed = sorted(set(int(t) for t in transposed))
    if not transposed or any(t < 0 or t >= n for t in transposed):
        raise ValueError(f"invalid transposed-party set {transposed} for {n} parties")
    t = as_complex_matrix(rho_mat).reshape(dims + dims)
    perm = list(range(2 * n))
    for p in transposed:
        perm[p], perm[p + n] = perm[p + n], perm[p]
    d = math.prod(dims)
    return t.transpose(perm).reshape(d, d)


def determinant(a) -> complex:
    """LU-based determinant of a square complex matrix."""
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"determinant requires a square matrix, got {m.shape}")
    return complex(np.linalg.det(m))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Result of a bipartite Schmidt decomposition.

    ``psi = sum_k coeffs[k] * kron(left[:, k], right[k, :])`` up to the
    reported reconstruction residual; coefficients are descending and
    nonnegative, and both vector families are orthonormal.
    """

    coeffs: np.ndarray
    left: np.ndarray
    right: np.ndarray


def schmidt_decompose(psi: PureState, cut) -> SchmidtDecomposition:
    """Schmidt decomposition of ``psi`` across the bipartition ``cut`` | rest."""
    psi.require_normalized()
    n = psi.dims.n_parties
    cut = sorted(set(int(c) for c in cut))
    if not cut or any(c < 0 or c >= n for c in cut):
        raise ValueError(f"invalid bipartition {cut} for {n} parties")
    rest = [p for p in range(n) if p not in cut]
    if not rest:
        raise ValueError("bipartition must leave at least one party on each side")
    dims = list(psi.dims)
    t = psi.amps.reshape(dims).transpose(cut + rest)
    d_a = math.prod(dims[c] for c in cut)
    d_b = math.prod(dims[r] for r in rest)
    m = t.reshape(d_a, d_b)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SchmidtDecomposition(coeffs=s, left=u, right=vh)
