"""Seeded random sampling of states, unitaries, SL(d,C) elements and Wishart
density matrices.

All draws are reproducible: identical (seed, stream) pairs replay identical
values bit-exactly.  Concurrent users should derive distinct child streams
from one master seed via :meth:`RandomStream.child`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, PureState, _as_local_dims

SL_MIN_SINGULAR_VALUE = 1e-6
SL_MAX_REDRAWS = 100


@dataclass(frozen=True)
class RandomStream:
    """Reproducible random source identified by (seed, stream key)."""

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stream", tuple(int(s) for s in self.stream))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.default_rng(ss)

    def child(self, *indices: int) -> "RandomStream":
        """Independent sub-stream, e.g. one per trial or per restart."""
        return RandomStream(self.seed, self.stream + tuple(int(i) for i in indices))


def as_generator(rng) -> np.random.Generator:
    """Accept either a RandomStream or an already-built numpy Generator."""
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng)!r}")


def ginibre(rows: int, cols: int, rng) -> np.ndarray:
    """Matrix of iid standard complex Gaussians."""
    g = as_generator(rng)
    return (g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))) / math.sqrt(2.0)


def _haar_q(a: np.ndarray) -> np.ndarray:
    """Householder QR's Q, with R's diagonal made positive: Haar for a Ginibre draw."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (..., 2, d, d) block of standard normals, the
    real and imaginary parts of one Ginibre draw each, by one stacked QR;
    each member is bitwise what :func:`random_haar_unitary` makes of the
    same normals."""
    return _haar_q((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2.0))


def random_haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre draw, phase-fixed)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_unitaries(as_generator(rng).standard_normal((2, d, d)))


def random_sl(d: int, rng) -> np.ndarray:
    """Random element of SL(d,C) with determinant 1 within 1e-10.

    A Ginibre draw is rescaled by the principal d-th root of its determinant
    (phase taken in (-pi, pi]); draws whose rescaled smallest singular value
    is <= 1e-6 are rejected so that inverses stay well conditioned.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    g = as_generator(rng)
    for _ in range(SL_MAX_REDRAWS):
        m = ginibre(d, d, g)
        det = np.linalg.det(m)
        if det == 0:
            continue
        a = m / det ** (1.0 / d)
        if np.linalg.svd(a, compute_uv=False)[-1] > SL_MIN_SINGULAR_VALUE:
            return a
    raise RuntimeError(f"no well-conditioned SL({d},C) draw in {SL_MAX_REDRAWS} attempts")


def random_pure_state(dims, rng) -> PureState:
    """Haar-uniform normalized pure state on the given local dimensions."""
    dims = _as_local_dims(dims)
    g = as_generator(rng)
    v = ginibre(dims.total, 1, g).reshape(-1)
    return PureState(v / np.linalg.norm(v), dims)


def random_density(dims, rank: int, rng) -> DensityMatrix:
    """Normalized Wishart density matrix of the requested rank."""
    dims = _as_local_dims(dims)
    d = dims.total
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    g = ginibre(d, rank, as_generator(rng))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def random_isometry(rows: int, cols: int, rng) -> np.ndarray:
    """Haar-random isometry with orthonormal columns (rows >= cols)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    return _haar_q(ginibre(rows, cols, rng))
