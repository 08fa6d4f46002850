"""Reference computations for the benchmark's correctness checks.

Everything here is plain numpy written for the benchmark; none of it calls
entlab, so a check built on it is independent of the code it checks.
"""

from __future__ import annotations

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def concurrence_pure(v: np.ndarray) -> float:
    """|v^T (sy x sy) v| for a possibly unnormalised two-qubit vector."""
    return float(abs(v @ _YY @ v))


def wootters(rho: np.ndarray) -> float:
    """Two-qubit concurrence from the eigenvalues of rho (sy sy) rho* (sy sy)."""
    r = rho @ _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.abs(np.linalg.eigvals(r).real))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def cayley_hyperdet(v: np.ndarray) -> complex:
    """Cayley's 2x2x2 hyperdeterminant of the amplitudes a[ijk] = v[4i+2j+k]."""
    a = v.reshape(2, 2, 2)
    a000, a001, a010, a011 = a[0, 0, 0], a[0, 0, 1], a[0, 1, 0], a[0, 1, 1]
    a100, a101, a110, a111 = a[1, 0, 0], a[1, 0, 1], a[1, 1, 0], a[1, 1, 1]
    squares = (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
               + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2)
    pairs = (a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
             + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
             + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001)
    quads = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return complex(squares - 2.0 * pairs + 4.0 * quads)


def sqrt_three_tangle_pure(v: np.ndarray) -> float:
    """sqrt(tau_3) = 2 |Det|^(1/2), homogeneous of degree 1 in |v|^2."""
    return float(2.0 * np.sqrt(abs(cayley_hyperdet(v))))


def g_concurrence_pure(v: np.ndarray, d: int) -> float:
    """d |det M|^(2/d) with M the d x d coefficient matrix of v."""
    return float(d * abs(np.linalg.det(v.reshape(d, d))) ** (2.0 / d))


def pure_value(measure_name: str, v: np.ndarray) -> float:
    """Measure value of one (possibly unnormalised) amplitude vector."""
    if measure_name == "concurrence":
        return concurrence_pure(v)
    if measure_name == "sqrt_three_tangle":
        return sqrt_three_tangle_pure(v)
    if measure_name.startswith("g_concurrence("):
        return g_concurrence_pure(v, int(measure_name[len("g_concurrence("):-1]))
    raise ValueError(f"no reference for measure {measure_name!r}")


def schmidt_coefficients(v: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Descending Schmidt coefficients of a normalised d_a x d_b vector."""
    return np.linalg.svd(v.reshape(d_a, d_b), compute_uv=False)


def decay_from_factors(factor_lists) -> float:
    """sum_m prod_i |det K_m^(i)|^(2/d_i) from the local factors."""
    total = 0.0
    for factors in factor_lists:
        w = 1.0
        for f in factors:
            w *= abs(np.linalg.det(f)) ** (2.0 / f.shape[0])
        total += w
    return total


def joint_operator(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def apply_ops(ops, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def ensemble_matrix(weights, vectors) -> np.ndarray:
    """sum_i w_i |v_i><v_i|."""
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))


def spectral_value(measure_name: str, rho: np.ndarray) -> float:
    """Average measure of rho's own eigen-ensemble, an upper bound on the roof."""
    lam, vecs = np.linalg.eigh(rho)
    return float(sum(l * pure_value(measure_name, vecs[:, i])
                     for i, l in enumerate(lam) if l > 1e-12))
