"""Schmidt rank and number machinery and partial entanglement-breaking tests.

Exact separability statements are confined to where the positive partial
transpose criterion is decisive (2x2 and 2x3); everywhere else the module
emits certified upper bounds (a found decomposition) or explicit not-found
results, never an unproved negative.  The Schmidt-number certificate runs the
convex-roof solver's ensemble search (:mod:`entlab.roof`) on a Schmidt-tail
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import apply, embed_one_sided
from .families import max_entangled_state
from .linalg import (DensityMatrix, PureState, as_complex_matrix,
                     partial_transpose, schmidt_decompose)
from .roof import _eigenbasis, _ensemble_search
from .sampling import RandomStream, as_generator, random_pure_state

PPT_EIGENVALUE_TOL = -1e-10
FULL_RANK_COEFF = 1e-4
TAIL_COEFF_TOL = 1e-6
SCHMIDT_COEFF_TOL = 1e-8
PROBE_REDRAWS = 100
SCAN_GRID_POINTS = 9


def schmidt_rank(psi: PureState, cut) -> int:
    """Number of Schmidt coefficients above 1e-8 across the bipartition."""
    dec = schmidt_decompose(psi, cut)
    return int(np.sum(dec.coeffs > SCHMIDT_COEFF_TOL))


def is_ppt(rho: DensityMatrix) -> bool:
    """Positive partial transpose of the second party, up to eigenvalues of
    -1e-10."""
    pt = partial_transpose(rho.mat, rho.dims, (1,))
    return bool(np.min(np.linalg.eigvalsh(pt)) >= PPT_EIGENVALUE_TOL)


def is_separable_small(rho: DensityMatrix) -> bool:
    """Exact separability in 2x2 and 2x3, where PPT is decisive."""
    dims = tuple(sorted(rho.dims.dims))
    if rho.dims.n_parties != 2 or dims not in ((2, 2), (2, 3)):
        raise ValueError(
            f"exact separability supported only on 2x2 and 2x3, got {rho.dims.dims}; "
            "use is_ppt for the necessary condition"
        )
    return is_ppt(rho)


@dataclass(frozen=True)
class SchmidtNumberCertificate:
    """Result of the rank-constrained ensemble search.

    ``found=True`` certifies SN(rho) <= target via the returned ensemble;
    ``found=False`` only means the search failed, not a lower bound.
    """

    found: bool
    max_tail_coefficient: float
    ensemble: tuple[tuple[float, PureState], ...] = ()


@dataclass(frozen=True)
class SchmidtSearchOptions:
    restarts: int = 8
    max_iterations: int = 250
    seed: int = 0


def _tail_objective(basis: np.ndarray, target: int, d_a: int, d_b: int):
    """Summed squared Schmidt tail beyond index ``target`` of the members
    ``v[i] @ basis`` of each restart i, and its gradient in the stack of
    mixing isometries v."""
    basis_h = basis.conj().T

    def fun(v, need_grad):
        n, m = v.shape[:2]
        mats = (v @ basis).reshape(n * m, d_a, d_b)
        uu, ss, vvh = np.linalg.svd(mats, full_matrices=False)
        tail2 = np.sum(ss[:, target:] ** 2, axis=1).reshape(n, m)
        # summed member by member, in order
        value = np.add.accumulate(tail2, axis=1)[:, -1]
        if not need_grad:
            return value, None
        # gradient of the tail energy is the tail part of the matrix
        tail_mats = (uu[:, :, target:] * ss[:, None, target:]) @ vvh[:, target:, :]
        return value, tail_mats.reshape(n, m, -1) @ basis_h

    return fun


def schmidt_number_upper(rho: DensityMatrix, target: int,
                         opts: SchmidtSearchOptions = SchmidtSearchOptions()
                         ) -> SchmidtNumberCertificate:
    """Search for an ensemble whose members all have Schmidt rank <= target.

    Runs the convex-roof ensemble search with the summed squared Schmidt
    tail beyond index ``target`` of every unnormalized member as objective.
    The certificate is read from the restart with the lowest tail: its
    decomposition counts when every member's normalized coefficients beyond
    the target are below 1e-6.
    """
    if rho.dims.n_parties != 2:
        raise ValueError("Schmidt number needs a bipartite state")
    d_a, d_b = rho.dims.dims
    if target < 1:
        raise ValueError("target rank must be >= 1")
    if target >= min(d_a, d_b):
        # every state trivially satisfies SN <= min(dA, dB)
        lam, vecs = _eigenbasis(rho)
        ens = tuple((float(l), PureState(v, rho.dims)) for l, v in zip(lam, vecs.T))
        return SchmidtNumberCertificate(True, 0.0, ens)

    stage = (partial(_tail_objective, target=target, d_a=d_a, d_b=d_b),
             opts.max_iterations)
    result = _ensemble_search(rho, [stage], opts, 1e-10, target=target)

    max_tail = 0.0
    for _, member in result.ensemble:
        coeffs = schmidt_decompose(member, (0,)).coeffs
        if coeffs.size > target:
            max_tail = max(max_tail, float(coeffs[target]))
    found = max_tail < TAIL_COEFF_TOL
    return SchmidtNumberCertificate(found, max_tail,
                                    result.ensemble if found else ())


# ---------------------------------------------------------------------------
# partial entanglement breaking

@dataclass(frozen=True)
class ProbeVerdict:
    """Breaking verdict on one probe's output.

    ``method`` is one of 'ppt-2x2', 'ppt-2x3' or 'roof-search'.
    """

    probe_index: int  # -1 is the maximally entangled probe
    method: str
    breaking: bool | None  # exact verdict where available


@dataclass(frozen=True)
class PebReport:
    """Evidence that a local channel is r-partially entanglement breaking."""

    breaking: bool | None
    verdicts: tuple[ProbeVerdict, ...]
    agreement: bool
    divergent_probes: tuple[int, ...] = ()


def _full_rank_probe(d: int, rng) -> PureState:
    g = as_generator(rng)
    for _ in range(PROBE_REDRAWS):
        psi = random_pure_state((d, d), g)
        coeffs = schmidt_decompose(psi, (0,)).coeffs
        if coeffs[-1] > FULL_RANK_COEFF:
            return psi
    raise RuntimeError(f"no full-Schmidt-rank probe found in {PROBE_REDRAWS} draws")


def _probe_verdict(out: DensityMatrix, target: int,
                   opts: SchmidtSearchOptions) -> tuple[str, bool | None]:
    """(method, breaking verdict) for one probe's output."""
    d_a, d_b = out.dims.dims
    small = tuple(sorted((d_a, d_b))) in ((2, 2), (2, 3))
    if target == 1 and small:
        method = "ppt-2x2" if (d_a, d_b) == (2, 2) else "ppt-2x3"
        return method, is_separable_small(out)
    if target == 1 and not is_ppt(out):
        # NPT is an exact negative for separability in any dimension
        return "roof-search", False
    if schmidt_number_upper(out, target, opts).found:
        return "roof-search", True
    return "roof-search", None


def r_peb_test(local_ops, target: int, probes: int = 20,
               seed: int = 0) -> PebReport:
    """Probe whether (Phi x I) keeps every output at Schmidt number <= target.

    Uses the maximally entangled probe plus random full-Schmidt-rank probes;
    by the state-invariance of the disentangling power, their verdicts must
    agree, and any divergence is flagged.  Exact verdicts exist for d=2,
    target=1; elsewhere evidence is certificate-based.
    """
    if probes < 0:
        raise ValueError(f"probes must be >= 0, got {probes}")
    d = as_complex_matrix(local_ops[0]).shape[0]
    # (Phi x I) on the d x d doubled space; raises if the local list does not close
    extended = embed_one_sided(local_ops, 0, (d, d))
    opts = SchmidtSearchOptions(seed=seed)

    stream = RandomStream(seed)
    verdicts = []
    for i in range(-1, probes):
        probe = max_entangled_state(d) if i < 0 else _full_rank_probe(d, stream.child(i))
        method, flag = _probe_verdict(apply(extended, probe.density()), target, opts)
        verdicts.append(ProbeVerdict(i, method, flag))

    reference = verdicts[0].breaking
    divergent = tuple(v.probe_index for v in verdicts[1:]
                      if v.breaking is not None and reference is not None
                      and v.breaking != reference)
    return PebReport(breaking=reference, verdicts=tuple(verdicts),
                     agreement=not divergent, divergent_probes=divergent)


@dataclass(frozen=True)
class ThresholdReport:
    threshold: float | None
    bracket: tuple[float, float] | None
    grid: tuple[tuple[float, bool | None], ...]
    never_breaking: bool
    always_breaking: bool


def eb_threshold_scan(family, target: int, lo: float = 0.0, hi: float = 1.0,
                      tol: float = 1e-3, seed: int = 0) -> ThresholdReport:
    """Bisect the onset of entanglement breaking in a parametrized family.

    ``family(param)`` must return a local Kraus list.  A coarse grid of 9
    points first checks that the breaking verdict is monotone in the
    parameter; a non-monotone scan raises with the offending bracket.
    Verdicts come from the maximally entangled probe (exact for qubit
    families at target 1).  Bisection stops once the bracket is no wider
    than ``tol`` or has no float strictly inside it.
    """
    if not tol > 0:
        raise ValueError(f"bisection tol must be > 0, got {tol!r}")
    if not lo < hi:
        raise ValueError(f"bisection range needs lo < hi, got [{lo:g}, {hi:g}]")

    def verdict(param: float) -> bool | None:
        report = r_peb_test(family(param), target, probes=0, seed=seed)
        return report.breaking

    grid = np.linspace(lo, hi, SCAN_GRID_POINTS)
    flags = [verdict(p) for p in grid]
    pairs = tuple((float(p), f) for p, f in zip(grid, flags))

    known = [(p, f) for p, f in pairs if f is not None]
    if not known:
        raise ValueError("no decisive breaking verdicts on the scanned grid")
    for (p0, f0), (p1, f1) in zip(known, known[1:]):
        if f0 and not f1:
            raise ValueError(
                f"breaking verdict is not monotone on [{p0:g}, {p1:g}]"
            )
    if all(f is False for _, f in known):
        return ThresholdReport(None, None, pairs, True, False)
    if all(f is True for _, f in known):
        return ThresholdReport(float(lo), None, pairs, False, True)

    last_false = max(p for p, f in known if f is False)
    first_true = min(p for p, f in known if f is True)
    a, b = last_false, first_true
    while b - a > tol:
        mid = (a + b) / 2.0
        if not a < mid < b:
            break
        if verdict(mid):
            b = mid
        else:
            a = mid
    return ThresholdReport((a + b) / 2.0, (a, b), pairs, False, False)
