"""The benchmark's three workloads: inputs made from a seed, calls into
entlab, and the checks applied to each output.

An item is one timed call (or a short fixed group of calls) into entlab's
public API.  ``build(seed)`` returns one round of items; the runner repeats
the round while time remains.  Every input is drawn here with numpy from the
seed, so the inputs do not change when entlab's own samplers change.
Library functions are looked up on the ``entlab`` modules at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import entlab
import entlab.breaking
import entlab.cli
import entlab.erf
import entlab.roof

import oracles

# Every workload builds its warm-up items from this seed, so set-up does the
# same work whatever --seed is.
WARMUP_SEED = 0


@dataclass(frozen=True)
class Item:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # an input, fixed whatever the seed, on which the program is known to
    # fail its check: the failure is counted but does not make the run incorrect
    known_fault: bool = False


def generator(seed: int, workload: str, kind: str) -> np.random.Generator:
    """One generator per (seed, workload, kind): adding a kind leaves the
    inputs of the others unchanged."""
    key = [int(b) for b in f"{workload}/{kind}".encode()]
    return np.random.default_rng(np.random.SeedSequence([seed] + key))


def _ginibre(g, rows, cols):
    return (g.standard_normal((rows, cols))
            + 1j * g.standard_normal((rows, cols))) / math.sqrt(2.0)


def wishart(g, d, rank):
    a = _ginibre(g, d, rank)
    m = a @ a.conj().T
    return m / np.trace(m).real


def _haar_unitary(g, d):
    q, r = np.linalg.qr(_ginibre(g, d, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _close(a, b, tol):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol


# ---------------------------------------------------------------------------
# ensemble-search: convex roofs and Schmidt-number searches

# (kind, measure factory, local dims, rank, items per round, roof options).
# The G-concurrence roofs vary least in cost from one input to the next and
# sit in the middle of the cost order, with the cheap concurrence roofs and
# Schmidt searches below them and the tangle roofs (six restarts) above: the
# median item then falls in the middle of the G-concurrence roofs and the
# tail item among the tangle roofs.  With the median at the edge between
# cheap and dear items it moved 16-27% across seeds.
_CONCURRENCE = dict(restarts=2, max_iterations=2000)
ROOF_KINDS = (
    ("concurrence-r2", lambda: entlab.concurrence(), (2, 2), 2, 16, _CONCURRENCE),
    ("concurrence-r3", lambda: entlab.concurrence(), (2, 2), 3, 16, _CONCURRENCE),
    ("concurrence-r4", lambda: entlab.concurrence(), (2, 2), 4, 8, _CONCURRENCE),
    ("tangle-r2", lambda: entlab.sqrt_three_tangle(), (2, 2, 2), 2, 40,
     dict(restarts=6, max_iterations=200)),
    ("gconc3-r2", lambda: entlab.g_concurrence(3), (3, 3), 2, 64,
     dict(restarts=4, max_iterations=200)),
)
# Seeded two-qubit inputs are kept above this Wootters concurrence.  Below
# it the roof misses Wootters by more than 1e-4 on a few inputs, so whether a
# run fails would depend on its seed.  The miss is shown instead by one fixed
# input that fails in every run (KNOWN_MISS below; see CHANGES.md).
CONCURRENCE_FLOOR = 0.1
# reference.py draws its two-qubit states above this concurrence
REFERENCE_FLOOR = 1e-3
# The fixed input: state 75 of reference.py's two-qubit set (generator seed
# 4242), a rank-4 state with concurrence 0.0049.  At the concurrence options
# with roof seed 75 its value is 2.2e-4 above Wootters.
KNOWN_MISS = (4242, 75)
# (kind, target Schmidt number k, pure components, items per round)
SCHMIDT_KINDS = (
    ("schmidt-k1", 1, 2, 8),
    ("schmidt-k2", 2, 2, 8),
)
SCHMIDT_OPTIONS = dict(restarts=3, max_iterations=100)
ENSEMBLE_TOL = 1e-8
WOOTTERS_TOL = 1e-4
SCHMIDT_TAIL = 1e-6


def entangled_two_qubit(g, floor=CONCURRENCE_FLOOR, rank=None):
    """Two-qubit Wishart state of the given rank (2-4 at random if None) with
    Wootters concurrence above ``floor``."""
    while True:
        rho = wishart(g, 4, rank or int(g.integers(2, 5)))
        if oracles.wootters(rho) > floor:
            return rho


def _roof_item(kind, measure, dims, rho, opts, known_fault=False) -> Item:
    name = measure.name
    spectral = oracles.spectral_value(name, rho)
    reference = oracles.wootters(rho) if name == "concurrence" else None
    state = entlab.DensityMatrix(rho, dims)

    def call():
        return entlab.convex_roof(measure, state, opts)

    def check(res):
        errors = []
        weights = [w for w, _ in res.ensemble]
        vectors = [psi.amps for _, psi in res.ensemble]
        if not _close(oracles.ensemble_matrix(weights, vectors), rho, ENSEMBLE_TOL):
            errors.append("ensemble does not reconstruct rho")
        recomputed = sum(w * oracles.pure_value(name, v) for w, v in zip(weights, vectors))
        if abs(recomputed - res.value) > ENSEMBLE_TOL * max(1.0, res.value):
            errors.append(f"value {res.value!r} != ensemble average {recomputed!r}")
        if res.value > spectral + ENSEMBLE_TOL:
            errors.append(f"value {res.value!r} above the spectral ensemble {spectral!r}")
        if reference is not None and abs(res.value - reference) > WOOTTERS_TOL:
            errors.append(f"value {res.value!r} misses Wootters {reference!r}")
        return errors

    return Item(kind, call, check, known_fault)


def _known_miss_item() -> Item:
    seed, index = KNOWN_MISS
    g = generator(seed, "reference", "two-qubit")
    for _ in range(index + 1):
        rho = entangled_two_qubit(g, REFERENCE_FLOOR)
    opts = entlab.RoofOptions(seed=index, **_CONCURRENCE)
    return _roof_item("concurrence-known-miss", entlab.concurrence(), (2, 2), rho, opts,
                      known_fault=True)


def _schmidt_state(g, k, components):
    """3x3 mixture of pure states that each have Schmidt rank <= k."""
    weights = g.dirichlet(np.ones(components))
    rho = np.zeros((9, 9), dtype=complex)
    for w in weights:
        v = (_ginibre(g, 3, k) @ _ginibre(g, k, 3)).reshape(-1)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return (rho + rho.conj().T) / 2.0


def _schmidt_item(kind, k, rho, opts) -> Item:
    state = entlab.DensityMatrix(rho, (3, 3))

    def call():
        return entlab.breaking.schmidt_number_upper(state, k, opts)

    def check(cert):
        # a miss is reported as "not found", which the method allows
        if not cert.found:
            return []
        errors = []
        weights = [w for w, _ in cert.ensemble]
        vectors = [psi.amps for _, psi in cert.ensemble]
        if not _close(oracles.ensemble_matrix(weights, vectors), rho, ENSEMBLE_TOL):
            errors.append("certificate does not reconstruct rho")
        for v in vectors:
            coeffs = oracles.schmidt_coefficients(v / np.linalg.norm(v), 3, 3)
            if int(np.sum(coeffs > SCHMIDT_TAIL)) > k:
                errors.append(f"member with Schmidt coefficients {coeffs} exceeds k={k}")
                break
        return errors

    return Item(kind, call, check)


def build_ensemble(seed: int) -> list:
    items = []
    for kind, factory, dims, rank, count, options in ROOF_KINDS:
        g = generator(seed, "ensemble-search", kind)
        measure = factory()
        for i in range(count):
            if dims == (2, 2):
                rho = entangled_two_qubit(g, rank=rank)
            else:
                rho = wishart(g, math.prod(dims), rank)
            opts = entlab.RoofOptions(seed=i, **options)
            items.append(_roof_item(kind, measure, dims, rho, opts))
    for kind, k, components, count in SCHMIDT_KINDS:
        g = generator(seed, "ensemble-search", kind)
        for i in range(count):
            opts = entlab.SchmidtSearchOptions(seed=i, **SCHMIDT_OPTIONS)
            items.append(_schmidt_item(kind, k, _schmidt_state(g, k, components), opts))
    items.append(_known_miss_item())
    return items


# ---------------------------------------------------------------------------
# kraus-search: resilience-factor searches over Kraus mixings

# (kind, local dims, items per round).  Every channel has two Kraus
# operators: the search's cost roughly doubles with each further operator and
# varies more, and with counts 2-4 the round-to-round spread across seeds was
# 10-15% at 60 items.  The (3,3) searches sit in the middle of the cost
# order, so the median item falls among them and the tail item among the
# (2,2,2) searches.  Channel styles cycle through correlated, singular and
# mixture.
KRAUS_KINDS = (
    ("erf-2x2", (2, 2), 72),
    ("erf-2x2x2", (2, 2, 2), 60),
    ("erf-3x3", (3, 3), 72),
)
KRAUS_COUNT = 2
# the options of acceptance criterion 07
KRAUS_OPTIONS = dict(restarts=2, max_iterations=60)
KRAUS_TOL = 1e-8
# the reference Wootters value takes square roots of eigenvalues of a
# non-Hermitian product, which keeps about half of the digits near zero
WITNESS_TOL = 1e-6
# the search's value is computed on projected product factors, so it can sit
# below an exact witness by the projection's size (criterion 07 uses 1e-6)
WITNESS_SLACK = 1e-6


def _local_kraus(g, d, count, singular):
    """Random Kraus list on dimension d from a Haar isometry.  With
    ``singular`` the first operator is split along a random rank-1 projector
    into two rank-deficient operators, which keeps the closure."""
    q, _ = np.linalg.qr(_ginibre(g, d * count, d))
    local = [q[i * d:(i + 1) * d, :] for i in range(count)]
    if singular:
        x = _ginibre(g, d, 1)
        cut = x @ x.conj().T / float(np.vdot(x, x).real)
        k0 = local.pop(0)
        local = [k0 - cut @ k0, _haar_unitary(g, d) @ cut @ k0] + local
    return local


def _correlated_factors(g, dims, count, singular):
    """Kraus factors: one party carries a local channel, the others a
    different Haar unitary per branch."""
    party = int(g.integers(len(dims)))
    local = _local_kraus(g, dims[party], count, singular)
    return [[_haar_unitary(g, dims[i]) if i != party else k for i in range(len(dims))]
            for k in local]


def channel_factors(g, dims, count, style):
    """Local factors of a random separable channel with ``count`` Kraus
    operators; style 0 is correlated, 1 singular and 2 a mixture of two
    correlated channels."""
    if style == 0:
        return _correlated_factors(g, dims, count, singular=False)
    if style == 1:
        return _correlated_factors(g, dims, max(1, count - 1), singular=True)
    n1 = max(1, count // 2)
    lam = float(g.uniform(0.2, 0.8))
    ops = []
    for weight, part in ((lam, n1), (1.0 - lam, count - n1)):
        for factors in _correlated_factors(g, dims, part, singular=False):
            ops.append([math.sqrt(weight) * factors[0]] + factors[1:])
    return ops


def _kraus_item(kind, dims, factor_lists, rho, probe, opts) -> Item:
    channel = entlab.SeparableChannel(
        dims, tuple(entlab.SeparableKrausOperator(tuple(f)) for f in factor_lists))
    joints = np.stack([oracles.joint_operator(f) for f in factor_lists])
    decay = oracles.decay_from_factors(factor_lists)
    target = oracles.apply_ops(joints, probe)
    state = measure = lower = None
    if rho is not None:
        lower = oracles.wootters(oracles.apply_ops(joints, rho)) / oracles.wootters(rho)
        measure = entlab.concurrence()
        state = entlab.DensityMatrix(rho, dims)

    def call():
        est = entlab.erf.erf_minimize(channel, opts)
        bounds = entlab.erf.erf_bounds(channel, state, measure) if state is not None else None
        return est, bounds

    def check(out):
        est, bounds = out
        errors = []
        if est.value > decay + KRAUS_TOL:
            errors.append(f"value {est.value!r} above the given decay {decay!r}")
        u = est.mixing_isometry
        if not _close(u.conj().T @ u, np.eye(u.shape[1]), KRAUS_TOL):
            errors.append("mixing is not an isometry")
        mixed = np.einsum("jm,mab->jab", u, joints)
        if not _close(oracles.apply_ops(mixed, probe), target, KRAUS_TOL):
            errors.append("mixed Kraus list does not reproduce the channel")
        if bounds is not None:
            if est.value < lower - WITNESS_SLACK:
                errors.append(f"value {est.value!r} below the exact witness {lower!r}")
            if abs(bounds.lower - lower) > WITNESS_TOL:
                errors.append(f"lower bound {bounds.lower!r} != witness {lower!r}")
            if abs(bounds.upper - decay) > KRAUS_TOL:
                errors.append(f"upper bound {bounds.upper!r} != decay {decay!r}")
        return errors

    return Item(kind, call, check)


def build_kraus(seed: int) -> list:
    items = []
    for kind, dims, count in KRAUS_KINDS:
        g = generator(seed, "kraus-search", kind)
        d = math.prod(dims)
        for i in range(count):
            factors = channel_factors(g, dims, KRAUS_COUNT, i % 3)
            rho = entangled_two_qubit(g) if dims == (2, 2) else None
            probe = wishart(g, d, d)
            opts = entlab.MixingSearchOptions(seed=i, **KRAUS_OPTIONS)
            items.append(_kraus_item(kind, dims, factors, rho, probe, opts))
    return items


# ---------------------------------------------------------------------------
# closed-form: the README's CLI commands, run in-process

RATIO_TOL = 1e-9
DECAY_CEILING = 1.0 + 1e-10
THRESHOLD_TOL = 1e-3
DEPOLARIZING_THRESHOLD = 2.0 / 3.0


def _records(out):
    return [r for rc, report in out if rc == 0 for r in report["records"]]


def _exit_errors(out):
    return [f"exit status {rc}" for rc, _ in out if rc != 0]


def _check_random_verify(out):
    errors = _exit_errors(out)
    for r in _records(out):
        if abs(r["ratio"] - r["decay"]) > RATIO_TOL:
            errors.append(f"trial {r['trial']}: ratio {r['ratio']!r} != decay {r['decay']!r}")
        if r["decay"] > DECAY_CEILING:
            errors.append(f"trial {r['trial']}: decay {r['decay']!r} above 1")
    return errors


def _check_damping_ratio(gammas):
    def check(out):
        errors = _exit_errors(out)
        for (rc, report), gamma in zip(out, gammas):
            if rc != 0:
                continue
            expected = math.sqrt(1.0 - gamma)
            for r in report["records"]:
                if abs(r["ratio"] - expected) > RATIO_TOL:
                    errors.append(f"ratio {r['ratio']!r} != sqrt(1-{gamma}) = {expected!r}")
        return errors
    return check


def _check_damping_decay(out):
    errors = _exit_errors(out)
    for rc, report in out:
        if rc != 0:
            continue
        param = report["config"]["param"]
        if abs(report["summary"]["decay"] - math.sqrt(1.0 - param)) > RATIO_TOL:
            errors.append(f"decay at {param} is {report['summary']['decay']!r}")
    return errors


def _check_sweep(out):
    errors = _exit_errors(out)
    for r in _records(out):
        if abs(r["value"] - math.sqrt(1.0 - r["param"])) > RATIO_TOL:
            errors.append(f"sweep value at {r['param']} is {r['value']!r}")
    return errors


def _check_breaking(out):
    errors = _exit_errors(out)
    for rc, report in out:
        if rc != 0:
            continue
        param = report["config"]["param"]
        expected = param >= DEPOLARIZING_THRESHOLD
        if report["summary"]["breaking"] is not expected:
            errors.append(f"breaking verdict at p={param} is {report['summary']['breaking']!r}")
    return errors


def _check_bisect(out):
    errors = _exit_errors(out)
    for rc, report in out:
        if rc != 0:
            continue
        t = report["summary"]["threshold"]
        if t is None or abs(t - DEPOLARIZING_THRESHOLD) > THRESHOLD_TOL:
            errors.append(f"depolarizing threshold {t!r}")
    return errors


def _cli_item(kind, argvs, out_dir, check) -> Item:
    """Runs ``entlab.cli.main`` once per argv, each writing its own report.
    The check reads the reports back; a command that failed has none."""
    paths = [os.path.join(out_dir, f"report-{j}.json") for j in range(len(argvs))]

    def call():
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            for argv, path in zip(argvs, paths):
                codes.append(entlab.cli.main(list(argv) + ["--out", path]))
        return codes

    def checked(codes):
        out = []
        for rc, path in zip(codes, paths):
            report = None
            if rc == 0:
                with open(path, "r", encoding="utf-8") as fh:
                    report = json.load(fh)
            out.append((rc, report))
        return check(out)

    return Item(kind, call, checked)


def _fmt(x: float) -> str:
    return repr(round(float(x), 6))


def build_closed(seed: int, out_dir: str) -> list:
    """Ten command kinds, five items each; trial counts and call groups are
    sized so that every item costs about the same."""
    per_kind = 5
    items = []

    def seeds(g):
        return int(g.integers(1, 1_000_000))

    verify_random = (
        ("verify-random-2x2", ["--dims", "2,2"], 16),
        ("verify-random-2x2-mixed", ["--dims", "2,2", "--mixed"], 20),
        ("verify-random-2x2x2", ["--dims", "2,2,2", "--measure", "sqrt_three_tangle"], 18),
        ("verify-random-3x3", ["--dims", "3,3", "--measure", "g_concurrence"], 30),
    )
    for kind, extra, trials in verify_random:
        g = generator(seed, "closed-form", kind)
        for _ in range(per_kind):
            argv = ["verify", "--random-channel", "--kraus", str(int(g.integers(2, 6))),
                    "--trials", str(trials), "--seed", str(seeds(g))] + extra
            items.append(_cli_item(kind, [argv], out_dir, _check_random_verify))

    damping = (
        ("verify-damping-2x2", ["--dims", "2,2"], 120),
        ("verify-damping-2x2x2", ["--dims", "2,2,2", "--measure", "sqrt_three_tangle"], 100),
    )
    for kind, extra, trials in damping:
        g = generator(seed, "closed-form", kind)
        for _ in range(per_kind):
            gamma = float(_fmt(g.uniform(0.05, 0.95)))
            argv = ["verify", "--family", "amplitude-damping", "--param", str(gamma),
                    "--trials", str(trials), "--seed", str(seeds(g))] + extra
            items.append(_cli_item(kind, [argv], out_dir, _check_damping_ratio([gamma])))

    g = generator(seed, "closed-form", "decay")
    for _ in range(per_kind):
        argvs = [["decay", "--family", "amplitude-damping", "--param", _fmt(g.uniform(0.0, 1.0))]
                 for _ in range(12)]
        items.append(_cli_item("decay", argvs, out_dir, _check_damping_decay))

    g = generator(seed, "closed-form", "sweep")
    for _ in range(per_kind):
        argvs = []
        for _ in range(4):
            lo = _fmt(g.uniform(0.0, 0.3))
            step = ("0.05", "0.02", "0.04")[int(g.integers(3))]
            argvs.append(["sweep", "--family", "amplitude-damping", "--gamma",
                          f"{lo}:1:{step}", "--emit", "decay"])
        items.append(_cli_item("sweep", argvs, out_dir, _check_sweep))

    g = generator(seed, "closed-form", "breaking")
    for _ in range(per_kind):
        # parameters stay 0.05 away from the threshold on either side
        params = [g.uniform(0.05, 0.62) if j % 2 else g.uniform(0.72, 0.98) for j in range(4)]
        argvs = [["breaking", "--family", "depolarizing", "--param", _fmt(p),
                  "--seed", str(seeds(g))] for p in params]
        items.append(_cli_item("breaking", argvs, out_dir, _check_breaking))

    g = generator(seed, "closed-form", "breaking-bisect")
    for _ in range(per_kind):
        argvs = []
        for _ in range(3):
            lo, hi = _fmt(g.uniform(0.0, 0.3)), _fmt(g.uniform(0.9, 1.0))
            tol = ("1e-3", "5e-4", "2e-4")[int(g.integers(3))]
            argvs.append(["breaking", "--family", "depolarizing", "--bisect",
                          "--range", f"{lo}:{hi}", "--bisect-tol", tol])
        items.append(_cli_item("breaking-bisect", argvs, out_dir, _check_bisect))
    return items


# ---------------------------------------------------------------------------

def interleave(items: list) -> list:
    """Spreads each kind's items evenly over the round.  The machine's speed
    drifts over seconds; with each kind run as one block, the median and the
    tail item, which come from one or two kinds, would carry the drift of
    that block instead of that of the whole round."""
    counts = Counter(item.kind for item in items)
    seen = Counter()
    keyed = []
    for index, item in enumerate(items):
        keyed.append(((seen[item.kind] + 0.5) / counts[item.kind], index, item))
        seen[item.kind] += 1
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


def build(workload: str, seed: int, out_dir: str) -> list:
    if workload == "ensemble-search":
        items = build_ensemble(seed)
    elif workload == "kraus-search":
        items = build_kraus(seed)
    elif workload == "closed-form":
        items = build_closed(seed, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(items)


def warmup_items(workload: str, out_dir: str) -> list:
    """The first item of each kind, from the fixed warm-up seed.  The known
    miss is left out: it is a concurrence roof, a kind warmed up already."""
    seen = set()
    out = []
    for item in build(workload, WARMUP_SEED, out_dir):
        if item.kind not in seen and not item.known_fault:
            seen.add(item.kind)
            out.append(item)
    return out
