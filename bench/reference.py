"""Reference figures for the searches, measured one call at a time.

    python3 bench/reference.py            # about two minutes

Prints the wall time, percentiles and descent counts of: 100 two-qubit
concurrence roofs at restarts=4, rank-2 three-tangle roofs at restarts=2 and
rank-2 G-concurrence(3) roofs at restarts=4 (both with the default iteration
budget), erf_minimize with the criterion-07 options per local dimension
(2-4 Kraus operators), and two noise probes: one erf_minimize repeated ten
times, and five passes over the same ten roofs.  Counts come from the
tracer and repeat exactly; times do not.
"""

from __future__ import annotations

import run  # noqa: F401  (pins the thread pools before numpy is imported)

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

run._import_entlab()

import entlab  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 4242


def _timed(calls, tracer=None):
    """Wall and CPU milliseconds of each call, optionally traced."""
    if tracer is not None:
        tracer.install()
    wall, cpu = [], []
    try:
        for call in calls:
            w0, c0 = time.perf_counter(), time.process_time()
            call()
            wall.append((time.perf_counter() - w0) * 1e3)
            cpu.append((time.process_time() - c0) * 1e3)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu


def _pct(values, q):
    return float(np.percentile(values, q))


def _two_qubit_states(g, count):
    return [workloads.entangled_two_qubit(g, workloads.REFERENCE_FLOOR) for _ in range(count)]


def roofs_two_qubit():
    g = workloads.generator(SEED, "reference", "two-qubit")
    states = _two_qubit_states(g, 100)
    measure = entlab.concurrence()
    results = []

    def solve(rho, i):
        res = entlab.convex_roof(measure, entlab.DensityMatrix(rho, (2, 2)),
                                 entlab.RoofOptions(restarts=4, seed=i))
        results.append(abs(res.value - oracles.wootters(rho)))

    wall, _ = _timed([lambda r=r, i=i: solve(r, i) for i, r in enumerate(states)])
    tracer = Tracer()
    _timed([lambda r=r, i=i: solve(r, i) for i, r in enumerate(states)], tracer)
    counts = tracer.counts
    print(f"two-qubit roofs, 100 states, restarts=4: total {sum(wall) / 1e3:.1f} s, "
          f"p50 {_pct(wall, 50):.0f} ms, p90 {_pct(wall, 90):.0f} ms, max {max(wall):.0f} ms; "
          f"{counts['stiefel.iterations']} iterations, {counts['stiefel.value_evals']} "
          f"value-only and {counts['stiefel.grad_evals']} gradient evaluations; worst gap to Wootters {max(results):.1e}")


def roofs_rank_two():
    for label, measure, dims, restarts in (
            ("three-tangle", entlab.sqrt_three_tangle(), (2, 2, 2), 2),
            ("G-concurrence(3)", entlab.g_concurrence(3), (3, 3), 4)):
        g = workloads.generator(SEED, "reference", label)
        states = [entlab.DensityMatrix(workloads.wishart(g, int(np.prod(dims)), 2), dims)
                  for _ in range(5)]
        opts = [entlab.RoofOptions(restarts=restarts, seed=i) for i in range(5)]
        wall, _ = _timed([lambda s=s, o=o: entlab.convex_roof(measure, s, o)
                          for s, o in zip(states, opts)])
        tracer = Tracer()
        _timed([lambda s=s, o=o: entlab.convex_roof(measure, s, o)
                for s, o in zip(states, opts)], tracer)
        c = tracer.counts
        print(f"rank-2 {label} roofs, 5 states, restarts={restarts}: "
              f"mean {statistics.mean(wall) / 1e3:.2f} s per item, "
              f"{(c['stiefel.value_evals'] + c['stiefel.grad_evals']) / c['stiefel.iterations']:.2f} "
              f"evaluations per iteration")


def kraus_searches():
    opts = entlab.MixingSearchOptions(restarts=2, max_iterations=60)
    parts = []
    for dims in ((2, 2), (2, 2, 2), (3, 3)):
        g = workloads.generator(SEED, "reference", f"erf-{dims}")
        channels = []
        for i in range(20):
            factors = workloads.channel_factors(g, dims, 2 + i % 3, (i // 3) % 3)
            channels.append(entlab.SeparableChannel(dims, tuple(
                entlab.SeparableKrausOperator(tuple(f)) for f in factors)))
        wall, _ = _timed([lambda ch=ch: entlab.erf_minimize(ch, opts) for ch in channels])
        parts.append(f"p50 {_pct(wall, 50):.0f} ms on {dims}")
    print("erf_minimize, 20 channels per dims, 2-4 Kraus operators: " + ", ".join(parts))


def noise():
    g = workloads.generator(SEED, "reference", "noise")
    factors = workloads.channel_factors(g, (2, 2), 3, 0)
    channel = entlab.SeparableChannel((2, 2), tuple(
        entlab.SeparableKrausOperator(tuple(f)) for f in factors))
    opts = entlab.MixingSearchOptions(restarts=2, max_iterations=60)
    _, cpu = _timed([lambda: entlab.erf_minimize(channel, opts)] * 10)
    counts = set()
    for _ in range(2):
        tracer = Tracer()
        _timed([lambda: entlab.erf_minimize(channel, opts)], tracer)
        c = tracer.counts
        counts.add((c["stiefel.iterations"], c["stiefel.value_evals"] + c["stiefel.grad_evals"]))
    print(f"one erf_minimize repeated: counts (iterations, evaluations) {sorted(counts)}, "
          f"CPU {min(cpu):.0f}-{max(cpu):.0f} ms over 10 runs")

    states = [entlab.DensityMatrix(rho, (2, 2)) for rho in _two_qubit_states(g, 10)]
    measure = entlab.concurrence()
    passes = []
    for _ in range(5):
        wall, _ = _timed([lambda s=s, i=i: entlab.convex_roof(
            measure, s, entlab.RoofOptions(restarts=4, seed=i)) for i, s in enumerate(states)])
        passes.append(sum(wall) / 1e3)
    print(f"five passes over the same ten roofs: {min(passes):.2f}-{max(passes):.2f} s")


def main() -> int:
    roofs_two_qubit()
    roofs_rank_two()
    kraus_searches()
    noise()
    return 0


if __name__ == "__main__":
    sys.exit(main())
