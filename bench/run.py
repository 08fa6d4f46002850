"""Benchmark for entlab: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload ensemble-search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Run from the root of a checkout; entlab is imported from ``src/`` of the
checkout that holds this file.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  ``failed`` counts every failed check, including those of
inputs marked as known faults; ``correct`` is false, and the exit status 1,
if any other output failed its check.  The exit status is 2 if the
benchmark could not start.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy is imported; run entlab's
# trials serially.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("ENTLAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("ensemble-search", "kraus-search", "closed-form")
# Set-up is timed this many times before the timed loop and after it, and
# the median reported: the machine's speed drifts over tens of seconds, and
# set-ups timed on both sides of the loop do not all fall in one phase.
SETUP_BEFORE, SETUP_AFTER = 3, 2
# item_tail_ms is the per-item quantile with this many items above it
TAIL_BEYOND = 10

END_TO_END = (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_entlab():
    """Import entlab from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "entlab", "__init__.py")
    if not os.path.isfile(init):
        _fail(f"no entlab sources at {init}")
    sys.path.insert(0, SRC)
    import entlab
    if os.path.abspath(entlab.__file__) != init:
        _fail(f"imported entlab from {entlab.__file__}, not {init}")


def _fresh_import() -> None:
    """Import entlab in a new interpreter, as a user pays for it."""
    subprocess.run([sys.executable, "-c", "import entlab"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True,
                   stdin=subprocess.DEVNULL)


class Run:
    """Attempts, failures and per-input times of one workload run."""

    def __init__(self, items):
        self.items = items
        self.times = [[] for _ in items]
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.messages = []

    def round(self, tracer=None) -> float:
        """Run every item once; returns the summed item time in seconds."""
        total = 0.0
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.current_item = i
            started = time.perf_counter()
            try:
                out = item.call()
            except Exception as exc:  # an item that raises is a failed item
                elapsed = time.perf_counter() - started
                errors = [f"{type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - started
                errors = item.check(out)
            total += elapsed
            self.times[i].append(elapsed)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.known_failed += item.known_fault
                label = "KNOWN FAULT" if item.known_fault else "FAILED"
                if len(self.messages) < 20:
                    self.messages.append(f"{label} {item.kind} #{i}: {'; '.join(errors)}")
        return total


def _setup(workloads_mod, workload: str, seed: int, out_dir: str):
    """Import in a fresh interpreter, build the inputs and warm up.  Returns
    (seconds taken, items)."""
    started = time.perf_counter()
    _fresh_import()
    items = workloads_mod.build(workload, seed, out_dir)
    for item in workloads_mod.warmup_items(workload, out_dir):
        item.call()
    return time.perf_counter() - started, items


def _end_to_end(run: Run, loop_s: float, setup_s: float) -> dict:
    per_input = sorted(statistics.median(t) for t in run.times)
    return {
        "items_per_s": run.attempted / loop_s,
        "item_p50_ms": statistics.median(per_input) * 1e3,
        "item_tail_ms": per_input[-TAIL_BEYOND - 1] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: str):
    import workloads as workloads_mod
    setups = []
    for _ in range(SETUP_BEFORE):
        took, items = _setup(workloads_mod, workload, seed, out_dir)
        setups.append(took)
    if len(items) < TAIL_BEYOND * 4:
        _fail(f"{workload} has {len(items)} items, needs {TAIL_BEYOND * 4}")
    run = Run(items)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if trace:
        metrics, rounds = _traced(run, seconds, wall0, workload, seed)
    else:
        loop_s = 0.0
        rounds = 0
        while True:
            round_s = run.round()
            loop_s += round_s
            rounds += 1
            if time.perf_counter() - wall0 + round_s > seconds:
                break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if trace:
        from tracing import LAYER_METRICS
        units = dict(LAYER_METRICS)
    else:
        setups += [_setup(workloads_mod, workload, seed, out_dir)[0]
                   for _ in range(SETUP_AFTER)]
        metrics = _end_to_end(run, loop_s, statistics.median(setups))
        units = dict(END_TO_END)
    print(f"# {workload} seed={seed} items={len(items)} rounds={rounds} "
          f"wall={wall:.3f}s cpu={cpu:.3f}s cpu/wall={cpu / wall:.3f} "
          f"setups={' '.join(f'{t:.3f}' for t in setups)}s", file=sys.stderr)
    _print_kinds(run)
    for message in run.messages:
        print(f"# {message}", file=sys.stderr)
    return {
        "correct": run.failed == run.known_failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _print_kinds(run: Run) -> None:
    """Per-kind count and per-input median times, to standard error."""
    kinds = {}
    for item, times in zip(run.items, run.times):
        kinds.setdefault(item.kind, []).append(statistics.median(times) * 1e3)
    for kind, ms in kinds.items():
        print(f"#   {kind:26s} n={len(ms):3d} sum={sum(ms):9.1f}ms "
              f"p50={statistics.median(ms):8.2f}ms max={max(ms):8.2f}ms", file=sys.stderr)


def _traced(run: Run, seconds: float, wall0: float, workload: str, seed: int):
    """Alternate untraced and traced rounds; counts come from the first traced
    round (and must repeat in later ones), times are medians over rounds."""
    from tracing import LAYER_METRICS, Tracer
    plain, traced, layers = [], [], []
    while True:
        pair_started = time.perf_counter()
        plain.append(run.round())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run.round(tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        if len(layers) == 1:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.save(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.npz"))
        del tracer
        pair_s = time.perf_counter() - pair_started
        if time.perf_counter() - wall0 + pair_s > seconds:
            break
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [m.get(name, 0.0) for m in layers]
        if unit == "count":
            if any(v != values[0] for v in values):
                print(f"# count {name} differs between traced rounds: {values}",
                      file=sys.stderr)
            metrics[name] = int(values[0])
        elif name != "trace.overhead_pct":
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced)
                                             / statistics.median(plain) - 1.0)
    return metrics, len(layers)


def _print_report(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"   {name:32s} {m['value']:.6g} {m['unit']}")


def run_child(workload: str, seed: int, seconds: float, trace: int, stderr=None) -> list:
    """Runs one workload in a new process; returns its standard output lines,
    the last of which is the JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        _fail(f"{workload} seed {seed} exited {proc.returncode}")
    return lines


def _run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in its own process so that its peak_rss_mb is
    its own.  Metric names are prefixed with the workload."""
    results = {}
    for name in WORKLOADS:
        lines = run_child(name, seed, seconds, trace)
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_entlab()
    if args.workload == "all":
        final = _run_all(args.seed, args.seconds, args.trace)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        try:
            final = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        _print_report(args.workload, final)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
