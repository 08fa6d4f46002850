"""Command-line harness: verification sweeps, representation searches, roof
evaluations and breaking scans, with machine-readable reports.

Reports are canonical JSON (sorted keys, shortest round-trip floats), so a
given (config, seed) pair reproduces byte-identical output; wall-clock timing
goes to stderr only.  CSV output is a flat projection of the per-trial
records for plotting.  Exit codes: 0 all checks pass, 1 invariant violation
(report still written), 2 usage or domain error, 3 I/O error, 4 a search or
sampler gave up (no entangled input, a Kraus mixing that left the channel,
or exhausted redraws).

``main`` builds its parser once per process and reuses it on every later
call, which saves in-process callers (tests, the benchmark, scripts that
drive ``main``) about 2 ms a call; a shell command parses once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .breaking import PPT_EIGENVALUE_TOL, eb_threshold_scan, r_peb_test
from .channels import (SeparableChannel, _running_sum, channel_from_json,
                       decay_factor, det_weights, is_random_unitary,
                       state_from_json, validate, verify_evolution)
from .erf import MixingSearchOptions, erf_bounds, erf_minimize
from .families import (CHANNEL_FAMILIES, LOCAL_FAMILIES, STATE_FAMILIES,
                       random_separable_channel)
from .linalg import LocalDims, PureState
from .measures import (Measure, concurrence, g_concurrence, measure_pure,
                       sqrt_three_tangle)
from .roof import RoofOptions, convex_roof
from .sampling import RandomStream, random_density, random_pure_state

# the most points a --param-range may ask for, checked before any is built
MAX_RANGE_POINTS = 100_000

# --- shared helpers ----------------------------------------------------------

def _parse_dims(text: str) -> LocalDims:
    try:
        return LocalDims(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"cannot parse dims {text!r}: {exc}") from exc


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}: needs finite start <= stop and step > 0")
    span = (hi - lo) / step
    if not np.isfinite(span):
        raise ValueError(f"bad range {text!r}: the point count (stop - start) / step "
                         f"is not finite")
    count = int(round(span)) + 1
    if count > MAX_RANGE_POINTS:
        raise ValueError(f"bad range {text!r}: {count} points, more than {MAX_RANGE_POINTS}")
    return [min(lo + i * step, hi) for i in range(count)
            if lo + i * step <= hi + 1e-12]


def _resolve_measure(name: str, dims: LocalDims) -> Measure:
    if name == "g_concurrence":
        if dims.n_parties != 2 or dims[0] != dims[1]:
            raise ValueError("g_concurrence needs square bipartite dims")
        return g_concurrence(dims[0])
    fixed = {"concurrence": concurrence, "sqrt_three_tangle": sqrt_three_tangle}
    if name not in fixed:
        raise ValueError(f"unknown measure {name!r}")
    return fixed[name]()


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise OSError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}") from exc


def _load_channel(path: str) -> SeparableChannel:
    channel = channel_from_json(_load_json(path))
    diag = validate(channel)
    if not diag.ok:
        raise ValueError(f"{path}: {'; '.join(diag.issues)}")
    return channel


def _family(table: dict, kind: str, name: str):
    """The builder registered under ``name``; an unknown name is a usage
    error that lists the known ones."""
    if name not in table:
        raise ValueError(f"unknown {kind} family {name!r}; known: {sorted(table)}")
    return table[name]


def _channel_from_args(args, dims: LocalDims) -> SeparableChannel | None:
    if args.channel:
        return _load_channel(args.channel)
    if args.family:
        return _family(CHANNEL_FAMILIES, "channel", args.family)(args.param, dims=dims.dims)
    return None


def _state_from_args(args):
    if args.state:
        return state_from_json(_load_json(args.state))
    if args.state_family:
        return _family(STATE_FAMILIES, "state", args.state_family)(args.param)
    return None


def _report(config: dict, records: list[dict], summary: dict) -> dict:
    return {
        "config": config,
        "library_version": __version__,
        "records": records,
        "summary": summary,
    }


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        records = report["records"]
        cols = sorted({k for r in records for k in r})
        lines = [",".join(cols)]
        for r in records:
            lines.append(",".join(_csv_cell(r.get(c)) for c in cols))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


# --- commands ----------------------------------------------------------------

def cmd_verify(args):
    dims = _parse_dims(args.dims)
    measure = _resolve_measure(args.measure, dims)
    fixed_channel = _channel_from_args(args, dims)
    if fixed_channel is None and not args.random_channel:
        raise ValueError("verify needs --channel, --family or --random-channel")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.tol is not None and not args.tol >= 0.0:
        raise ValueError(f"--tol must be a number >= 0, got {args.tol}")
    if args.mixed and measure.exact_mixed is None:
        raise ValueError(f"--mixed needs a measure with an exact mixed-state "
                         f"value; {measure.name!r} has none")
    fixed_state = _state_from_args(args)
    stream = RandomStream(args.seed)
    tol_outcome = args.tol if args.tol is not None else (1e-8 if args.mixed else 1e-9)
    tol_aggregate = args.tol if args.tol is not None else 1e-8

    def run_trial(t: int) -> dict:
        child = stream.child(t)
        channel = fixed_channel
        if channel is None:
            channel = random_separable_channel(dims, args.kraus, child.child(0))
        state = fixed_state
        if state is None:
            gen = child.child(1).generator()
            for _ in range(200):
                if args.mixed:
                    rank = int(gen.integers(1, dims.total + 1))
                    state = random_density(dims, rank, gen)
                    if measure.exact_mixed(state.mat[None])[0] > 1e-3:
                        break
                else:
                    state = random_pure_state(dims, gen)
                    if measure_pure(measure, state) > 1e-3:
                        break
            else:
                raise RuntimeError("no entangled input found")
        report = verify_evolution(channel, state, measure)
        return {
            "trial": t,
            "stream": list(child.stream),
            "decay": float(report.decay),
            "input_entanglement": float(report.input_entanglement),
            "ratio": float(report.average_output_entanglement / report.input_entanglement),
            "max_outcome_residual": float(max(report.per_outcome_residuals)),
            "aggregate_residual": float(report.aggregate_residual),
            "exact": bool(report.exact),
        }

    records = [run_trial(t) for t in range(args.trials)]
    max_outcome = max(r["max_outcome_residual"] for r in records)
    max_aggregate = max(r["aggregate_residual"] for r in records)
    ok = max_outcome <= tol_outcome and max_aggregate <= tol_aggregate
    summary = {
        "max_outcome_residual": max_outcome,
        "max_aggregate_residual": max_aggregate,
        "mean_ratio": float(np.mean([r["ratio"] for r in records])),
        "tol_outcome": tol_outcome,
        "tol_aggregate": tol_aggregate,
        "pass": ok,
    }
    return summary, records


def cmd_decay(args):
    dims = _parse_dims(args.dims)
    channel = _channel_from_args(args, dims)
    if channel is None:
        raise ValueError("decay needs --channel or --family")
    diag = validate(channel)
    weights = det_weights(channel)
    records = [{
        "op": m,
        "label": op.label or "",
        "det_weight": float(w),
    } for m, (op, w) in enumerate(zip(channel.ops, weights))]
    value = _running_sum(weights)
    ok = diag.ok and value <= 1.0 + 1e-10
    summary = {
        "decay": float(value),
        "closure_residual": float(diag.closure_residual),
        "random_unitary": bool(is_random_unitary(channel)),
        "pass": ok,
    }
    return summary, records


def cmd_erf(args):
    dims = _parse_dims(args.dims)
    channel = _channel_from_args(args, dims)
    if channel is None:
        raise ValueError("erf needs --channel or --family")
    opts = MixingSearchOptions(
        extra_operators=args.extra,
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    estimate = erf_minimize(channel, opts)
    records = [{"candidate": i, "value": float(v)}
               for i, v in enumerate(estimate.feasible_values)]
    ok = estimate.value <= 1.0 + 1e-8
    summary = {
        "value": float(estimate.value),
        "separability_residual": float(estimate.separability_residual),
        "search_feasible": bool(estimate.search_feasible),
        "exact": bool(estimate.exact),
        "decay_given_representation": float(decay_factor(channel)),
        "pass": ok,
    }
    state = _state_from_args(args)
    if state is not None:
        measure = _resolve_measure(args.measure, dims)
        bounds = erf_bounds(channel, state, measure)
        summary["lower_bound"] = float(bounds.lower)
        summary["upper_bound"] = float(bounds.upper)
        summary["bounds_exact"] = bool(bounds.exact)
        if bounds.exact:
            ordered = bool(bounds.lower <= estimate.value + 1e-6
                           and estimate.value <= bounds.upper + 1e-6)
            ok = bool(ok and ordered)
            summary["bounds_ordered"] = ordered
        summary["pass"] = ok
    return summary, records


def cmd_roof(args):
    state = _state_from_args(args)
    if state is None:
        raise ValueError("roof needs --state or --state-family")
    if isinstance(state, PureState):
        state = state.density()
    # the report echoes the dims the roof ran on, which the state fixes
    args.dims = ",".join(str(d) for d in state.dims)
    measure = _resolve_measure(args.measure, state.dims)
    opts = RoofOptions(restarts=args.restarts,
                       max_iterations=args.max_iterations, seed=args.seed)
    result = convex_roof(measure, state, opts)
    records = [{"restart": i, "value": float(v)}
               for i, v in enumerate(result.restart_values)]
    summary = {
        "value": float(result.value),
        "converged": bool(result.converged),
        "best_restart_index": int(result.best_restart_index),
        "ensemble_size": len(result.ensemble),
    }
    ok = result.converged
    if measure.exact_mixed is not None:
        oracle = float(measure.exact_mixed(state.mat[None])[0])
        summary["wootters"] = oracle
        summary["oracle_deviation"] = float(abs(result.value - oracle))
        ok = ok and abs(result.value - oracle) < 1e-4
    summary["pass"] = ok
    return summary, records


def cmd_breaking(args):
    family = _family(LOCAL_FAMILIES, "local", args.family)
    if args.bisect:
        try:
            lo, hi = (float(x) for x in args.range.split(":"))
        except ValueError as exc:
            raise ValueError(f"--range must be lo:hi, got {args.range!r}") from exc
        scan = eb_threshold_scan(family, args.r, lo, hi,
                                 tol=args.bisect_tol, seed=args.seed)
        records = [{"param": p, "breaking": f} for p, f in scan.grid]
        # verdict_tolerance bounds partial-transpose eigenvalues, not the
        # parameter: a verdict accepts eigenvalues down to minus it, so the
        # bracket is only as sharp as that tolerance over the eigenvalue's
        # slope in the parameter, which depends on the family
        summary = {
            "threshold": scan.threshold,
            "bracket": list(scan.bracket) if scan.bracket is not None else None,
            "verdict_tolerance": -PPT_EIGENVALUE_TOL,
            "never_breaking": scan.never_breaking,
            "always_breaking": scan.always_breaking,
            "pass": True,
        }
        return summary, records
    report = r_peb_test(family(args.param), args.r, probes=args.probes,
                        seed=args.seed)
    records = [{
        "probe": v.probe_index,
        "method": v.method,
        "breaking": v.breaking,
    } for v in report.verdicts]
    summary = {
        "breaking": report.breaking,
        "agreement": bool(report.agreement),
        "divergent_probes": list(report.divergent_probes),
        "pass": bool(report.agreement),
    }
    return summary, records


def cmd_sweep(args):
    dims = _parse_dims(args.dims)
    family = _family(CHANNEL_FAMILIES, "channel", args.family)
    records = []
    for param in _parse_range(args.param_range):
        channel = family(param, dims=dims.dims)
        if args.emit == "decay":
            value = decay_factor(channel)
        else:
            opts = MixingSearchOptions(restarts=args.restarts, seed=args.seed)
            value = erf_minimize(channel, opts).value
        records.append({"param": float(param), "value": float(value)})
    values = [r["value"] for r in records]
    ok = all(v <= 1.0 + 1e-10 for v in values)
    summary = {
        "points": len(records),
        "min_value": min(values),
        "max_value": max(values),
        "pass": ok,
    }
    return summary, records


# --- argument parsing ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process: nothing mutates it, and each ``parse_args`` returns
    a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Entanglement evolution under separable operations: "
                    "verification sweeps, resilience-factor searches, convex "
                    "roofs and breaking scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several commands, each given only to those that read it
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="report path (default stdout)")
    output.add_argument("--format", choices=("json", "csv"), default="json")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--dims", default="2,2", help="local dims, e.g. 2,2")
    evolution = argparse.ArgumentParser(add_help=False)
    evolution.add_argument("--channel", help="channel JSON file")
    evolution.add_argument("--family", help="named channel family")
    evolution.add_argument("--param", type=float, default=0.3,
                         help="feeds --family and --state-family alike: werner "
                              "at the default 0.3 is separable, so the run exits 2")
    evolution.add_argument("--state", help="state JSON file")
    evolution.add_argument("--state-family", help="named state family")
    evolution.add_argument("--measure", default="concurrence")

    p = sub.add_parser("verify", parents=[output, seeded, sized, evolution],
                       help="check the decay identity outcome by outcome")
    p.add_argument("--random-channel", action="store_true")
    p.add_argument("--kraus", type=int, default=4)
    p.add_argument("--mixed", action="store_true",
                   help="draw mixed inputs (needs a measure with an exact "
                        "mixed-state value: concurrence or g_concurrence on 2,2)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("decay", parents=[output, sized],
                       help="determinant weights of a representation")
    p.add_argument("--channel")
    p.add_argument("--family")
    p.add_argument("--param", type=float, default=0.3)

    p = sub.add_parser("erf", parents=[output, seeded, sized, evolution],
                       help="search separable representations")
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--max-iterations", type=int, default=120)
    p.add_argument("--extra", type=int, default=0)

    p = sub.add_parser("roof", parents=[output, seeded],
                       help="convex-roof value of a mixed state")
    p.add_argument("--state")
    p.add_argument("--state-family")
    p.add_argument("--param", type=float, default=0.5, help="state family parameter")
    p.add_argument("--p", dest="param", type=float, help="alias for --param")
    p.add_argument("--measure", default="concurrence")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iterations", type=int, default=300)

    p = sub.add_parser("breaking", parents=[output, seeded],
                       help="partial entanglement-breaking scan")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--param", type=float, default=0.5)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--bisect", action="store_true")
    p.add_argument("--range", default="0:1", help="bisection range lo:hi")
    p.add_argument("--bisect-tol", type=float, default=1e-3)

    p = sub.add_parser("sweep", parents=[output, seeded, sized],
                       help="parameter sweep emitting plot-ready data")
    p.add_argument("--family", required=True)
    p.add_argument("--param-range", default="0:1:0.05")
    p.add_argument("--gamma", dest="param_range", help="alias for --param-range")
    p.add_argument("--p", dest="param_range", help="alias for --param-range")
    p.add_argument("--emit", choices=("decay", "erf"), default="decay")
    p.add_argument("--restarts", type=int, default=4)

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "decay": cmd_decay,
    "erf": cmd_erf,
    "roof": cmd_roof,
    "breaking": cmd_breaking,
    "sweep": cmd_sweep,
}


def _config_echo(args) -> dict:
    skip = {"out", "format"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and not k.startswith("_")}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        summary, records = _COMMANDS[args.command](args)
        report = _report(_config_echo(args), records, summary)
        _emit(report, args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"entlab: I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"entlab: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"entlab: {exc}", file=sys.stderr)
        return 4
    finally:
        elapsed = time.monotonic() - started
        print(f"entlab {args.command}: {elapsed:.3f}s", file=sys.stderr)
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
