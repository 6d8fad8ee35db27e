"""Benchmark of disconer: training, greedy prediction and the symbolic pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-synth --seed 1 --seconds 10 --trace 0

`--workload all` (the default) runs every workload in this one process.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it serves part of the time untraced, then one pass with every layer
wrapped, and reports the per-layer metrics. The last line of standard output
is one JSON object; the full result, the machine description and (traced)
the spans are written to .bench_out/ in the checkout. The exit code is 1
when a correctness check fails and 2 when the checkout has no src/.
"""

from __future__ import annotations

import os

# one thread, BLAS included; set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_MIN_REPEATS = 3
SETUP_MIN_TOTAL_S = 1.0
SETUP_MAX_REPEATS = 15
# Between passes, a run also runs the CLI command, so that its median samples
# the host's speed over the whole window, not during one second of it: at
# least CLI_MIN_RUNS runs, due at even fractions of the window, and more while the
# CLI has taken less than CLI_SHARE of the window so far.
CLI_MIN_RUNS = 8
CLI_SHARE = 0.2
# The CLI runs start after RSS_PASSES passes (one training run and the start
# of the next), and peak_rss_mb is read just before. Allocations interleaved
# at times that vary from run to run move the peak RSS by whole 16 MB arrays
# on train-vocab20k, through glibc's adaptive mmap threshold.
RSS_PASSES = 3
CLI_STARTUP_REPEATS = 3


def percentile_tail(n: int) -> float:
    """The highest of 99.9/99/90/50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def machine() -> dict:
    import numpy as np
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def source_digest() -> str:
    from workloads import sha256
    files = sorted(SRC.rglob("*.py"))
    return sha256(*(x for f in files for x in (f.relative_to(SRC).as_posix(), f.read_bytes())))


def check_digests(workload: str, seed: int, digests: dict) -> str | None:
    """Compare with earlier runs of the same source and seed; record this one."""
    path = OUT / "digests.json"
    try:
        store = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        store = {}
    key = f"{source_digest()}:{workload}:{seed}"
    earlier = store.get(key)
    if earlier is not None and earlier != digests:
        return f"digests differ from an earlier run of the same source and seed: {earlier}"
    store[key] = digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return None


def timed_setup(wl, seed: int):
    times, state = [], None
    while (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_TOTAL_S) \
            and len(times) < SETUP_MAX_REPEATS:
        t0 = time.perf_counter()
        state = wl.setup(seed)
        times.append(time.perf_counter() - t0)
    return state, times


def cli_due(wl, elapsed: float, seconds: float) -> bool:
    runs, spent = len(wl.cli_walls), sum(wl.cli_walls)
    return runs < CLI_MIN_RUNS * min(elapsed / seconds, 1.0) or spent < CLI_SHARE * elapsed


def serve(wl, st, seconds: float, lat: list,
          with_cli: bool = False) -> tuple[list[tuple[float, int, int]], float]:
    """Run passes until `seconds` have gone by.

    Returns (wall, tokens, latencies) per pass and the peak RSS in MB after
    RSS_PASSES passes. With `with_cli`, the workload's CLI command also runs
    between the passes after those.
    """
    passes = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        n0 = len(lat)
        t0 = time.perf_counter()
        tokens = wl.run_pass(st, lat)
        passes.append((time.perf_counter() - t0, tokens, len(lat) - n0))
        if len(passes) == RSS_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while (with_cli and len(passes) >= RSS_PASSES
               and cli_due(wl, time.perf_counter() - start, seconds)):
            wl.run_cli()
        if (time.perf_counter() - start >= seconds and len(passes) >= RSS_PASSES
                and wl.can_stop(st)):
            return passes, peak_rss_mb


def run_untraced(wl, seed: int, seconds: float) -> dict:
    import numpy as np
    st, setup_times = timed_setup(wl, seed)
    lat: list[float] = []
    passes, peak_rss_mb = serve(wl, st, seconds, lat, with_cli=True)
    steady = passes[1:]        # the first pass warms up
    ms = np.sort(np.asarray(lat[passes[0][2]:])) * 1e3
    outcome = wl.finish(st)
    metrics = {
        "tok_per_s": (sum(p[1] for p in steady) / sum(p[0] for p in steady), "tok/s"),
        "cli_wall_s": (outcome.cli_wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    # every end-to-end metric under the name the workload gives it, with
    # its sample count; latency also gets its highest well-sampled percentile
    n, tail = len(ms), percentile_tail(len(ms))
    measured = f"{len(steady)} measured passes"
    named = {
        "tok_per_s": metrics["tok_per_s"] + (measured,),
        "sent_per_s": (n / sum(p[0] for p in steady), "sent/s", measured),
        "sent_p50_ms": (float(np.percentile(ms, 50)), "ms", f"n={n}"),
        "sent_p99_ms": (float(np.percentile(ms, 99)), "ms", f"n={n}"),
        f"sent_p{tail:g}_ms": (float(np.percentile(ms, tail)), "ms",
                               f"n={n}; highest percentile with >= 10 samples beyond it"),
        "cli_wall_s": metrics["cli_wall_s"] + (f"median of {len(wl.cli_walls)} runs",),
        "peak_rss_mb": metrics["peak_rss_mb"] + ("",),
        "setup_s": metrics["setup_s"] + (f"median of {len(setup_times)} set-ups",),
        "error_rate": (wl.failed / max(wl.attempted, 1), "ratio",
                       f"{wl.failed} failed of {wl.attempted}"),
    }
    named = {wl.prefix + k if k.startswith(wl.renamed) else k: v for k, v in named.items()}
    named.update({k: (v.value, v.unit, "") for k, v in outcome.named.items()})
    return {"metrics": metrics, "named": named,
            "samples": {"setup_s": setup_times, "pass_s": [p[0] for p in passes],
                        "cli_wall_s": wl.cli_walls},
            "digests": {"input": outcome.input_digest, "output": outcome.output_digest}}


def run_traced(wl, seed: int, seconds: float) -> dict:
    from tracer import Tracer
    st = wl.setup(seed)
    lat: list[float] = []
    base = serve(wl, st, seconds / 2, lat)[0][-1]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        wl.trace_prelude(st)
        tracer.close_all()
        t0 = time.perf_counter()
        tokens = wl.run_pass(st, lat, tracer)
        t1 = time.perf_counter()
        tracer.close_all()
        tracer.active = False
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(t0, t1)
    counts = tracer.counts
    apply_calls = counts["transitions.apply"]
    layers.update({
        "autodiff.tape_nodes_per_token": sum(len(t.nodes) for t in tracer.tapes) / tokens,
        "neural.grad_bytes_per_sent": counts["grad_bytes"] / max(counts["sgd_steps"], 1),
        "transitions.steps_per_token": apply_calls / tokens,
        "transitions.valid_actions.calls_per_step":
            counts["transitions.valid_actions"] / apply_calls if apply_calls else 0.0,
        "transitions.oracle.uncovered": getattr(st, "uncovered", 0),
        "cli.startup_s": statistics.median(
            wl.cli.python("-c", "import disconer.cli")[0] for _ in range(CLI_STARTUP_REPEATS)),
        "trace.overhead": ((t1 - t0) / tokens) / (base[0] / base[1]),
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.json",
                 {"workload": wl.name, "seed": seed, "wall_s": t1 - t0})
    return {"layers": layers, "traced_wall_s": t1 - t0,
            "untraced_pass_s": base[0], "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "disconer" / "__init__.py").is_file():
        print(f"error: no disconer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import disconer
    if Path(disconer.__file__).resolve().parent != SRC / "disconer":
        print(f"error: disconer imported from {disconer.__file__}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    desc = machine()
    results = {}
    for name in names:
        workdir = OUT / name
        workdir.mkdir(exist_ok=True)
        wl = workloads.WORKLOADS[name](workloads.Cli(SRC, workdir))
        problems = []
        try:
            if args.trace:
                res = run_traced(wl, args.seed, args.seconds)
                metrics = {k: (v, unit_of(k)) for k, v in res["layers"].items()}
            else:
                res = run_untraced(wl, args.seed, args.seconds)
                metrics = res["metrics"]
                problem = check_digests(name, args.seed, res["digests"])
                if problem:
                    problems.append(problem)
        except workloads.CheckFailed as exc:
            problems.append(str(exc))
            res, metrics = {}, {}
        if wl.failed:
            problems.append(f"{wl.failed} of {wl.attempted} operations failed")
        res.update(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   attempted=wl.attempted, failed=wl.failed, problems=problems)
        results[name] = (res, metrics)
        report(name, res, metrics)

    desc["loadavg_start"], desc["loadavg_end"] = load_start, os.getloadavg()
    print(f"machine: {json.dumps(desc)}")
    for name, (res, _) in results.items():
        res["machine"] = desc
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, sort_keys=True, default=str),
                        encoding="utf-8")

    correct = all(not res["problems"] and metrics for res, metrics in results.values())
    if len(results) == 1:
        res, metrics = next(iter(results.values()))
        line_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        line_metrics = {f"{n}.{k}": {"value": v, "unit": u}
                        for n, (_, metrics) in results.items() for k, (v, u) in metrics.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": max(sum(r["attempted"] for r, _ in results.values()), 1),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": line_metrics,
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(("_s", ".self_s", ".bwd_s")):
        return "s"
    return {"autodiff.tape_nodes_per_token": "nodes/tok",
            "neural.grad_bytes_per_sent": "B/sent",
            "transitions.steps_per_token": "steps/tok",
            "transitions.valid_actions.calls_per_step": "calls/step",
            "transitions.oracle.uncovered": "count",
            "trace.overhead": "ratio",
            "trace.uncovered_share": "ratio"}[name]


def report(name: str, res: dict, metrics: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    print(f"== {name}  seed={res['seed']}  trace={res['trace']}")
    for k, (v, u, note) in sorted(res.get("named", {}).items()):
        print(f"  {k:<26} {v:>14.6g} {u:<8} {note}")
    if res["trace"]:
        for k, (v, u) in sorted(metrics.items()):
            print(f"  {k:<48} {v:>14.6g} {u}")
        print(f"  error_rate {res['failed']}/{res['attempted']}")
    for digest, value in res.get("digests", {}).items():
        print(f"  {digest}_digest {value}")
    for problem in res["problems"]:
        print(f"  CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
