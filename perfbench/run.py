"""ncu2 benchmark: three closed-loop workloads over the exact calculus,
the command line and the lattice solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``ncu2`` is imported from ``src/``.
The seed fixes the inputs.  A run makes one untimed warm-up pass over
its pool of requests where the workload keeps caches (theta-mult),
then whole timed passes until ``--seconds`` have
elapsed, so every run measures the same multiset of requests whatever
the speed of the code.  Every output is checked.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over the same pool
and reports per-layer metrics and the tracing overhead (the gap between
the traced and untraced totals).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
(environment, input fingerprint, every metric, failures by cause) goes
to perfbench/out/.  See perfbench/README.md for what each workload
predicts.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from common import OUT_DIR, MissingSource, environment, use_checkout_source

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)
# fresh processes timed per run for setup_s, spread over the timed passes
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10


@dataclass
class Record:
    idx: int
    latency_s: float
    returned: bool
    work: float = 0.0
    cause: str | None = None
    message: str = ""


def _import_ncu2():
    use_checkout_source()
    import ncu2  # noqa: F401


def _make_workload(name):
    from workloads import WORKLOADS

    return WORKLOADS[name]()


# -- set-up -----------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> int:
    """Child side of the set-up measurement: import, build the pool, report."""
    _import_ncu2()
    _make_workload(workload).make_pool(seed)
    print(repr(time.monotonic()))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from process start until the first request is ready.

    The probe is a fresh interpreter, so the figure covers start-up,
    ``import ncu2`` and input generation.  CLOCK_MONOTONIC is shared by
    all processes, so the probe's ready time and the spawn time compare.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


# -- passes -----------------------------------------------------------------------


def run_pass(wl, pool, tracer=None) -> list:
    """One pass over the pool: time each request, then check the outputs."""
    from spans import REQUEST

    timed = []
    if tracer is not None:
        tracer.install()
    try:
        for idx, req in enumerate(pool):
            out = err = None
            if tracer is not None:
                tracer.request_id = idx
                span = tracer.span(REQUEST)
                span.__enter__()
            t0 = time.perf_counter()
            try:
                out = wl.run(req, tracer)
            except Exception as exc:  # a failed request is a result, not a crash
                err = exc
            t1 = time.perf_counter()
            if tracer is not None:
                span.__exit__(None, None, None)
            timed.append((t1 - t0, out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.request_id = None

    from workloads import CheckFailed

    records = []
    for idx, (req, (latency, out, err)) in enumerate(zip(pool, timed)):
        if err is not None:
            records.append(Record(idx, latency, False, cause=wl.error_cause(req, err), message=str(err)[:300]))
            continue
        rec = Record(idx, latency, True, work=wl.work(req, out))
        try:
            wl.check(idx, req, out)
        except CheckFailed as exc:
            rec.cause, rec.message = exc.cause, str(exc)[:300]
        except Exception as exc:
            rec.cause, rec.message = f"checker-{type(exc).__name__}", str(exc)[:300]
        records.append(rec)
    return records


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, pool_size=None, workload=None, setup_probes=SETUP_PROBES
) -> dict:
    """Run one workload; returns the full result record.

    ``seconds`` counts the passes (requests and their checks) only.  An
    untraced run also times ``setup_probes`` fresh processes: one after
    each pass once its share of ``seconds`` has gone by, the rest after
    the last pass, so the probes sample the run's whole span of time.
    """
    from spans import Tracer

    _import_ncu2()
    wl = workload or _make_workload(name)
    setup_tracer = Tracer() if trace else None
    if setup_tracer is not None:
        setup_tracer.install()
    try:
        pool = wl.make_pool(seed, pool_size)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    wl.prepare(pool)
    if wl.warmup:
        run_pass(wl, pool)

    tracer = Tracer() if trace else None
    probes = 0 if trace else setup_probes
    records, traced, untraced, setup = [], [], [], []
    elapsed = 0.0
    while True:
        traced_pass = trace and len(untraced) > len(traced)
        t0 = time.monotonic()
        recs = run_pass(wl, pool, tracer if traced_pass else None)
        elapsed += time.monotonic() - t0
        (traced if traced_pass else untraced).append(sum(r.latency_s for r in recs))
        records += recs
        if len(setup) < probes and elapsed >= len(setup) * seconds / probes:
            setup.append(measure_setup(name, seed))
        if elapsed >= seconds and len(traced) == (len(untraced) if trace else 0):
            break
    while len(setup) < probes:
        setup.append(measure_setup(name, seed))

    failures = collections.Counter(r.cause for r in records if r.cause)
    examples = {}
    for r in records:
        if r.cause and r.cause not in examples:
            examples[r.cause] = r.message
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": {"seed": seed, **wl.fingerprint(pool)},
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "latencies_s": [r.latency_s for r in records],
        "attempted": len(records),
        "failed": sum(failures.values()),
        "failures": {"by_cause": dict(failures), "examples": examples},
        "correct": set(failures) <= wl.known_failures,
    }
    if trace:
        result["layers"] = layer_metrics(tracer, setup_tracer, sum(traced), sum(untraced), len(traced) * len(pool))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.json")
    else:
        result["end_to_end"] = end_to_end_metrics(records, wl.peak_rss_kb() / 1024.0)
        result["end_to_end"]["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    return result


# -- metrics ----------------------------------------------------------------------


def _percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_vals) * p // 100) - 1)
    return sorted_vals[int(k)]


def end_to_end_metrics(records, peak_rss_mb) -> dict:
    lat = sorted(r.latency_s for r in records)
    returned = [r for r in records if r.returned]
    busy = sum(r.latency_s for r in returned)
    failed = sum(1 for r in records if r.cause)
    out = {
        "throughput_per_s": sum(r.work for r in returned) / busy if busy else 0.0,
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "ok_frac": 1.0 - failed / len(records),
        "failed_frac": failed / len(records),
        "peak_rss_mb": peak_rss_mb,
        "samples": len(lat),
    }
    if len(lat) * (100 - 90) / 100 >= TAIL_SAMPLES:
        out["latency_p90_ms"] = _percentile(lat, 90) * 1000.0
    return out


def layer_metrics(tracer, setup_tracer, traced_s, untraced_s, requests) -> dict:
    from spans import CLI_IMPORT, LAYERS, MARCH_NODES, REQUEST, layer_metric_names

    agg = tracer.agg
    out = {}
    for name, _, _, _ in LAYERS:
        src, per = (setup_tracer, 1) if name == "identities.inputs" else (tracer, requests)
        calls, self_s = src.agg.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / per
        out[f"{name}.self_s"] = self_s / per
    out["cli.import_s"] = agg.get(CLI_IMPORT, (0, 0.0))[1] / requests
    nodes = tracer.counts.get(MARCH_NODES, 0)
    out[MARCH_NODES] = nodes / requests
    out["hedgehog.march.us_per_node"] = agg["hedgehog.march"][1] / nodes * 1e6 if nodes else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    assert set(out) == {n for n, _ in layer_metric_names()}
    layer_self = sum(v[1] for k, v in agg.items() if k != REQUEST)
    accounting = {
        "requests": requests,
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "overhead_s": traced_s - untraced_s,
        "layer_self_s": layer_self,
        "spans_stored": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return {"metrics": out, "accounting": accounting}


def contract_line(result) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names for this mode."""
    if result["trace"]:
        from spans import layer_metric_names

        vals = result["layers"]["metrics"]
        metrics = {n: {"value": vals[n], "unit": u} for n, u in layer_metric_names()}
    else:
        vals = result["end_to_end"]
        metrics = {n: {"value": vals[n], "unit": u} for n, u in END_TO_END}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_summary(result) -> None:
    w = result["workload"]
    print(f"# {w} seed={result['seed']} attempted={result['attempted']} failed={result['failed']}")
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# inputs {json.dumps(result['inputs'], sort_keys=True)}")
    for cause, n in sorted(result["failures"]["by_cause"].items()):
        print(f"# failures {cause}: {n} (e.g. {result['failures']['examples'][cause]})")
    if result["trace"]:
        acc = result["layers"]["accounting"]
        print(
            f"# tracing overhead {result['layers']['metrics']['trace.overhead_frac']:+.2%}"
            f" ({acc['traced_wall_s']:.3f} s traced vs {acc['untraced_wall_s']:.3f} s untraced)"
        )
        return
    e = result["end_to_end"]
    print(f"{w} setup_s {e['setup_s']:.4f} s (median of {len(result['setup_samples_s'])} fresh processes)")
    print(f"{w} throughput_per_s {e['throughput_per_s']:.4f} {'nodes/s' if w == 'lattice' else '1/s'}")
    print(f"{w} latency_p50_ms {e['latency_p50_ms']:.4f} ms (n={e['samples']})")
    if "latency_p90_ms" in e:
        print(f"{w} latency_p90_ms {e['latency_p90_ms']:.4f} ms (n={e['samples']})")
    else:
        print(f"{w} latency_p90_ms not reported: {e['samples']} samples leave fewer than {TAIL_SAMPLES} beyond p90")
    print(f"{w} failed_frac {e['failed_frac']:.4f} (ok_frac {e['ok_frac']:.4f})")
    print(f"{w} peak_rss_mb {e['peak_rss_mb']:.2f} MB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("theta-mult", "cli-session", "lattice"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe_setup:
            return probe_setup(args.workload, args.seed)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_summary(result)
    print(json.dumps(contract_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
