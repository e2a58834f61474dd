"""Checks of the benchmark itself, not of ncu2.

    python3 perfbench/selftest.py

Runs in about a minute from the root of a checkout and exits 1 on
the first failed check:

1. a short run of every workload, traced and untraced, reports every
   metric named in BENCHMARK.json with its unit, through the same
   JSON line the command prints;
2. a wrong reference fed through each workload's checker (the program
   is untouched) makes every request fail and lowers ok_frac, and on
   lattice a singular step nearer the seed than the baseline's counts
   as a wrong output, not as the known failure;
3. on theta-mult the traced layers' self times account for the untraced
   request wall time within the measured tracing overhead;
4. in a directory holding only BENCHMARK.json and perfbench/, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from common import BENCH_DIR, ROOT
from spans import layer_metric_names

# small pools keep each short run to a few seconds
SMALL_POOL = {"theta-mult": 4, "cli-session": 3, "lattice": 10}
# slack on top of the measured overhead: timer reads and glue outside any layer
ACCOUNTING_SLACK = 0.05


def _config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _short(name, trace, workload=None, seconds=0.5):
    return run.run_workload(name, 7, seconds, trace, pool_size=SMALL_POOL[name], workload=workload, setup_probes=1)


def check_metric_names():
    cfg = _config()
    expected = {
        0: {m["name"]: m["unit"] for m in cfg["end_to_end"]},
        1: {m["name"]: m["unit"] for m in cfg["per_layer"]},
    }
    if expected[1] != dict(layer_metric_names()):
        raise AssertionError("per_layer in BENCHMARK.json differs from spans.layer_metric_names()")
    if expected[0] != dict(run.END_TO_END):
        raise AssertionError("end_to_end in BENCHMARK.json differs from run.END_TO_END")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            line = run.contract_line(_short(name, bool(trace)))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{name}: JSON keys {sorted(line)}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected[trace]:
                raise AssertionError(f"{name} trace={trace}: metrics {got}")
            if not line["correct"] or line["attempted"] < 1:
                raise AssertionError(f"{name} trace={trace}: {line['attempted']} attempted, correct={line['correct']}")
            print(f"ok  {name} trace={trace}: {len(got)} metrics, {line['attempted']} requests")


def _corrupt(reference):
    """A reference that no correct output can equal."""
    from ncu2.theta import ThetaMatrix

    if isinstance(reference, ThetaMatrix):
        return reference + ThetaMatrix.identity(reference.ring)
    if isinstance(reference, tuple) and isinstance(reference[0], int):  # cli: (rc, stdout)
        return reference[0], reference[1] + "\n"
    # lattice: (W, F) arrays
    w = reference[0].copy()
    w[2:] += 1.0  # past the two seed nodes, where the march itself starts
    return w, reference[1]


def check_wrong_reference_fails():
    for name, cls in workloads.WORKLOADS.items():

        class Wrong(cls):
            def expect(self, req):
                return _corrupt(super().expect(req))

        good = _short(name, False)
        bad = _short(name, False, workload=Wrong())
        if bad["failed"] != bad["attempted"]:
            raise AssertionError(f"{name}: wrong reference failed only {bad['failed']} of {bad['attempted']}")
        if not bad["end_to_end"]["ok_frac"] < good["end_to_end"]["ok_frac"]:
            raise AssertionError(f"{name}: ok_frac did not drop")
        if bad["correct"]:
            raise AssertionError(f"{name}: wrong reference still reported correct")
        print(f"ok  {name}: wrong reference fails {bad['failed']}/{bad['attempted']} requests")


def check_early_singular_step_fails():
    """A singular step nearer the seed than the baseline's is not a known failure."""
    from ncu2.hedgehog import SingularStepError

    for node, known in ((3, False), (10**6, True)):

        class Singular(workloads.Lattice):
            def run(self, req, tracer=None):
                raise SingularStepError(f"marching system singular at node {node} (|det| = 0)")

        result = _short("lattice", False, workload=Singular())
        if result["correct"] is not known or result["failed"] != result["attempted"]:
            raise AssertionError(f"singular step at node {node}: {result['failures']['by_cause']}")
        print(f"ok  lattice: singular step at node {node} -> {sorted(result['failures']['by_cause'])}")


def check_self_time_accounting():
    result = run.run_workload("theta-mult", 7, 2.0, True, pool_size=SMALL_POOL["theta-mult"])
    acc = result["layers"]["accounting"]
    gap = abs(acc["layer_self_s"] - acc["untraced_wall_s"])
    allowed = abs(acc["overhead_s"]) + ACCOUNTING_SLACK * acc["untraced_wall_s"]
    if gap > allowed:
        raise AssertionError(f"layer self times miss the untraced wall by {gap:.3f} s (allowed {allowed:.3f} s)")
    print(
        f"ok  theta-mult: layers' self {acc['layer_self_s']:.3f} s vs untraced wall "
        f"{acc['untraced_wall_s']:.3f} s, overhead {acc['overhead_s']:+.3f} s"
    )


def check_missing_source_fails():
    cfg = _config()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in cfg["paths"]:
            shutil.copytree(ROOT / p, tmp / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            cfg["command"] + ["--workload", "lattice", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok  without src/: exit {proc.returncode}, no result")


def main():
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    for check in (
        check_metric_names,
        check_wrong_reference_fails,
        check_early_singular_step_fails,
        check_self_time_accounting,
        check_missing_source_fails,
    ):
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
