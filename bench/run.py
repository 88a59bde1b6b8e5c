"""Run one workload, print its metrics, write its result file.

The metric names, units and bounds come from ``BENCHMARK.json`` at the repo
root.  Without tracing the result carries every end-to-end metric; with
tracing, every per-layer metric (a count or ratio of a layer the workload
does not run, or whose hook target no longer exists, reads 0 and is listed as
not measured).  The last line printed is the JSON summary ``{"correct",
"attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Dict, Optional

import numpy as np
import scipy

from . import ROOT, load_spec
from .workloads import WORKLOADS, Context, Outcome

DEFAULT_OUT = ROOT / "bench" / "out"


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git checkout.

    The ceiling stops git at the checkout: a copy of the repo that is not a
    git repository must not report the SHA of one it happens to sit in.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def environment() -> Dict[str, object]:
    """The hardware and software a result was measured on."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(),
    }


def summarize(outcome: Outcome, trace: bool, spec: dict) -> dict:
    """The contract's summary object for one run."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = outcome.layers if trace else outcome.metrics
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], 0) if trace else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(status == "ok" for status in outcome.checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def run(workload: str, seed: int, trace: bool, out: Optional[str] = None,
        quick: bool = False, seconds: Optional[float] = None,
        bad_users: int = 0) -> dict:
    """Run one workload; print its summary, write and return its record.

    ``seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, or to the
    self-test length with ``quick``.  The record is the summary plus the
    checks, context and environment; a traced run's record also carries its
    untraced end-to-end metrics.
    """
    spec = load_spec()
    ctx = Context(seed=seed, trace=trace, quick=quick, seconds=seconds,
                  bad_users=bad_users)
    print(f"bench: workload={workload} seed={seed} seconds={ctx.seconds:g} "
          f"trace={int(trace)}{' quick' if quick else ''}", flush=True)
    outcome = WORKLOADS[workload](ctx)
    summary = summarize(outcome, trace, spec)

    not_measured = [name for name in summary["metrics"]
                    if trace and name not in outcome.layers]
    absent = outcome.tracer.absent if outcome.tracer is not None else []
    for name, metric in summary["metrics"].items():
        note = "  (not measured here)" if name in not_measured else ""
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{note}")
    for key, value in {**outcome.detail, **outcome.info}.items():
        print(f"  {key:<36} {value}")
    if absent:
        print(f"  absent hook targets: {', '.join(absent)}")
    for name, status in outcome.checks.items():
        print(f"  check {name}: {status}")
    if outcome.info.get("valid") is False:
        print("  INVALID: the load generator fell behind its schedule")

    record = dict(summary, workload=workload, seed=seed, seconds=ctx.seconds,
                  trace=trace, quick=quick, checks=outcome.checks,
                  layers=outcome.detail, info=outcome.info, absent=absent,
                  not_measured=not_measured, environment=environment())
    if trace:
        record["end_to_end"] = summarize(outcome, False, spec)["metrics"]
    if out is not None:
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, f"{workload}-seed{seed}{'-trace' if trace else ''}")
        if trace:
            outcome.tracer.write(stem + "-spans.json")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps(summary), flush=True)
    return record


def run_all(seed: int, trace: bool, out: str, quick: bool,
            seconds: Optional[float] = None) -> int:
    """Run every workload, each in a fresh process; non-zero if any failed."""
    status = 0
    for workload in WORKLOADS:
        args = [sys.executable, "-m", "bench", "run", "--workload", workload,
                "--seed", str(seed), "--trace", str(int(trace)), "--out", out]
        if seconds is not None:
            args += ["--seconds", str(seconds)]
        if quick:
            args.append("--quick")
        status = max(status, subprocess.run(args, cwd=ROOT).returncode)
    return status
