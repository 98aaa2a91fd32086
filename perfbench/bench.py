"""Run one workload in this process, or every workload in a process each."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import report
from .envinfo import environment
from .kernel_timings import time_kernels
from .pipeline import (CHUNK_PAIRS, TRANSCRIPT_PAIRS, VOTE_SAMPLES, PassResult, Seeds,
                       ShortStageSamples, run_pass)
from .trace import Tracer
from .workloads import HOLDOUT_SEED, WORKLOADS

# A traced run fails if more than this share of stage wall time lies outside
# every layer span (time the per-layer table cannot attribute).
MAX_UNATTRIBUTED = 0.10
BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _seeds(args) -> Seeds:
    seed = HOLDOUT_SEED if args.holdout else args.seed
    corpus, model, transcript = (seed if s is None else s for s in
                                 (args.corpus_seed, args.model_seed, args.transcript_seed))
    return Seeds(corpus=corpus, model=model, transcript=transcript)


def _loop(w, seeds, work_root: Path, seconds: float, tracer: Tracer | None):
    """Run passes until the next one would overrun ``seconds``.

    With a tracer, passes alternate untraced and traced, starting untraced,
    so that both kinds see the same warm-up and the same host conditions;
    at least one of each runs. Without a tracer, every pass also takes the
    short stages' sampling rounds. Pass directories are deleted only after
    the run, so that no pass shares the disk with the deletion of the one
    before. Returns (untraced passes, traced passes, samples).
    """
    samples = ShortStageSamples() if tracer is None else None
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    t0 = time.perf_counter()
    while True:
        use = tracer is not None and len(traced) < len(plain)
        work = work_root / f"pass{len(plain) + len(traced)}"
        gc.collect()  # the previous pass's garbage, outside every timing
        t_pass = time.perf_counter()
        if use:
            tracer.install()
            try:
                traced.append(run_pass(w, seeds, work, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(w, seeds, work, None, samples))
        last = time.perf_counter() - t_pass
        done = traced[-1] if use else plain[-1]
        enough = tracer is None or bool(traced)
        if done.checks.failed or (enough and time.perf_counter() - t0 + last > seconds):
            return plain, traced, samples


def run_workload(args, root: Path) -> int:
    w = WORKLOADS[args.workload]
    seeds = _seeds(args)
    work_root = root / ".perfbench_out" / "work" / f"{w.name}-{os.getpid()}"
    try:
        untraced, traced, samples = _loop(w, seeds, work_root, args.seconds,
                                          Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    its = untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [f for it in its for f in it.checks.failures]
    attempted = sum(it.checks.attempted for it in its) + 1  # + the fingerprint check below
    prints = [it.fingerprint for it in its]
    if not failures and any(p != prints[0] for p in prints):
        failures.append("result fingerprint differs between passes of the same seeds")

    result = {"workload": w.name, "trace": args.trace, "passes": len(its),
              "seconds": args.seconds,
              "environment": environment(root, {"corpus": seeds.corpus, "model": seeds.model,
                                                "transcript": seeds.transcript,
                                                "holdout": HOLDOUT_SEED}),
              "input_size": {"models": [m.to_dict() for m in w.models], "hidden": w.hidden,
                             "batch_size": w.batch_size, "n_train": w.n_train,
                             "n_dev": w.n_dev, "epochs": w.epochs,
                             "transcript_pairs": TRANSCRIPT_PAIRS,
                             "vote_samples_per_round": VOTE_SAMPLES, "chunk_pairs": CHUNK_PAIRS},
              "stage_s": [it.stage_s for it in its],
              "model_s": [it.model_s for it in its]}
    metrics: dict[str, tuple[float, str]] = {}
    if not failures:
        result["fingerprint"] = prints[0]
        if args.trace:
            layer = report.per_layer(traced, untraced, time_kernels())
            attempted += 1
            if 1.0 - layer["trace.attributed_frac"] > MAX_UNATTRIBUTED:
                failures.append(f"layer spans attribute only {layer['trace.attributed_frac']:.3f}"
                                f" of traced stage time (need >= {1 - MAX_UNATTRIBUTED:.2f})")
            metrics = {k: (v, report.per_layer_unit(k)) for k, v in layer.items()}
            result["step_split_ms"] = report.step_split(traced)
        else:
            result["sampling_rounds"] = samples.rounds
            result["samples_s"] = {"vote": samples.vote, "read": samples.read,
                                   "chunks": list(samples.chunks.values())}
            e2e = report.end_to_end(w, its, samples, peak_rss_mb)
            metrics = {k: (v, report.END_TO_END_UNITS[k]) for k, v in e2e.items()}
    result["failed_frac"] = len(failures) / attempted
    result["failures"] = failures
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    _print_table(w.name, args.trace, metrics, result)
    out = _result_path(root, w.name, seeds.corpus, args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.relative_to(root)}")
    headline = {k: v for k, v in result["metrics"].items()
                if k not in report.NOT_ON_EVERY_WORKLOAD}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": headline}))
    return 0 if not failures else 1


def _print_table(name: str, trace: int, metrics: dict, result: dict):
    print(f"== {name} ({'traced' if trace else 'untraced'}, {result['passes']} passes) ==")
    for k, (v, unit) in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {unit}")
    if "step_split_ms" in result:
        print("  self ms per training step, largest first:")
        for k, v in result["step_split_ms"][:12]:
            print(f"    {k:<42} {v:>12.3f}")
    for f in result["failures"]:
        print(f"  FAILED: {f}")


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def _child(args, root: Path, name: str, seed: int | None, trace: int) -> dict | None:
    """One run in its own process; its full result file, or None if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", name,
           "--seconds", str(args.seconds), "--trace", str(trace)]
    cmd += ["--holdout"] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or last is None or not last["correct"]:
        sys.stdout.write(proc.stdout[-4000:])
        sys.stderr.write(proc.stderr[-4000:])
        return None
    seed = HOLDOUT_SEED if seed is None else seed
    return json.loads(_result_path(root, name, seed, trace).read_text())


def _result_path(root: Path, name: str, seed: int, trace: int) -> Path:
    return root / ".perfbench_out" / "results" / f"{name}-seed{seed}-trace{trace}.json"


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def run_all(args, root: Path) -> int:
    """Every workload in its own processes: --runs untraced seeds, then one traced run.

    Prints each end-to-end metric's median and quartile spread over the runs
    beside the recorded baseline, and writes the whole set to
    .perfbench_out/results/all.json (and to the baseline file with
    --write-baseline).
    """
    seeds = [None] if args.holdout else list(range(args.seed, args.seed + args.runs))
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    out = {"seconds": args.seconds, "seeds": seeds,
           "environment": environment(root, {"seeds": seeds, "holdout": HOLDOUT_SEED}),
           "workloads": {}}
    status = 0
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        fingerprints = {}
        for seed in seeds:
            full = _child(args, root, name, seed, 0)
            if full is None:
                print(f"{name} seed {seed}: FAILED")
                status = 1
                continue
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.5g}" for k, v in full["metrics"].items()), flush=True)
            for k, v in full["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            fingerprints[str(seed)] = full["fingerprint"]
        traced = _child(args, root, name, seeds[0], 1)
        if traced is None:
            print(f"{name} traced: FAILED")
            status = 1
        out["workloads"][name] = {
            "end_to_end": {k: {"unit": units[k], "values": v, **_summary(v)}
                           for k, v in values.items()},
            "fingerprints": fingerprints,
            "per_layer": traced["metrics"] if traced else None,
            "step_split_ms": traced["step_split_ms"] if traced else None}
    print(f"== end-to-end over {len(seeds)} run(s) of {args.seconds:g} s, against the baseline ==")
    for name, res in out["workloads"].items():
        base_all = baseline.get("workloads", {}).get(name, {})
        base_prints = base_all.get("fingerprints", {})
        shared = [s for s in res["fingerprints"] if s in base_prints]
        same = sum(res["fingerprints"][s] == base_prints[s] for s in shared)
        print(f"  {name:<13} result fingerprint equals the baseline's on {same} of "
              f"{len(shared)} shared seeds")
        base = base_all.get("end_to_end", {})
        for k, s in res["end_to_end"].items():
            b = base.get(k, {}).get("median")
            delta = f"{s['median'] / b - 1:+7.1%}" if b else "      -"
            spread = f"{s['spread']:.3f}" if s["spread"] is not None else "-"
            print(f"  {name:<13} {k:<16} {s['median']:>11.5g} {s['unit']:<6} spread {spread}"
                  f"  baseline {b if b is not None else float('nan'):>11.5g} {delta}")
    path = root / ".perfbench_out" / "results" / "all.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(root)}")
    if args.write_baseline and status == 0:
        BASELINE.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {BASELINE.relative_to(root)}")
    return status
