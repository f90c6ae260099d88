"""One benchmark run: set-up, the timed closed loop, checks and metrics.

The loop runs whole rounds of the workload back to back, one operation at
a time, until `seconds` have passed and at least `min_ops` operations are
done.  Outputs are checked only after the loop, so checking never counts
as operation time.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

import tracing

OUT_DIR = ".bench_out"
RESULT = "result.npy"
MAX_REPORTED_PROBLEMS = 10


@dataclass
class Record:
    op: Any
    out: Path
    seconds: float
    error: Optional[str]


def run(workload, seconds: float, traced: bool, root: str, setup_repeats: int) -> dict:
    out_root = Path(root) / OUT_DIR
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    try:
        if traced:
            return _traced_run(workload, seconds, tmp, out_root)
        return _untraced_run(workload, seconds, tmp, setup_repeats)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _set_up(workload, out: Path) -> None:
    workload.prepare()
    workload.warmup().run(out)


def _measure_setup(workload, tmp: Path, repeats: int) -> float:
    """Median time of: fresh interpreter + `import passivelsm`, then the
    workload's input generation, shared assembly and one warm-up operation."""
    samples = []
    for i in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import passivelsm"], check=True)
        _set_up(workload, tmp / f"setup{i}")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_op(op, out: Path) -> Record:
    """Time one operation.  A matrix it returns is saved to out/RESULT after
    the clock stops, so results never pile up in memory."""
    t0 = time.perf_counter()
    try:
        result, error = op.run(out), None
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if result is not None:
        out.mkdir(parents=True, exist_ok=True)
        np.save(out / RESULT, result)
    return Record(op, out, seconds, error)


def _same(op, a: Path, b: Path) -> bool:
    return all((a / f).read_bytes() == (b / f).read_bytes() for f in op.files)


def _loop(workload, seconds: float, run_op) -> tuple:
    """Whole rounds until `seconds` have passed and min_ops ops are done;
    returns (operations, wall time)."""
    done, r = 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or done < workload.min_ops:
        for op in workload.round(r):
            run_op(op, done)
            done += 1
        r += 1
    return done, time.perf_counter() - start


def _check(workload, records: list, tmp: Path) -> tuple:
    """(failed operations, wrong outputs) after checking every record and
    re-running one sampled operation, whose output must be byte-identical."""
    rng = np.random.default_rng([workload.seed, 7])
    problems, failed = [], 0
    ok = [i for i, rec in enumerate(records) if rec.error is None]
    if ok:
        rec = records[int(rng.choice(ok))]
        again = _run_op(rec.op, tmp / "rerun")
        if again.error is not None or not _same(rec.op, rec.out, again.out):
            problems.append(f"re-run of {rec.out.name} is not byte-identical")
        shutil.rmtree(again.out, ignore_errors=True)
    for rec in records:
        errors = [] if rec.error else rec.op.check(rec.out, rng)
        if rec.error or errors:
            failed += 1
            problems += [f"{rec.out.name}: {e}" for e in errors]
        shutil.rmtree(rec.out, ignore_errors=True)
    problems += workload.final_checks()
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {p}", file=sys.stderr)
    return failed, problems


def _result(records, failed, problems, metrics) -> dict:
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }


def _untraced_run(workload, seconds, tmp, setup_repeats) -> dict:
    setup_s = _measure_setup(workload, tmp, setup_repeats)
    records = []
    done, elapsed = _loop(
        workload, seconds, lambda op, i: records.append(_run_op(op, tmp / f"op{i}")))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = _check(workload, records, tmp)
    latency = [rec.seconds for rec in records]
    return _result(records, failed, problems, {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / elapsed, "1/s"),
        "latency_p50_s": (np.quantile(latency, 0.5), "s"),
        "latency_tail_s": (np.quantile(latency, workload.tail_quantile), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })


def _traced_run(workload, seconds, tmp, out_root) -> dict:
    """Each operation runs twice, untraced and traced, in alternating order;
    the untraced twin is checked and gives the tracing overhead."""
    tracer = tracing.Tracer()
    tracer.install()
    plain, traced = [], []
    try:
        _set_up(workload, tmp / "setup")

        def run_twice(op, i):
            for with_trace in ((True, False) if i % 2 else (False, True)):
                tracer.op, tracer.enabled = i, with_trace
                rec = _run_op(op, tmp / f"op{i}{'t' if with_trace else ''}")
                tracer.enabled = False
                (traced if with_trace else plain).append(rec)

        _loop(workload, seconds, run_twice)
    finally:
        tracer.uninstall()

    stages = {s: [] for s in tracing.STAGES}
    twin_problems = []
    for p, t in zip(plain, traced):
        if p.error is None and p.op.stage_timings:
            for s, v in p.op.stage_timings(p.out).items():
                stages[s].append(v)
        if p.error is None and (t.error is not None or not _same(p.op, p.out, t.out)):
            twin_problems.append(f"{t.out.name}: traced output differs from untraced")
        shutil.rmtree(t.out, ignore_errors=True)
    failed, problems = _check(workload, plain, tmp)
    problems += twin_problems
    for p in twin_problems:
        print(f"check failed: {p}", file=sys.stderr)

    from passivelsm import validate

    report = validate.run_suite("all")
    n = len(plain)
    summary = tracer.summary()
    metrics = {}
    for name, unit, _ in tracing.per_layer_catalogue():
        head, _, quantity = name.rpartition(".")
        if head in tracing.TARGETS:
            metrics[name] = (summary.get(head, {}).get(quantity, 0) / n, unit)
    for s in tracing.STAGES:
        metrics[f"pipeline.stage.{s}_s"] = (
            statistics.median(stages[s]) if stages[s] else 0.0, "s")
    for entry in report["results"]:
        cid = entry["cid"]
        metrics[f"validate.criterion_{cid}_s"] = (entry["seconds"], "s")
        metrics[f"validate.criterion_{cid}_passed"] = (int(entry["passed"]), "bool")
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    trace_file = out_root / f"trace-{workload.name}-seed{workload.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed, "ops": n,
        "summary": summary, "validate": report, "spans": tracer.dump(),
    }, default=str))
    return _result(plain, failed, problems, metrics)
