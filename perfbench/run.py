"""nilflow benchmark: oracle-checked time to solution, and per-layer costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of flow_sweep,
curvature_ladder, verify_small, spectral_ladder, or ``all``.  Each workload
runs in a fresh worker process, closed loop with one client.  With
``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
one traced pass.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads
from layers import listed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many samples beyond it


class BenchError(Exception):
    """The benchmark could not run (missing sources, a crashed worker)."""


def worker_env() -> dict:
    # the program's defaults: NILFLOW_THREADS is never passed on
    env = dict(os.environ)
    env.pop("NILFLOW_THREADS", None)
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args) -> dict:
    return {
        "workload_seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "NILFLOW_THREADS": "unset in the worker (program default)"
                           + (f"; was {os.environ['NILFLOW_THREADS']!r} in the caller"
                              if "NILFLOW_THREADS" in os.environ else ""),
    }


def run_worker(workload: str, seed: int, seconds: int, trace: int, timeout: float) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
               str(trace), str(workdir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: worker did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND
    samples beyond it; below 2 * TAIL_BEYOND samples, the maximum."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def all_jobs(record: dict) -> list:
    """Every job the worker ran: warm-up, timed passes, fill rounds and the traced pass."""
    return [record["warmup"], *(j for p in record["passes"] for j in p),
            *record.get("fill", []), *record.get("traced_pass", [])]


def job_samples(record: dict) -> dict:
    """Each job's latencies over the passes and fill rounds; a failed job's is infinite."""
    labels = [job["job"] for job in record["passes"][0]]
    samples = [[] for _ in labels]
    indexed = [(i, job) for p in record["passes"] for i, job in enumerate(p)]
    for i, job in indexed + [(job["index"], job) for job in record.get("fill", [])]:
        samples[i].append(job["s"] if job["ok"] else math.inf)
    return dict(zip(labels, samples))


def end_to_end(record: dict) -> tuple:
    """(metrics, notes): each metric's value, and how it was formed, for the table."""
    passes, setup = record["passes"], record["setup_s"]
    verified = [sum(job["s"] for job in p) for p in passes if all(job["ok"] for job in p)]
    # over a fixed number of passes, so the percentile is the same at any speed;
    # a failed job misses every latency
    tail_jobs = [job for p in passes[:record["tail_passes"]] for job in p]
    tail_s, tail_pct, beyond = tail([job["s"] if job["ok"] else math.inf for job in tail_jobs])
    # The job list mixes cheap and costly jobs, often half and half, so the
    # plain median of all samples would be the mean of the slowest cheap and
    # the fastest costly sample.  Taking each job's median over its samples
    # (passes and fill rounds) first keeps single outliers from setting job_p50_s.
    samples = job_samples(record)
    per_job = [statistics.median(s) for s in samples.values()]
    attempted = len(all_jobs(record))
    failed = sum(not job["ok"] for job in all_jobs(record))
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(verified) if verified else math.inf,
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "failed_frac": failed / attempted,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "pass_s": f"median of {len(verified)} verified passes of {len(passes)}",
        "job_p50_s": f"median of {len(per_job)} jobs' medians over {len(passes)} passes"
                     f" and {len(record.get('fill', []))} fill samples"
                     f" (each job {min(map(len, samples.values()))}"
                     f"-{max(map(len, samples.values()))} samples)",
        "job_tail_s": f"p{tail_pct:.4g} of the {len(tail_jobs)} jobs of the first"
                      f" {record['tail_passes']} passes, {beyond} beyond"
                      + ("" if beyond else " (the maximum: too few samples for a percentile)"),
        "failed_frac": f"{failed} of {attempted} jobs (one warm-up included)",
        "peak_rss_mb": "ru_maxrss of the worker process",
    }
    return metrics, notes


def finite_or_none(value):
    return value if math.isfinite(value) else None


def run_workload(name: str, args) -> dict:
    print(f"== {name}: load average before {os.getloadavg()}", flush=True)
    record = run_worker(name, args.seed, args.seconds, args.trace, RUN_LIMIT_S)
    failed = [job for job in all_jobs(record) if not job["ok"]]
    for job in failed:
        print(f"   FAILED {job['job']}: {job['error']}", flush=True)
    # every value is printed; the result line carries those BENCHMARK.json lists,
    # and the others (failed_frac, layer shares, trace overhead) are ratios
    if args.trace:
        units = listed("per_layer")
        values = record["per_layer"]
        for key, value in values.items():
            note = "" if key in units else "  (not listed: not compared)"
            print(f"   {key:<45} {value:>14.6g} {units.get(key, 'ratio')}{note}")
    else:
        units = listed("end_to_end")
        values, notes = end_to_end(record)
        print("   passes " + " ".join(f"{sum(j['s'] for j in p):.3f}" for p in record["passes"]))
        for label, samples in job_samples(record).items():
            print(f"   job {label:<28} median {statistics.median(samples):.4g} s"
                  f" of {len(samples)}")
        for key, value in values.items():
            print(f"   {key:<12} {value:>12.6g} {units.get(key, 'ratio'):<6} {notes[key]}")
    metrics = {key: {"value": finite_or_none(values[key]), "unit": unit}
               for key, unit in units.items()}
    return {"correct": not failed, "attempted": len(all_jobs(record)), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "nilflow" / "__init__.py").is_file():
        print(f"perfbench: no nilflow sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    print("run_record " + json.dumps(run_record(args)), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
