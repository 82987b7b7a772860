"""Run one workload in a fresh interpreter and write its record as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

A warm-up job (the pass's first job, checked but not timed) lets lazy
imports and numpy set-up finish.  Then passes run back to back, closed
loop, one job after another on this thread, until the next pass would end
after SECONDS of passes; at least the workload's ``TAIL_PASSES`` always run,
so that job_tail_s is taken over the same number of samples at any speed.
The time left of SECONDS, too short for one more pass, goes to fill rounds:
rounds over the job list that run only the jobs whose last time still fits
in it.  They add samples of the cheap jobs of a workload whose pass is long
(curvature_ladder fits one pass).  With TRACE = 0 the set-up
probes (fresh interpreters, see setup_probe.py) run between the passes, so
that they sample the whole run; with TRACE = 1 a single untraced pass runs,
then one pass under the tracer.  The record goes to WORKDIR/result.json.
"""
from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import workloads
from layers import listed, per_layer
from oracles import OracleFailure
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 11  # their median is setup_s


def import_nilflow() -> SimpleNamespace:
    """The nilflow modules of this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "nilflow" / "__init__.py").is_file():
        raise SystemExit(f"no nilflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nilflow.cli  # noqa: F401  (imports the package and every module)

    if Path(sys.modules["nilflow"].__file__).resolve().parent != (SRC / "nilflow").resolve():
        raise SystemExit("nilflow was imported from outside this checkout")
    return SimpleNamespace(**{m: sys.modules[f"nilflow.{m}"] for m in MODULES})


def run_job(job, nf, out: Path, tracer=None, index: int = 0) -> dict:
    """Time one job, then check its output; a crash or failed check is a failed job."""
    out.mkdir()
    error = None
    t0 = time.perf_counter()
    with tracer.job(index) if tracer else nullcontext():
        try:
            output = job.run(nf, out)
        except Exception as exc:  # the job failed; count it and go on
            output, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    err_ratio = None
    if error is None:
        try:
            err_ratio = job.check(nf, out, output)
        except (OracleFailure, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    shutil.rmtree(out)
    return {"job": job.label, "s": seconds, "ok": error is None, "err_ratio": err_ratio,
            "error": error, "bytes": written}


def setup_probe(groups) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           ",".join(f"{family}:{n}" for family, n in groups)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_pass(jobs: list, nf, workdir: Path, tracer=None) -> list:
    return [run_job(job, nf, workdir / f"job{i}", tracer, i) for i, job in enumerate(jobs)]


def timed_passes(jobs: list, nf, workdir: Path, seconds: float, groups, at_least: int) -> tuple:
    """(passes, setup times): passes until the next would end past ``seconds``,
    and at least ``at_least``; set-up probe i runs once the passes have taken
    i/(SETUP_PROBES-1) of ``seconds``."""
    passes, setup = [], []
    measured = last = 0.0
    while len(passes) < at_least or measured + last <= seconds:
        due = sum(i * seconds / (SETUP_PROBES - 1) <= measured for i in range(SETUP_PROBES))
        setup += [setup_probe(groups) for _ in range(due - len(setup))]
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, nf, workdir))
        last = time.perf_counter() - t0
        measured += last
    setup += [setup_probe(groups) for _ in range(SETUP_PROBES - len(setup))]
    return passes, setup, measured


def fill_rounds(jobs: list, nf, workdir: Path, last_pass: list, left: float) -> list:
    """Job samples for the ``left`` seconds that one more pass would not fit in:
    rounds over the job list, each running the jobs whose last time fits in
    what is left, until a round runs none.  Each sample carries its job's index."""
    last = [job["s"] if job["ok"] else math.inf for job in last_pass]
    samples = []
    while True:
        ran = 0
        for i, job in enumerate(jobs):
            if last[i] > left:
                continue
            t0 = time.perf_counter()
            sample = run_job(job, nf, workdir / f"fill{len(samples)}")
            left -= time.perf_counter() - t0
            last[i] = sample["s"] if sample["ok"] else math.inf
            samples.append({**sample, "index": i})
            ran += 1
        if not ran:
            return samples


def main(argv) -> int:
    workload, seed, seconds, trace, workdir = argv
    workdir = Path(workdir)
    nf = import_nilflow()
    jobs = workloads.jobs(workload, int(seed))
    groups = workloads.groups(workload)
    record = {"warmup": run_job(jobs[0], nf, workdir / "warmup"),
              "tail_passes": workloads.TAIL_PASSES[workload]}
    if trace == "0":
        setup_probe(groups)  # fills the byte-code cache; not counted
        record["passes"], record["setup_s"], measured = timed_passes(
            jobs, nf, workdir, float(seconds), groups, record["tail_passes"])
        record["fill"] = fill_rounds(jobs, nf, workdir, record["passes"][-1],
                                     float(seconds) - measured)
    else:
        record["passes"], record["setup_s"] = [run_pass(jobs, nf, workdir)], []
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace == "1":
        tracer = Tracer()
        tracer.install()
        try:
            record["traced_pass"] = run_pass(jobs, nf, workdir, tracer)
        finally:
            tracer.uninstall()
        record["per_layer"] = per_layer(tracer, record["passes"][-1], record["traced_pass"],
                                        listed("per_layer"))
    (workdir / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
