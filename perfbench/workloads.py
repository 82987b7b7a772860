"""The four workloads: the job list of one pass, generated from the workload seed.

A job is either one in-process ``nilflow.cli.main(argv)`` call or one group of
library calls.  ``run`` is the timed part; ``check`` compares its output with
the job's oracle afterwards and returns the largest error as a share of its
tolerance, or raises ``OracleFailure``.  The program receives only the
generated inputs (g0 vectors, metrics, check seeds), never the workload seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("flow_sweep", "curvature_ladder", "verify_small", "spectral_ladder")

FLOW_GROUPS = (("heisenberg", 1), ("heisenberg", 3), ("quaternion", 1), ("quaternion", 2))
FLOW_RHOS = (-0.5, -0.25, 0.0, 0.04)  # all below 1/(2(dim-1)) for every FLOW_GROUPS entry
FLOW_DT = 1e-3
FLOW_STEPS = 250  # the horizon FLOW_STEPS * FLOW_DT is a whole number of steps
FLOW_RECORD_EVERY = 10
# Seeded g0 flow at 0.5 to 2 times the identity's closed-form rate.  RK4 error
# grows about as rate^4: at rate 2.4 (Q2, rho = -0.5, dt = 1e-3) the ledger
# drift reaches its 1e-8 tolerance, a step-size limit these inputs stay under.
FLOW_RATE_RATIOS = (0.5, 2.0)

CURVATURE_GROUPS = (("heisenberg", 1), ("quaternion", 1), ("quaternion", 3),
                    ("heisenberg", 8), ("quaternion", 6))  # d = 3, 7, 15, 17, 27

VERIFY_GROUPS = (("heisenberg", 1), ("heisenberg", 2), ("quaternion", 1), ("quaternion", 2))
VERIFY_RHOS = (-0.25, 0.0)

SPECTRAL_GROUPS = (("heisenberg", 1), ("heisenberg", 4), ("heisenberg", 8),
                   ("quaternion", 1), ("quaternion", 3), ("quaternion", 6))
SPECTRAL_TIMES = (0.0, 0.5, 1.0, 2.0)
SPECTRAL_P8_SAMPLES = 50

# job_tail_s is taken over the jobs of the first TAIL_PASSES passes, which
# always run, so its sample count and percentile do not change with speed.
# Where a pass has fewer than 20 jobs, enough passes to reach 20 would not fit
# in a run (curvature_ladder, verify_small), and the tail is the maximum.
TAIL_PASSES = {"flow_sweep": 3, "curvature_ladder": 1, "verify_small": 2, "spectral_ladder": 8}


def dim_of(family: str, n: int) -> int:
    return 2 * n + 1 if family == "heisenberg" else 4 * n + 3


def short_name(family: str, n: int) -> str:
    return ("H" if family == "heisenberg" else "Q") + str(n)


def g0_text(g0) -> str:
    """17 significant digits, so the program parses back exactly these floats."""
    return ",".join(format(float(x), ".17g") for x in g0)


def admissible_g0(rng, family: str, n: int, rate_ratio: float) -> tuple:
    """A random g0 meeting the closed-form hypotheses.

    H_n: g_i g_{n+i} = P for all i and center entry rate_ratio * P; Q_n: equal
    non-center entries v and equal center entries rate_ratio * v^2.  The
    closed-form rate b is rate_ratio times the identity's; rate_ratio = 1 makes
    g0 Heisenberg type (j(Z)^2 = -|Z|^2 Id).
    """
    if family == "heisenberg":
        a = rng.uniform(0.5, 2.0, n)
        product = rng.uniform(0.5, 2.0)
        g0 = np.concatenate([a, product / a, [rate_ratio * product]])
    else:
        v = rng.uniform(0.5, 2.0)
        g0 = np.concatenate([np.full(4 * n, v), np.full(3, rate_ratio * v * v)])
    return exact17(g0)


def exact17(values) -> tuple:
    """The floats the program reads back from ``g0_text(values)``."""
    return tuple(float(x) for x in g0_text(values).split(","))


@dataclass(frozen=True)
class SweepJob:
    family: str
    n: int
    g0: tuple
    rhos = FLOW_RHOS

    @property
    def sample_times(self) -> np.ndarray:
        """The times the CSV rows must carry: every record_every-th step and the last."""
        kept = [k for k in range(FLOW_STEPS + 1) if k % FLOW_RECORD_EVERY == 0 or k == FLOW_STEPS]
        return np.array([k * FLOW_DT for k in kept])

    @property
    def label(self) -> str:
        kind = "identity" if self.is_identity else "seeded"
        return f"sweep {short_name(self.family, self.n)} g0={kind}"

    @property
    def is_identity(self) -> bool:
        return all(x == 1.0 for x in self.g0)

    def run(self, nf, out: Path):
        argv = ["sweep", "--family", self.family, "--n", str(self.n),
                "--rho=" + ",".join(format(r, "g") for r in FLOW_RHOS),
                "--g0", "identity" if self.is_identity else g0_text(self.g0),
                "--dt", format(FLOW_DT, "g"), "--t-end", format(FLOW_STEPS * FLOW_DT, ".17g"),
                "--record-every", str(FLOW_RECORD_EVERY),
                "--output", str(out / "summary.json"), "--output-dir", str(out)]
        return nf.cli.main(argv)

    def check(self, nf, out: Path, exit_code) -> float:
        return oracles.check_sweep(nf, self, out, exit_code)


@dataclass(frozen=True)
class CurvatureJob:
    family: str
    n: int
    g0: tuple

    @property
    def label(self) -> str:
        return f"curvature {short_name(self.family, self.n)} d={dim_of(self.family, self.n)}"

    def run(self, nf, out: Path):
        argv = ["curvature", "--family", self.family, "--n", str(self.n),
                "--g0", g0_text(self.g0), "--output", str(out / "curvature.json")]
        return nf.cli.main(argv)

    def check(self, nf, out: Path, exit_code) -> float:
        return oracles.check_curvature(nf, self, out, exit_code)


@dataclass(frozen=True)
class VerifyJob:
    family: str
    n: int
    rho: float
    seed: int

    @property
    def label(self) -> str:
        return f"verify {short_name(self.family, self.n)} rho={self.rho:g}"

    def run(self, nf, out: Path):
        argv = ["verify", "--family", self.family, "--n", str(self.n),
                f"--rho={self.rho!r}", "--seed", str(self.seed),
                "--output", str(out / "verify.json")]
        return nf.cli.main(argv)

    def check(self, nf, out: Path, exit_code) -> float:
        return oracles.check_verify(self, out, exit_code)


@dataclass(frozen=True)
class SpectralJob:
    """Library calls on the closed-form metric at time t: the j(Z) spectrum on
    the first central direction, ``classify`` and ``verify_p8``."""

    family: str
    n: int
    g0: tuple
    rho: float
    t: float
    seed: int

    @property
    def label(self) -> str:
        return f"spectral {short_name(self.family, self.n)} t={self.t:g}"

    def run(self, nf, out: Path):
        spec = nf.algebra.build_group(self.family, self.n)
        g_t = nf.flow.closed_form(self.family, self.g0, self.n, self.rho, self.t)
        metric = nf.algebra.MetricState.from_diag(g_t, t=self.t)
        z = np.zeros(spec.dim)
        z[spec.center_indices[0]] = 1.0
        report = nf.joperator.spectrum(spec, metric, z)
        verdict = nf.joperator.classify(spec, metric, seed=self.seed)
        p = oracles.p_factor(self.family, self.n, self.rho, self.t)
        p8 = nf.joperator.verify_p8(spec, metric, p, samples=SPECTRAL_P8_SAMPLES, seed=self.seed)
        return g_t, report, verdict, p8

    def check(self, nf, out: Path, output) -> float:
        return oracles.check_spectral(self, output)


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def jobs(workload: str, seed: int) -> list:
    """The job list of one pass of ``workload``; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "flow_sweep":
        out = []
        for family, n in FLOW_GROUPS:
            out.append(SweepJob(family, n, tuple(np.ones(dim_of(family, n)))))
            out.append(SweepJob(family, n, admissible_g0(rng, family, n,
                                                         rng.uniform(*FLOW_RATE_RATIOS))))
        return out
    if workload == "curvature_ladder":
        return [CurvatureJob(family, n, exact17(rng.uniform(0.5, 2.0, dim_of(family, n))))
                for family, n in CURVATURE_GROUPS]
    if workload == "verify_small":
        return [VerifyJob(family, n, rho, _seed_int(rng))
                for family, n in VERIFY_GROUPS for rho in VERIFY_RHOS]
    if workload == "spectral_ladder":
        out = []
        for family, n in SPECTRAL_GROUPS:
            g0 = admissible_g0(rng, family, n, rate_ratio=1.0)
            rho = float(rng.uniform(-0.5, 0.0))
            job_seed = _seed_int(rng)
            out.extend(SpectralJob(family, n, g0, rho, t, job_seed) for t in SPECTRAL_TIMES)
        return out
    raise KeyError(workload)


def groups(workload: str) -> tuple:
    """The (family, n) pairs whose structure constants the workload's set-up builds."""
    return {
        "flow_sweep": FLOW_GROUPS,
        "curvature_ladder": CURVATURE_GROUPS,
        "verify_small": VERIFY_GROUPS,
        "spectral_ladder": SPECTRAL_GROUPS,
    }[workload]
