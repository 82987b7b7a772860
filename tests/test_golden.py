"""Golden bytes: CLI outputs pinned to the SHA-256 digests of a reference build.

The digests were recorded at commit 94f99e5 ("Scale the curvature engine with
dimension; harden CLI output"), before the diagonal right-hand side became one
cached kernel per (family, n), with numpy 2.4.6 on x86-64; the spectrum digests
at commit 87850d4, as noted at their cases.  Each case runs one
CLI command in an empty directory, with relative paths so the bytes do not
depend on where it runs, and hashes every file it writes.

The flow outputs are elementwise IEEE arithmetic and fixed-order sums, so
they should not change with the machine.  The verify, curvature and spectrum
values go through BLAS and LAPACK, whose last bits can change with the numpy
build; if only those cases fail after an environment change, record the
digests again at the reference commit before reading the failure as a
regression.
"""
import hashlib

import pytest

from nilflow.cli import main

GROUPS = (("heisenberg", 1), ("heisenberg", 3), ("quaternion", 1), ("quaternion", 2),
          ("quaternion", 9))  # Q9: n >= 8 takes numpy's unrolled summation path
RHOS = ("-0.25", "0")


def seeded_g0(dim: int) -> str:
    """A fixed non-admissible metric with entries in [0.5, 2.25], exact in decimal."""
    return ",".join(format(0.5 + ((37 * i + 11) % 29) / 16, ".17g") for i in range(dim))


def dim_of(family: str, n: int) -> int:
    return 2 * n + 1 if family == "heisenberg" else 4 * n + 3


def flow_cases() -> dict:
    cases = {}
    for family, n in GROUPS:
        for rho in RHOS:
            for kind, g0 in (("identity", "identity"), ("seeded", seeded_g0(dim_of(family, n)))):
                cases[f"flow-{family[0].upper()}{n}-rho{rho}-{kind}"] = [
                    "flow", "--family", family, "--n", str(n), f"--rho={rho}", "--g0", g0,
                    "--output", "traj.csv"]
    return cases


CASES = {
    **flow_cases(),
    # stops degenerate at t = 0.99
    "flow-H1-rho4-stop": ["flow", "--family", "heisenberg", "--n", "1", "--rho", "4",
                          "--t-end", "2", "--dt", "1e-3", "--output", "traj.csv"],
    # stops at t = 0.04
    "flow-Q1-rho5-stop": ["flow", "--family", "quaternion", "--n", "1", "--rho", "5",
                          "--t-end", "1", "--output", "traj.csv"],
    "sweep-Q1": ["sweep", "--family", "quaternion", "--n", "1", "--rho=-0.5,-0.25,0,0.04",
                 "--g0", seeded_g0(7), "--t-end", "0.5", "--output", "sweep.json",
                 "--output-dir", "runs"],
    "verify-H2": ["verify", "--family", "heisenberg", "--n", "2", "--rho=-0.25", "--seed", "42",
                  "--output", "verify.json"],
    "verify-Q1": ["verify", "--family", "quaternion", "--n", "1", "--rho", "0", "--seed", "7",
                  "--output", "verify.json"],
    # recorded at commit 87850d4 ("Diagonal RK4 hot path: one cached curvature kernel
    # per (family, n)"), before the j(Z) layer was vectorised
    "spectrum-H4": ["spectrum", "--family", "heisenberg", "--n", "4", "--t", "0.5", "--rho=-0.25",
                    "--seed", "3", "--output", "spectrum.json"],
    "spectrum-Q3": ["spectrum", "--family", "quaternion", "--n", "3", "--t", "1", "--seed", "5",
                    "--output", "spectrum.json"],
    # two eigenvalue clusters (mu = 2): p_factor_observed is null
    "spectrum-H2-mu2": ["spectrum", "--family", "heisenberg", "--n", "2", "--g0", "1,2,1,1,1",
                        "--output", "spectrum.json"],
    "curvature-H3": ["curvature", "--family", "heisenberg", "--n", "3", "--g0", seeded_g0(7),
                     "--output", "curvature.json"],
    "curvature-Q2": ["curvature", "--family", "quaternion", "--n", "2", "--g0", seeded_g0(11),
                     "--output", "curvature.json"],
}

DIGESTS = {
    "curvature-H3": "dde21f5533c1bbc41490f19cb623dfa752c7e4161d8ebb87c4b8ef3face99474",
    "curvature-Q2": "883ee0e00fd24cb614a4a3d01891f9480bb1ecf2ec1079c2ee26f1bbbb0aa536",
    "flow-H1-rho-0.25-identity": "d11e62f6fd0df1fe839a7b2fc57a1d695c208832d7d60bd53b82e118387c1a8e",
    "flow-H1-rho-0.25-seeded": "3980e1ad64b88f37e7b3861304aff1bc71ccd8bb18a846caca63402d7246dd3f",
    "flow-H1-rho0-identity": "fae13c973970bf4e4344b8501de486f98ae232e84ab2efc80e8fb96317ded1ca",
    "flow-H1-rho0-seeded": "0c9b24309eaafd6fbcb3c30aeaf661f6b565bafc23654310e1caa651c0f9c9e0",
    "flow-H1-rho4-stop": "139689691c9c51e3b40daec1f287d95e04640d62ebe1d9b5ef5ede91477e130f",
    "flow-H3-rho-0.25-identity": "16fec9e465077ac1bf25df453cb1eeedc9c61705403be0f60135f96174cd331b",
    "flow-H3-rho-0.25-seeded": "d5a9e289fcbcaaa83a49b77c2742ca9ecae12c2fa03cc2d6ceabd5517b8b8bed",
    "flow-H3-rho0-identity": "80a2d01ed60105c09d8702bdcb36de59c05b05d8772fa4d4c8042c03f07009b0",
    "flow-H3-rho0-seeded": "3835f6a87057a4b76fc9668a41c8d3fb8f0bf7b2f77656c987e0a6d54042f6e8",
    "flow-Q1-rho-0.25-identity": "6caad557c6ebf7a25963c71ce506f477561248a55c2e69bb34834376ecaf8c65",
    "flow-Q1-rho-0.25-seeded": "97a5e259153085edad580a4542924c14ae60e24fd30ff62a13113fe48469bbac",
    "flow-Q1-rho0-identity": "2004ae7f94a6251d9c21098017f9dcc6cea3eb2f467797db131c4d07b639d3d9",
    "flow-Q1-rho0-seeded": "7e2f1689268aa66167ec33a07774a28de586b3b3e06ec35564c8abf88e565e57",
    "flow-Q1-rho5-stop": "74f4930c31b276234d0c88f2b9c4d041cd64c33b0e76951fa7eff69a2653751d",
    "flow-Q2-rho-0.25-identity": "cedb768fa5dca17953cfae234f597ea7a98b788c485c54392957378d20a4e28a",
    "flow-Q2-rho-0.25-seeded": "8f0a70e8736bbcf6c0e4926bddd00cd24f374a3a46c3149591b9a72bec34026e",
    "flow-Q2-rho0-identity": "32f7c9a251a19b131d2ff79a5a0655f40b1228d5c0a50d7155381f8d328955fb",
    "flow-Q2-rho0-seeded": "357fe35d155badd874d934b3c574d5878ba0cc9738596667c4b3db3fe67fce07",
    "flow-Q9-rho-0.25-identity": "a495fa5a06a19e0d9d0836ed096241377c635689844e26394ea10b9264f2ee49",
    "flow-Q9-rho-0.25-seeded": "b2b172691f7d0dc4e6ed19b36515e034fc45286411dfc726d907807d1394bfd0",
    "flow-Q9-rho0-identity": "61b37a1fa6e95de66c1adb80e839679257eb0a6b5d83b804d0813371a6213664",
    "flow-Q9-rho0-seeded": "cbe4e99fa056104bba77a213c0a5047bc0416dbbfc8dc479732c0f3abb5df0f7",
    "spectrum-H2-mu2": "9813fb04ad75996f7d5d3e3b2c13705474ae969f454a00284be36020684439ca",
    "spectrum-H4": "170ab655dd07d2fe7ed4fd5400a7ec6726f8a9bce3b78d36a7f28243cd5e082f",
    "spectrum-Q3": "86c2f25d97e9c5ecf7e04b1741511b867355ea995d420a469d416c43fc7ca84e",
    "sweep-Q1": "b631d24fb2f439910fd3844e243fdbc7443ce04b4bd41f7f2af732721d550aa0",
    "verify-H2": "3127ed768c4a0cfb31d1896c312e0704c75e082bccc94ed283010eb5f5589182",
    "verify-Q1": "58f4362a34fc2231535468ed313f21208d09fe323bf7f24018dfd911a8de0440",
}


def digest_of(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_reference(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(CASES[name]) == 0
    assert digest_of(tmp_path) == DIGESTS[name]
