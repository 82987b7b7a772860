"""Per-layer metrics of one traced pass, named ``<module>.<function>.<stat>``.

The metrics are those ``BENCHMARK.json`` lists under ``per_layer``; each
value is worked out from its name.  ``<function>.<stat>`` works for every
traced function and these stats: ``calls`` is an exact count; ``self_s`` is
span wall time minus the union of child spans; ``cpu_s`` is thread CPU time;
``wait_s`` is wall minus thread CPU; ``us_per_call`` is the mean wall time.
``<function>.s_per_call.d<N>`` is the mean wall time of the function's calls
at dimension N, for the functions the tracer tags with a dimension.  The other
names are the derived metrics of ``derived`` below.  A layer that a workload
does not run reads 0.  Times are taken under tracing, so they include its
overhead (``trace.overhead_frac``).
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from tracer import JOB, parent_rows, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# The curvature functions of the diagonal (specialized-formula) route; every
# other curvature function belongs to the general structure-constant route.
DIAGONAL_ROUTE = {"ricci_specialized_diag", "scalar_specialized", "sigma_heisenberg",
                  "sigma_quaternion", "ricci_specialized"}
LAYERS = ("algebra", "curvature_general", "curvature_diagonal", "flow", "joperator",
          "spectrum", "cli", "outside")
# Public helpers that only serve one function: their self time is reported as
# that function's (argument parsing and dispatch are the CLI's own work; the
# literal formulas are the cost of the literal-formula report).
FOLDED = {
    "cli.main": ("cli.build_parser", "cli.dispatch"),
    "curvature.literal_discrepancy": ("curvature.riemann_literal", "curvature.ricci_literal"),
}
AT_DIM = re.compile(r"(?P<function>.+)\.s_per_call\.d(?P<dim>\d+)")


def listed(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists under ``section``, in its order."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def layer_of(name: str) -> str:
    module, _, function = name.partition(".")
    if name == JOB:
        return "outside"
    if module == "curvature":
        return "curvature_diagonal" if function in DIAGONAL_ROUTE else "curvature_general"
    return module


def per_layer(tracer, untraced_pass: list, traced_pass: list, names) -> dict:
    """name -> value for each of ``names``, plus the unlisted ``share.<layer>``
    (layer self time / all self time) and ``trace.overhead_frac``.

    Shares and the overhead are reported but not compared: the shares sum to 1,
    so one layer getting faster raises all the others, and the overhead rises
    when the program's small calls get faster.
    """
    spans = tracer.spans()
    index = {name: i for i, name in enumerate(tracer.names)}
    width = len(tracer.names)
    dur = spans["t1"] - spans["t0"]
    own = self_times(spans)
    by_name = spans["name"]
    calls = np.bincount(by_name, minlength=width).astype(float)
    wall_s = np.bincount(by_name, weights=dur, minlength=width)
    cpu_s = np.bincount(by_name, weights=spans["c1"] - spans["c0"], minlength=width)
    self_s = np.bincount(by_name, weights=own, minlength=width)
    reported_self = self_s.copy()
    for name, helpers in FOLDED.items():
        reported_self[index[name]] += sum(self_s[index[h]] for h in helpers)
    column = {
        "calls": calls,
        "self_s": reported_self,
        "cpu_s": cpu_s,
        "wait_s": wall_s - cpu_s,
        "us_per_call": 1e6 * np.divide(wall_s, calls, out=np.zeros(width), where=calls > 0),
    }

    def rows(function):
        return by_name == index[function]

    integrate = rows("flow.integrate")
    steps = float(spans["tag"][integrate].sum())
    rhs_in_integrate = np.count_nonzero(integrate[parent_rows(spans)[rows("flow.rhs_diagonal")]])
    riemann_metrics = len(tracer.riemann_metrics)
    total_self = float(self_s.sum())
    layer_self = {layer: float(sum(self_s[i] for i, name in enumerate(tracer.names)
                                   if layer_of(name) == layer)) for layer in LAYERS}
    ratios = [job["err_ratio"] for job in untraced_pass + traced_pass if job["ok"]]
    derived = {
        # calls per distinct metric, fingerprinted from the Gram matrix's bytes
        "curvature.riemann.per_metric":
            calls[index["curvature.riemann"]] / riemann_metrics if riemann_metrics else 0.0,
        # counted from the returned trajectories (t_final / dt), not from rhs calls
        "flow.rk4_steps": steps,
        "flow.rk4_step_us": 1e6 * cpu_s[index["flow.integrate"]] / steps if steps else 0.0,
        "flow.rhs_per_step": rhs_in_integrate / steps if steps else 0.0,
        "cli.bytes_written": float(sum(job["bytes"] for job in traced_pass)),
        "oracle.max_err_ratio": max(ratios, default=0.0),
        **{f"layer.{layer}.self_s": seconds for layer, seconds in layer_self.items()},
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        at_dim = AT_DIM.fullmatch(name)
        if at_dim:
            chosen = rows(at_dim["function"]) & (spans["tag"] == int(at_dim["dim"]))
            return float(dur[chosen].mean()) if chosen.any() else 0.0
        function, _, stat = name.rpartition(".")
        return float(column[stat][index[function]])

    out = {name: value(name) for name in names}
    for layer, seconds in layer_self.items():
        out[f"share.{layer}"] = seconds / total_self if total_self else 0.0
    plain_s = sum(job["s"] for job in untraced_pass)
    out["trace.overhead_frac"] = sum(job["s"] for job in traced_pass) / plain_s - 1.0
    return out
