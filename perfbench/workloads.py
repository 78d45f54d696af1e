"""The benchmark's workloads: inputs generated from a seed, one op each.

An op runs a workload's steps, each one CLI call through ``ymft.cli.main``
with the op's jet seed: ``verify-theory`` with every configured check, and
for ``e-only-d5`` also one ``observables`` run on a Coulomb sample, the
only step that reaches the observables layer.  ``verdict`` checks every
report an op printed and returns its failures and its largest residual.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

ALL_CHECKS = ["gauge-invariance", "noether", "strength-identities",
              "commutators", "linearization", "euler-lagrange",
              "strength-transformation"]
# toy inputs use jet degree 3, the lowest at which every check has jet order
# left, and drop the two slowest checks on the families that solve for Y
TOY_CHECKS = ["gauge-invariance", "noether", "strength-identities",
              "linearization", "strength-transformation"]
OBSERVABLE_CHECKS = ["charge", "causality", "trace"]
AMPLITUDE = 0.1


def _su2_massive(rng, toy):
    return [("verify-theory", {
        "deformation": {"family": "su2", "mass": 2.0, "lambda": 0.5},
        "jet": {"degree": 3 if toy else 4, "amplitude": AMPLITUDE,
                "seeds": [1]},
        "checks": TOY_CHECKS if toy else ALL_CHECKS})]


def _mixed_general(rng, toy):
    # h0 must be a bracket homomorphism of su2: a random rotation is one
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return [("verify-theory", {
        "deformation": {"family": "general", "mass_value": 1.5,
                        "h0": q.ravel().tolist()},
        "jet": {"degree": 3, "amplitude": AMPLITUDE, "seeds": [1]},
        "checks": TOY_CHECKS if toy else ALL_CHECKS})]


def _e_only(rng, toy):
    e = rng.uniform(-1.0, 1.0, (2, 3, 3))
    e = 0.5 * (e + e.transpose(0, 2, 1))
    theory = {"deformation": {"family": "e_only", "dims": [3, 2],
                              "e": e.ravel().tolist()},
              "jet": {"degree": 3 if toy else 5, "amplitude": AMPLITUDE,
                      "seeds": [1]},
              "checks": ALL_CHECKS}
    coulomb = {"jet": {"degree": 3, "amplitude": AMPLITUDE, "seeds": [1]},
               "observables": {
                   "sampler": "coulomb",
                   "parameter": float(rng.uniform(0.5, 2.0)),
                   "radius": 2.0,
                   "grid": [16, 32] if toy else [64, 128],
                   "causality_samples": 50 if toy else 1000,
                   "checks": OBSERVABLE_CHECKS}}
    return [("verify-theory", theory), ("observables", coulomb)]


# name -> builder of the (CLI command, config) steps of one op; the order is
# the report order
WORKLOADS = {
    "su2-massive-d4": _su2_massive,
    "mixed-general-d3": _mixed_general,
    "e-only-d5": _e_only,
}


class Workload:
    """One workload's inputs for one benchmark seed."""

    def __init__(self, name: str, seed: int, toy: bool = False):
        self.name = name
        self.rng = np.random.default_rng([seed % 2**64,
                                          list(WORKLOADS).index(name)])
        self.steps = WORKLOADS[name](self.rng, toy)
        # the first step's config is the one a set-up is timed on
        self.degree = self.steps[0][1]["jet"]["degree"]

    def next_jet_seed(self) -> int:
        """The next jet seed; the sequence depends only on the benchmark
        seed."""
        return int(self.rng.integers(1, 2**31 - 1))

    def op(self, cli, config_paths: list, jet_seed: int) -> list:
        """Run every step; returns one (exit code, report, error) each."""
        results = []
        for (command, _), path in zip(self.steps, config_paths):
            argv = [command, "--config", str(path), "--seed", str(jet_seed)]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # a raising op is a failed op
                results.append((None, out.getvalue(),
                                f"{type(exc).__name__}: {exc}"))
                continue
            error = None
            if code != 0 and not out.getvalue():
                error = f"exit code {code}: {err.getvalue().strip()}"
            results.append((code, out.getvalue(), error))
        return results

    def verdict(self, results: list) -> tuple[list, float]:
        """Failures of one op's reports, and its largest residual."""
        problems, worst = [], -math.inf
        for (command, config), (code, text, error) in zip(self.steps,
                                                          results):
            step_problems, step_worst = _check_report(
                command, config, code, text, error)
            problems += [f"{command}: {p}" for p in step_problems]
            worst = max(worst, step_worst)
        return problems, worst


def _check_report(command, config, code, text, error) -> tuple[list, float]:
    if error is not None:
        return [error], math.nan
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"], math.nan
    expected = config.get("checks") or config["observables"]["checks"]
    checks = report.get("checks", {})
    if sorted(checks) != sorted(expected):
        problems.append(f"checks {sorted(checks)} != {sorted(expected)}")
    if report.get("passed") is not True:
        problems.append("report not passed")
    residuals = []
    for name, check in checks.items():
        if check.get("passed") is not True:
            problems.append(f"{name} failed")
        if command == "verify-theory":
            for ident in check.get("identities", []):
                if ident["passed"] is not True:
                    problems.append(f"{name}/{ident['name']} failed")
                residuals.append(ident["residual"])
        else:
            residuals += [check[key] for key in
                          ("error", "p_sector_trace", "symmetry_residual")
                          if key in check]
    worst = max(residuals, default=math.nan)
    if not math.isfinite(worst):
        problems.append("non-finite residual")
    return problems, worst
