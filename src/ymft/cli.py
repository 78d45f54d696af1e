"""Command-line driver: configuration in, machine-readable verdicts out.

Commands
    verify-algebra      bracket-level checks (Jacobi, metric, decomposition)
    verify-deformation  every linear and quadratic coefficient relation
    verify-theory       the full differential identity suite
    observables         stress-energy, causality sampling, charge quadratures

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration or
schema error, 3 singular strength operator (field amplitude too large).

Reports are deterministic byte-for-byte for a fixed (config, seed): wall
times are printed to stderr and only embedded in the JSON when --timings
is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, lie_core
from .config import (ConfigError, RunConfig, load_config, validate_degree,
                     validate_seed, validate_tolerance)
from .deformations import (check_all_relations, check_e_mass_obstruction,
                           check_linear_relations, check_quadratic_relations,
                           parity_grade)
from .dynamics import CUBIC_TOWER_TOL, DEFAULT_TOLS, run_identity_suite
from .forms import CONVENTION, LieForm
from .jets import JetRing
from .observables import (charge_line, charge_surface, coulomb_sampler,
                          energy_causality_check, random_strength_values,
                          stress_energy, uniform_scalar_sampler, zero_sampler)
from .strengths import SingularYError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


def _report_skeleton(config: RunConfig, command: str) -> dict:
    return {
        "tool": "ymft",
        "version": __version__,
        "command": command,
        "conventions": CONVENTION.as_report_header(),
        "config": config.raw,
        "checks": {},
        "passed": None,
    }


def _strict(value):
    """``value`` with each non-finite float written as a string ("NaN",
    "Infinity", "-Infinity"), so the report is strict JSON."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    return value


def _emit(report: dict, args, timings: dict | None) -> None:
    if timings:
        for name, seconds in sorted(timings.items()):
            print(f"# {name}: {seconds:.3f}s", file=sys.stderr)
        if args.timings:
            report["timings"] = {k: round(v, 6)
                                 for k, v in sorted(timings.items())}
    text = json.dumps(_strict(report), indent=2, sort_keys=True,
                      allow_nan=False)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _constraint_tol(config: RunConfig, args) -> float:
    return config.tolerances["constraints"] if args.tol is None else args.tol


def _degree(config: RunConfig, args) -> int:
    if args.degree is None:
        return config.jet["degree"]
    validate_degree(args.degree)
    return args.degree


def _seeds(config: RunConfig, args) -> list:
    if args.seed is None:
        return config.jet["seeds"]
    validate_seed(args.seed, "--seed")
    return [args.seed]


def cmd_verify_algebra(config: RunConfig, args) -> int:
    report = _report_skeleton(config, "verify-algebra")
    sc = config.structure_constants()
    tol = _constraint_tol(config, args)
    start = time.perf_counter()
    killing = lie_core.killing_metric(sc)
    checks = {
        "antisymmetry": sc.antisymmetry_residual(),
        "jacobi": lie_core.jacobi_residual(sc),
        "killing-symmetry": float(np.abs(killing - killing.T).max()),
    }
    report["checks"] = {name: {"residual": val, "passed": val <= tol}
                        for name, val in checks.items()}
    report["killing_metric"] = killing.ravel().tolist()
    report["killing_signature"] = list(
        lie_core.structure_signature(killing))
    report["passed"] = all(c["passed"] for c in report["checks"].values())
    _emit(report, args, {"verify-algebra": time.perf_counter() - start})
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_verify_deformation(config: RunConfig, args) -> int:
    report = _report_skeleton(config, "verify-deformation")
    ds = config.deformation()
    tol = _constraint_tol(config, args)
    start = time.perf_counter()
    linear = check_linear_relations(ds, tol)
    quadratic = check_quadratic_relations(ds, tol)
    obstruction = check_e_mass_obstruction(ds, tol)
    report["checks"]["linear-relations"] = linear.as_dict()
    report["checks"]["quadratic-relations"] = quadratic.as_dict()
    report["checks"]["e-mass-obstruction"] = {"passed": obstruction}
    report["parity"] = parity_grade(ds)
    report["passed"] = bool(linear.passed and quadratic.passed
                            and obstruction)
    _emit(report, args, {"verify-deformation": time.perf_counter() - start})
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_verify_theory(config: RunConfig, args) -> int:
    report = _report_skeleton(config, "verify-theory")
    ds = config.deformation()
    if not args.force:
        gate = check_all_relations(ds, config.tolerances["constraints"])
        if not gate.passed:
            report["checks"]["constraint-gate"] = gate.as_dict()
            report["passed"] = False
            _emit(report, args, None)
            return EXIT_FAIL
    variant = config.variant()
    seeds = _seeds(config, args)
    tols = dict(config.tolerances)
    if args.tol is not None:
        tols.update(dict.fromkeys(DEFAULT_TOLS, args.tol))
    out = run_identity_suite(variant, seeds, _degree(config, args),
                             config.jet["amplitude"], config.checks, tols)
    for name, rep in out["reports"].items():
        report["checks"][name] = rep.as_dict()
    report["passed"] = all(rep.passed for rep in out["reports"].values())
    _emit(report, args, out["timings"])
    return EXIT_PASS if report["passed"] else EXIT_FAIL


# the radial magnetic 2-form is the Coulomb one at the origin; its flux is
# the magnetic charge
_SAMPLER_BUILDERS = {
    "coulomb": lambda p, c: coulomb_sampler(p, c),
    "radial-magnetic": lambda p, c: coulomb_sampler(p),
    "uniform-scalar": lambda p, c: uniform_scalar_sampler(p),
    "zero": lambda p, c: zero_sampler(),
}


def cmd_observables(config: RunConfig, args) -> int:
    report = _report_skeleton(config, "observables")
    section = config.observables_section()
    degree = _degree(config, args)
    seeds = _seeds(config, args)
    start = time.perf_counter()
    passed = True

    if "charge" in section["checks"]:
        parameter = float(section["parameter"])
        sampler = _SAMPLER_BUILDERS[section["sampler"]](
            parameter, tuple(section["center"]))
        if section["sampler"] == "uniform-scalar":
            result = charge_line(sampler, float(section["radius"]),
                                 int(section["points"]))
        else:
            result = charge_surface(sampler, float(section["radius"]),
                                    tuple(section["grid"]))
        expected = 0.0 if section["sampler"] == "zero" else parameter
        err = float(np.abs(result.values - expected).max())
        ok = err <= 1e-6
        passed = passed and ok
        report["checks"]["charge"] = {
            "sampler": section["sampler"],
            "values": result.values.tolist(),
            "expected": expected,
            "error": err,
            "estimated_quadrature_error": result.estimated_error,
            "grid": list(result.grid),
            "passed": ok,
        }

    if "causality" in section["checks"]:
        star_p, star_q = random_strength_values(
            np.random.default_rng(seeds[0]), 3, 3,
            int(section["causality_samples"]))
        causal = energy_causality_check(star_p, star_q, np.eye(3), np.eye(3),
                                        seed=seeds[0])
        causal["passed"] = bool(causal["energy_nonnegative"]
                                and causal["flux_causal"])
        passed = passed and causal["passed"]
        report["checks"]["causality"] = causal

    if "trace" in section["checks"]:
        ring = JetRing(degree)
        rng = np.random.default_rng(seeds[0])
        comps = rng.uniform(-1.0, 1.0, (3, 6, ring.width))
        star_p = LieForm(ring, 2, comps)
        star_q = LieForm.zero(ring, 1, 3)
        tensor = stress_energy((star_p, star_q), np.eye(3), np.eye(3))
        trace = float(np.abs(tensor.trace().coeffs).max())
        sym = tensor.symmetry_residual()
        ok = trace <= 1e-12 and sym == 0.0
        passed = passed and ok
        report["checks"]["trace"] = {"p_sector_trace": trace,
                                     "symmetry_residual": sym,
                                     "passed": ok}

    report["passed"] = bool(passed)
    _emit(report, args, {"observables": time.perf_counter() - start})
    return EXIT_PASS if passed else EXIT_FAIL


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "verify-deformation": cmd_verify_deformation,
    "verify-theory": cmd_verify_theory,
    "observables": cmd_observables,
}

# every command takes --config, --json and --timings; these options are
# registered only on the commands that read them
OPTIONS = {
    "--seed": dict(type=int, help="override the config seeds with one seed"),
    "--degree": dict(type=int, help="override the jet truncation degree"),
    "--tol": dict(type=float,
                  help="override the tolerance: the constraint tolerance of "
                       "verify-algebra and verify-deformation, every "
                       "identity class (linear, composite) of "
                       "verify-theory; the cubic-tower rows of "
                       "euler-lagrange stay at "
                       f"min(composite, {CUBIC_TOWER_TOL:g})"),
    "--force": dict(action="store_true",
                    help="run the theory suite even if the deformation "
                         "constraints fail"),
}
COMMAND_OPTIONS = {
    "verify-algebra": ("--tol",),
    "verify-deformation": ("--tol",),
    "verify-theory": ("--seed", "--degree", "--tol", "--force"),
    "observables": ("--seed", "--degree"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ymft",
        description="verify coupled vector/tensor gauge-theory identities "
                    "on truncated-Taylor field configurations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="path to the JSON run configuration")
        cmd.add_argument("--json", default=None,
                         help="write the report to this path instead of "
                              "stdout")
        for option in COMMAND_OPTIONS[name]:
            cmd.add_argument(option, **OPTIONS[option])
        cmd.add_argument("--timings", action="store_true",
                         help="embed wall times in the JSON report "
                              "(breaks byte-for-byte determinism)")
    return parser


# built once per process, not once per call of main()
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if getattr(args, "tol", None) is not None:
            validate_tolerance(args.tol, "--tol")
        config = load_config(args.config)
        return COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularYError as exc:
        print(f"singular strength operator: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
