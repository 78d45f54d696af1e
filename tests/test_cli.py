import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ymft import cli
from ymft.jets import JetAlgebra

ROOT = Path(__file__).resolve().parent.parent

BASE = {
    "deformation": {"family": "su2", "mass": 2.0, "lambda": 0.5},
    "jet": {"degree": 3, "amplitude": 0.1, "seeds": [1]},
    "checks": ["gauge-invariance", "linearization"],
}


def run_cli(args):
    """``ymft`` with ``args``, in this process: the exit code and what it
    printed, as from a subprocess (an argparse error exits with 2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_module(args):
    """``python -m ymft.cli`` with ``args``, in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "ymft.cli"] + args,
                          capture_output=True, text=True)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# one run per command through the module entry point; every other test
# calls cli.main in this process
MODULE_RUNS = {
    "verify-algebra": {"algebra": {"family": "su2"}},
    "verify-deformation": BASE,
    "verify-theory": dict(BASE, checks=["linearization"]),
    "observables": {"observables": {"sampler": "zero",
                                    "checks": ["charge", "trace"]}},
}


@pytest.mark.parametrize("command", list(MODULE_RUNS))
def test_module_entry_point(tmp_path, command):
    cfg = write_config(tmp_path, MODULE_RUNS[command])
    proc = run_module([command, "--config", cfg])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == command


def test_verify_algebra_su2(tmp_path):
    cfg = write_config(tmp_path, {"algebra": {"family": "su2"}})
    proc = run_cli(["verify-algebra", "--config", cfg])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert report["killing_signature"] == [0, 0, 3]
    assert "conventions" in report


def test_verify_algebra_broken_jacobi(tmp_path):
    c = [0.0] * 27
    c[0 * 9 + 1 * 3 + 2] = 1.0   # c^1_{23}
    c[0 * 9 + 2 * 3 + 1] = -1.0
    c[1 * 9 + 0 * 3 + 2] = 0.7   # breaks antisymmetry and Jacobi
    cfg = write_config(tmp_path, {"algebra": {"dim": 3,
                                              "structure_constants": c}})
    proc = run_cli(["verify-algebra", "--config", cfg])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert not report["checks"]["jacobi"]["passed"] \
        or not report["checks"]["antisymmetry"]["passed"]


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    proc = run_cli(["verify-algebra", "--config", str(path)])
    assert proc.returncode == 2


def test_unknown_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"algebra": {"family": "su2"},
                                  "mystery": 1})
    proc = run_cli(["verify-algebra", "--config", cfg])
    assert proc.returncode == 2


def test_output_key_is_unknown(tmp_path):
    # the key was stored and never read; it is rejected like any other
    cfg = write_config(tmp_path, {"algebra": {"family": "su2"},
                                  "output": "report.json"})
    proc = run_cli(["verify-algebra", "--config", cfg])
    assert proc.returncode == 2
    assert "unknown keys in config: ['output']" in proc.stderr


def test_wrong_tensor_length_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"algebra": {"dim": 3,
                                              "structure_constants": [1.0]}})
    proc = run_cli(["verify-algebra", "--config", cfg])
    assert proc.returncode == 2


def test_verify_deformation_families(tmp_path):
    cfg = write_config(tmp_path, dict(BASE))
    assert run_cli(["verify-deformation", "--config", cfg]).returncode == 0
    solv = dict(BASE)
    solv["deformation"] = {"family": "solvable", "v": [1, 0, 0],
                           "w": [0, 0, 1]}
    cfg = write_config(tmp_path, solv, "solv.json")
    assert run_cli(["verify-deformation", "--config", cfg]).returncode == 0


def test_verify_deformation_e_with_mass_fails(tmp_path):
    n = 3
    e = [0.0] * 27
    e[0 * 9 + 1 * 3 + 1] = 1.0
    payload = {"deformation": {
        "family": "explicit", "dims": [n, n],
        "a": [0.0] * 27, "b": [0.0] * 27, "j": [0.0] * 27, "k": [0.0] * 27,
        "e": e, "mass_matrix": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]}}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["verify-deformation", "--config", cfg])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["checks"]["e-mass-obstruction"]["passed"] is False


@pytest.mark.slow
def test_verify_theory_and_determinism(tmp_path):
    cfg = write_config(tmp_path, dict(BASE))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    p1 = run_cli(["verify-theory", "--config", cfg, "--json", str(out1)])
    p2 = run_cli(["verify-theory", "--config", cfg, "--json", str(out2)])
    assert p1.returncode == 0 and p2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_repeated_verify_theory_matches_a_fresh_process(tmp_path):
    # what one call keeps for the next (parser, fold coefficients, plans)
    # must not change a report: two calls in one process print the bytes
    # of a fresh process
    argv = ["verify-theory", "--config",
            str(ROOT / "demos" / "configs" / "general.json")]
    fresh = run_module(argv)
    assert fresh.returncode == 0, fresh.stderr
    for _ in range(2):
        proc = run_cli(argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == fresh.stdout


def test_verify_theory_builds_the_deformation_once(tmp_path, monkeypatch):
    # the constraint gate and the theory variant check one set
    from ymft import config as config_module
    builds = []
    original = config_module.family_su2

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(config_module, "family_su2", counted)
    cfg = write_config(tmp_path, dict(BASE, checks=["linearization"]))
    proc = run_cli(["verify-theory", "--config", cfg])
    assert proc.returncode == 0, proc.stderr
    assert builds == [(2.0, 0.5)]


@pytest.mark.slow
def test_verify_theory_singular_amplitude(tmp_path):
    payload = dict(BASE)
    payload["jet"] = {"degree": 3, "amplitude": 10.0, "seeds": [1]}
    payload["checks"] = ["gauge-invariance"]
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["verify-theory", "--config", cfg])
    assert proc.returncode == 3
    assert "amplitude" in proc.stderr


def test_verify_theory_gate_blocks_bad_deformation(tmp_path):
    payload = {"deformation": {"family": "explicit", "dims": [3, 3],
                               "a": [0.0] * 27, "b": [0.0] * 27,
                               "j": [0.0] * 27, "k": [0.0] * 27,
                               "e": [0.0] * 27,
                               "mass_matrix": [0.0] * 9},
               "jet": {"degree": 3, "amplitude": 0.1, "seeds": [1]},
               "checks": ["linearization"]}
    payload["deformation"]["j"] = [0.1] * 27  # fails the mass-j link
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["verify-theory", "--config", cfg])
    assert proc.returncode == 1
    # --force runs the suite anyway
    proc = run_cli(["verify-theory", "--config", cfg, "--force"])
    assert proc.returncode in (0, 1)


def test_explicit_su2_massive_matches_the_named_family():
    # explicit.json writes the su2 massive tensors out with no h map: each
    # row it shares with su2_massive.json is bitwise equal, and the only
    # rows it lacks are the two substitution routes, which read the h map
    rows = {}
    for name in ("explicit", "su2_massive"):
        path = ROOT / "demos" / "configs" / f"{name}.json"
        proc = run_cli(["verify-theory", "--config", str(path)])
        assert proc.returncode == 0, proc.stderr
        rows[name] = {(check, row["name"]): row for check, report in
                      json.loads(proc.stdout)["checks"].items()
                      for row in report["identities"]}
    explicit, named = rows["explicit"], rows["su2_massive"]
    assert set(named) - set(explicit) == {
        ("strength-identities", "substitution-P"),
        ("strength-identities", "substitution-Q-massive")}
    assert set(explicit) <= set(named)
    for key, row in explicit.items():
        assert row == named[key], key


def test_explicit_e_only_matches_the_named_family(tmp_path):
    # the tensors of e_only.json written out, a = b = j = k = 0: the set
    # alone picks the shifted-curl theory, as for the named family
    named = json.loads((ROOT / "demos" / "configs" / "e_only.json")
                       .read_text())
    section = {"family": "explicit", "dims": [3, 2],
               "e": named["deformation"]["e"], "a": [0.0] * 27,
               "b": [0.0] * 18, "j": [0.0] * 12, "k": [0.0] * 8}
    cfg = write_config(tmp_path, dict(named, deformation=section))
    checks = []
    for path in (cfg, str(ROOT / "demos" / "configs" / "e_only.json")):
        proc = run_cli(["verify-theory", "--config", path])
        assert proc.returncode == 0, proc.stderr
        checks.append(json.loads(proc.stdout)["checks"])
    assert checks[0] == checks[1]


def test_observables_command(tmp_path):
    payload = {"observables": {"sampler": "coulomb", "parameter": 1.0,
                               "radius": 2.0, "grid": [32, 64],
                               "causality_samples": 50}}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["observables", "--config", cfg])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["checks"]["charge"]["passed"]
    assert report["checks"]["causality"]["passed"]
    assert report["checks"]["trace"]["passed"]


def test_observables_report_is_byte_deterministic(tmp_path):
    # the demo config, causality sampling included, in two fresh
    # interpreters
    reports = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        proc = run_module(["observables", "--config",
                           str(ROOT / "demos" / "configs" / "coulomb.json"),
                           "--json", str(out)])
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert b'"causality"' in reports[0]
    assert reports[0] == reports[1]


def test_observables_degree_override_reaches_trace(tmp_path, monkeypatch,
                                                  capsys):
    degrees = []

    class RecordingRing(cli.JetRing):
        def __init__(self, degree):
            degrees.append(degree)
            super().__init__(degree)

    monkeypatch.setattr(cli, "JetRing", RecordingRing)
    cfg = write_config(tmp_path, {"observables": {"sampler": "zero",
                                                  "checks": ["trace"]}})
    assert cli.main(["observables", "--config", cfg, "--degree", "5"]) == 0
    assert degrees == [5]
    assert json.loads(capsys.readouterr().out)["checks"]["trace"]["passed"]
    proc = run_cli(["observables", "--config", cfg, "--degree", "0"])
    assert proc.returncode == 2
    assert "jet.degree must be a positive integer" in proc.stderr


def test_observables_zero_sampler(tmp_path):
    payload = {"observables": {"sampler": "zero", "checks": ["charge"]}}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["observables", "--config", cfg])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["checks"]["charge"]["values"] == [0.0]


def test_unknown_sampler_exits_2(tmp_path):
    payload = {"observables": {"sampler": "vortex"}}
    cfg = write_config(tmp_path, payload)
    assert run_cli(["observables", "--config", cfg]).returncode == 2


def test_seed_and_degree_overrides(tmp_path):
    payload = dict(BASE)
    payload["checks"] = ["linearization"]
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["verify-theory", "--config", cfg, "--seed", "9",
                    "--degree", "2"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    idents = report["checks"]["linearization"]["identities"]
    assert all(row["seeds"] == [9] for row in idents)


def test_empty_seed_list_exits_2(tmp_path):
    # a suite over no fields would pass every identity with residual 0.0
    payload = dict(BASE)
    payload["jet"] = {"degree": 3, "amplitude": 0.1, "seeds": []}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["verify-theory", "--config", cfg])
    assert proc.returncode == 2
    assert "jet.seeds must be a non-empty list of integers" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_degree_override_below_one_exits_2(tmp_path, degree):
    cfg = write_config(tmp_path, dict(BASE))
    proc = run_cli(["verify-theory", "--config", cfg, "--degree", degree])
    assert proc.returncode == 2
    assert "jet.degree must be a positive integer" in proc.stderr
    assert proc.stdout == ""


def test_empty_check_list_exits_2(tmp_path):
    # a suite with no checks would report "passed": true; an entry that
    # is not a check name is a schema error, not a crash
    for checks in ([], [["noether"]]):
        cfg = write_config(tmp_path, dict(BASE, checks=checks))
        proc = run_cli(["verify-theory", "--config", cfg])
        assert proc.returncode == 2
        assert "checks must be a non-empty list of check names" \
            in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_tol_zero_override_is_applied(tmp_path):
    # linearization rows are of the "linear" class, gauge invariance of
    # the "composite" one: --tol overrides both
    cfg = write_config(tmp_path, dict(BASE, checks=["gauge-invariance",
                                                    "linearization"]))
    proc = run_cli(["verify-theory", "--config", cfg, "--tol", "0"])
    report = json.loads(proc.stdout)
    rows = [row for name in ("gauge-invariance", "linearization")
            for row in report["checks"][name]["identities"]]
    assert rows and all(row["tolerance"] == 0.0 for row in rows)
    # each verdict, and the exit code, follow the zero tolerance
    assert all(row["passed"] is (row["residual"] <= 0.0) for row in rows)
    assert report["passed"] is all(row["passed"] for row in rows)
    assert proc.returncode == (0 if report["passed"] else 1)


def test_tol_override_reaches_algebra_report(tmp_path):
    # su2 with one structure constant off by 1e-6: outside the default
    # constraint tolerance 1e-10, inside --tol 1e-3
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
    c = [eps.get((a, b, d), 0.0)
         for a in range(3) for b in range(3) for d in range(3)]
    c[0 * 9 + 1 * 3 + 2] += 1e-6
    cfg = write_config(tmp_path, {"algebra": {"dim": 3,
                                              "structure_constants": c}})
    assert run_cli(["verify-algebra", "--config", cfg]).returncode == 1
    proc = run_cli(["verify-algebra", "--config", cfg, "--tol", "1e-3"])
    assert proc.returncode == 0
    checks = json.loads(proc.stdout)["checks"]
    assert checks["antisymmetry"]["residual"] > 1e-10
    assert all(check["passed"] for check in checks.values())


def test_tol_zero_override_reaches_deformation_report(tmp_path):
    cfg = write_config(tmp_path, dict(BASE))
    proc = run_cli(["verify-deformation", "--config", cfg, "--tol", "0"])
    report = json.loads(proc.stdout)
    for name in ("linear-relations", "quadratic-relations"):
        assert report["checks"][name]["tolerance"] == 0.0


@pytest.mark.parametrize("command", ["verify-algebra", "verify-deformation",
                                     "verify-theory", "observables"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tol_override_exits_2(tmp_path, command, tol):
    cfg = write_config(tmp_path, dict(BASE, algebra={"family": "su2"}))
    proc = run_cli([command, "--config", cfg, "--tol", tol])
    assert proc.returncode == 2
    # observables reads no tolerance, so it does not register --tol at all
    if command == "observables":
        assert f"unrecognized arguments: --tol {tol}" in proc.stderr
    else:
        assert "--tol must be a finite number >= 0" in proc.stderr
    assert proc.stdout == ""


# each option is registered only on the commands that read it
UNREAD_OPTIONS = [("observables", ["--tol", "0"]),
                  ("observables", ["--force"])] + [
    (command, option) for command in ("verify-algebra", "verify-deformation")
    for option in (["--seed", "3"], ["--degree", "9"], ["--force"])]


@pytest.mark.parametrize("command,option", UNREAD_OPTIONS,
                         ids=[f"{c}-{o[0][2:]}" for c, o in UNREAD_OPTIONS])
def test_unread_option_exits_2(tmp_path, command, option):
    cfg = write_config(tmp_path, dict(BASE, algebra={"family": "su2"}))
    proc = run_cli([command, "--config", cfg] + option)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {' '.join(option)}" in proc.stderr
    assert proc.stdout == ""


def test_polynomial_tolerance_key_is_unknown(tmp_path):
    # no check reads it: the cubic-tower rows are judged at
    # min(composite, 1e-10) whatever the config says
    cfg = write_config(tmp_path, dict(BASE, tolerances={"polynomial": 1e-30}))
    proc = run_cli(["verify-theory", "--config", cfg])
    assert proc.returncode == 2
    assert "unknown keys in tolerances: ['polynomial']" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("value", [-1e-8, float("nan"), float("inf")])
def test_bad_config_tolerance_exits_2(tmp_path, value):
    payload = dict(BASE, tolerances={"composite": value})
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["verify-theory", "--config", cfg])
    assert proc.returncode == 2
    assert "tolerances.composite must be a finite number >= 0" in proc.stderr
    assert proc.stdout == ""


NAN_LINEAR = {"deformation": {"family": "linear", "dims": [3, 3],
                              "mass_matrix": [float("nan")] + [0.0] * 8},
              "jet": {"degree": 3, "amplitude": 0.1, "seeds": [1]},
              "checks": ["gauge-invariance", "linearization"]}


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_nan_residuals_are_strict_json(tmp_path, force):
    # the constraint gate meets the NaN mass, and with --force the
    # identity rows do; each writes it as the string "NaN"
    cfg = write_config(tmp_path, NAN_LINEAR)
    proc = run_cli(["verify-theory", "--config", cfg] + force)
    assert proc.returncode == 1
    report = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert report["passed"] is False
    assert '"residual": "NaN"' in proc.stdout


# each of these passed with nothing checked or nothing sampled: no check
# run, or a causality check over no samples with min_energy "Infinity"
BAD_OBSERVABLES = [
    ({"checks": []}, "observables.checks must be a non-empty list"),
    ({"checks": ["chrge"]}, "unknown observables checks: ['chrge']"),
    ({"checks": "charge"}, "observables.checks must be a non-empty list"),
    ({"causality_samples": 0},
     "observables.causality_samples must be a positive integer"),
    ({"causality_samples": 2.5},
     "observables.causality_samples must be a positive integer"),
    ({"points": -4}, "observables.points must be a positive integer"),
    ({"grid": [0, 8]}, "observables.grid must be two positive integers"),
    ({"grid": [8]}, "observables.grid must be two positive integers"),
    ({"radius": 0.0}, "observables.radius must be a finite number > 0"),
    ({"radius": float("inf")},
     "observables.radius must be a finite number > 0"),
    ({"radius": "2.0"}, "observables.radius must be a finite number > 0"),
    ({"sampler": ["coulomb"]}, "unknown sampler ['coulomb']"),
    ({"center": [0, 0]}, "observables.center must be three finite numbers"),
    ({"center": [0, 0, float("nan")]},
     "observables.center must be three finite numbers"),
    ({"center": [0, "0", 0]},
     "observables.center must be three finite numbers"),
    ({"center": 0.5}, "observables.center must be three finite numbers"),
    ({"parameter": [1], "checks": ["charge"]},
     "observables.parameter must be a finite number"),
]


@pytest.mark.parametrize("section,message", BAD_OBSERVABLES,
                         ids=[json.dumps(s) for s, _ in BAD_OBSERVABLES])
def test_bad_observables_section_exits_2(tmp_path, capsys, section,
                                         message):
    cfg = write_config(tmp_path, {"observables": section})
    assert cli.main(["observables", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


def test_runtime_needs_no_scipy(tmp_path):
    # a fresh interpreter in which any import of scipy fails
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from ymft.cli import main\n"
        "for argv in (['verify-theory', '--config', "
        "'demos/configs/su2_massive.json', '--seed', '1'],\n"
        "             ['observables', '--config', "
        "'demos/configs/coulomb.json']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert sys.modules['scipy'] is None\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stderr


def sample_runs():
    """(command, config) for every sample config and each command that
    reads its sections; verify-theory at degree 3 with one seed."""
    runs = []
    for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
        sections = json.loads(path.read_text())
        for command, needs in (("verify-algebra", "algebra"),
                               ("verify-deformation", "deformation"),
                               ("verify-theory", "deformation"),
                               ("observables", None)):
            if needs is None or needs in sections:
                extra = (["--degree", "3", "--seed", "1"]
                         if command == "verify-theory" else [])
                runs.append(pytest.param(
                    [command, "--config", str(path)] + extra,
                    id=f"{command}-{path.stem}"))
    return runs


@pytest.mark.parametrize("argv", sample_runs())
def test_commands_run_no_scalar_jet_products(argv, monkeypatch):
    # every product of a command is a jet-matrix product; the scalar
    # product of two jets is for JetScalar arithmetic in tests and demos
    def refuse(*args, **kwargs):
        raise AssertionError("scalar jet product in a command")

    monkeypatch.setattr(JetAlgebra, "mul_coeffs", refuse)
    proc = run_cli(argv)
    assert proc.returncode == 0, proc.stderr


# each bad value exits 2 with a message that names its key, not with a
# traceback from the numerical layers or a run that reads it as another
# value (JSON true as 1)
BAD_KEYS = [
    ({"jet": {"amplitude": "x"}},
     "jet.amplitude must be a finite number >= 0"),
    ({"jet": {"amplitude": float("nan")}},
     "jet.amplitude must be a finite number >= 0"),
    ({"jet": {"amplitude": float("inf")}},
     "jet.amplitude must be a finite number >= 0"),
    ({"jet": {"amplitude": -1}}, "jet.amplitude must be a finite number >= 0"),
    ({"jet": {"amplitude": True}},
     "jet.amplitude must be a finite number >= 0"),
    ({"jet": {"degree": True}}, "jet.degree must be a positive integer"),
    ({"jet": {"seeds": [True]}},
     "jet.seeds must be a non-empty list of integers >= 0"),
    ({"jet": {"seeds": [1, -5]}},
     "jet.seeds must be a non-empty list of integers >= 0"),
    ({"deformation": {"family": "linear", "dims": [0, 2]}},
     "deformation.dims must be [dim A, dim A'], two positive integers"),
    ({"deformation": {"family": "e_only", "dims": [3, -2], "e": []}},
     "deformation.dims must be [dim A, dim A'], two positive integers"),
    ({"deformation": {"family": "explicit", "dims": [True, 3]}},
     "deformation.dims must be [dim A, dim A'], two positive integers"),
    ({"deformation": {"family": "su2", "mass": [2.0]}},
     "deformation.mass must be a finite number"),
    ({"deformation": {"family": "su2", "mass": True, "lambda": 1.0}},
     "deformation.mass must be a finite number"),
    ({"deformation": {"family": "su2", "mass": 2.0, "lambda": [0.5]}},
     "deformation.lambda must be a finite number"),
    ({"deformation": {"family": "general", "mass_value": [1.0]}},
     "deformation.mass_value must be a finite number"),
]


@pytest.mark.parametrize("override,message", BAD_KEYS,
                         ids=[json.dumps(o) for o, _ in BAD_KEYS])
def test_bad_theory_key_exits_2(tmp_path, override, message):
    payload = dict(BASE, checks=["linearization"])
    for section, values in override.items():
        payload[section] = dict(payload[section], **values)
    if "family" in override.get("deformation", {}):
        payload["deformation"] = override["deformation"]
    proc = run_cli(["verify-theory", "--config",
                    write_config(tmp_path, payload)])
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("section", [
    {"dim": True, "structure_constants": [0.0]},
    {"family": "abelian", "dim": True},
    {"family": "abelian", "dim": 0},
], ids=["explicit-true", "abelian-true", "abelian-zero"])
def test_bad_algebra_dim_exits_2(tmp_path, section):
    proc = run_cli(["verify-algebra", "--config",
                    write_config(tmp_path, {"algebra": section})])
    assert proc.returncode == 2
    assert "algebra.dim must be a positive integer" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["verify-theory", "observables"])
def test_negative_seed_override_exits_2(tmp_path, command):
    cfg = write_config(tmp_path, dict(BASE, checks=["linearization"]))
    proc = run_cli([command, "--config", cfg, "--seed", "-3"])
    assert proc.returncode == 2
    assert "--seed must be an integer >= 0" in proc.stderr
    assert proc.stdout == ""


def test_seed_zero_and_amplitude_zero_are_valid(tmp_path):
    payload = dict(BASE, checks=["linearization"],
                   jet={"degree": 2, "amplitude": 0, "seeds": [0]})
    proc = run_cli(["verify-theory", "--config",
                    write_config(tmp_path, payload)])
    assert proc.returncode == 0, proc.stderr
