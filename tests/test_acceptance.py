"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ymft import lie_core
from ymft.deformations import (check_all_relations, check_e_mass_obstruction,
                               check_quadratic_relations, family_e_only,
                               family_general, family_linear,
                               family_solvable, family_su2, make_deformation)
from ymft.dynamics import (TheoryVariant, check_commutators,
                           check_euler_lagrange_consistency,
                           check_gauge_invariance, check_linearization,
                           check_noether_identities,
                           check_strength_identities, seed_contexts)
from ymft.forms import LieForm
from ymft.jets import JetRing
from ymft.lie_core import InternalSpace
from ymft.observables import (charge_surface, coulomb_sampler,
                              energy_causality_check, random_strength_values,
                              stress_energy)

SEEDS_20 = list(range(1, 21))
CMAP = np.array([[0.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])


def sym_e(seed=5, m=2, n=3):
    rng = np.random.default_rng(seed)
    e = rng.uniform(-1, 1, (m, n, n))
    return e + e.transpose(0, 2, 1)


def solvable_family():
    return family_solvable([1.0, 0, 0], [0.0, 0, 1], CMAP)


def mixed_general_family():
    return family_general(massless_a=lie_core.su2(),
                          massless_b=lie_core.su2(), h0=np.eye(3),
                          massive=lie_core.abelian(1), mass_value=1.5)


def verdict(num, text, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_constraint_suite():
    start = time.perf_counter()
    families = {
        "su2 massive (m=2, lam=1/2)": family_su2(2.0, 0.5),
        "su2 massless (lam=0.7)": family_su2(0.0, 0.7),
        "solvable": solvable_family(),
        "e-only": family_e_only(sym_e()),
        "mixed general": mixed_general_family(),
    }
    worst = 0.0
    for name, ds in families.items():
        report = check_all_relations(ds, 1e-12)
        worst = max(worst, report.max_residual)
        assert report.passed, f"{name}: {report.failing()}"
    elapsed = time.perf_counter() - start
    verdict(1, f"all five families pass every relation "
               f"(max residual {worst:.2e}, {elapsed:.2f}s < 1s)",
            worst < 1e-12 and elapsed < 1.0)


def test_criterion_2_obstruction_detection():
    z = np.zeros((3, 3, 3))
    e = sym_e(seed=1, m=3, n=3)
    with_mass = make_deformation(InternalSpace(3), InternalSpace(3), z, z,
                                 z, z, e, np.eye(3))
    obstructed = not check_e_mass_obstruction(with_mass)

    detected_all = True
    for mass, lam in ((2.0, 0.5), (0.0, 0.7)):
        base = family_su2(mass, lam)
        for name in "abjk":
            tensors = {n: getattr(base, n).copy() for n in "abjke"}
            tensors[name][0, 1, 2] += 0.1
            ds = make_deformation(base.space_a, base.space_b, tensors["a"],
                                  tensors["b"], tensors["j"], tensors["k"],
                                  tensors["e"], base.mass.m, validate=False)
            quad = check_quadratic_relations(ds, 1e-10)
            hit = any(r.residual > 1e-4 for r in quad.results)
            detected_all = detected_all and hit
    verdict(2, "e against mass obstructed; every 0.1 perturbation of "
               "(a, b, j, k) trips a quadratic relation above 1e-4",
            obstructed and detected_all)


def _acceptance_variants():
    return {
        "linear m=0": TheoryVariant(family_linear(np.zeros((3, 3)))),
        "linear m=2": TheoryVariant(family_linear(2.0 * np.eye(3))),
        "su2 massless": TheoryVariant(family_su2(0.0, 0.7)),
        "su2 massive": TheoryVariant(family_su2(2.0, 0.5)),
        "solvable": TheoryVariant(solvable_family()),
        "e-only": TheoryVariant(family_e_only(sym_e())),
    }


def test_criterion_3_gauge_invariance_twenty_seeds():
    start = time.perf_counter()
    worst = {}
    for name, variant in _acceptance_variants().items():
        report = check_gauge_invariance(
            seed_contexts(variant, SEEDS_20, degree=3, amplitude=0.1),
            tol=1e-8)
        worst[name] = report.max_residual
        assert report.passed, (name, report.as_dict())
    elapsed = time.perf_counter() - start
    eonly_exact = worst["e-only"] < 5e-15
    ok = max(worst.values()) < 1e-8 and eonly_exact and elapsed < 60.0
    verdict(3, "delta L = d Theta for 6 variants x 20 seeds "
               f"(max residual {max(worst.values()):.2e}, e-only "
               f"{worst['e-only']:.1e}, {elapsed:.1f}s < 60s)", ok)


def test_criterion_4_negative_control_wrong_coupling():
    eps = lie_core.levi_civita3()
    bad = make_deformation(InternalSpace(3), InternalSpace(3), eps,
                           0.3 * eps, eps, 0.3 * eps, np.zeros((3, 3, 3)),
                           2.0 * np.eye(3), h_map=0.3 * np.eye(3))
    report = check_gauge_invariance(seed_contexts(TheoryVariant(bad),
                                                  [1, 2, 3]))
    verdict(4, "massive family with the coupling forced to 0.3 breaks "
               f"invariance (residual {report.max_residual:.2e} > 1e-3)",
            report.max_residual > 1e-3)


def test_criterion_5_off_shell_identities():
    worst = 0.0
    for name, variant in _acceptance_variants().items():
        contexts = seed_contexts(variant, SEEDS_20)
        noe = check_noether_identities(contexts, tol=1e-9)
        ids = check_strength_identities(contexts, tol=1e-9)
        assert noe.passed, (name, noe.as_dict())
        assert ids.passed, (name, ids.as_dict())
        worst = max(worst, noe.max_residual, ids.max_residual)
        if name in ("su2 massless", "su2 massive", "solvable"):
            names = {r.name for r in ids.results}
            assert "substitution-P" in names
    verdict(5, "divergence, strength and substitution identities "
               f"< 1e-9 over 20 seeds per variant (max {worst:.2e})",
            worst < 1e-9)


def test_criterion_6_commutator_closure():
    worst = 0.0
    for name in ("su2 massless", "su2 massive"):
        variant = _acceptance_variants()[name]
        report = check_commutators(seed_contexts(variant, range(1, 7)),
                                   tol=1e-9)
        assert report.passed, (name, report.as_dict())
        assert {r.name for r in report.results} == {
            "commutator-xi-xi", "commutator-chi-chi", "commutator-xi-chi"}
        worst = max(worst, report.max_residual)
    verdict(6, "all three commutator types close modulo the trivial "
               f"remainder in both structures (max {worst:.2e} < 1e-9)",
            worst < 1e-9)


def test_criterion_7_linearization():
    worst = 0.0
    for name, variant in _acceptance_variants().items():
        if name.startswith("linear"):
            continue
        report = check_linearization(seed_contexts(variant, [1, 2, 3]),
                                     tol=1e-12)
        assert report.passed, (name, report.as_dict())
        worst = max(worst, report.max_residual)
    verdict(7, "order-one coefficient of every nonlinear variant equals "
               f"the free equations (max {worst:.2e} < 1e-12)",
            worst < 1e-12)


def test_criterion_8_euler_lagrange_consistency():
    worst_el = 0.0
    worst_tower = 0.0
    for name in ("linear m=2", "su2 massless", "su2 massive", "e-only"):
        variant = _acceptance_variants()[name]
        report = check_euler_lagrange_consistency(
            seed_contexts(variant, [1]), tol=1e-9)
        for row in report.results:
            if row.name.startswith("euler-lagrange"):
                worst_el = max(worst_el, row.residual)
                assert row.residual < 1e-9, (name, row)
            if row.name.startswith("homogeneity"):
                worst_tower = max(worst_tower, row.residual)
                assert row.residual < 1e-10, (name, row)
    verdict(8, f"generic variational derivative matches hand-coded "
               f"equations ({worst_el:.2e} < 1e-9); tower homogeneity "
               f"k=1,2 ({worst_tower:.2e} < 1e-10)",
            worst_el < 1e-9 and worst_tower < 1e-10)


def test_criterion_9_observables():
    res = charge_surface(coulomb_sampler(1.0), radius=2.0, grid=(64, 128))
    charge_err = abs(res.values[0] - 1.0)

    star_p, star_q = random_strength_values(np.random.default_rng(2), 3, 3,
                                            1000)
    causal = energy_causality_check(star_p, star_q, np.eye(3), np.eye(3),
                                    n_timelike=4)

    ring = JetRing(3)
    sp = LieForm(ring, 2, np.random.default_rng(3).uniform(
        -1, 1, (3, 6, ring.width)))
    sq = LieForm.zero(ring, 1, 3)
    trace = float(np.abs(stress_energy((sp, sq), np.eye(3),
                                       np.eye(3)).trace().coeffs).max())
    ok = (charge_err < 1e-6 and causal["energy_nonnegative"]
          and causal["flux_causal"] and trace < 1e-12)
    verdict(9, f"Coulomb charge error {charge_err:.1e} < 1e-6; 1000-sample "
               f"energy/causality pass; 2-form-sector trace {trace:.1e} "
               "< 1e-12", ok)


def test_criterion_10_report_determinism(tmp_path):
    config = {
        "deformation": {"family": "su2", "mass": 2.0, "lambda": 0.5},
        "jet": {"degree": 3, "amplitude": 0.1, "seeds": [1]},
        "checks": ["gauge-invariance", "linearization"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ymft.cli", "verify-theory",
             "--config", str(cfg), "--json", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    verdict(10, "repeated runs with identical config and seed produce "
                "byte-identical reports", outs[0] == outs[1])
