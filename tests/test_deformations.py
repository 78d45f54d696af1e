import numpy as np
import pytest

from ymft import lie_core
from ymft.deformations import (ConstraintReport, ConstraintResult,
                               check_all_relations, check_e_mass_obstruction,
                               check_linear_relations,
                               check_quadratic_relations, family_e_only,
                               family_general, family_solvable, family_su2,
                               linear_relation_residuals, make_deformation,
                               parity_grade, quadratic_relation_residuals)
from ymft.lie_core import InternalSpace, StructureConstants

EPS = lie_core.levi_civita3()

CMAP = np.array([[0.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])


def solvable():
    return family_solvable([1.0, 0, 0], [0.0, 0, 1], CMAP)


def random_symmetric_e(seed, m=1, n=2):
    rng = np.random.default_rng(seed)
    e = rng.uniform(-1, 1, (m, n, n))
    return e + e.transpose(0, 2, 1)


ALL_FAMILIES = [
    ("su2-massive", lambda: family_su2(2.0, 0.5)),
    ("su2-massless", lambda: family_su2(0.0, 0.7)),
    ("solvable-abelian", lambda: family_solvable([1, 0, 0], [0, 0, 1])),
    ("solvable-cmap", solvable),
    ("e-only", lambda: family_e_only(random_symmetric_e(3))),
    ("general-massive", lambda: family_general(massive=lie_core.su2(),
                                               mass_value=2.0)),
    ("general-two-sector", lambda: family_general(
        massless_a=lie_core.su2(), massless_b=lie_core.su2(),
        h0=np.eye(3))),
    ("general-mixed", lambda: family_general(
        massless_a=lie_core.su2(), massless_b=lie_core.su2(), h0=np.eye(3),
        massive=lie_core.abelian(1), mass_value=1.5)),
]


@pytest.mark.parametrize("name,builder", ALL_FAMILIES)
def test_every_family_passes_all_relations(name, builder):
    ds = builder()
    report = check_all_relations(ds, 1e-12)
    assert report.passed, report.failing()


def test_constraint_report_covers_fixed_relation_set():
    ds = family_su2(0.0, 1.0)
    lin = check_linear_relations(ds)
    quad = check_quadratic_relations(ds)
    assert [r.name for r in lin.results] == [
        "e-index-symmetry", "ab-mass-link", "ja-mass-link", "jb-mass-link",
        "k-antisymmetry", "km-j-link", "em-mass-link"]
    assert [r.name for r in quad.results] == [
        "a-jacobi", "ab-derivation", "aj-representation", "k-jacobi",
        "bk-representation", "ae-mixed", "ek-mixed"]


def test_su2_lambda_precondition():
    with pytest.raises(ValueError):
        family_su2(2.0, 0.3)
    family_su2(3.0, 1.0 / 3.0)  # rounding-tolerant


def test_su2_massless_scaling_covariance():
    # replacing (b, k) by (lam b, lam k) keeps every residual at zero
    for lam in (0.3, 0.7, 2.5):
        ds = family_su2(0.0, lam)
        assert check_all_relations(ds, 0.0).passed


def test_solvable_preconditions():
    bad = CMAP.copy()
    bad[0, 0] = 1.0  # c^1_1 v_1 != 0
    with pytest.raises(ValueError):
        family_solvable([1, 0, 0], [0, 0, 1], bad)
    # v = 0 degenerates to an abelian set and passes trivially
    ds = family_solvable([0.0, 0, 0], [0, 0, 1])
    assert check_all_relations(ds).passed
    assert np.abs(ds.b).max() == 0.0


def test_e_only_family():
    ds = family_e_only(np.ones((1, 1, 1)))
    assert check_all_relations(ds).passed
    with pytest.raises(ValueError):
        asym = np.zeros((1, 2, 2))
        asym[0, 0, 1] = 1.0
        family_e_only(asym)


def test_general_reproduces_su2_family():
    ds = family_general(massive=lie_core.su2(), mass_value=2.0)
    ref = family_su2(2.0, 0.5)
    for attr in ("a", "b", "j", "k", "e"):
        assert np.allclose(getattr(ds, attr), getattr(ref, attr),
                           atol=1e-14)
    assert np.allclose(ds.mass.m, ref.mass.m)


def test_general_preconditions():
    with pytest.raises(ValueError):
        family_general(massless_a=lie_core.abelian(2),
                       massless_b=lie_core.su2(), h0=np.zeros((2, 3)))
    with pytest.raises(ValueError):  # h0 not a homomorphism
        family_general(massless_a=lie_core.su2(),
                       massless_b=lie_core.su2(), h0=0.8 * np.eye(3))
    with pytest.raises(ValueError):  # massive metric not invariant
        bad_metric = InternalSpace(3, np.diag([1.0, 2.0, 3.0]))
        family_general(massive=StructureConstants(bad_metric, EPS),
                       mass_value=1.0)


def test_general_nonabelian_massive_with_massless_sectors():
    scaled = StructureConstants(InternalSpace(3), 0.8 * EPS)
    ds = family_general(massless_a=lie_core.su2(), massless_b=scaled,
                        h0=0.8 * np.eye(3), massive=lie_core.su2(),
                        mass_value=2.0)
    assert check_all_relations(ds, 1e-12).passed
    split = lie_core.decompose_mass_subspaces(ds.mass)
    assert split.massive_dim == 3
    assert ds.space_a.dim == 6


@pytest.mark.parametrize("tensor", ["a", "b", "j", "k"])
@pytest.mark.parametrize("mass", [0.0, 2.0])
def test_single_perturbation_triggers_quadratic_failure(tensor, mass):
    base = family_su2(mass, 0.5 if mass else 0.7)
    tensors = {n: getattr(base, n).copy() for n in "abjke"}
    tensors[tensor][0, 1, 2] += 0.1
    ds = make_deformation(base.space_a, base.space_b, tensors["a"],
                          tensors["b"], tensors["j"], tensors["k"],
                          tensors["e"], base.mass.m, validate=False)
    quad = check_quadratic_relations(ds, 1e-10)
    assert any(r.residual > 1e-4 for r in quad.results if not r.passed)


def test_j_perturbation_fails_mass_links():
    ds = make_deformation(InternalSpace(3), InternalSpace(3), EPS, 0.5 * EPS,
                          1.1 * EPS, 0.5 * EPS, np.zeros((3, 3, 3)),
                          2.0 * np.eye(3))
    failing = {r.name for r in check_linear_relations(ds).failing()}
    assert "km-j-link" in failing


def test_wrong_lambda_massive_fails_km_link():
    ds = make_deformation(InternalSpace(3), InternalSpace(3), EPS, 0.3 * EPS,
                          EPS, 0.3 * EPS, np.zeros((3, 3, 3)),
                          2.0 * np.eye(3))
    failing = {r.name for r in check_linear_relations(ds).failing()}
    assert "km-j-link" in failing


def test_e_mass_obstruction():
    e = random_symmetric_e(1, m=3, n=3)
    z = np.zeros((3, 3, 3))
    with_mass = make_deformation(InternalSpace(3), InternalSpace(3), z, z, z,
                                 z, e, np.eye(3))
    without = make_deformation(InternalSpace(3), InternalSpace(3), z, z, z,
                               z, e, np.zeros((3, 3)))
    zero_e = make_deformation(InternalSpace(3), InternalSpace(3), z, z, z,
                              z, z, np.eye(3))
    assert not check_e_mass_obstruction(with_mass)
    assert check_e_mass_obstruction(without)
    assert check_e_mass_obstruction(zero_e)


def test_parity_grading():
    assert parity_grade(family_su2(2.0, 0.5)) == "even"
    assert parity_grade(family_e_only(random_symmetric_e(2))) == "odd"
    base = family_su2(0.0, 0.7)
    e = random_symmetric_e(4, m=3, n=3)
    mixed = make_deformation(base.space_a, base.space_b, base.a, base.b,
                             base.j, base.k, e, base.mass.m)
    assert parity_grade(mixed) == "mixed"


def test_massless_jacobi_restatements():
    # a and the k-bracket each satisfy the Jacobi identity for passing sets
    for ds in (family_su2(0.0, 0.7), solvable()):
        assert lie_core.jacobi_residual(ds.bracket_a()) < 1e-12
        assert lie_core.jacobi_residual(ds.bracket_b()) < 1e-12


def test_b_represents_k_bracket():
    # bk residual zero implies [rho(u'), rho(v')] = rho([u', v']')
    for ds in (family_su2(0.0, 0.7), solvable()):
        # rho[w']: e_w' of A' acting on A through b
        rho = np.einsum("pwc->wpc", ds.b)
        comm = np.einsum("wpq,vqr->wvpr", rho, rho) \
            - np.einsum("vpq,wqr->wvpr", rho, rho)
        cb = ds.bracket_b().c
        closure = np.einsum("awv,apq->wvpq", cb, rho)
        assert np.abs(comm - closure).max() < 1e-12


def test_relations_with_nontrivial_metric():
    space = InternalSpace(3, 2.0 * np.eye(3))
    sc = StructureConstants(space, EPS)
    ds = family_general(massive=sc, mass_value=3.0)
    assert check_all_relations(ds, 1e-12).passed


def test_einsum_relations_match_loop_oracle():
    # brute-force the a-jacobi relation for one perturbed set
    base = family_su2(0.0, 0.7)
    a = base.a.copy()
    a[0, 1, 2] += 0.2
    a[0, 2, 1] -= 0.2
    ds = make_deformation(base.space_a, base.space_b, a, base.b, base.j,
                          base.k, base.e, base.mass.m, validate=False)
    res = quadratic_relation_residuals(ds)["a-jacobi"]
    al = ds.a_low()
    worst = np.zeros_like(res)
    n = 3
    for i in np.ndindex(n, n, n, n):
        aa, d, e, c = i
        worst[aa, d, e, c] = (
            sum(al[aa, d, b] * a[b, e, c] for b in range(n))
            - sum(al[aa, b, c] * a[b, d, e] for b in range(n))
            + sum(al[aa, b, e] * a[b, d, c] for b in range(n)))
    assert np.allclose(res, worst, atol=1e-14)


def test_constraint_report_max_residual_keeps_nan():
    # a NaN anywhere fails its relation, so the report's maximum is NaN too
    rows = [ConstraintResult(name, res, res <= 1e-10)
            for name, res in (("x", 1e-3), ("y", np.nan))]
    assert np.isnan(ConstraintReport("all", tuple(rows), 1e-10).max_residual)
    assert np.isnan(ConstraintReport("all", tuple(rows[::-1]),
                                     1e-10).max_residual)
    assert ConstraintReport("all", tuple(rows[:1]), 1e-10).max_residual \
        == 1e-3
    assert ConstraintReport("all", (), 1e-10).max_residual == 0.0
