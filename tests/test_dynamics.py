import functools

import numpy as np
import pytest

from ymft import dynamics, lie_core
from ymft import strengths as strengths_module
from ymft.deformations import (family_e_only, family_general,
                               family_solvable, family_su2, make_deformation)
from ymft.dynamics import (CHECK_FUNCTIONS, GENERAL, LINEAR,
                           GaugeParam, IdentityReport, IdentityResult,
                           TheoryVariant,
                           Variations, boundary_theta, check_commutators,
                           check_cubic_tower, cubic_lagrangian,
                           check_euler_lagrange_consistency,
                           check_gauge_invariance, check_linearization,
                           check_noether_identities,
                           check_strength_identities,
                           check_strength_transformation,
                           field_equations,
                           gauge_commutators, gauge_variation,
                           generic_field_equations, lagrangian_form,
                           run_identity_suite, seed_contexts,
                           tangent_config, variant_e_only, variant_general,
                           variant_linear)
from ymft.forms import (COMP_INDEX, COMPS, LieForm, _perm_sign, base_part,
                        promote_form,
                        random_field_config, random_gauge_params,
                        tangent_parts)
from ymft.jets import (EpsilonTower, JetAlgebra, JetRing, JetScalar,
                       NilpotentExtension)
from ymft.lie_core import InternalSpace
from ymft.strengths import (FieldConfig, b_transpose_pairing, block_metric,
                            compute_strengths, stack_pair)

from jet_reference import ref_mul
from test_forms import tensor_component, volume_coefficient

RING = JetRing(3)
CMAP = np.array([[0.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])


def sym_e(seed=5, m=2, n=3):
    rng = np.random.default_rng(seed)
    e = rng.uniform(-1, 1, (m, n, n))
    return e + e.transpose(0, 2, 1)


VARIANTS = {
    "linear-massless": lambda: variant_linear(np.zeros((3, 3))),
    "linear-massive": lambda: variant_linear(2.0 * np.eye(3)),
    "su2-massless": lambda: variant_general(family_su2(0.0, 0.7)),
    "su2-massive": lambda: variant_general(family_su2(2.0, 0.5)),
    "solvable": lambda: variant_general(
        family_solvable([1, 0, 0], [0, 0, 1], CMAP)),
    "e-only": lambda: variant_e_only(family_e_only(sym_e())),
}


def directional_lagrangians(variant, config, directions) -> list:
    """Exact directional derivatives of the Lagrangian 4-form, one per
    (dir_a, dir_b) pair, from one pass over a tangent ring whose strengths
    are solved afresh (no base strengths handed down)."""
    return tangent_parts(lagrangian_form(variant,
                                         tangent_config(config, directions)))


def lagrangian(variant, config, strengths=None) -> JetScalar:
    """Volume coefficient of the Lagrangian 4-form."""
    return volume_coefficient(lagrangian_form(variant, config, strengths))


def lagrangian_symmetric_form(variant, config, strengths) -> JetScalar:
    """The cross-representation (1/2) M^T Y^{-1} M value (massless sets).

    M stacks (F, H); Y^{-1} M is solved afresh and paired with M through
    the :func:`block_metric` of the pairing <(P,Q),(F,H)> =
    g_ab *P^a^F^b + g'_{a'b'} *Q^{a'}^H^{b'}, with no wedge product.
    """
    ds, ring = variant.ds, config.ring
    m = stack_pair(strengths.F, strengths.H)
    metric = block_metric(ds.space_a.dim, ds.space_b.dim, ds.ga, ds.gb)
    value = 0.5 * ref_mul(ring, strengths.y_inv.apply(m), metric @ m).sum(0)
    return JetScalar(ring.algebra, ring.base_block(value),
                     min(strengths.F.order, strengths.H.order))


def test_variant_validation():
    with pytest.raises(ValueError):
        TheoryVariant("general-parity-even", family_e_only(sym_e()))
    with pytest.raises(ValueError):
        TheoryVariant("e-only", family_su2(0.0, 0.7))
    ds = family_e_only(sym_e())
    mixed = make_deformation(ds.space_a, ds.space_b, ds.a, ds.b, ds.j, ds.k,
                             ds.e, np.ones((3, 2)))
    with pytest.raises(ValueError):
        TheoryVariant("e-only", mixed)  # nonzero mass against e
    # the free theory reads only the mass: a coupling would be ignored
    for ds in (family_su2(2.0, 0.5), family_e_only(sym_e())):
        with pytest.raises(ValueError, match="a = b = j = k = e = 0"):
            TheoryVariant(LINEAR, ds)


def test_identity_report_max_residual_keeps_nan():
    # a NaN anywhere fails its row, so the report's maximum is NaN too
    rows = [IdentityResult(name, res, 1e-8, res <= 1e-8, (1,))
            for name, res in (("x", 1e-3), ("y", np.nan))]
    assert np.isnan(IdentityReport("x", tuple(rows)).max_residual)
    assert np.isnan(IdentityReport("x", tuple(rows[::-1])).max_residual)
    assert IdentityReport("x", tuple(rows[:1])).max_residual == 1e-3
    assert IdentityReport("x", ()).max_residual == 0.0


def test_lagrangian_zero_fields():
    for name, build in VARIANTS.items():
        v = build()
        za, zb = random_field_config(0, 0.0, 3, v.ds.space_a.dim,
                                     v.ds.space_b.dim)
        assert lagrangian(v, FieldConfig(za, zb)).max_abs() == 0.0


def test_linear_lagrangian_component_oracle():
    # abelian, massless, B = 0: L = (1/2) F ^ *F
    v = variant_linear(np.zeros((3, 3)))
    a_form, _ = random_field_config(3, 0.3, 3, 3, 3)
    zb = LieForm.zero(RING, 2, 3)
    val = lagrangian(v, FieldConfig(a_form, zb))
    f_t = {}
    for a in range(3):
        for mu in range(4):
            for nu in range(4):
                f_t[(a, mu, nu)] = tensor_component(a_form.d(), (mu, nu))[a]
    eta_inv = np.diag([-1.0, 1, 1, 1])
    # (1/2) F ^ *F = (1/4) F_{mn} F^{mn} vol
    oracle = np.zeros(RING.width)
    for a in range(3):
        for mu in range(4):
            for nu in range(4):
                oracle += 0.25 * eta_inv[mu, mu] * eta_inv[nu, nu] * ref_mul(
                    RING, f_t[(a, mu, nu)], f_t[(a, mu, nu)])
    # the Lagrangian is computed within its valid order, exact 0.0 above
    valid = RING.mask_up_to(val.order)
    assert np.allclose(val.coeffs[valid], oracle[valid], atol=1e-12)
    assert np.all(val.coeffs[~valid] == 0.0)


def test_more_symmetrical_lagrangian_form():
    ds = family_su2(0.0, 0.7)
    v = variant_general(ds)
    a_form, b_form = random_field_config(4, 0.1, 3, 3, 3)
    cfg = FieldConfig(a_form, b_form)
    pair = compute_strengths(cfg, ds)
    direct = lagrangian(v, cfg, pair)
    cross = lagrangian_symmetric_form(v, cfg, pair)
    assert direct.order == cross.order
    valid = RING.mask_up_to(direct.order)
    assert np.abs(direct.coeffs - cross.coeffs)[valid].max() < 1e-11
    assert np.all(direct.coeffs[~valid] == 0.0)


def test_field_equations_zero_and_linear_forms():
    v = variant_linear(2.0 * np.eye(3))
    za, zb = random_field_config(0, 0.0, 3, 3, 3)
    e_a, e_b = field_equations(v, FieldConfig(za, zb))
    assert e_a.max_abs() == 0.0 and e_b.max_abs() == 0.0
    a_form, b_form = random_field_config(1, 0.2, 3, 3, 3)
    cfg = FieldConfig(a_form, b_form)
    e_a, e_b = field_equations(v, cfg)
    direct_a = a_form.d().hodge().d() + b_form.d().scale(2.0)
    direct_b = b_form.d().hodge().d() + a_form.d().scale(2.0)
    assert (e_a - direct_a).max_abs() < 1e-13
    assert (e_b - direct_b).max_abs() < 1e-13


def test_massive_su2_equations_match_component_transcription():
    # specialization of the general equations to the three-dimensional
    # massive family, written with the explicit bracket terms
    ds = family_su2(2.0, 0.5)
    v = variant_general(ds)
    cfg = FieldConfig(*random_field_config(3, 0.1, 3, 3, 3))
    pair = compute_strengths(cfg, ds)
    e_a, e_b = field_equations(v, cfg, pair)
    eps = lie_core.levi_civita3()
    lam, mass = 0.5, 2.0
    direct_a = (pair.starP.d() + cfg.A.wedge(pair.starP, eps)
                + pair.starQ.wedge(pair.starP, eps).scale(lam)
                - cfg.A.wedge(pair.starP, eps)
                + pair.Q.scale(mass))
    direct_b = (pair.starQ.d()
                + pair.starQ.wedge(pair.starQ, eps).scale(0.5 * lam)
                + pair.P.scale(mass))
    assert (e_a - direct_a).max_abs() < 1e-11
    assert (e_b - direct_b).max_abs() < 1e-11


def test_gauge_variation_oracle():
    ds = family_su2(0.0, 0.7)
    v = variant_general(ds)
    cfg = FieldConfig(*random_field_config(5, 0.1, 3, 3, 3))
    pair = compute_strengths(cfg, ds)
    gp = GaugeParam(*random_gauge_params(55, 0.1, 3, 3, 3))
    var = gauge_variation(v, cfg, pair, gp)
    # delta_xi B = -j(B, xi)-swap - b^T(*P) xi; massless family has j = 0
    bt = b_transpose_pairing(ds)
    oracle = np.zeros_like(var.xi_b.comps)
    for i in range(6):
        for p in range(3):
            acc = np.zeros(RING.width)
            for b in range(3):
                for c in range(3):
                    acc -= bt[p, b, c] * ref_mul(
                        RING, pair.starP.comps[b, i], gp.xi.comps[c, 0])
            oracle[p, i] = acc
    # a product computed within its valid order, exact 0.0 above
    valid = RING.mask_up_to(var.xi_b.order)
    assert np.allclose(var.xi_b.comps[..., valid], oracle[..., valid],
                       atol=1e-13)
    assert np.all(var.xi_b.comps[..., ~valid] == 0.0)
    assert var.chi_a.max_abs() == 0.0


def test_constant_parameter_variations_linear():
    v = variant_linear(np.zeros((3, 3)))
    cfg = FieldConfig(*random_field_config(2, 0.1, 3, 3, 3))
    xi = LieForm.basis(RING, 0, 3, 0, 0)   # constant function
    chi = LieForm.zero(RING, 1, 3)
    var = gauge_variation(v, cfg, None, GaugeParam(xi, chi))
    assert var.xi_a.max_abs() == 0.0  # d(const) = 0


@pytest.mark.parametrize("name", list(VARIANTS))
def test_gauge_invariance_all_variants(name):
    v = VARIANTS[name]()
    report = check_gauge_invariance(seed_contexts(v, [1, 2]), tol=1e-8)
    assert report.passed, report.as_dict()
    if name == "e-only":
        assert report.max_residual < 5e-15  # identically zero, roundoff only


def bad_deformation():
    """su2-shaped couplings that violate the deformation relations."""
    eps = lie_core.levi_civita3()
    return make_deformation(InternalSpace(3), InternalSpace(3), eps,
                            0.3 * eps, eps, 0.3 * eps, np.zeros((3, 3, 3)),
                            2.0 * np.eye(3), h_map=0.3 * np.eye(3))


def test_gauge_invariance_negative_control():
    report = check_gauge_invariance(
        seed_contexts(variant_general(bad_deformation()), [1, 2]))
    assert report.max_residual > 1e-3


def test_commutators_negative_control():
    report = check_commutators(
        [tuple(seed_contexts(variant_general(bad_deformation()), [1, 2]))])
    assert not report.passed
    assert all(r.residual > 1e-5 for r in report.results), report.as_dict()


def test_strength_transformation_negative_control():
    report = check_strength_transformation(
        seed_contexts(variant_general(bad_deformation()), [1]))
    assert not report.passed
    assert all(r.residual > 1e-5 for r in report.results), report.as_dict()


@pytest.mark.parametrize("name", list(VARIANTS))
def test_noether_identities(name):
    v = VARIANTS[name]()
    report = check_noether_identities(seed_contexts(v, [1, 2]), tol=1e-9)
    assert report.passed, report.as_dict()


@pytest.mark.parametrize("name", list(VARIANTS))
def test_strength_identities(name):
    v = VARIANTS[name]()
    report = check_strength_identities(seed_contexts(v, [1, 2]), tol=1e-9)
    assert report.passed, report.as_dict()
    names = {r.name for r in report.results}
    assert "bianchi-F" in names
    if name == "su2-massive":
        assert "substitution-Q-massive" in names


def test_strength_identities_negative_control():
    eps = lie_core.levi_civita3()
    base = family_su2(0.0, 0.7)
    b_bad = base.b.copy()
    b_bad[0, 1, 2] += 0.1
    bad = make_deformation(base.space_a, base.space_b, base.a, b_bad,
                           base.j, base.k, base.e, base.mass.m,
                           h_map=base.h_map, validate=False)
    report = check_strength_identities(
        seed_contexts(variant_general(bad), [1]), tol=1e-9)
    assert not report.passed


@pytest.mark.parametrize("name", list(VARIANTS))
def test_commutators(name):
    v = VARIANTS[name]()
    report = check_commutators([tuple(seed_contexts(v, [1, 2]))], tol=1e-9)
    assert report.passed, report.as_dict()


def test_commutator_closure_structure():
    # massless: j = 0 makes the mixed closure parameter vanish (direct
    # product); massive: chi_3 = j(xi_1, chi_2) is nonzero (semi-direct)
    massless = family_su2(0.0, 0.7)
    massive = family_su2(2.0, 0.5)
    xi, chi = random_gauge_params(1, 0.5, 3, 3, 3)
    assert xi.wedge(chi, massless.j).max_abs() == 0.0
    assert xi.wedge(chi, massive.j).max_abs() > 1e-3


def remainder_of(ctx, xi, chi):
    """Y^{-1}(b(E_B, xi), -b^T(E_A, xi) + k(E_B, chi)) for one gauge
    parameter (xi, chi), both halves in one source, one solve."""
    ds, (e_a, e_b) = ctx.variant.ds, ctx.equations
    src_p = e_b.wedge(xi, ds.b)
    src_q = (e_a.wedge(xi, b_transpose_pairing(ds)).scale(-1.0)
             + e_b.wedge(chi, ds.k))
    order = min(src_p.order, src_q.order)
    vec = ctx.strengths.y_inv.apply(stack_pair(src_p, src_q), order)
    n = ds.space_a.dim * len(COMPS[2])
    return (LieForm(RING, 2, vec[:n].reshape(-1, len(COMPS[2]), RING.width),
                    order),
            LieForm(RING, 3, vec[n:].reshape(-1, len(COMPS[3]), RING.width),
                    order))


@pytest.mark.parametrize("name", ["su2-massive", "su2-massless",
                                  "solvable"])
def test_batched_remainders_match_one_solve_per_parameter(name,
                                                          monkeypatch):
    # the remainders are linear in the gauge parameter: those of two xi
    # and two chi, from one solve with a column each and sources built
    # from each parameter's own half, are those of one solve per
    # parameter with the other half zero, and they take fewer pushes
    ctx, other = seed_contexts(VARIANTS[name](), [1, 2], 3)
    gp1, gp2 = ctx.gauge_param(500), other.gauge_param(900)
    zero_xi, zero_chi = (LieForm.zero(RING, p, 3) for p in (0, 1))
    assert ctx.equations and ctx.strengths
    pushes, original = [0], JetAlgebra.push

    def counted(*args, **kwargs):
        pushes[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(JetAlgebra, "push", counted)
    batched = ctx.remainders((gp1.xi, gp2.xi), (gp1.chi, gp2.chi))
    batched_pushes, pushes[0] = pushes[0], 0
    single = [remainder_of(ctx, xi, zero_chi) for xi in (gp1.xi, gp2.xi)] \
        + [remainder_of(ctx, zero_xi, chi) for chi in (gp1.chi, gp2.chi)]
    assert 0 < batched_pushes < pushes[0]
    for got, want in zip(batched, single):
        for g, w in zip(got, want):
            assert g.order == w.order
            assert (g - w).max_abs() <= 1e-14 * w.max_abs()
            assert w.max_abs() > 0


@pytest.mark.parametrize("name", list(VARIANTS))
def test_linearization(name):
    v = VARIANTS[name]()
    report = check_linearization(seed_contexts(v, [1, 2]), tol=1e-12)
    assert report.passed, report.as_dict()


@pytest.mark.parametrize("name", ["linear-massive", "su2-massless",
                                  "su2-massive", "e-only"])
def test_euler_lagrange_consistency(name):
    v = VARIANTS[name]()
    report = check_euler_lagrange_consistency(seed_contexts(v, [1]),
                                              tol=1e-9)
    assert report.passed, report.as_dict()
    names = [r.name for r in report.results]
    assert "homogeneity-k1" in names and "homogeneity-k2" in names


def test_generic_el_matches_linear_exactly():
    v = variant_linear(2.0 * np.eye(3))
    cfg = FieldConfig(*random_field_config(3, 0.1, 3, 3, 3))
    gen_a, gen_b = generic_field_equations(v, cfg)
    hand_a, hand_b = field_equations(v, cfg)
    assert (gen_a - hand_a).max_abs() < 1e-14
    assert (gen_b - hand_b).max_abs() < 1e-14


def test_cubic_tower_families():
    for name in ("su2-massive", "e-only", "solvable"):
        report = check_cubic_tower(seed_contexts(VARIANTS[name](), [1]),
                                   tol=1e-10)
        assert report.passed, report.as_dict()


@pytest.mark.parametrize("name", ["su2-massive", "su2-massless"])
def test_tower_lift_expands_the_lagrangian(name):
    """Fields lifted as eps (A, B) into an epsilon tower: the eps^k block
    of the full Lagrangian is its homogeneous part of order k in the
    fields, the free Lagrangian at k = 2 and the cubic tower at k = 3."""
    variant = VARIANTS[name]()
    ds = variant.ds
    config = FieldConfig(*random_field_config(3, 0.1, 3, 3, 3))
    tower = EpsilonTower(3, 3)
    lifted = FieldConfig(
        promote_form(LieForm.zero(RING, 1, 3), tower, [config.A]),
        promote_form(LieForm.zero(RING, 2, 3), tower, [config.B]))
    lag = lagrangian_form(variant, lifted)
    eps1, eps2, eps3 = tangent_parts(lag)
    assert np.all(tower.base_block(lag.comps) == 0.0)
    assert np.all(eps1.comps == 0.0)
    free = variant_linear(ds.mass.m, space_a=ds.space_a, space_b=ds.space_b)
    assert (eps2 - lagrangian_form(free, config)).max_abs() <= 1e-15
    assert (eps3 - cubic_lagrangian(ds, config)).max_abs() <= 1e-15


@pytest.mark.parametrize("name, calls", [("linear-massive", 2),
                                         ("su2-massive", 3)])
def test_free_context_evaluates_free_equations_once(name, calls,
                                                    monkeypatch):
    # a variant that is the free theory is its own free context, so its
    # field equations run once, not once more for the free theory; a
    # deformed theory adds the free equations to its own and the
    # linearization's
    seen = []
    original = dynamics.field_equations

    def counted(*args, **kwargs):
        seen.append(args[0].kind)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "field_equations", counted)
    out = run_identity_suite(VARIANTS[name](), [1], degree=3)
    assert all(rep.passed for rep in out["reports"].values())
    assert len(seen) == calls
    ctx, = seed_contexts(VARIANTS[name](), [1])
    assert (ctx.free is ctx) == (ctx.variant.kind == LINEAR)


def test_cubic_tower_differentiates_only_the_lagrangian(monkeypatch):
    """The Euler-Lagrange pass records the cubic Lagrangian alone, once
    per context, and the homogeneity row reads that recorded Lagrangian;
    the quadratic equations it is compared against are built once per
    context, unrecorded."""
    recorded = {"cubic_lagrangian": [], "quadratic_equations": []}
    for name, seen in recorded.items():
        def wrapped(ds, config, _original=getattr(dynamics, name),
                    _seen=seen):
            assert type(config.ring) is JetRing
            _seen.append(config.A.node is not None)
            return _original(ds, config)
        monkeypatch.setattr(dynamics, name, wrapped)
    report = check_cubic_tower(
        seed_contexts(VARIANTS["su2-massive"](), [1, 2]), tol=1e-10)
    assert report.passed, report.as_dict()
    assert recorded["quadratic_equations"] == [False, False]
    assert recorded["cubic_lagrangian"] == [True, True]


@pytest.mark.parametrize("name", ["linear-massless", "su2-massless",
                                  "su2-massive", "solvable", "e-only"])
def test_strength_transformation(name):
    v = VARIANTS[name]()
    report = check_strength_transformation(seed_contexts(v, [1]), tol=1e-9)
    assert report.passed, report.as_dict()


TRANSFORM_ROWS = {
    "linear-massive": ["transform-xi-P", "transform-chi-P"],
    "e-only": ["transform-xi-P", "transform-chi-P"],
    "su2-massive": ["transform-xi-P", "transform-xi-Q",
                    "transform-chi-P", "transform-chi-Q"],
}


@pytest.mark.parametrize("name", list(TRANSFORM_ROWS))
def test_strength_transformation_reports_only_measured_rows(name):
    # the linear and e-only variants have no solved Q, so no Q row
    report = check_strength_transformation(seed_contexts(VARIANTS[name](),
                                                         [1]))
    assert [r.name for r in report.results] == TRANSFORM_ROWS[name]


def test_boundary_theta_linear_forms():
    v = variant_linear(2.0 * np.eye(3))
    cfg = FieldConfig(*random_field_config(2, 0.1, 3, 3, 3))
    gp = GaugeParam(*random_gauge_params(3, 0.1, 3, 3, 3))
    theta_xi, theta_chi = boundary_theta(v, cfg, None, gp)
    assert theta_xi.max_abs() == 0.0
    oracle = cfg.A.d().wedge(gp.chi, 2.0 * np.eye(3)[None])
    assert (theta_chi - oracle).max_abs() == 0.0


def test_directional_lagrangian_matches_finite_difference():
    ds = family_su2(0.0, 0.7)
    v = variant_general(ds)
    cfg = FieldConfig(*random_field_config(3, 0.1, 3, 3, 3))
    da, db = random_field_config(17, 0.05, 3, 3, 3)
    exact, = directional_lagrangians(v, cfg, [(da, db)])
    eps = 1e-6
    plus = lagrangian_form(v, FieldConfig(cfg.A + da.scale(eps),
                                          cfg.B + db.scale(eps)))
    minus = lagrangian_form(v, FieldConfig(cfg.A + da.scale(-eps),
                                           cfg.B + db.scale(-eps)))
    fd = (plus - minus).scale(1.0 / (2.0 * eps))
    assert (exact - fd).max_abs() < 1e-9


def test_run_identity_suite_aggregates():
    v = variant_linear(np.zeros((3, 3)))
    out = run_identity_suite(v, [1], checks=["gauge-invariance",
                                             "linearization"])
    assert set(out["reports"]) == {"gauge-invariance", "linearization"}
    assert all(rep.passed for rep in out["reports"].values())
    assert set(out["timings"]) == set(out["reports"])


def test_nan_residual_fails_its_row():
    # a NaN coupling gives NaN residuals; taking the worst over seeds must
    # keep them, not read them as 0.0
    v = variant_linear(np.diag([np.nan, 2.0, 2.0]))
    report = check_noether_identities(seed_contexts(v, [1, 2]))
    assert not report.passed
    assert all(np.isnan(r.residual) for r in report.results)


def test_run_identity_suite_rejects_empty_seeds():
    with pytest.raises(ValueError, match="at least one seed"):
        run_identity_suite(variant_linear(np.zeros((3, 3))), [])


def test_suite_solves_base_strengths_once_per_seed(monkeypatch):
    # every check reads the same per-seed context, so the base-ring
    # strengths of each seed are solved once per suite, not once per check
    solve = dynamics.compute_strengths
    base_solves = []

    def counted(config, *args, **kwargs):
        # the Euler-Lagrange pass records the seed's solve on its marked
        # fields and solves nothing
        if not isinstance(config.ring, NilpotentExtension):
            base_solves.append(config)
        return solve(config, *args, **kwargs)

    monkeypatch.setattr(dynamics, "compute_strengths", counted)
    out = run_identity_suite(variant_general(family_su2(2.0, 0.5)), [1, 2])
    assert all(rep.passed for rep in out["reports"].values())
    assert len(base_solves) == 2


def test_suite_assembles_and_inverts_y_on_the_base_ring_only(monkeypatch):
    # per seed, Y is built and inverted twice, both times on the base ring:
    # for the seed's fields and for the zero fields under the
    # linearization's tangent ring; every other tangent ring solves from
    # the seed's solver
    built, inverted = [], []
    assemble, invert = strengths_module.assemble_Y, strengths_module.invert_Y

    def assemble_recorded(config, ds):
        built.append((type(config.ring), bool(config.A.comps.any())))
        return assemble(config, ds)

    def invert_recorded(yop):
        inverted.append(type(yop.ring))
        return invert(yop)

    monkeypatch.setattr(strengths_module, "assemble_Y", assemble_recorded)
    monkeypatch.setattr(strengths_module, "invert_Y", invert_recorded)
    out = run_identity_suite(variant_general(family_su2(2.0, 0.5)), [1, 2])
    assert all(rep.passed for rep in out["reports"].values())
    assert [ring for ring, _ in built] == inverted == [JetRing] * 4
    assert sorted(nonzero for _, nonzero in built) == [False, False, True,
                                                        True]


@pytest.mark.parametrize("name", ["su2-massive", "su2-massless", "solvable"])
def test_tangent_strengths_start_from_the_seed(name):
    # a tangent context's strengths have the seed's P and Q as their base
    # block, bit for bit within their valid order (the directions, d xi
    # among them, may lower it) and exact zeros above, and the seed's
    # solver; their tangent blocks are those of a solve that starts from
    # the base blocks of the fields
    v = VARIANTS[name]()
    ctx, = seed_contexts(v, [3], 4)
    var = ctx.variations(ctx.gauge_param(77))
    tan = ctx.tangent([var.xi, var.chi])
    seed, handed = ctx.strengths, tan.strengths
    fresh = compute_strengths(tan.config, v.ds)
    assert handed.y_inv.yop is seed.y_inv.yop
    for form, base, ref in ((handed.P, seed.P, fresh.P),
                            (handed.Q, seed.Q, fresh.Q)):
        valid = base.ring.mask_up_to(form.order)
        block = base_part(form).comps
        assert np.array_equal(block[..., valid], base.comps[..., valid])
        assert not block[..., ~valid].any()
        for part, ref_part in zip(tangent_parts(form), tangent_parts(ref)):
            assert ref_part.max_abs() > 0
            assert np.abs(part.comps - ref_part.comps).max() \
                <= 1e-14 * np.abs(ref_part.comps).max()


def test_rich_general_family_suite():
    scaled = lie_core.StructureConstants(InternalSpace(3),
                                         0.8 * lie_core.levi_civita3())
    ds = family_general(massless_a=lie_core.su2(), massless_b=scaled,
                        h0=0.8 * np.eye(3), massive=lie_core.su2(),
                        mass_value=2.0)
    contexts = seed_contexts(variant_general(ds), [1])
    assert check_gauge_invariance(contexts, tol=1e-8).passed
    assert check_noether_identities(contexts, tol=1e-9).passed
    assert check_strength_transformation(contexts, tol=1e-9).passed


# ---------------------------------------------------------------------------
# vector mode against the one-direction reference: one pass over a
# one-direction ring per directional derivative


def dual_config(config, dir_a, dir_b):
    ring = NilpotentExtension(config.ring.degree, 1)
    return FieldConfig(promote_form(config.A, ring, [dir_a]),
                       promote_form(config.B, ring, [dir_b])), ring


def directional_variations(variant, config, dir_a, dir_b, gp):
    """Derivative of the gauge-variation map along (dir_a, dir_b)."""
    dual_cfg, ring = dual_config(config, dir_a, dir_b)
    gp_dual = GaugeParam(promote_form(gp.xi, ring), promote_form(gp.chi, ring))
    strengths = None
    if variant.kind == GENERAL:
        strengths = compute_strengths(dual_cfg, variant.ds)
    var = gauge_variation(variant, dual_cfg, strengths, gp_dual)
    return Variations(*(tangent_parts(f)[0] for f in
                        (var.xi_a, var.xi_b, var.chi_a, var.chi_b)))


def one_direction_lagrangian(variant, config, dir_a, dir_b):
    dual_cfg, _ = dual_config(config, dir_a, dir_b)
    [part] = tangent_parts(lagrangian_form(variant, dual_cfg))
    return part


def reference_commutators(variant, config, gp1, gp2):
    """[delta_1, delta_2](A, B) per pair of parameter parts, two
    one-direction passes per pair."""
    ds = variant.ds
    strengths = None
    if variant.kind == GENERAL:
        strengths = compute_strengths(config, ds)
    zero_xi = LieForm.zero(config.ring, 0, ds.space_a.dim)
    zero_chi = LieForm.zero(config.ring, 1, ds.space_b.dim)
    combos = {
        "commutator-xi-xi": (GaugeParam(gp1.xi, zero_chi),
                             GaugeParam(gp2.xi, zero_chi)),
        "commutator-chi-chi": (GaugeParam(zero_xi, gp1.chi),
                               GaugeParam(zero_xi, gp2.chi)),
        "commutator-xi-chi": (GaugeParam(gp1.xi, zero_chi),
                              GaugeParam(zero_xi, gp2.chi)),
    }
    out = {}
    for name, (p1, p2) in combos.items():
        var1 = gauge_variation(variant, config, strengths, p1)
        var2 = gauge_variation(variant, config, strengths, p2)
        d21 = directional_variations(variant, config, var1.xi_a + var1.chi_a,
                                     var1.xi_b + var1.chi_b, p2)
        d12 = directional_variations(variant, config, var2.xi_a + var2.chi_a,
                                     var2.xi_b + var2.chi_b, p1)
        out[name] = ((d21.xi_a + d21.chi_a) - (d12.xi_a + d12.chi_a),
                     (d21.xi_b + d21.chi_b) - (d12.xi_b + d12.chi_b))
    return out


def assert_matches_reference(form, ref):
    """form equals ref within the valid order of both; the coefficients
    above it are whatever each side's truncated products left, and are not
    compared."""
    assert form.p == ref.p and form.ring.width == ref.ring.width
    valid = form.ring.mask_up_to(min(form.order, ref.order))
    assert np.abs(form.comps - ref.comps)[..., valid].max() <= 1e-14
    if not ref.comps.any():
        assert not form.comps.any()   # exact zeros stay exact


REFERENCE_VARIANTS = ["su2-massive", "su2-massless", "solvable", "e-only",
                      "linear-massless", "linear-massive"]


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("name", REFERENCE_VARIANTS)
def test_vector_mode_commutators_match_one_direction(name, degree):
    v = VARIANTS[name]()
    ctx, other = seed_contexts(v, [1, 2], degree)
    gp1, gp2 = ctx.gauge_param(500), other.gauge_param(900)
    vector = gauge_commutators(ctx, gp1, gp2)
    ref = reference_commutators(v, ctx.config, gp1, gp2)
    assert list(vector) == list(ref)
    for combo in ref:
        for form, ref_form in zip(vector[combo], ref[combo]):
            assert_matches_reference(form, ref_form)
            # both sides truncate the same products: above the valid order
            # too
            assert np.abs(form.comps - ref_form.comps).max() <= 1e-14


@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("name", REFERENCE_VARIANTS)
def test_vector_mode_lagrangian_blocks_match_one_direction(name, degree):
    v = VARIANTS[name]()
    ctx, = seed_contexts(v, [2], degree)
    gp = ctx.gauge_param(10_000)
    var = ctx.variations(gp)
    blocks = directional_lagrangians(v, ctx.config, [var.xi, var.chi])
    assert len(blocks) == 2
    for block, (dir_a, dir_b) in zip(blocks, (var.xi, var.chi)):
        assert_matches_reference(
            block, one_direction_lagrangian(v, ctx.config, dir_a, dir_b))


def test_check_registry_is_flat():
    assert all(callable(fn) for fn in CHECK_FUNCTIONS.values())
    assert len(CHECK_FUNCTIONS) == 7


def test_suite_feeds_each_check_its_seed_form_and_tolerance():
    v = variant_linear(np.zeros((3, 3)))
    tols = {"linear": 1e-13, "composite": 1e-9}
    out = run_identity_suite(v, [1, 2], checks=["commutators",
                                                "linearization"], tols=tols)
    comm, lin = out["reports"]["commutators"], out["reports"]["linearization"]
    # commutators take the cyclic pairs (1, 2), (2, 1)
    assert all(r.seeds == (1, 2, 2, 1) for r in comm.results)
    assert all(r.tolerance == 1e-9 for r in comm.results)
    assert all(r.seeds == (1, 2) for r in lin.results)
    assert all(r.tolerance == 1e-13 for r in lin.results)


def mixed_rotation_family():
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                    [np.sin(angle), np.cos(angle), 0.0],
                    [0.0, 0.0, 1.0]])
    return family_general(massless_a=lie_core.su2(),
                          massless_b=lie_core.su2(), h0=rot,
                          massive=lie_core.abelian(1), mass_value=1.5)


@pytest.mark.parametrize("family", [lambda: family_su2(2.0, 0.5),
                                    mixed_rotation_family],
                         ids=["su2-massive", "mixed-general"])
def test_full_suite_at_degree_4(family):
    out = run_identity_suite(variant_general(family()), [1], degree=4)
    reports = out["reports"]
    assert list(reports) == list(CHECK_FUNCTIONS)
    for report in reports.values():
        assert report.passed, report.as_dict()


@pytest.mark.parametrize("name", ["su2-massive", "e-only"])
def test_full_suite_at_degree_6(name):
    out = run_identity_suite(VARIANTS[name](), [1], degree=6)
    reports = out["reports"]
    assert list(reports) == list(CHECK_FUNCTIONS)
    for report in reports.values():
        assert report.passed, report.as_dict()


@pytest.mark.parametrize("name", ["e-only", "linear-massive"])
def test_product_work_does_not_depend_on_the_seed(monkeypatch, name):
    # the chi-tangent of H = dB is d(d chi): zero in exact arithmetic, it
    # holds roundoff for some seeds and an exact 0.0 for others, and the
    # blocks a product multiplies must not follow it
    work = []
    original = JetAlgebra.push

    def counted(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        work[-1] += out.size
        return out

    # the one product kernel, which scalar jet products run too
    monkeypatch.setattr(JetAlgebra, "push", counted)
    variant = VARIANTS[name]()
    for seed in range(1, 13):
        work.append(0)
        check_gauge_invariance(seed_contexts(variant, [seed], degree=3))
    assert len(set(work)) == 1, work


# ---------------------------------------------------------------------------
# the reverse Euler-Lagrange pass against the forward-mode reference: one
# pass over a nilpotent extension with a unit tangent per slot component


def el_directions(dim_a: int, dim_b: int):
    """(slot, internal index, component) of every forward direction."""
    return [(slot, a, i)
            for slot, dim, p in (("A", dim_a, 1), ("B", dim_b, 2),
                                 ("dA", dim_a, 2), ("dB", dim_b, 3))
            for a in range(dim) for i in range(len(COMPS[p]))]


def forward_el_of(builder, config):
    """Generic EL equations by forward mode: each of A, B, dA and dB is
    lifted with its own unit tangent directions, the lifted slots are
    assigned to one lifted config, and the builder runs once over the
    extended ring."""
    n, m = config.A.n, config.B.n
    dirs = el_directions(n, m)
    ring = NilpotentExtension(config.ring.degree, len(dirs))
    base = JetRing(config.ring.degree)
    values = {"A": config.A, "B": config.B, "dA": config.dA, "dB": config.dB}
    # each direction is the unit constant tangent of one slot component
    tangents = {slot: [None] * len(dirs) for slot in values}
    slot_map = {slot: [] for slot in values}
    for idx, (slot, a, i) in enumerate(dirs):
        form = values[slot]
        tangents[slot][idx] = LieForm.basis(base, form.p, form.n, a, i)
        slot_map[slot].append((idx, (a, i)))
    lifted = {slot: promote_form(form, ring, tangents[slot])
              for slot, form in values.items()}
    lifted_config = FieldConfig(lifted["A"], lifted["B"])
    lifted_config.dA, lifted_config.dB = lifted["dA"], lifted["dB"]
    lag = builder(lifted_config)
    lt = [part.comps[0, 0] for part in tangent_parts(lag)]

    def conjugate(slot: str, p_slot: int, dim: int) -> LieForm:
        out = base.zeros((dim, len(COMPS[4 - p_slot])))
        for idx, (a, i) in slot_map[slot]:
            comp = COMPS[p_slot][i]
            rest = tuple(x for x in range(4) if x not in comp)
            sign = _perm_sign(comp + rest)
            out[a, COMP_INDEX[4 - p_slot][rest]] = lt[idx] / sign
        return LieForm(base, 4 - p_slot, out, lag.order)

    return (conjugate("A", 1, n) + conjugate("dA", 2, n).d(),
            conjugate("B", 2, m) - conjugate("dB", 3, m).d())


EL_VARIANTS = {name: VARIANTS[name] for name in (
    "linear-massive", "su2-massless", "su2-massive", "solvable", "e-only")}
EL_VARIANTS["mixed-general"] = lambda: variant_general(
    mixed_rotation_family())
EL_BUILDERS = {
    "lagrangian_form": lambda v: functools.partial(lagrangian_form, v),
    "cubic_lagrangian": lambda v: functools.partial(cubic_lagrangian, v.ds),
}


@pytest.mark.parametrize("builder", list(EL_BUILDERS))
@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("name", list(EL_VARIANTS))
def test_reverse_el_matches_forward_reference(name, degree, builder):
    v = EL_VARIANTS[name]()
    ctx, = seed_contexts(v, [1], degree)
    build = EL_BUILDERS[builder](v)
    reverse = dynamics._generic_el_of(build, ctx.config)
    forward = forward_el_of(build, ctx.config)
    for form, ref in zip(reverse, forward):
        assert form.p == ref.p and form.order == ref.order
        assert_matches_reference(form, ref)


def test_reverse_el_records_the_seed_solve_without_solving(monkeypatch):
    v = VARIANTS["su2-massive"]()
    ctx, = seed_contexts(v, [1], 4)
    fresh = generic_field_equations(v, ctx.config)
    strengths = ctx.strengths

    def no_solve(*args, **kwargs):
        raise AssertionError("the recorded pass solved Y again")

    monkeypatch.setattr(strengths_module, "invert_Y", no_solve)
    reused = generic_field_equations(v, ctx.config, strengths)
    for form, ref in zip(reused, fresh):
        assert np.array_equal(form.comps, ref.comps)
        assert form.order == ref.order
    # the shared strengths stay unrecorded for the other checks
    assert strengths.P.node is None and strengths.Q.node is None


def test_reverse_el_leaves_unmarked_fields_unrecorded():
    v = VARIANTS["su2-massive"]()
    ctx, = seed_contexts(v, [1])
    generic_field_equations(v, ctx.config)
    forms = [ctx.config.A, ctx.config.B, ctx.config.dA, ctx.config.dB]
    assert all(form.node is None for form in forms)
    assert lagrangian_form(v, ctx.config).node is None
