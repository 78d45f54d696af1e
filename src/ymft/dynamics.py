"""Lagrangians, field equations, gauge variations, and the identity suite.

Three theory variants are supported:

* ``linear-abelian``   -- the free theory of 1-form and 2-form potentials
  with a metric-independent mass coupling m F ^ B;
* ``general-parity-even`` -- the all-orders nonlinear theory built from a
  parity-even deformation set (a, b, j, k, mass), with strengths solved
  through the Y operator;
* ``e-only``           -- the opposite-parity theory generated by the
  symmetric e-coupling alone (massless).

Every identity is checked off-shell as an exact statement on jet
coefficients: gauge variations, commutators and linearizations are taken by
running the whole pipeline over a nilpotent ring extension, so no finite
differencing enters anywhere.  Statements that hold "on solutions" are
verified in their off-shell form with the explicit field-equation remainder
terms; remainders without a closed display were derived once against
random-jet data and are frozen below (see CONVENTIONS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .deformations import (DeformationSet, check_e_mass_obstruction,
                           make_deformation)
from .forms import (COMPS, CONVENTION, LieForm, MinkowskiConvention,
                    direction_part, promote_form, random_field_config,
                    random_gauge_params, scalar_pairing,
                    volume_coefficient)
from .jets import JetRing, JetScalar, NilpotentExtension
from .lie_core import InternalSpace
from .strengths import (FieldConfig, StrengthPair, apply_linear,
                        b_transpose_pairing, compute_strengths, stack_pair,
                        substitution_residual_massless,
                        substitution_residual_massive, unstack_pair)

LINEAR = "linear-abelian"
GENERAL = "general-parity-even"
EONLY = "e-only"

DEFAULT_TOLS = {"linear": 1e-12, "polynomial": 1e-10, "composite": 1e-8}


@dataclass(frozen=True)
class TheoryVariant:
    kind: str
    ds: DeformationSet

    def __post_init__(self):
        if self.kind not in (LINEAR, GENERAL, EONLY):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == GENERAL and np.abs(self.ds.e).max() > 0:
            raise ValueError("the parity-even variant requires e = 0")
        if self.kind == EONLY:
            zero = max(np.abs(self.ds.a).max(), np.abs(self.ds.b).max(),
                       np.abs(self.ds.j).max(), np.abs(self.ds.k).max())
            if zero > 0 or not check_e_mass_obstruction(self.ds):
                raise ValueError("the e-only variant requires "
                                 "a = b = j = k = 0 and zero mass")

    @property
    def curl(self) -> str:
        return "covariant" if (self.kind == GENERAL
                               and not self.ds.mass.is_zero()) else "plain"


def variant_linear(mass_matrix, dim_a: int = 3, dim_b: int = 3,
                   space_a: InternalSpace | None = None,
                   space_b: InternalSpace | None = None) -> TheoryVariant:
    space_a = space_a or InternalSpace(dim_a)
    space_b = space_b or InternalSpace(dim_b)
    n, m = space_a.dim, space_b.dim
    z = np.zeros
    ds = make_deformation(space_a, space_b, z((n, n, n)), z((n, m, n)),
                          z((m, n, m)), z((m, m, m)), z((m, n, n)),
                          np.asarray(mass_matrix, dtype=float),
                          label="linear")
    return TheoryVariant(LINEAR, ds)


def variant_general(ds: DeformationSet) -> TheoryVariant:
    return TheoryVariant(GENERAL, ds)


def variant_e_only(ds: DeformationSet) -> TheoryVariant:
    return TheoryVariant(EONLY, ds)


# ---------------------------------------------------------------------------
# identity reports


@dataclass(frozen=True)
class IdentityResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    seeds: tuple


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.results), default=0.0)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed,
                "identities": [{"name": r.name, "residual": r.residual,
                                "tolerance": r.tolerance, "passed": r.passed,
                                "seeds": list(r.seeds)} for r in self.results]}


def _collect(kind: str, rows: dict, tol: float, seeds) -> IdentityReport:
    results = tuple(IdentityResult(name, res, tol, res <= tol, tuple(seeds))
                    for name, res in rows.items())
    return IdentityReport(kind, results)


# ---------------------------------------------------------------------------
# Lagrangians and field equations


def _pair4(x: LieForm, y: LieForm, metric: np.ndarray) -> LieForm:
    return x.wedge(y, scalar_pairing(metric))


def e_source_form(ds: DeformationSet, f_form: LieForm,
                  a_form: LieForm) -> LieForm:
    """S^{a'} = e^{a'}_{bc} F^b ^ A^c, the 3-form sourcing the e-theory."""
    return f_form.wedge(a_form, ds.e)


def lagrangian_form(variant: TheoryVariant, config: FieldConfig,
                    strengths: StrengthPair | None = None,
                    conv: MinkowskiConvention = CONVENTION,
                    d_a: LieForm | None = None,
                    d_b: LieForm | None = None) -> LieForm:
    """The Lagrangian as a real-valued 4-form.

    ``d_a`` / ``d_b`` override the derivative slots (used by the generic
    Euler-Lagrange machinery, which differentiates with respect to the
    pointwise values of A, B, dA, dB); by default they are the actual
    exterior derivatives.
    """
    ds = variant.ds
    a_form, b_form = config.A, config.B
    d_a = a_form.d() if d_a is None else d_a
    d_b = b_form.d() if d_b is None else d_b
    mass = ds.mass.m

    if variant.kind == LINEAR:
        f_form, h_form = d_a, d_b
        lag = (_pair4(f_form, f_form.hodge(conv), ds.ga).scale(0.5)
               - _pair4(h_form, h_form.hodge(conv), ds.gb).scale(0.5)
               + f_form.wedge(b_form, mass[None]))
        return lag

    if variant.kind == EONLY:
        f_form, h_form = d_a, d_b
        s_form = e_source_form(ds, f_form, a_form)
        return (_pair4(f_form, f_form.hodge(conv), ds.ga).scale(0.5)
                - _pair4(h_form, h_form.hodge(conv), ds.gb).scale(0.5)
                + _pair4(s_form, h_form.hodge(conv), ds.gb)
                - _pair4(s_form, s_form.hodge(conv), ds.gb).scale(0.5))

    strengths = strengths or compute_strengths(
        config, ds, conv, curl=variant.curl, d_a=d_a, d_b=d_b)
    return (_pair4(strengths.starP, strengths.F, ds.ga).scale(0.5)
            + _pair4(strengths.starQ, strengths.H, ds.gb).scale(0.5)
            + strengths.F.wedge(b_form, mass[None]))


def lagrangian(variant: TheoryVariant, config: FieldConfig,
               strengths: StrengthPair | None = None,
               conv: MinkowskiConvention = CONVENTION) -> JetScalar:
    """Volume coefficient of the Lagrangian 4-form."""
    return volume_coefficient(lagrangian_form(variant, config, strengths,
                                              conv))


def lagrangian_symmetric_form(variant: TheoryVariant, config: FieldConfig,
                              strengths: StrengthPair,
                              conv: MinkowskiConvention = CONVENTION
                              ) -> JetScalar:
    """The cross-representation (1/2) M^T Y^{-1} M value (massless sets).

    Evaluates the same Lagrangian through the solved stack and the block
    pairing <(P,Q),(F,H)> = g_ab *P^a^F^b + g'_{a'b'} *Q^{a'}^H^{b'}.
    """
    half = (_pair4(strengths.starP, strengths.F, variant.ds.ga).scale(0.5)
            + _pair4(strengths.starQ, strengths.H, variant.ds.gb).scale(0.5))
    return volume_coefficient(half)


def field_equations(variant: TheoryVariant, config: FieldConfig,
                    strengths: StrengthPair | None = None,
                    conv: MinkowskiConvention = CONVENTION,
                    d_a: LieForm | None = None, d_b: LieForm | None = None):
    """Hand-coded field equations: an A-valued 3-form and an A'-valued 2-form."""
    ds = variant.ds
    a_form, b_form = config.A, config.B
    d_a = a_form.d() if d_a is None else d_a
    d_b = b_form.d() if d_b is None else d_b

    if variant.kind == LINEAR:
        f_form, h_form = d_a, d_b
        e_a = f_form.hodge(conv).d() + apply_linear(ds.mass.map_b, h_form)
        e_b = h_form.hodge(conv).d() + apply_linear(ds.mass.map_a, f_form)
        return e_a, e_b

    if variant.kind == EONLY:
        f_form, h_form = d_a, d_b
        s_form = e_source_form(ds, f_form, a_form)
        star_h = h_form.hodge(conv)
        star_s = s_form.hodge(conv)
        # pairing [out a, left b (unprimed), right c' (primed)]
        pr = np.einsum("pbd,da->abp", ds.e_low(), ds.space_a.inverse_metric)
        e_a = (f_form.hodge(conv).d()
               + f_form.wedge(star_h, pr).scale(2.0)
               - a_form.wedge(star_h.d(), pr)
               - f_form.wedge(star_s, pr).scale(2.0)
               + a_form.wedge(star_s.d(), pr))
        e_b = (star_h - star_s).d()
        return e_a, e_b

    strengths = strengths or compute_strengths(
        config, ds, conv, curl=variant.curl, d_a=d_a, d_b=d_b)
    p_form, q_form = strengths.P, strengths.Q
    star_p, star_q = strengths.starP, strengths.starQ
    ma, mb = ds.mass.map_a, ds.mass.map_b
    b_t = b_transpose_pairing(ds)
    ga_inv = ds.space_a.inverse_metric

    # E_A = d*P + a(A,*P) + (b m)(A,*P) - b^{T-raised}(*Q,*P) + m(Q)
    w_bm = np.einsum("apb,pc->abc", ds.b, ma)
    v_bt = np.einsum("cpd,da->apc", ds.b_low(), ga_inv)
    e_a = (star_p.d()
           + a_form.wedge(star_p, ds.a)
           + a_form.wedge(star_p, w_bm)
           - star_q.wedge(star_p, v_bt)
           + apply_linear(mb, q_form))

    # E_B = d*Q + j(A,*Q) + (1/2) k^{bracket}(*Q,*Q) - (b^T m)(A,*Q) + m(P)
    kl = ds.k_low()
    k2 = np.einsum("xyz,za->axy", kl, ds.space_b.inverse_metric)
    w2 = np.einsum("pcb,cq->pbq", b_t, mb)
    e_b = (star_q.d()
           + a_form.wedge(star_q, ds.j)
           + star_q.wedge(star_q, k2).scale(0.5)
           - a_form.wedge(star_q, w2)
           + apply_linear(ma, p_form))
    return e_a, e_b


# ---------------------------------------------------------------------------
# gauge variations and boundary terms


@dataclass
class GaugeParam:
    xi: LieForm   # degree-0, first space
    chi: LieForm  # degree-1, second space


@dataclass
class Variations:
    xi_a: LieForm
    xi_b: LieForm
    chi_a: LieForm
    chi_b: LieForm

    def pick(self, which: str):
        if which == "xi":
            return self.xi_a, self.xi_b
        return self.chi_a, self.chi_b


def gauge_variation(variant: TheoryVariant, config: FieldConfig,
                    strengths: StrengthPair | None,
                    gp: GaugeParam) -> Variations:
    ds = variant.ds
    xi, chi = gp.xi, gp.chi
    zero_a = LieForm.zero(config.ring, 1, ds.space_a.dim)
    if variant.kind == LINEAR:
        return Variations(xi.d(), LieForm.zero(config.ring, 2, ds.space_b.dim),
                          zero_a, chi.d())
    if variant.kind == EONLY:
        f_form = config.A.d()
        return Variations(xi.d(), f_form.wedge(xi, ds.e), zero_a, chi.d())

    if strengths is None:
        strengths = compute_strengths(config, ds, curl=variant.curl)
    star_p, star_q = strengths.starP, strengths.starQ
    b_t = b_transpose_pairing(ds)
    xi_a = (xi.d() + config.A.wedge(xi, ds.a) + star_q.wedge(xi, ds.b))
    xi_b = (config.B.wedge(xi, ds.j.transpose(0, 2, 1)).scale(-1.0)
            - star_p.wedge(xi, b_t))
    chi_b = (chi.d() + config.A.wedge(chi, ds.j)
             + star_q.wedge(chi, ds.k))
    return Variations(xi_a, xi_b, zero_a, chi_b)


def boundary_theta(variant: TheoryVariant, config: FieldConfig,
                   strengths: StrengthPair | None, gp: GaugeParam,
                   conv: MinkowskiConvention = CONVENTION):
    """The 3-forms Theta with delta L = d Theta for each symmetry type."""
    ds = variant.ds
    n, m = ds.space_a.dim, ds.space_b.dim
    ring = config.ring
    zero3 = LieForm.zero(ring, 3, 1)
    if variant.kind == EONLY:
        return zero3, zero3
    if variant.kind == LINEAR:
        f_form = config.A.d()
        theta_chi = f_form.wedge(gp.chi, ds.mass.m[None])
        return zero3, theta_chi

    # Boundary data pinned against the exact invariance of the built-in
    # families (see CONVENTIONS.md): the 2-form factor is the dual *P and
    # the quadratic *Q term carries -1/2 in this index convention.
    star_q = strengths.starQ
    bl = ds.b_low()
    pr1 = np.einsum("bpc->cbp", bl)                       # [c, b, a']
    pr2 = np.einsum("bq,bpc->cqp", ds.mass.m, ds.b)       # [c, b', a']
    t_p = strengths.starP.wedge(star_q, pr1)
    t_b = config.B.wedge(star_q, pr2)
    theta_xi = (t_p + t_b).wedge(gp.xi, np.eye(n)[None])
    pr3 = np.einsum("xyz->zxy", ds.k_low())               # [c', a', b']
    v_qq = star_q.wedge(star_q, pr3).scale(-0.5)
    theta_chi = (v_qq.wedge(gp.chi, np.eye(m)[None])
                 + strengths.F.wedge(gp.chi, ds.mass.m[None]))
    return theta_xi, theta_chi


# ---------------------------------------------------------------------------
# directional (nilpotent) evaluation helpers


def _dual_config(config: FieldConfig, dir_a: LieForm, dir_b: LieForm):
    ring = NilpotentExtension(config.ring.degree, 1)
    a_d = promote_form(config.A, ring, dir_a)
    b_d = promote_form(config.B, ring, dir_b)
    return FieldConfig(a_d, b_d), ring


def directional_lagrangian(variant: TheoryVariant, config: FieldConfig,
                           dir_a: LieForm, dir_b: LieForm,
                           conv: MinkowskiConvention = CONVENTION) -> LieForm:
    """Exact directional derivative of the Lagrangian 4-form along (dir_a, dir_b)."""
    dual_cfg, ring = _dual_config(config, dir_a, dir_b)
    lag = lagrangian_form(variant, dual_cfg, None, conv)
    return direction_part(lag, JetRing(config.ring.degree))


def directional_variations(variant: TheoryVariant, config: FieldConfig,
                           dir_a: LieForm, dir_b: LieForm, gp: GaugeParam,
                           conv: MinkowskiConvention = CONVENTION):
    """Directional derivative of the gauge-variation map itself."""
    dual_cfg, ring = _dual_config(config, dir_a, dir_b)
    base = JetRing(config.ring.degree)
    gp_dual = GaugeParam(promote_form(gp.xi, ring), promote_form(gp.chi, ring))
    strengths = None
    if variant.kind == GENERAL:
        strengths = compute_strengths(dual_cfg, variant.ds, conv,
                                      curl=variant.curl)
    var = gauge_variation(variant, dual_cfg, strengths, gp_dual)
    return Variations(direction_part(var.xi_a, base),
                      direction_part(var.xi_b, base),
                      direction_part(var.chi_a, base),
                      direction_part(var.chi_b, base))


# ---------------------------------------------------------------------------
# suite pieces


def _prepare(variant: TheoryVariant, seed: int, degree: int, amplitude: float,
             conv: MinkowskiConvention):
    ds = variant.ds
    a_form, b_form = random_field_config(seed, amplitude, degree,
                                         ds.space_a.dim, ds.space_b.dim)
    config = FieldConfig(a_form, b_form)
    strengths = None
    if variant.kind == GENERAL:
        strengths = compute_strengths(config, ds, conv, curl=variant.curl)
    return config, strengths


def check_gauge_invariance(variant: TheoryVariant, seeds,
                           degree: int = 3, amplitude: float = 0.1,
                           tol: float | None = None,
                           conv: MinkowskiConvention = CONVENTION
                           ) -> IdentityReport:
    """delta L - d Theta = 0 for both symmetry types, per seed."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    worst = {"gauge-invariance-xi": 0.0, "gauge-invariance-chi": 0.0}
    for seed in seeds:
        config, strengths = _prepare(variant, seed, degree, amplitude, conv)
        gp = GaugeParam(*random_gauge_params(seed + 10_000, amplitude,
                                             degree, variant.ds.space_a.dim,
                                             variant.ds.space_b.dim))
        var = gauge_variation(variant, config, strengths, gp)
        theta_xi, theta_chi = boundary_theta(variant, config, strengths, gp,
                                             conv)
        d_l = directional_lagrangian(variant, config, var.xi_a, var.xi_b,
                                     conv)
        worst["gauge-invariance-xi"] = max(worst["gauge-invariance-xi"],
                                           (d_l - theta_xi.d()).max_abs())
        d_l = directional_lagrangian(variant, config, var.chi_a, var.chi_b,
                                     conv)
        worst["gauge-invariance-chi"] = max(worst["gauge-invariance-chi"],
                                            (d_l - theta_chi.d()).max_abs())
    return _collect("gauge-invariance", worst, tol, seeds)


def _lowered(form: LieForm, metric: np.ndarray) -> LieForm:
    return apply_linear(np.asarray(metric, dtype=float), form)


def check_noether_identities(variant: TheoryVariant, seeds,
                             degree: int = 3, amplitude: float = 0.1,
                             tol: float | None = None,
                             conv: MinkowskiConvention = CONVENTION
                             ) -> IdentityReport:
    """Covariant-divergence identities of the field equations, off-shell."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    ds = variant.ds
    worst = {"noether-divergence-A": 0.0, "noether-divergence-B": 0.0}
    for seed in seeds:
        config, strengths = _prepare(variant, seed, degree, amplitude, conv)
        e_a, e_b = field_equations(variant, config, strengths, conv)
        res_a, res_b = _noether_residuals(variant, config, strengths,
                                          e_a, e_b, conv)
        worst["noether-divergence-A"] = max(worst["noether-divergence-A"],
                                            res_a)
        worst["noether-divergence-B"] = max(worst["noether-divergence-B"],
                                            res_b)
    return _collect("noether", worst, tol, seeds)


def _noether_residuals(variant, config, strengths, e_a, e_b, conv):
    ds = variant.ds
    ga, gb = ds.ga, ds.gb
    ea_low = _lowered(e_a, ga)
    eb_low = _lowered(e_b, gb)
    if variant.kind == LINEAR:
        return ea_low.d().max_abs(), eb_low.d().max_abs()
    if variant.kind == EONLY:
        # d(gE_A) + e(F, gE_B-pairing) closes; E_B is exactly d(...), so
        # its divergence identity is d E_B = 0.
        f_form = config.A.d()
        pr = np.einsum("pbc->cbp", ds.e_low())   # [c, b, a']
        res_a = (ea_low.d() - f_form.wedge(e_b, pr)).max_abs()
        return res_a, eb_low.d().max_abs()

    a_form, b_form = config.A, config.B
    star_p, star_q = strengths.starP, strengths.starQ
    b_t = b_transpose_pairing(ds)
    pr_a = np.einsum("abc,ad->cbd", ds.a, ga)
    pr_b = np.einsum("apc,ad->cpd", ds.b, ga)
    pr_j = np.einsum("pcq,pr->cqr", ds.j, gb)
    pr_bt = np.einsum("pbc,pq->cbq", b_t, gb)
    n_a = (ea_low.d()
           - a_form.wedge(e_a, pr_a)
           - star_q.wedge(e_a, pr_b)
           + b_form.wedge(e_b, pr_j)
           + star_p.wedge(e_b, pr_bt))
    pr_j2 = np.einsum("pbq,pr->qbr", ds.j, gb)
    pr_k2 = np.einsum("pxq,pr->qxr", ds.k, gb)
    n_b = (eb_low.d()
           - a_form.wedge(e_b, pr_j2)
           - star_q.wedge(e_b, pr_k2))
    return n_a.max_abs(), n_b.max_abs()


def check_strength_identities(variant: TheoryVariant, seeds,
                              degree: int = 3, amplitude: float = 0.1,
                              tol: float | None = None,
                              conv: MinkowskiConvention = CONVENTION
                              ) -> IdentityReport:
    """Off-shell divergence identities on the strengths, plus Bianchi."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    ds = variant.ds
    rows = {"bianchi-F": 0.0}
    if variant.kind == GENERAL:
        rows.update({"strength-P-divergence": 0.0,
                     "strength-Q-divergence": 0.0,
                     "curl-H-identity": 0.0,
                     "substitution-P": 0.0})
        # the covariant-curl substitution route holds for pure-massive sets
        # (nondegenerate mass tensor), not for mixed massless/massive ones
        if ds.h_map is not None and ds.space_a.dim == ds.space_b.dim \
                and ds.mass.m.size \
                and abs(np.linalg.det(ds.mass.m)) > 1e-10:
            rows["substitution-Q-massive"] = 0.0
    for seed in seeds:
        config, strengths = _prepare(variant, seed, degree, amplitude, conv)
        f_form = (config.A.d() if variant.kind != GENERAL
                  else strengths.F)
        bianchi = f_form.d() + config.A.wedge(f_form, ds.a)
        rows["bianchi-F"] = max(rows["bianchi-F"], bianchi.max_abs())
        if variant.kind != GENERAL:
            continue
        e_a, e_b = field_equations(variant, config, strengths, conv)
        rows["strength-P-divergence"] = max(
            rows["strength-P-divergence"],
            _p_identity(ds, config, strengths, e_b).max_abs())
        rows["strength-Q-divergence"] = max(
            rows["strength-Q-divergence"],
            _q_identity(ds, config, strengths, e_a, e_b).max_abs())
        curl_h = (strengths.H.d() + config.A.wedge(strengths.H, ds.j)
                  - strengths.F.wedge(config.B, ds.j))
        rows["curl-H-identity"] = max(rows["curl-H-identity"],
                                      curl_h.max_abs())
        rows["substitution-P"] = max(
            rows["substitution-P"],
            substitution_residual_massless(strengths, config, ds))
        if "substitution-Q-massive" in rows:
            rows["substitution-Q-massive"] = max(
                rows["substitution-Q-massive"],
                substitution_residual_massive(strengths, config, ds))
    return _collect("strength-identities", rows, tol, seeds)


def _p_identity(ds, config, strengths, e_b) -> LieForm:
    """dP + a(A,P) + b(*Q,P) + (b m)(P, A) - b(E_B, A) = 0 off-shell."""
    a_form = config.A
    p_form, star_q = strengths.P, strengths.starQ
    w_pm = np.einsum("apc,gp->agc", ds.b, ds.mass.map_a)  # [a, g(A), c]
    return (p_form.d()
            + a_form.wedge(p_form, ds.a)
            + star_q.wedge(p_form, ds.b)
            + p_form.wedge(a_form, w_pm)
            - e_b.wedge(a_form, ds.b))


def _q_identity(ds, config, strengths, e_a, e_b) -> LieForm:
    """dQ + j(A,Q) + k-bracket(*Q,Q) + b^T(*P,P) + (b^T m)(Q,A)
    = b^T(E_A, A) + k(E_B, B), derived once against random-jet data."""
    a_form, b_form = config.A, config.B
    q_form, p_form = strengths.Q, strengths.P
    star_p, star_q = strengths.starP, strengths.starQ
    b_t = b_transpose_pairing(ds)
    x_bm = np.einsum("pbc,bq->pqc", b_t, ds.mass.map_b)   # [a', q(A'), c]
    return (q_form.d()
            + a_form.wedge(q_form, ds.j)
            + star_q.wedge(q_form, ds.k)
            + star_p.wedge(p_form, b_t)
            + q_form.wedge(a_form, x_bm)
            - e_a.wedge(a_form, b_t)
            - e_b.wedge(b_form, ds.k))


def _wedge3(f: LieForm, g: LieForm, h: LieForm,
            tensor: np.ndarray) -> LieForm:
    """out^o = tensor[o, i, j, k] f^i ^ g^j ^ h^k (triple internal pairing)."""
    tensor = np.asarray(tensor, dtype=float)
    n_out = tensor.shape[0]
    out = None
    glue = np.eye(n_out)[:, :, None]
    for k in range(h.n):
        h_k = LieForm(h.ring, h.p, h.comps[k:k + 1], h.order)
        term = f.wedge(g, tensor[:, :, :, k]).wedge(h_k, glue)
        out = term if out is None else out + term
    return out


def strength_remainder(variant: TheoryVariant, config: FieldConfig,
                       strengths: StrengthPair, gp: GaugeParam,
                       e_a: LieForm, e_b: LieForm,
                       conv: MinkowskiConvention = CONVENTION):
    """The field-equation part of the strength variation, as a (2,3)-form pair.

    (R_P, R_Q) = Y^{-1}(b(E_B, xi), -b^T(E_A, xi) + k(E_B, chi)); the gauge
    variation of (P, Q) is this remainder plus, for massless sets, the
    homogeneous internal rotations.
    """
    ds = variant.ds
    src_p = e_b.wedge(gp.xi, ds.b)
    src_q = (e_a.wedge(gp.xi, b_transpose_pairing(ds)).scale(-1.0)
             + e_b.wedge(gp.chi, ds.k))
    vec = strengths.y_inv.apply(stack_pair(src_p, src_q))
    return unstack_pair(config.ring, ds.space_a.dim, ds.space_b.dim, vec,
                        min(src_p.order, src_q.order))


def trivial_symmetry(variant: TheoryVariant, config: FieldConfig,
                     strengths: StrengthPair | None,
                     gp1: GaugeParam, gp2: GaugeParam,
                     conv: MinkowskiConvention = CONVENTION):
    """The on-shell-vanishing remainder of the commutator closure.

    The gauge variations depend on the fields only through the dual
    strengths; commuting two of them therefore leaves, besides the closure
    parameters, exactly the strength couplings applied to the
    field-equation remainders of the strength variations.  Every term is
    proportional to the field equations and vanishes on solutions.
    """
    ds = variant.ds
    ring = config.ring
    n, m = ds.space_a.dim, ds.space_b.dim
    zero_a = LieForm.zero(ring, 1, n)
    zero_b = LieForm.zero(ring, 2, m)
    if variant.kind != GENERAL:
        return zero_a, zero_b
    e_a, e_b = field_equations(variant, config, strengths, conv)
    r1_p, r1_q = strength_remainder(variant, config, strengths, gp1,
                                    e_a, e_b, conv)
    r2_p, r2_q = strength_remainder(variant, config, strengths, gp2,
                                    e_a, e_b, conv)
    s1_p, s1_q = r1_p.hodge(conv), r1_q.hodge(conv)
    s2_p, s2_q = r2_p.hodge(conv), r2_q.hodge(conv)
    b_t = b_transpose_pairing(ds)
    d_a = s1_q.wedge(gp2.xi, ds.b) - s2_q.wedge(gp1.xi, ds.b)
    d_b = (s2_p.wedge(gp1.xi, b_t) - s1_p.wedge(gp2.xi, b_t)
           + s1_q.wedge(gp2.chi, ds.k) - s2_q.wedge(gp1.chi, ds.k))
    return d_a, d_b



def check_commutators(variant: TheoryVariant, seed_pairs,
                      degree: int = 3, amplitude: float = 0.1,
                      tol: float | None = None,
                      conv: MinkowskiConvention = CONVENTION
                      ) -> IdentityReport:
    """[delta_1, delta_2] minus the closure data minus the trivial remainder.

    Closure: two first-type symmetries close on the first-type parameter
    a(xi_1, xi_2); a first-type against a second-type closes on j(xi_1,
    chi_2); two second-type symmetries commute.  All three checked as jet
    identities off-shell.
    """
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    ds = variant.ds
    rows = {"commutator-xi-xi": 0.0, "commutator-chi-chi": 0.0,
            "commutator-xi-chi": 0.0}
    seeds_used = []
    for s1, s2 in seed_pairs:
        seeds_used.extend([s1, s2])
        config, strengths = _prepare(variant, s1, degree, amplitude, conv)
        n, m = ds.space_a.dim, ds.space_b.dim
        gp1 = GaugeParam(*random_gauge_params(s1 + 500, amplitude, degree,
                                              n, m))
        gp2 = GaugeParam(*random_gauge_params(s2 + 900, amplitude, degree,
                                              n, m))
        zero_xi = LieForm.zero(config.ring, 0, n)
        zero_chi = LieForm.zero(config.ring, 1, m)
        combos = {
            "commutator-xi-xi": (GaugeParam(gp1.xi, zero_chi),
                                 GaugeParam(gp2.xi, zero_chi)),
            "commutator-chi-chi": (GaugeParam(zero_xi, gp1.chi),
                                   GaugeParam(zero_xi, gp2.chi)),
            "commutator-xi-chi": (GaugeParam(gp1.xi, zero_chi),
                                  GaugeParam(zero_xi, gp2.chi)),
        }
        for name, (p1, p2) in combos.items():
            res = _commutator_residual(variant, config, strengths, p1, p2,
                                       conv)
            rows[name] = max(rows[name], res)
    return _collect("commutators", rows, tol, seeds_used)


def _commutator_residual(variant, config, strengths, gp1, gp2, conv) -> float:
    ds = variant.ds
    var1 = gauge_variation(variant, config, strengths, gp1)
    var2 = gauge_variation(variant, config, strengths, gp2)
    # directional derivative of variation 2 along variation 1 and vice versa
    d21 = directional_variations(variant, config, var1.xi_a + var1.chi_a,
                                 var1.xi_b + var1.chi_b, gp2, conv)
    d12 = directional_variations(variant, config, var2.xi_a + var2.chi_a,
                                 var2.xi_b + var2.chi_b, gp1, conv)
    comm_a = (d21.xi_a + d21.chi_a) - (d12.xi_a + d12.chi_a)
    comm_b = (d21.xi_b + d21.chi_b) - (d12.xi_b + d12.chi_b)
    # closure parameters
    xi3 = gp1.xi.wedge(gp2.xi, ds.a)
    chi3 = gp1.xi.wedge(gp2.chi, ds.j)
    gp3 = GaugeParam(xi3, chi3)
    var3 = gauge_variation(variant, config, strengths, gp3)
    close_a = var3.xi_a + var3.chi_a
    close_b = var3.xi_b + var3.chi_b
    triv_a, triv_b = trivial_symmetry(variant, config, strengths, gp1, gp2,
                                      conv)
    res_a = (comm_a - close_a - triv_a).max_abs()
    res_b = (comm_b - close_b - triv_b).max_abs()
    return max(res_a, res_b)


def check_linearization(variant: TheoryVariant, seeds,
                        degree: int = 3, amplitude: float = 0.1,
                        tol: float | None = None,
                        conv: MinkowskiConvention = CONVENTION
                        ) -> IdentityReport:
    """Order-one coefficient of E(eps A, eps B) equals the free equations.

    The scale eps is the nilpotent direction of the extension ring, so the
    extraction is exact (no finite differencing).
    """
    tol = DEFAULT_TOLS["linear"] if tol is None else tol
    ds = variant.ds
    lin = variant_linear(ds.mass.m, space_a=ds.space_a, space_b=ds.space_b)
    worst = {"linearization-A": 0.0, "linearization-B": 0.0}
    base = JetRing(degree)
    ring = NilpotentExtension(degree, 1)
    for seed in seeds:
        a_form, b_form = random_field_config(seed, amplitude, degree,
                                             ds.space_a.dim, ds.space_b.dim)
        zero_a = LieForm.zero(base, 1, ds.space_a.dim)
        zero_b = LieForm.zero(base, 2, ds.space_b.dim)
        eps_cfg = FieldConfig(promote_form(zero_a, ring, a_form),
                              promote_form(zero_b, ring, b_form))
        e_a, e_b = field_equations(variant, eps_cfg, None, conv)
        lin_a, lin_b = field_equations(lin, FieldConfig(a_form, b_form),
                                       None, conv)
        worst["linearization-A"] = max(
            worst["linearization-A"],
            (direction_part(e_a, base) - lin_a).max_abs())
        worst["linearization-B"] = max(
            worst["linearization-B"],
            (direction_part(e_b, base) - lin_b).max_abs())
    return _collect("linearization", worst, tol, seeds)


# ---------------------------------------------------------------------------
# generic Euler-Lagrange machinery


def _el_directions(dim_a: int, dim_b: int):
    dirs = []
    for a in range(dim_a):
        for i in range(len(COMPS[1])):
            dirs.append(("A", a, i))
    for a in range(dim_b):
        for i in range(len(COMPS[2])):
            dirs.append(("B", a, i))
    for a in range(dim_a):
        for i in range(len(COMPS[2])):
            dirs.append(("dA", a, i))
    for a in range(dim_b):
        for i in range(len(COMPS[3])):
            dirs.append(("dB", a, i))
    return dirs


def _promote_with_tangents(form: LieForm, ring: NilpotentExtension,
                           slots: list) -> LieForm:
    comps = np.stack([ring.promote(form.comps[a]) for a in range(form.n)])
    view = comps.reshape(form.n, comps.shape[1], ring.blocks, ring.base_width)
    for direction, (a, i) in slots:
        view[a, i, 1 + direction, 0] = 1.0
    return LieForm(ring, form.p, comps, form.order)


def generic_field_equations(variant: TheoryVariant, config: FieldConfig,
                            conv: MinkowskiConvention = CONVENTION):
    """Euler-Lagrange equations from the Lagrangian alone.

    Forward-mode differentiation with respect to the pointwise jet
    coordinates (A, B, dA, dB) in one multi-direction nilpotent pass,
    followed by one exterior derivative for the conjugate-slot terms:
    E_A = Phi_A + d Psi_A and E_B = Phi_B - d Psi_B, where Phi and Psi are
    the wedge-duals of the gradients in the value and derivative slots.
    """
    return _generic_el_of(
        lambda cfg, da, db: lagrangian_form(variant, cfg, None, conv,
                                            d_a=da, d_b=db),
        variant.ds, config, conv)


def cubic_tower(ds: DeformationSet, config: FieldConfig,
                conv: MinkowskiConvention = CONVENTION,
                d_a: LieForm | None = None, d_b: LieForm | None = None):
    """The cubic Lagrangian of the deformation tower and its quadratic
    field-equation terms.

    These are the first two rungs of the order-by-order deformation: the
    generic Euler-Lagrange operator reproduces the quadratic equations from
    the cubic Lagrangian, and the Euler homogeneity relation ties each
    Lagrangian order to the previous field-equation order up to an exact
    4-form.  The coefficient normalizations below were pinned against the
    exact homogeneous expansion of the full nonlinear theory (an
    eps-nilpotent extraction) and are frozen here.
    """
    a_form, b_form = config.A, config.B
    f_form = a_form.d() if d_a is None else d_a
    h_form = b_form.d() if d_b is None else d_b
    star_f, star_h = f_form.hodge(conv), h_form.hodge(conv)
    al, bl, jl, kl, el = (ds.a_low(), ds.b_low(), ds.j_low(), ds.k_low(),
                          ds.e_low())
    ga_inv, gb_inv = ds.space_a.inverse_metric, ds.space_b.inverse_metric
    ma, mb = ds.mass.map_a, ds.mass.map_b
    b_t = b_transpose_pairing(ds)

    def tri(x, y, z, tensor):
        return _wedge3(x, y, z, np.asarray(tensor, dtype=float)[None])

    lag = (tri(star_f, a_form, a_form, al).scale(0.5)
           + tri(star_h, a_form, b_form, jl)
           + tri(star_f, star_h, a_form, bl)
           + tri(star_h, star_h, b_form, kl).scale(0.5)
           - tri(star_h, f_form, a_form, el)
           + tri(b_form, a_form, a_form,
                 np.einsum("ap,abc->pbc", ds.mass.m, ds.a)).scale(0.5))

    s_form = f_form.wedge(a_form, ds.e)
    pr_e = np.einsum("pbd,da->abp", el, ga_inv)        # e_{c'b}{}^a
    x_2form = (a_form.wedge(a_form, ds.a).scale(0.5)
               + star_h.wedge(a_form, ds.b))
    e2_a = (x_2form.hodge(conv).d()
            - a_form.wedge(star_f, np.einsum("cbd,da->abc", al, ga_inv))
            - star_h.wedge(star_f, np.einsum("cpd,da->apc", bl, ga_inv))
            - star_h.wedge(b_form, np.einsum("pxq,xa->apq", jl, ga_inv))
            - a_form.wedge(b_form,
                           np.einsum("cq,cbd,da->abq", mb, al, ga_inv))
            + f_form.wedge(star_h, pr_e).scale(2.0)
            - a_form.wedge(star_h.d(), pr_e))
    y_3form = (a_form.wedge(b_form, ds.j)
               + star_h.wedge(b_form, ds.k)
               + star_f.wedge(a_form, b_t)
               - s_form)
    e2_b = (y_3form.hodge(conv).d()
            + star_h.wedge(star_h,
                           np.einsum("xyz,za->axy", kl, gb_inv)).scale(0.5)
            - a_form.wedge(star_h, np.einsum("qbz,zp->pbq", jl, gb_inv))
            + a_form.wedge(a_form,
                           np.einsum("pa,abc->pbc", ma, ds.a)).scale(0.5))
    return lag, e2_a, e2_b



def check_euler_lagrange_consistency(variant: TheoryVariant, seeds,
                                     degree: int = 3, amplitude: float = 0.1,
                                     tol: float | None = None,
                                     conv: MinkowskiConvention = CONVENTION
                                     ) -> IdentityReport:
    """Generic variational derivative against the hand-coded equations,
    plus the cubic-tower consistency of the variant's deformation set."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    ds = variant.ds
    rows = {"euler-lagrange-A": 0.0, "euler-lagrange-B": 0.0}
    for seed in seeds:
        config, strengths = _prepare(variant, seed, degree, amplitude, conv)
        gen_a, gen_b = generic_field_equations(variant, config, conv)
        hand_a, hand_b = field_equations(variant, config, strengths, conv)
        rows["euler-lagrange-A"] = max(rows["euler-lagrange-A"],
                                       (gen_a - hand_a).max_abs())
        rows["euler-lagrange-B"] = max(rows["euler-lagrange-B"],
                                       (gen_b - hand_b).max_abs())
    report = _collect("euler-lagrange", rows, tol, seeds)
    tower = check_cubic_tower(ds, list(seeds)[:1], degree, amplitude,
                              min(tol, DEFAULT_TOLS["polynomial"]), conv)
    return IdentityReport("euler-lagrange", report.results + tower.results)


def check_cubic_tower(ds: DeformationSet, seeds, degree: int = 3,
                      amplitude: float = 0.1, tol: float | None = None,
                      conv: MinkowskiConvention = CONVENTION
                      ) -> IdentityReport:
    """EL of the cubic Lagrangian and the Euler homogeneity relations.

    The homogeneity relation L_{k+1} = -(E^(k)_A ^ A - E^(k)_B ^ B)/(k+1)
    holds to within an exact 4-form; the boundary 3-form is obtained here
    by moving the total-derivative terms of the field equations onto the
    field factors, so each relation is checked pointwise with its explicit
    boundary term.
    """
    tol = DEFAULT_TOLS["polynomial"] if tol is None else tol
    rows = {"cubic-el-A": 0.0, "cubic-el-B": 0.0,
            "homogeneity-k1": 0.0, "homogeneity-k2": 0.0}
    ga, gb = ds.ga, ds.gb
    mass = ds.mass.m
    for seed in seeds:
        a_form, b_form = random_field_config(seed, amplitude, degree,
                                             ds.space_a.dim, ds.space_b.dim)
        config = FieldConfig(a_form, b_form)
        f_form, h_form = a_form.d(), b_form.d()
        star_f, star_h = f_form.hodge(conv), h_form.hodge(conv)

        lag3, e2_a, e2_b = cubic_tower(ds, config, conv)
        gen_a, gen_b = _generic_el_of(lambda cfg, da, db: cubic_tower(
            ds, cfg, conv, d_a=da, d_b=db)[0], ds, config, conv)
        rows["cubic-el-A"] = max(rows["cubic-el-A"],
                                 (gen_a - e2_a).max_abs())
        rows["cubic-el-B"] = max(rows["cubic-el-B"],
                                 (gen_b - e2_b).max_abs())

        # k = 1: boundary (-1/2)(*F ^ A - *H ^ B + m B ^ A)
        lin = variant_linear(mass, space_a=ds.space_a, space_b=ds.space_b)
        e1_a, e1_b = field_equations(lin, config, None, conv)
        lag2 = lagrangian_form(lin, config, None, conv)
        x1 = (e1_a.wedge(a_form, scalar_pairing(ga))
              - e1_b.wedge(b_form, scalar_pairing(gb))).scale(-0.5)
        bound1 = (star_f.wedge(a_form, scalar_pairing(ga))
                  - star_h.wedge(b_form, scalar_pairing(gb))
                  + b_form.wedge(a_form, mass.T[None])).scale(0.5)
        rows["homogeneity-k1"] = max(rows["homogeneity-k1"],
                                     (lag2 - x1 - bound1.d()).max_abs())

        # k = 2: boundary (-1/3)(*X_A ^ A - *(Y_B - S) ^ B) with X_A, Y_B
        # the 2- and 3-form arguments of the total-derivative terms.
        x_a = (a_form.wedge(a_form, ds.a).scale(0.5)
               + star_h.wedge(a_form, ds.b))
        y_b = (a_form.wedge(b_form, ds.j)
               + star_h.wedge(b_form, ds.k)
               + star_f.wedge(a_form, b_transpose_pairing(ds))
               - f_form.wedge(a_form, ds.e))
        x2 = (e2_a.wedge(a_form, scalar_pairing(ga))
              - e2_b.wedge(b_form, scalar_pairing(gb))).scale(-1.0 / 3.0)
        bound2 = (x_a.hodge(conv).wedge(a_form, scalar_pairing(ga))
                  - y_b.hodge(conv).wedge(b_form,
                                          scalar_pairing(gb))).scale(1.0 / 3.0)
        rows["homogeneity-k2"] = max(rows["homogeneity-k2"],
                                     (lag3 - x2 - bound2.d()).max_abs())
    return _collect("cubic-tower", rows, tol, seeds)


def _generic_el_of(builder, ds, config, conv):
    """Generic EL equations of an arbitrary first-order Lagrangian builder.

    ``builder(config, d_a, d_b)`` must return a real-valued 4-form treating
    the derivative slots as independent.
    """
    from .forms import COMP_INDEX, _perm_sign
    n, m = ds.space_a.dim, ds.space_b.dim
    dirs = _el_directions(n, m)
    ring = NilpotentExtension(config.ring.degree, len(dirs))
    base = JetRing(config.ring.degree)
    slot_map = {"A": [], "B": [], "dA": [], "dB": []}
    for idx, (slot, a, i) in enumerate(dirs):
        slot_map[slot].append((idx, (a, i)))
    a_md = _promote_with_tangents(config.A, ring, slot_map["A"])
    b_md = _promote_with_tangents(config.B, ring, slot_map["B"])
    da_md = _promote_with_tangents(config.A.d(), ring, slot_map["dA"])
    db_md = _promote_with_tangents(config.B.d(), ring, slot_map["dB"])
    lag = builder(FieldConfig(a_md, b_md), da_md, db_md)
    lt = lag.comps[0, 0].reshape(ring.blocks, ring.base_width)
    order = lag.order

    def conjugate(slot: str, p_slot: int, dim: int) -> LieForm:
        out = base.zeros((dim, len(COMPS[4 - p_slot])))
        for idx, (a, i) in slot_map[slot]:
            comp = COMPS[p_slot][i]
            rest = tuple(x for x in range(4) if x not in comp)
            sign = _perm_sign(comp + rest)
            out[a, COMP_INDEX[4 - p_slot][rest]] = lt[1 + idx] / sign
        return LieForm(base, 4 - p_slot, out, order)

    phi_a = conjugate("A", 1, n)
    phi_b = conjugate("B", 2, m)
    psi_a = conjugate("dA", 2, n)
    psi_b = conjugate("dB", 3, m)
    return phi_a + psi_a.d(), phi_b - psi_b.d()


def check_strength_transformation(variant: TheoryVariant, seeds,
                                  degree: int = 3, amplitude: float = 0.1,
                                  tol: float | None = None,
                                  conv: MinkowskiConvention = CONVENTION
                                  ) -> IdentityReport:
    """Chain-rule gauge variation of (P, Q) against the closed formulas.

    Off-shell the strengths transform by internal rotations plus the
    inverse strength operator applied to field-equation source terms; the
    sources drop on solutions, where the strengths rotate homogeneously
    (massless) or are invariant (massive).
    """
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {"transform-xi-P": 0.0, "transform-xi-Q": 0.0,
            "transform-chi-P": 0.0, "transform-chi-Q": 0.0}
    if variant.kind != GENERAL:
        # the 2-form strength of these variants is F = dA, so the first
        # symmetry type moves it by d(d xi) = 0 and the second not at all
        for seed in seeds:
            config, _ = _prepare(variant, seed, degree, amplitude, conv)
            gp = GaugeParam(*random_gauge_params(seed + 77, amplitude, degree,
                                                 variant.ds.space_a.dim,
                                                 variant.ds.space_b.dim))
            var = gauge_variation(variant, config, None, gp)
            rows["transform-xi-P"] = max(rows["transform-xi-P"],
                                         var.xi_a.d().max_abs())
            rows["transform-chi-P"] = max(rows["transform-chi-P"],
                                          var.chi_a.d().max_abs())
        return _collect("strength-transformation", rows, tol, seeds)

    ds = variant.ds
    for seed in seeds:
        config, strengths = _prepare(variant, seed, degree, amplitude, conv)
        gp = GaugeParam(*random_gauge_params(seed + 77, amplitude, degree,
                                             ds.space_a.dim, ds.space_b.dim))
        var = gauge_variation(variant, config, strengths, gp)
        e_a, e_b = field_equations(variant, config, strengths, conv)

        for which, (da, db) in (("xi", (var.xi_a, var.xi_b)),
                                ("chi", (var.chi_a, var.chi_b))):
            base = JetRing(config.ring.degree)
            dual_cfg, ring = _dual_config(config, da, db)
            sp_dual = compute_strengths(dual_cfg, ds, conv,
                                        curl=variant.curl)
            delta_p = direction_part(sp_dual.P, base)
            delta_q = direction_part(sp_dual.Q, base)
            if which == "xi":
                # homogeneous rotation a(P, xi) - (b m)(P, xi): the mass
                # correction cancels the rotation exactly on the massive
                # sector, which is the off-shell form of the statement
                # that massive strengths are gauge invariant on solutions
                ma = ds.mass.map_a
                w_bm = np.einsum("apc,pg->agc", ds.b, ma)
                k_m = np.einsum("pbq,bc->pqc", ds.k, ma)
                rot_p = (strengths.P.wedge(gp.xi, ds.a)
                         - strengths.P.wedge(gp.xi, w_bm))
                rot_q = (strengths.Q.wedge(gp.xi, ds.j.transpose(0, 2, 1))
                         .scale(-1.0)
                         + strengths.Q.wedge(gp.xi, k_m))
                gp_one = GaugeParam(gp.xi, LieForm.zero(base, 1,
                                                        ds.space_b.dim))
            else:
                rot_p = LieForm.zero(base, 2, ds.space_a.dim)
                rot_q = LieForm.zero(base, 3, ds.space_b.dim)
                gp_one = GaugeParam(LieForm.zero(base, 0, ds.space_a.dim),
                                    gp.chi)
            rem_p, rem_q = strength_remainder(variant, config, strengths,
                                              gp_one, e_a, e_b, conv)
            rows[f"transform-{which}-P"] = max(
                rows[f"transform-{which}-P"],
                (delta_p - rot_p - rem_p).max_abs())
            rows[f"transform-{which}-Q"] = max(
                rows[f"transform-{which}-Q"],
                (delta_q - rot_q - rem_q).max_abs())
    return _collect("strength-transformation", rows, tol, seeds)


CHECK_FUNCTIONS = {
    "gauge-invariance": check_gauge_invariance,
    "noether": check_noether_identities,
    "strength-identities": check_strength_identities,
    "commutators": None,   # needs seed pairs; handled in run_identity_suite
    "linearization": check_linearization,
    "euler-lagrange": check_euler_lagrange_consistency,
    "strength-transformation": check_strength_transformation,
}


def run_identity_suite(variant: TheoryVariant, seeds, degree: int = 3,
                       amplitude: float = 0.1, checks=None,
                       tols: dict | None = None,
                       conv: MinkowskiConvention = CONVENTION) -> dict:
    """Run the configured identity checks; returns name -> IdentityReport."""
    tols = dict(DEFAULT_TOLS, **(tols or {}))
    checks = list(CHECK_FUNCTIONS) if checks is None else checks
    seeds = list(seeds)
    out = {}
    timings = {}
    for name in checks:
        start = time.perf_counter()
        if name == "commutators":
            pairs = list(zip(seeds, seeds[1:] + seeds[:1]))
            out[name] = check_commutators(variant, pairs, degree, amplitude,
                                          tols["composite"], conv)
        elif name == "linearization":
            out[name] = check_linearization(variant, seeds, degree, amplitude,
                                            tols["linear"], conv)
        else:
            out[name] = CHECK_FUNCTIONS[name](variant, seeds, degree,
                                              amplitude, tols["composite"],
                                              conv)
        timings[name] = time.perf_counter() - start
    return {"reports": out, "timings": timings}
