"""Lagrangians, field equations, gauge variations, and the identity suite.

A deformation set alone decides its theory (:class:`TheoryVariant`), of
one of two kinds:

* ``general-parity-even`` -- when any of a, b, j, k is nonzero: the
  all-orders nonlinear theory of a parity-even set (a, b, j, k, mass),
  with strengths solved through the Y operator; it requires e = 0;
* ``shifted-curl``        -- when a = b = j = k = 0: the free theory of
  1-form and 2-form potentials, with its metric-independent mass coupling
  m F ^ B, written in the shifted curl H~ = dB - e(dA, A).  With e = 0 the
  shift is an exact zero and this is the free theory itself; with a
  symmetric e-coupling it is the opposite-parity theory, which requires a
  mass map that annihilates e.

Every identity is checked off-shell as an exact statement on jet
coefficients: gauge variations, commutators and linearizations are taken by
running the whole pipeline over a nilpotent ring extension, so no finite
differencing enters anywhere.  A check seeds every direction it needs into
one tangent ring (:func:`tangent_config`) and runs the pipeline over it
once.  The Euler-Lagrange gradients, where one scalar is differentiated
along every slot component, come instead from one reverse sweep over the
base ring (:func:`generic_field_equations`).  Statements that hold "on
solutions" are verified in their off-shell form with the explicit
field-equation remainder terms; remainders without a closed display were
derived once against random-jet data and are frozen below (see
CONVENTIONS.md).

A :class:`SeedContext` holds one seed's fields and computes their strengths,
field equations and gauge draw once, when first needed; gauge invariance,
the commutators and the strength transformation share the draw.  The suite
driver runs the seeds one at a time: it builds a seed's context, runs
every check on it and releases it before the next seed's.  It is
table-driven: ``CHECK_FUNCTIONS`` maps each check name to its function, of
a list of contexts and a tolerance, and ``CHECK_SPECS`` to the class of
that tolerance.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .deformations import (DeformationSet, check_e_mass_obstruction,
                           family_linear)
from .forms import (COMP_INDEX, COMPS, LieForm, _perm_sign, adjoints,
                    mark_leaf, promote_form, random_field_config,
                    random_gauge_params, scalar_pairing, tangent_parts)
from .jets import NilpotentExtension
from .strengths import (FieldConfig, StrengthPair, apply_linear,
                        b_transpose_pairing, compute_strengths,
                        recorded_strengths, stack_pair,
                        substitution_residual_massless,
                        substitution_residual_massive, unstack_pair)

GENERAL = "general-parity-even"
SHIFTED = "shifted-curl"

DEFAULT_TOLS = {"linear": 1e-12, "composite": 1e-8}
# the cubic-tower rows of the euler-lagrange check are judged at
# min(composite, CUBIC_TOWER_TOL)
CUBIC_TOWER_TOL = 1e-10


@dataclass(frozen=True)
class TheoryVariant:
    """The theory of a deformation set.  Its kind follows from the set:
    the shifted-curl theory when a = b = j = k = 0, the parity-even one
    otherwise."""

    ds: DeformationSet

    def __post_init__(self):
        ds = self.ds
        if self.kind == GENERAL and _nonzero(ds.e):
            raise ValueError("the parity-even variant requires e = 0")
        # a mass that e sources is obstructed; with e = 0 nothing is
        if (self.kind == SHIFTED and _nonzero(ds.e)
                and not check_e_mass_obstruction(ds)):
            raise ValueError("the shifted-curl variant requires a mass map "
                             "that annihilates e")

    @functools.cached_property
    def kind(self) -> str:
        ds = self.ds
        return GENERAL if _nonzero(ds.a, ds.b, ds.j, ds.k) else SHIFTED

    @functools.cached_property
    def free(self) -> "TheoryVariant":
        """The free theory of this set's mass and internal spaces, the
        theory every variant deforms: this variant itself when its set has
        no coupling at all, e included."""
        ds = self.ds
        if self.kind == SHIFTED and not _nonzero(ds.e):
            return self
        return TheoryVariant(family_linear(ds.mass.m, ds.space_a,
                                           ds.space_b))


def _nonzero(*tensors) -> bool:
    return max(np.abs(t).max() for t in tensors) > 0


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
        """The largest residual; NaN if any residual is NaN."""
        return float(np.max([r.residual for r in self.results], initial=0.0))

    def as_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed,
                "identities": [{"name": r.name, "residual": r.residual,
                                "tolerance": r.tolerance, "passed": r.passed,
                                "seeds": list(r.seeds)} for r in self.results]}


def _worst(rows: dict, name: str, residual: float) -> None:
    """Keep the largest residual of row ``name`` over the seeds.  A NaN
    residual is kept (``max`` would drop it), so that its row fails."""
    rows[name] = float(np.maximum(rows.get(name, 0.0), residual))


def _collect(kind: str, rows: dict, tol: float, contexts) -> IdentityReport:
    seeds = tuple(ctx.seed for ctx in contexts)
    results = tuple(IdentityResult(name, res, tol, res <= tol, seeds)
                    for name, res in rows.items())
    return IdentityReport(kind, results)


# ---------------------------------------------------------------------------
# Lagrangians and field equations


def _pair4(x: LieForm, y: LieForm, metric: np.ndarray) -> LieForm:
    return x.wedge(y, scalar_pairing(metric))


def e_source_form(ds: DeformationSet, f_form: LieForm,
                  a_form: LieForm) -> LieForm:
    """S^{a'} = e^{a'}_{bc} F^b ^ A^c, the shift of the curl H~ = dB - S;
    an exact zero, from no product, when e = 0."""
    return f_form.wedge(a_form, ds.e)


def lagrangian_form(variant: TheoryVariant, config: FieldConfig,
                    strengths: StrengthPair | None = None) -> LieForm:
    """The Lagrangian as a real-valued 4-form of A, B and the derivative
    slots dA, dB of ``config`` (the generic Euler-Lagrange pass varies all
    four independently)."""
    ds = variant.ds
    b_form = config.B
    mass = ds.mass.m

    if variant.kind == SHIFTED:
        # L = (1/2) F ^ *F - (1/2) H~ ^ *H~ + F ^ m B
        f_form = config.dA
        h_form = config.dB - e_source_form(ds, f_form, config.A)
        return (_pair4(f_form, f_form.hodge(), ds.ga).scale(0.5)
                - _pair4(h_form, h_form.hodge(), ds.gb).scale(0.5)
                + f_form.wedge(b_form, mass[None]))

    strengths = strengths or compute_strengths(config, ds)
    return (_pair4(strengths.starP, strengths.F, ds.ga).scale(0.5)
            + _pair4(strengths.starQ, strengths.H, ds.gb).scale(0.5)
            + strengths.F.wedge(b_form, mass[None]))


def field_equations(variant: TheoryVariant, config: FieldConfig,
                    strengths: StrengthPair | None = None):
    """Hand-coded field equations: an A-valued 3-form and an A'-valued 2-form."""
    ds = variant.ds
    a_form = config.A

    if variant.kind == SHIFTED:
        # E_A = d*F + m(H~) + 2 e(F, *H~) - e(A, d*H~), E_B = d*H~ + m(F)
        f_form = config.dA
        h_form = config.dB - e_source_form(ds, f_form, a_form)
        star_h = h_form.hodge()
        # pairing [out a, left b (unprimed), right c' (primed)]
        pr = np.einsum("pbd,da->abp", ds.e_low(), ds.space_a.inverse_metric)
        e_a = (f_form.hodge().d()
               + apply_linear(ds.mass.map_b, h_form)
               + f_form.wedge(star_h, pr).scale(2.0)
               - a_form.wedge(star_h.d(), pr))
        e_b = star_h.d() + apply_linear(ds.mass.map_a, f_form)
        return e_a, e_b

    strengths = strengths or compute_strengths(config, ds)
    p_form, q_form = strengths.P, strengths.Q
    star_p, star_q = strengths.starP, strengths.starQ
    ma, mb = ds.mass.map_a, ds.mass.map_b
    b_t = b_transpose_pairing(ds)
    ga_inv = ds.space_a.inverse_metric

    # E_A = d*P + (a + b m)(A,*P) - b^{T-raised}(*Q,*P) + m(Q)
    w_bm = np.einsum("apb,pc->abc", ds.b, ma)
    v_bt = np.einsum("cpd,da->apc", ds.b_low(), ga_inv)
    e_a = (star_p.d()
           + a_form.wedge(star_p, ds.a + w_bm)
           - star_q.wedge(star_p, v_bt)
           + apply_linear(mb, q_form))

    # E_B = d*Q + (j - b^T m)(A,*Q) + (1/2) k^{bracket}(*Q,*Q) + m(P)
    kl = ds.k_low()
    k2 = np.einsum("xyz,za->axy", kl, ds.space_b.inverse_metric)
    w2 = np.einsum("pcb,cq->pbq", b_t, mb)
    e_b = (star_q.d()
           + a_form.wedge(star_q, ds.j - w2)
           + star_q.wedge(star_q, k2).scale(0.5)
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

    @property
    def xi(self):
        """The (A, B) variation of the first symmetry type."""
        return self.xi_a, self.xi_b

    @property
    def chi(self):
        """The (A, B) variation of the second symmetry type."""
        return self.chi_a, self.chi_b


def gauge_variation(variant: TheoryVariant, config: FieldConfig,
                    strengths: StrengthPair | None,
                    gp: GaugeParam) -> Variations:
    ds = variant.ds
    xi, chi = gp.xi, gp.chi
    zero_a = LieForm.zero(config.ring, 1, ds.space_a.dim)
    if variant.kind == SHIFTED:
        # delta B = e(F, xi) keeps H~ invariant
        return Variations(xi.d(), config.dA.wedge(xi, ds.e), zero_a, chi.d())

    if strengths is None:
        strengths = compute_strengths(config, ds)
    star_p, star_q = strengths.starP, strengths.starQ
    b_t = b_transpose_pairing(ds)
    xi_a = (xi.d() + config.A.wedge(xi, ds.a) + star_q.wedge(xi, ds.b))
    xi_b = (config.B.wedge(xi, ds.j.transpose(0, 2, 1)).scale(-1.0)
            - star_p.wedge(xi, b_t))
    chi_b = (chi.d() + config.A.wedge(chi, ds.j)
             + star_q.wedge(chi, ds.k))
    return Variations(xi_a, xi_b, zero_a, chi_b)


def boundary_theta(variant: TheoryVariant, config: FieldConfig,
                   strengths: StrengthPair | None, gp: GaugeParam):
    """The 3-forms Theta with delta L = d Theta for each symmetry type."""
    ds = variant.ds
    if variant.kind == SHIFTED:
        return (LieForm.zero(config.ring, 3, 1),
                config.dA.wedge(gp.chi, ds.mass.m[None]))
    n, m = ds.space_a.dim, ds.space_b.dim

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
# tangent rings and the per-seed context


def tangent_config(config: FieldConfig, directions) -> FieldConfig:
    """The fields over one ``NilpotentExtension(degree, k)``.

    ``directions`` lists k pairs (dir_a, dir_b); tangent block i of A and B
    holds pair i.  One pass over the extended ring then gives the exact
    directional derivative of every quantity along all k directions at
    once (vector forward mode).
    """
    ring = NilpotentExtension(config.ring.degree, len(directions))
    along_a, along_b = zip(*directions)
    return FieldConfig(promote_form(config.A, ring, along_a),
                       promote_form(config.B, ring, along_b))


@dataclass(frozen=True)
class SeedGauge:
    """One seed's gauge draw (:attr:`SeedContext.gauge`)."""

    params: tuple            # two gauge parameters, on the base ring
    variations: tuple        # their variations of the fields
    tangent: "SeedContext"   # along their halves xi_1, chi_1, xi_2, chi_2
    remainders: list | None  # of those halves, in the same order


class SeedContext:
    """One seed's field configuration, with its strengths, field equations
    and gauge draw computed once, on first use, and shared by every check.

    ``seed`` and ``amplitude`` are those the fields were drawn with; the
    random gauge parameters are drawn from them as well.
    Over a tangent ring, ``base`` is the strengths of the base blocks of
    the fields, those of the context it was made from (:meth:`tangent`).
    """

    def __init__(self, variant: TheoryVariant, config: FieldConfig,
                 seed: int, amplitude: float,
                 base: StrengthPair | None = None):
        self.variant = variant
        self.config = config
        self.seed = seed
        self.amplitude = amplitude
        self.base = base

    @functools.cached_property
    def strengths(self) -> StrengthPair | None:
        """The solved strengths; only the parity-even variant has them."""
        if self.variant.kind != GENERAL:
            return None
        return compute_strengths(self.config, self.variant.ds, self.base)

    @functools.cached_property
    def equations(self):
        """The hand-coded field equations (E_A, E_B)."""
        return field_equations(self.variant, self.config, self.strengths)

    @functools.cached_property
    def gauge(self) -> SeedGauge:
        """The gauge draw of this seed, shared by the three gauge checks:
        the random gauge parameters of seeds ``seed + 500`` and ``seed +
        900``, and the tangent context along the four halves of their
        variations, so one pass over it differentiates along every half.
        The :func:`strength_remainders` of the halves come from one solve;
        they are None for the shifted-curl kind, which solves no
        strengths."""
        ds = self.variant.ds
        gp1, gp2 = params = tuple(GaugeParam(*random_gauge_params(
            self.seed + offset, self.amplitude, self.config.ring.degree,
            ds.space_a.dim, ds.space_b.dim)) for offset in (500, 900))
        var1, var2 = variations = tuple(map(self.variations, params))
        remainders = None
        if self.variant.kind == GENERAL:
            e_a, e_b = self.equations
            xi1, xi2, chi1, chi2 = strength_remainders(
                self.variant, self.config, self.strengths, e_a, e_b,
                (gp1.xi, gp2.xi), (gp1.chi, gp2.chi))
            remainders = [xi1, chi1, xi2, chi2]
        return SeedGauge(params, variations,
                         self.tangent([var1.xi, var1.chi, var2.xi, var2.chi]),
                         remainders)

    @functools.cached_property
    def free(self) -> "SeedContext":
        """The same fields in the free theory of this variant
        (:attr:`TheoryVariant.free`): this context itself when the variant
        is free."""
        if self.variant.free is self.variant:
            return self
        return SeedContext(self.variant.free, self.config, self.seed,
                           self.amplitude)

    def tangent(self, directions) -> "SeedContext":
        """The context of :func:`tangent_config` along ``directions``.  Its
        strengths have this context's in the base block, and their tangent
        blocks are solved with this context's solver."""
        return SeedContext(self.variant,
                           tangent_config(self.config, directions),
                           self.seed, self.amplitude, self.strengths)

    def variations(self, gp: GaugeParam) -> Variations:
        """The gauge variation of the fields; ``gp``, on the base ring, is
        lifted to their ring."""
        ring = self.config.ring
        gp = GaugeParam(promote_form(gp.xi, ring), promote_form(gp.chi, ring))
        return gauge_variation(self.variant, self.config, self.strengths, gp)


def seed_contexts(variant: TheoryVariant, seeds, degree: int = 3,
                  amplitude: float = 0.1) -> list:
    """One :class:`SeedContext` per seed, with random fields of the given
    jet degree and amplitude: the input of every check."""
    n, m = variant.ds.space_a.dim, variant.ds.space_b.dim
    return [SeedContext(variant, FieldConfig(*random_field_config(
        seed, amplitude, degree, n, m)), seed, amplitude) for seed in seeds]


# ---------------------------------------------------------------------------
# suite pieces


def check_gauge_invariance(contexts, tol: float | None = None
                           ) -> IdentityReport:
    """delta L - d Theta = 0 for both symmetry types, per seed, the worst
    over both parameters of the seed's gauge draw."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        tan = ctx.gauge.tangent
        d_ls = tangent_parts(lagrangian_form(tan.variant, tan.config,
                                             tan.strengths))
        thetas = [theta for gp in ctx.gauge.params for theta in
                  boundary_theta(ctx.variant, ctx.config, ctx.strengths, gp)]
        for name, d_l, theta in zip(("gauge-invariance-xi",
                                     "gauge-invariance-chi") * 2,
                                    d_ls, thetas):
            _worst(rows, name, (d_l - theta.d()).max_abs())
    return _collect("gauge-invariance", rows, tol, contexts)


def _lowered(form: LieForm, metric: np.ndarray) -> LieForm:
    return apply_linear(np.asarray(metric, dtype=float), form)


def check_noether_identities(contexts, tol: float | None = None
                             ) -> IdentityReport:
    """Covariant-divergence identities of the field equations, off-shell."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        residuals = _noether_residuals(ctx.variant, ctx.config,
                                       ctx.strengths, *ctx.equations)
        for name, res in zip(("noether-divergence-A",
                              "noether-divergence-B"), residuals):
            _worst(rows, name, res)
    return _collect("noether", rows, tol, contexts)


def _noether_residuals(variant, config, strengths, e_a, e_b):
    ds = variant.ds
    ga, gb = ds.ga, ds.gb
    ea_low = _lowered(e_a, ga)
    eb_low = _lowered(e_b, gb)
    if variant.kind == SHIFTED:
        # d(gE_A) - e(F, gE_B-pairing) closes, and d(gE_B) = 0
        pr = np.einsum("pbc->cbp", ds.e_low())   # [c, b, a']
        res_a = (ea_low.d() - config.dA.wedge(e_b, pr)).max_abs()
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


def check_strength_identities(contexts, tol: float | None = None
                              ) -> IdentityReport:
    """Off-shell divergence identities on the strengths, plus Bianchi."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        ds, config, strengths = ctx.variant.ds, ctx.config, ctx.strengths
        general = ctx.variant.kind == GENERAL
        f_form = strengths.F if general else config.dA
        bianchi = f_form.d() + config.A.wedge(f_form, ds.a)
        _worst(rows, "bianchi-F", bianchi.max_abs())
        if not general:
            continue
        e_a, e_b = ctx.equations
        _worst(rows, "strength-P-divergence",
               _p_identity(ds, config, strengths, e_b).max_abs())
        _worst(rows, "strength-Q-divergence",
               _q_identity(ds, config, strengths, e_a, e_b).max_abs())
        curl_h = (strengths.H.d() + config.A.wedge(strengths.H, ds.j)
                  - strengths.F.wedge(config.B, ds.j))
        _worst(rows, "curl-H-identity", curl_h.max_abs())
        # both substitution routes read the set's h map
        if ds.h_map is None:
            continue
        _worst(rows, "substitution-P",
               substitution_residual_massless(strengths, config, ds))
        # the covariant-curl substitution route holds for pure-massive sets
        # (nondegenerate mass tensor), not for mixed massless/massive ones
        if ds.space_a.dim == ds.space_b.dim \
                and ds.mass.m.size \
                and abs(np.linalg.det(ds.mass.m)) > 1e-10:
            _worst(rows, "substitution-Q-massive",
                   substitution_residual_massive(strengths, config, ds))
    return _collect("strength-identities", rows, tol, contexts)


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
    """out^o = tensor[o, i, j, k] f^i ^ g^j ^ h^k (triple internal pairing):
    f ^ g into the pairs (o, k), then one wedge with h that contracts k."""
    tensor = np.asarray(tensor, dtype=float)
    n_out, n_h = tensor.shape[0], tensor.shape[3]
    f_g = f.wedge(g, tensor.transpose(0, 3, 1, 2).reshape(n_out * n_h,
                                                           f.n, g.n))
    glue = np.einsum("op,kl->opkl", np.eye(n_out), np.eye(n_h))
    return f_g.wedge(h, glue.reshape(n_out, n_out * n_h, n_h))


def strength_remainders(variant: TheoryVariant, config: FieldConfig,
                        strengths: StrengthPair, e_a: LieForm, e_b: LieForm,
                        xis=(), chis=()) -> list:
    """The field-equation part of the strength variation of each gauge
    parameter, as (2,3)-form pairs: one per xi of ``xis`` (with chi = 0),
    then one per chi of ``chis`` (with xi = 0).

    (R_P, R_Q) = Y^{-1}(b(E_B, xi), -b^T(E_A, xi) + k(E_B, chi)); the gauge
    variation of (P, Q) is this remainder plus, for massless sets, the
    homogeneous internal rotations.  The sources are linear in the
    parameter, so each parameter's is built from its own half alone, and
    all of them are solved at once, one column each.
    """
    ds = variant.ds
    ring, n, m = config.ring, ds.space_a.dim, ds.space_b.dim
    sources = [(e_b.wedge(xi, ds.b),
                e_a.wedge(xi, b_transpose_pairing(ds)).scale(-1.0))
               for xi in xis]
    sources += [(LieForm.zero(ring, 2, n), e_b.wedge(chi, ds.k))
                for chi in chis]
    order = min([e_a.order, e_b.order] + [g.order for g in (*xis, *chis)])
    vec = strengths.y_inv.apply(np.stack(
        [stack_pair(*source) for source in sources], axis=1), order)
    return [unstack_pair(ring, n, m, vec[:, col], order)
            for col in range(len(sources))]


COMMUTATORS = ("commutator-xi-xi", "commutator-chi-chi", "commutator-xi-chi")


def gauge_commutators(ctx: SeedContext) -> dict:
    """[delta_1, delta_2] on (A, B) for the xi-xi, chi-chi and xi-chi parts,
    delta_1 and delta_2 the variations of the seed's gauge draw.

    The commutator of two variations is D(delta_2)[delta_1] -
    D(delta_1)[delta_2], D the derivative of a variation map along a field
    direction.  The tangent context of the draw is seeded along the four
    halves xi_1, chi_1, xi_2, chi_2; varying with gp1 and gp2 there gives
    the derivative of every half along every direction, since each half is
    linear in its own parameter.
    """
    t1, t2 = map(ctx.gauge.tangent.variations, ctx.gauge.params)

    def bracket(second, along_first: int, first, along_second: int):
        return tuple(tangent_parts(x)[along_first]
                     - tangent_parts(y)[along_second]
                     for x, y in zip(second, first))

    return {"commutator-xi-xi": bracket(t2.xi, 0, t1.xi, 2),
            "commutator-chi-chi": bracket(t2.chi, 1, t1.chi, 3),
            "commutator-xi-chi": bracket(t2.chi, 0, t1.xi, 3)}


def trivial_symmetry(ctx: SeedContext) -> dict:
    """The on-shell-vanishing remainder of each commutator closure.

    The gauge variations depend on the fields only through the dual
    strengths; commuting two of them therefore leaves, besides the closure
    parameters, exactly the strength couplings applied to the
    field-equation remainders of the strength variations.  Every term is
    proportional to the field equations and vanishes on solutions.  The
    remainders are linear in the parameter, so those of the gauge draw's
    xi_1, chi_1, xi_2 and chi_2 serve all three pairs.
    """
    ds = ctx.variant.ds
    ring = ctx.config.ring
    n, m = ds.space_a.dim, ds.space_b.dim
    zero_a = LieForm.zero(ring, 1, n)
    if ctx.variant.kind != GENERAL:
        return dict.fromkeys(COMMUTATORS, (zero_a, LieForm.zero(ring, 2, m)))
    gp1, gp2 = ctx.gauge.params
    xi1, xi2, chi1, chi2 = gp1.xi, gp2.xi, gp1.chi, gp2.chi
    (p_xi1, q_xi1), (_, q_chi1), (p_xi2, q_xi2), (p_chi2, q_chi2) = [
        (r_p.hodge(), r_q.hodge()) for r_p, r_q in ctx.gauge.remainders]
    b_t = b_transpose_pairing(ds)
    return {
        "commutator-xi-xi": (q_xi1.wedge(xi2, ds.b) - q_xi2.wedge(xi1, ds.b),
                             p_xi2.wedge(xi1, b_t) - p_xi1.wedge(xi2, b_t)),
        "commutator-chi-chi": (zero_a, q_chi1.wedge(chi2, ds.k)
                               - q_chi2.wedge(chi1, ds.k)),
        "commutator-xi-chi": (-q_chi2.wedge(xi1, ds.b),
                              p_chi2.wedge(xi1, b_t)
                              + q_xi1.wedge(chi2, ds.k)),
    }


def check_commutators(contexts, tol: float | None = None) -> IdentityReport:
    """[delta_1, delta_2] minus the closure data minus the trivial remainder.

    Closure: two first-type symmetries close on the first-type parameter
    a(xi_1, xi_2); a first-type against a second-type closes on j(xi_1,
    chi_2); two second-type symmetries commute.  All three checked as jet
    identities off-shell, per seed, for the two parameters of its gauge
    draw.
    """
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        ds, ring = ctx.variant.ds, ctx.config.ring
        gp1, gp2 = ctx.gauge.params
        # one variation carries both nonzero closures: its xi half closes
        # xi-xi and its chi half closes xi-chi
        close = ctx.variations(GaugeParam(gp1.xi.wedge(gp2.xi, ds.a),
                                          gp1.xi.wedge(gp2.chi, ds.j)))
        closures = {"commutator-xi-xi": close.xi,
                    "commutator-chi-chi": (
                        LieForm.zero(ring, 1, ds.space_a.dim),
                        LieForm.zero(ring, 2, ds.space_b.dim)),
                    "commutator-xi-chi": close.chi}
        comm, triv = gauge_commutators(ctx), trivial_symmetry(ctx)
        for name in COMMUTATORS:
            _worst(rows, name, max((c - k - t).max_abs() for c, k, t in
                                   zip(comm[name], closures[name],
                                       triv[name])))
    return _collect("commutators", rows, tol, contexts)


def check_linearization(contexts, tol: float | None = None
                        ) -> IdentityReport:
    """Order-one coefficient of E(eps A, eps B) equals the free equations.

    The scale eps is the one direction of a tangent ring seeded at zero
    fields, so the extraction is exact (no finite differencing).
    """
    tol = DEFAULT_TOLS["linear"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        ds, config = ctx.variant.ds, ctx.config
        zero = FieldConfig(LieForm.zero(config.ring, 1, ds.space_a.dim),
                           LieForm.zero(config.ring, 2, ds.space_b.dim))
        eps = SeedContext(ctx.variant,
                          tangent_config(zero, [(config.A, config.B)]),
                          ctx.seed, ctx.amplitude)
        for name, e_form, lin_form in zip(
                ("linearization-A", "linearization-B"), eps.equations,
                ctx.free.equations):
            _worst(rows, name,
                   (tangent_parts(e_form)[0] - lin_form).max_abs())
    return _collect("linearization", rows, tol, contexts)


# ---------------------------------------------------------------------------
# generic Euler-Lagrange machinery


def generic_field_equations(variant: TheoryVariant, config: FieldConfig,
                            strengths: StrengthPair | None = None):
    """Euler-Lagrange equations from the Lagrangian alone.

    The gradient of the Lagrangian with respect to the pointwise jet
    coordinates (A, B, dA, dB) comes from one reverse (adjoint) sweep over
    the base ring (:func:`_generic_el_of`), and one exterior derivative
    adds the conjugate-slot terms: E_A = Phi_A + d Psi_A and
    E_B = Phi_B - d Psi_B, where Phi and Psi are the wedge-duals of the
    gradients in the value and derivative slots.  Given ``strengths``,
    those of ``config``, the sweep records their solve instead of solving.
    """
    def builder(marked: FieldConfig) -> LieForm:
        return lagrangian_form(variant, marked, None if strengths is None
                               else recorded_strengths(marked, variant.ds,
                                                       strengths))

    return _generic_el_of(builder, config)[:2]


def cubic_lagrangian(ds: DeformationSet, config: FieldConfig) -> LieForm:
    """The cubic Lagrangian L_3 of the deformation tower, a real-valued
    4-form of A, B and the derivative slots dA, dB.

    L_3 and :func:`quadratic_equations` are the first two rungs of the
    order-by-order deformation: the generic Euler-Lagrange operator
    reproduces the quadratic equations from L_3, and the Euler homogeneity
    relation ties each Lagrangian order to the previous field-equation
    order up to an exact 4-form.  The coefficient normalizations of both
    were pinned against the exact homogeneous expansion of the full
    nonlinear theory (an eps-nilpotent extraction) and are frozen here.
    A term whose coupling is exactly zero adds an exact zero, so it is
    skipped; the sum keeps the valid order of all its terms.
    """
    a_form, b_form = config.A, config.B
    f_form, h_form = config.dA, config.dB
    star_f, star_h = f_form.hodge(), h_form.hodge()
    terms = ((0.5, (star_f, a_form, a_form), ds.a_low()),
             (1.0, (star_h, a_form, b_form), ds.j_low()),
             (1.0, (star_f, star_h, a_form), ds.b_low()),
             (0.5, (star_h, star_h, b_form), ds.k_low()),
             (-1.0, (star_h, f_form, a_form), ds.e_low()),
             (0.5, (b_form, a_form, a_form),
              np.einsum("ap,abc->pbc", ds.mass.m, ds.a)))
    ring = config.ring
    lag = LieForm(ring, 4, ring.zeros((1, 1)),
                  min(f.order for f in (star_f, star_h, a_form, b_form)))
    for scale, forms, tensor in terms:
        if tensor.any():
            lag = lag + _wedge3(*forms, tensor[None]).scale(scale)
    return lag


def quadratic_equations(ds: DeformationSet, config: FieldConfig):
    """The quadratic field-equation terms (E2_A, E2_B) of the deformation
    tower, the Euler-Lagrange equations of :func:`cubic_lagrangian`, and
    the 2- and 3-form arguments X_A, Y_B of their total-derivative terms
    d*X_A and d*Y_B."""
    a_form, b_form = config.A, config.B
    f_form, h_form = config.dA, config.dB
    star_f, star_h = f_form.hodge(), h_form.hodge()
    al, bl, jl, kl, el = (ds.a_low(), ds.b_low(), ds.j_low(), ds.k_low(),
                          ds.e_low())
    ga_inv, gb_inv = ds.space_a.inverse_metric, ds.space_b.inverse_metric
    ma, mb = ds.mass.map_a, ds.mass.map_b
    b_t = b_transpose_pairing(ds)
    s_form = e_source_form(ds, f_form, a_form)
    pr_e = np.einsum("pbd,da->abp", el, ga_inv)        # e_{c'b}{}^a
    x_2form = (a_form.wedge(a_form, ds.a).scale(0.5)
               + star_h.wedge(a_form, ds.b))
    e2_a = (x_2form.hodge().d()
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
    e2_b = (y_3form.hodge().d()
            + star_h.wedge(star_h,
                           np.einsum("xyz,za->axy", kl, gb_inv)).scale(0.5)
            - a_form.wedge(star_h, np.einsum("qbz,zp->pbq", jl, gb_inv))
            + a_form.wedge(a_form,
                           np.einsum("pa,abc->pbc", ma, ds.a)).scale(0.5))
    return e2_a, e2_b, x_2form, y_3form


def check_euler_lagrange_consistency(contexts, tol: float | None = None
                                     ) -> IdentityReport:
    """Generic variational derivative against the hand-coded equations,
    plus the cubic-tower consistency of the variant's deformation set, on
    every context."""
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        generic = generic_field_equations(ctx.variant, ctx.config,
                                          ctx.strengths)
        for name, gen, hand in zip(("euler-lagrange-A", "euler-lagrange-B"),
                                   generic, ctx.equations):
            _worst(rows, name, (gen - hand).max_abs())
    report = _collect("euler-lagrange", rows, tol, contexts)
    tower = check_cubic_tower(contexts, min(tol, CUBIC_TOWER_TOL))
    return IdentityReport("euler-lagrange", report.results + tower.results)


def check_cubic_tower(contexts, tol: float | None = None) -> IdentityReport:
    """EL of the cubic Lagrangian and the Euler homogeneity relations.

    The homogeneity relation L_{k+1} = -(E^(k)_A ^ A - E^(k)_B ^ B)/(k+1)
    holds to within an exact 4-form; the boundary 3-form is obtained here
    by moving the total-derivative terms of the field equations onto the
    field factors, so each relation is checked pointwise with its explicit
    boundary term.
    """
    tol = CUBIC_TOWER_TOL if tol is None else tol
    rows = {}
    for ctx in contexts:
        ds, config = ctx.variant.ds, ctx.config
        ga, gb, mass = ds.ga, ds.gb, ds.mass.m
        a_form, b_form = config.A, config.B
        f_form, h_form = config.dA, config.dB
        star_f, star_h = f_form.hodge(), h_form.hodge()

        e2_a, e2_b, x_a, y_b = quadratic_equations(ds, config)
        gen_a, gen_b, lag3 = _generic_el_of(
            functools.partial(cubic_lagrangian, ds), config)
        _worst(rows, "cubic-el-A", (gen_a - e2_a).max_abs())
        _worst(rows, "cubic-el-B", (gen_b - e2_b).max_abs())

        # k = 1: boundary (-1/2)(*F ^ A - *H ^ B + m B ^ A)
        e1_a, e1_b = ctx.free.equations
        lag2 = lagrangian_form(ctx.free.variant, config)
        x1 = (e1_a.wedge(a_form, scalar_pairing(ga))
              - e1_b.wedge(b_form, scalar_pairing(gb))).scale(-0.5)
        bound1 = (star_f.wedge(a_form, scalar_pairing(ga))
                  - star_h.wedge(b_form, scalar_pairing(gb))
                  + b_form.wedge(a_form, mass.T[None])).scale(0.5)
        _worst(rows, "homogeneity-k1", (lag2 - x1 - bound1.d()).max_abs())

        # k = 2: boundary (-1/3)(*X_A ^ A - *Y_B ^ B) with X_A, Y_B the 2-
        # and 3-form arguments of the total-derivative terms (Y_B includes
        # the -S term), as quadratic_equations builds them.
        x2 = (e2_a.wedge(a_form, scalar_pairing(ga))
              - e2_b.wedge(b_form, scalar_pairing(gb))).scale(-1.0 / 3.0)
        bound2 = (x_a.hodge().wedge(a_form, scalar_pairing(ga))
                  - y_b.hodge().wedge(b_form,
                                          scalar_pairing(gb))).scale(1.0 / 3.0)
        _worst(rows, "homogeneity-k2", (lag3 - x2 - bound2.d()).max_abs())
    return _collect("cubic-tower", rows, tol, contexts)


def _generic_el_of(builder, config: FieldConfig):
    """Generic EL equations of an arbitrary first-order Lagrangian builder.

    ``builder(config)`` must return a real-valued 4-form of A, B and the
    derivative slots dA, dB of ``config``, built from sums, scales, Hodge
    duals, wedge products and strength solves.  The four are marked as
    independent leaves (:func:`ymft.forms.mark_leaf`) and assigned to one
    config, so the builder runs once on their values and treats dA and dB
    as coordinates independent of A and B.  One reverse sweep
    (:func:`ymft.forms.adjoints`) then gives, per slot component, the
    ring-valued derivative of the volume coefficient; its wedge-dual is
    the conjugate form of the slot.  Returns (E_A, E_B, the Lagrangian
    built on the marked leaves), the last with the values of
    ``builder(config)``.
    """
    base = config.ring
    slots = [mark_leaf(form) for form in (config.A, config.B, config.dA,
                                          config.dB)]
    marked = FieldConfig(slots[0], slots[1])
    marked.dA, marked.dB = slots[2], slots[3]
    lag = builder(marked)

    def conjugate(slot: LieForm, grad: np.ndarray) -> LieForm:
        out = base.zeros((slot.n, len(COMPS[4 - slot.p])))
        for i, comp in enumerate(COMPS[slot.p]):
            rest = tuple(x for x in range(4) if x not in comp)
            out[:, COMP_INDEX[4 - slot.p][rest]] = \
                grad[:, i] / _perm_sign(comp + rest)
        return LieForm(base, 4 - slot.p, out, lag.order)

    phi_a, phi_b, psi_a, psi_b = map(conjugate, slots,
                                     adjoints(lag, slots))
    return phi_a + psi_a.d(), phi_b - psi_b.d(), lag


def check_strength_transformation(contexts, tol: float | None = None
                                  ) -> IdentityReport:
    """Chain-rule gauge variation of (P, Q) against the closed formulas.

    Off-shell the strengths transform by internal rotations plus the
    inverse strength operator applied to field-equation source terms; the
    sources drop on solutions, where the strengths rotate homogeneously
    (massless) or are invariant (massive).  Each row is the worst over both
    parameters of the seed's gauge draw.  The shifted-curl variant has no
    solved strengths, so only its P rows are reported.
    """
    tol = DEFAULT_TOLS["composite"] if tol is None else tol
    rows = {}
    for ctx in contexts:
        ds, gauge = ctx.variant.ds, ctx.gauge
        if ctx.variant.kind != GENERAL:
            # the 2-form strength of this variant is F = dA, so the first
            # symmetry type moves it by d(d xi) = 0 and the second not at all
            for var in gauge.variations:
                _worst(rows, "transform-xi-P", var.xi_a.d().max_abs())
                _worst(rows, "transform-chi-P", var.chi_a.d().max_abs())
            continue
        p_form, q_form = ctx.strengths.P, ctx.strengths.Q
        ring, n, m = ctx.config.ring, ds.space_a.dim, ds.space_b.dim
        # homogeneous rotation (a - b m)(P, xi): the mass correction
        # cancels the rotation exactly on the massive sector, which is the
        # off-shell form of the statement that massive strengths are gauge
        # invariant on solutions; chi does not rotate the strengths
        ma = ds.mass.map_a
        w_bm = np.einsum("apc,pg->agc", ds.b, ma)
        k_m = np.einsum("pbq,bc->pqc", ds.k, ma)
        rot_chi = (LieForm.zero(ring, 2, n), LieForm.zero(ring, 3, m))
        rots = [rot for gp in gauge.params for rot in (
            (p_form.wedge(gp.xi, ds.a - w_bm),
             q_form.wedge(gp.xi, k_m - ds.j.transpose(0, 2, 1))), rot_chi)]
        tan = gauge.tangent
        deltas = zip(tangent_parts(tan.strengths.P),
                     tangent_parts(tan.strengths.Q))
        for which, rot, delta, rems in zip(("xi", "chi") * 2, rots, deltas,
                                           gauge.remainders):
            for field, d, r, rem in zip("PQ", delta, rot, rems):
                _worst(rows, f"transform-{which}-{field}",
                       (d - r - rem).max_abs())
    return _collect("strength-transformation", rows, tol, contexts)


CHECK_FUNCTIONS = {
    "gauge-invariance": check_gauge_invariance,
    "noether": check_noether_identities,
    "strength-identities": check_strength_identities,
    "commutators": check_commutators,
    "linearization": check_linearization,
    "euler-lagrange": check_euler_lagrange_consistency,
    "strength-transformation": check_strength_transformation,
}

# the DEFAULT_TOLS class of each check's tolerance
CHECK_SPECS = {
    "gauge-invariance": "composite",
    "noether": "composite",
    "strength-identities": "composite",
    "commutators": "composite",
    "linearization": "linear",
    "euler-lagrange": "composite",
    "strength-transformation": "composite",
}


def _merge(report: IdentityReport | None,
           new: IdentityReport) -> IdentityReport:
    """``report`` and ``new`` row by row: each row keeps the worst residual
    (NaN kept, as in :func:`_worst`), its own tolerance and every seed."""
    rows = {r.name: r for r in (report.results if report else ())}
    for r in new.results:
        old = rows.get(r.name)
        if old is not None:
            residual = float(np.maximum(old.residual, r.residual))
            r = IdentityResult(r.name, residual, r.tolerance,
                               residual <= r.tolerance, old.seeds + r.seeds)
        rows[r.name] = r
    return IdentityReport(new.kind, tuple(rows.values()))


def run_identity_suite(variant: TheoryVariant, seeds, degree: int = 3,
                       amplitude: float = 0.1, checks=None,
                       tols: dict | None = None) -> dict:
    """Run the configured identity checks; returns name -> IdentityReport.

    The seeds run one at a time, so that one seed's strengths and tangent
    rings are alive at a time; the per-seed reports merge row by row
    (:func:`_merge`), and each check's time is the sum over the seeds.  An
    empty seed list raises ``ValueError``: a suite that checks no fields
    would pass every identity.
    """
    tols = dict(DEFAULT_TOLS, **(tols or {}))
    checks = list(CHECK_FUNCTIONS) if checks is None else checks
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the identity suite needs at least one seed")
    out = {}
    timings = dict.fromkeys(checks, 0.0)
    for seed in seeds:
        [ctx] = seed_contexts(variant, [seed], degree, amplitude)
        for name in checks:
            start = time.perf_counter()
            report = CHECK_FUNCTIONS[name]([ctx], tols[CHECK_SPECS[name]])
            timings[name] += time.perf_counter() - start
            out[name] = _merge(out.get(name), report)
        del ctx   # released before the next seed's context is built
    return {"reports": out, "timings": timings}
