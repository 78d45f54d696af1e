"""Deformation coefficient tensors and their algebraic consistency relations.

A :class:`DeformationSet` holds the irreducible first-order data
(a, b, j, k, e) together with the mass tensor.  Coefficients removable by
field or gauge-variable redefinitions are not stored; in particular the
d-tensor is always -j with its primed slots swapped and the e-tilde tensor
is always -b with its unprimed slots swapped, so they can never get out of
sync with the stored data.

``check_linear_relations`` and ``check_quadratic_relations`` evaluate the
fixed list of consistency conditions that an allowed first-order deformation
must satisfy.  All residuals are absolute max-abs values of the fully
index-lowered relation, with lowering done through the actual inner products
of the two internal spaces.  Relation names used in reports are mapped to
formulas in CONVENTIONS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lie_core
from .lie_core import InternalSpace, MassTensor, StructureConstants, read_only

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ConstraintResult:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class ConstraintReport:
    kind: str
    results: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN if any residual is NaN."""
        return float(np.max([r.residual for r in self.results], initial=0.0))

    def failing(self) -> list:
        return [r for r in self.results if not r.passed]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "relations": [{"name": r.name, "residual": r.residual,
                           "passed": r.passed} for r in self.results],
        }


@dataclass(frozen=True)
class DeformationSet:
    """First-order deformation data over two internal spaces.

    Index conventions (see CONVENTIONS.md):
      a[p, b, c]   -- a^p_{bc},  A x A  -> A, antisymmetric in (b, c)
      b[p, q, c]   -- b^p_{q'c}, A' x A -> A
      j[p, b, q]   -- j^{p'}_{b q'}, A x A' -> A'
      k[p, q, r]   -- k^{p'}_{q' r'}, contracted against (*Q, B)
      e[p, b, c]   -- e^{p'}_{bc}, A x A -> A', symmetric in (b, c)
    ``h_map`` is the optional A' -> A map with b = ad_A(h(.)); constructors
    fill it in, raw sets may leave it None.  The tensors are not changed
    once the set is built, so each tensor derived from them (the lowered
    couplings, :func:`ymft.strengths.b_transpose_pairing`) is computed once
    per set (:meth:`kept`).
    """

    space_a: InternalSpace
    space_b: InternalSpace
    a: np.ndarray
    b: np.ndarray
    j: np.ndarray
    k: np.ndarray
    e: np.ndarray
    mass: MassTensor
    h_map: np.ndarray | None = None

    def __post_init__(self):
        n, m = self.space_a.dim, self.space_b.dim
        shapes = {"a": (n, n, n), "b": (n, m, n), "j": (m, n, m),
                  "k": (m, m, m), "e": (m, n, n)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"tensor {name} has shape {arr.shape}, "
                                 f"expected {shape}")
            object.__setattr__(self, name, arr)
        if self.mass.space_a is not self.space_a and \
                self.mass.m.shape != (n, m):
            raise ValueError("mass tensor incompatible with spaces")

    # -- lowered tensors ---------------------------------------------------

    @property
    def ga(self) -> np.ndarray:
        return self.space_a.inner_product

    @property
    def gb(self) -> np.ndarray:
        return self.space_b.inner_product

    def kept(self, name: str, build) -> np.ndarray:
        """``build()``, a tensor derived from this set's data: computed on
        the first call per set and ``name``, then kept read-only."""
        kept = self.__dict__.setdefault("_kept", {})
        if name not in kept:
            kept[name] = read_only(build())
        return kept[name]

    def a_low(self):
        return self.kept("a_low", lambda: np.einsum("ad,dbc->abc", self.ga,
                                                    self.a))

    def b_low(self):
        return self.kept("b_low", lambda: np.einsum("ad,dpc->apc", self.ga,
                                                    self.b))

    def j_low(self):
        return self.kept("j_low", lambda: np.einsum("pq,qbr->pbr", self.gb,
                                                    self.j))

    def k_low(self):
        return self.kept("k_low", lambda: np.einsum("pq,qrs->prs", self.gb,
                                                    self.k))

    def e_low(self):
        return self.kept("e_low", lambda: np.einsum("pq,qbc->pbc", self.gb,
                                                    self.e))

    def validate_basic(self):
        """Structural symmetries of the stored tensors (not the relations)."""
        tol = 1e-12
        if np.abs(self.a + self.a.transpose(0, 2, 1)).max() > tol:
            raise ValueError("a must be antisymmetric in its last two slots")
        if np.abs(self.e - self.e.transpose(0, 2, 1)).max() > tol:
            raise ValueError("e must be symmetric in its two A slots")
        kl = self.k_low()
        if np.abs(kl + kl.transpose(1, 0, 2)).max() > tol:
            raise ValueError("lowered k must be antisymmetric in its "
                             "first two slots")
        return self

    # -- derived couplings -------------------------------------------------

    def bracket_b(self) -> StructureConstants:
        """The bracket on A' encoded by k: [u', v']^{a'} = k_{b'c'}{}^{a'} u' v'."""
        kl = self.k_low()
        c = np.einsum("xye,ea->axy", kl, self.space_b.inverse_metric)
        return StructureConstants(self.space_b, c)

    def bracket_a(self) -> StructureConstants:
        return StructureConstants(self.space_a, self.a)


def make_deformation(space_a, space_b, a, b, j, k, e, mass_matrix,
                     h_map=None, validate=True) -> DeformationSet:
    ds = DeformationSet(space_a, space_b, np.asarray(a, float),
                        np.asarray(b, float), np.asarray(j, float),
                        np.asarray(k, float), np.asarray(e, float),
                        MassTensor(space_a, space_b,
                                   np.asarray(mass_matrix, float)),
                        None if h_map is None else np.asarray(h_map, float))
    if validate:
        ds.validate_basic()
    return ds


# ---------------------------------------------------------------------------
# relation checks


def _sym(arr: np.ndarray, ax1: int, ax2: int) -> np.ndarray:
    return 0.5 * (arr + arr.swapaxes(ax1, ax2))


def linear_relation_residuals(ds: DeformationSet) -> dict:
    al, bl, jl, kl, el = (ds.a_low(), ds.b_low(), ds.j_low(), ds.k_low(),
                          ds.e_low())
    ma = ds.mass.map_a  # (n', n), m_a^{a'}
    mb = ds.mass.map_b  # (n, n'), m_{a'}^{a}

    res = {}
    res["e-index-symmetry"] = el - el.transpose(0, 2, 1)
    res["ab-mass-link"] = (_sym(al, 0, 1)
                           - _sym(np.einsum("pb,apc->abc", ma, bl), 0, 1))
    res["ja-mass-link"] = (np.einsum("pa,pcq->acq", ma, jl)
                           - np.einsum("bq,bac->acq", mb, al))
    res["jb-mass-link"] = (_sym(jl, 0, 2)
                           - _sym(np.einsum("ap,aqc->pcq", mb, bl), 0, 2))
    res["k-antisymmetry"] = kl + kl.transpose(1, 0, 2)
    res["km-j-link"] = (np.einsum("pa,pqr->aqr", ma, kl)
                        + jl.transpose(1, 0, 2))
    res["em-mass-link"] = (_sym(np.einsum("pa,pbc->abc", ma, el), 0, 2)
                           + np.einsum("pb,pac->abc", ma, el))
    return res


def quadratic_relation_residuals(ds: DeformationSet) -> dict:
    a, b, j, k, e = ds.a, ds.b, ds.j, ds.k, ds.e
    al, bl, jl, kl, el = (ds.a_low(), ds.b_low(), ds.j_low(), ds.k_low(),
                          ds.e_low())
    gbinv = ds.space_b.inverse_metric
    m = ds.mass.m
    bup = np.einsum("pq,dqe->dpe", gbinv, b)      # b^{d b'}{}_e
    kup = np.einsum("xyz,zb->xyb", kl, gbinv)     # k_{d'e'}{}^{b'}

    res = {}
    res["a-jacobi"] = (np.einsum("adb,bec->adec", al, a)
                       - np.einsum("abc,bde->adec", al, a)
                       + np.einsum("abe,bdc->adec", al, a))
    res["ab-derivation"] = (
        np.einsum("abc,bpe->acep", al, b) - np.einsum("abe,bpc->acep", al, b)
        - np.einsum("apb,bec->acep", bl, a)
        + np.einsum("aqc,dqe,dp->acep", bl, bup, m)
        - np.einsum("aqe,dqc,dp->acep", bl, bup, m)
        - np.einsum("aqc,qep->acep", bl, j)
        + np.einsum("aqe,qcp->acep", bl, j))
    res["aj-representation"] = (np.einsum("pbq,bdc->pqdc", jl, a)
                                - np.einsum("pdb,bcq->pqdc", jl, j)
                                + np.einsum("pcb,bdq->pqdc", jl, j))
    kk = np.einsum("abc,cde->abde", kl, k)
    res["k-jacobi"] = sum(
        sign * kk.transpose(perm + (3,))
        for perm, sign in [((0, 1, 2), 1), ((1, 0, 2), -1), ((0, 2, 1), -1),
                           ((2, 1, 0), -1), ((1, 2, 0), 1), ((2, 0, 1), 1)]
    ) / 6.0
    res["bk-representation"] = (np.einsum("aqc,deq->acde", bl, kup)
                                - np.einsum("adb,bec->acde", bl, b)
                                + np.einsum("aeb,bdc->acde", bl, b))
    res["ae-mixed"] = (np.einsum("pbc,cde->pbde", el, a)
                       + np.einsum("pdc,cbe->pbde", el, a)
                       - np.einsum("qbd,qep->pbde", el, j)
                       - np.einsum("pcd,bq,cqe->pbde", el, m, bup)
                       - np.einsum("pcb,dq,cqe->pbde", el, m, bup))
    res["ek-mixed"] = (np.einsum("deq,qab->deab", kup, el)
                       - np.einsum("dca,ceb->deab", el, b)
                       + np.einsum("eca,cdb->deab", el, b)
                       - np.einsum("dcb,cea->deab", el, b)
                       + np.einsum("ecb,cda->deab", el, b))
    return res


def _report(kind: str, residuals: dict, tol: float) -> ConstraintReport:
    results = tuple(
        ConstraintResult(name, float(np.abs(arr).max()) if arr.size else 0.0,
                         bool(np.abs(arr).max() <= tol) if arr.size else True)
        for name, arr in residuals.items())
    return ConstraintReport(kind, results, tol)


def check_linear_relations(ds: DeformationSet,
                           tol: float = DEFAULT_TOL) -> ConstraintReport:
    return _report("linear", linear_relation_residuals(ds), tol)


def check_quadratic_relations(ds: DeformationSet,
                              tol: float = DEFAULT_TOL) -> ConstraintReport:
    return _report("quadratic", quadratic_relation_residuals(ds), tol)


def check_all_relations(ds: DeformationSet,
                        tol: float = DEFAULT_TOL) -> ConstraintReport:
    merged = linear_relation_residuals(ds)
    merged.update(quadratic_relation_residuals(ds))
    return _report("all", merged, tol)


def check_e_mass_obstruction(ds: DeformationSet,
                             tol: float = DEFAULT_TOL) -> bool:
    """True iff the mass map composed with e vanishes.

    A nonzero e-coupling is incompatible with a nonzero mass tensor; the
    composition below is exactly the obstruction.
    """
    comp = np.einsum("ap,pbc->abc", ds.mass.map_b, ds.e)
    return bool(np.abs(comp).max() <= tol)


def parity_grade(ds: DeformationSet) -> str:
    """'even' / 'odd' / 'mixed' under the parity that flips the Hodge dual."""
    if not ds.e.any():
        return "even"
    rest = (ds.a, ds.b, ds.j, ds.k, ds.mass.m)
    return "mixed" if any(t.any() for t in rest) else "odd"


# ---------------------------------------------------------------------------
# named families


def family_su2(mass_m: float, lam: float) -> DeformationSet:
    """The three-dimensional compact family: a = eps, b = k = lam * eps.

    In the massive case gauge consistency fixes lam = 1/mass_m (rejected
    otherwise) and the Higgs-type coupling is j = eps; in the massless case
    lam is free and j must vanish, which is what the mass-j link relation
    forces at m = 0.
    """
    eps = lie_core.levi_civita3()
    space = InternalSpace(3)
    if mass_m != 0.0:
        if abs(lam * mass_m - 1.0) > 1e-12 * max(1.0, abs(lam * mass_m)):
            raise ValueError("massive family requires lam = 1/mass_m")
        jt = eps
    else:
        jt = np.zeros_like(eps)
    return make_deformation(
        space, InternalSpace(3), eps, lam * eps, jt, lam * eps,
        np.zeros((3, 3, 3)), mass_m * np.eye(3), h_map=lam * np.eye(3))


def family_solvable(v, w, cmap=None) -> DeformationSet:
    """Massless family with solvable second-sector structure group.

    ``v`` and ``w`` are fixed vectors in the common three-dimensional space;
    ``cmap`` is a linear map whose rows and columns annihilate v.  The
    second-sector bracket is c^a_{[b} v_{c]} and the cross coupling is
    b^a_{b'c} = eps^a_{dc} w^d v_{b'}, i.e. h = w (x) v.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    cmap = np.zeros((3, 3)) if cmap is None else np.asarray(cmap, dtype=float)
    if v.shape != (3,) or w.shape != (3,) or cmap.shape != (3, 3):
        raise ValueError("expected 3-vectors v, w and a 3x3 cmap")
    scale = max(1.0, np.abs(cmap).max()) * max(1.0, np.abs(v).max())
    if np.abs(cmap.T @ v).max() > 1e-12 * scale:
        raise ValueError("cmap must annihilate v in its first slot")
    if np.abs(cmap @ v).max() > 1e-12 * scale:
        raise ValueError("cmap must annihilate v in its second slot")

    eps = lie_core.levi_civita3()
    space_a, space_b = InternalSpace(3), InternalSpace(3)
    # Second-sector structure constants c^a_{bc} = (1/2)(c^a_b v_c - c^a_c v_b).
    cbr = 0.5 * (np.einsum("ab,c->abc", cmap, v)
                 - np.einsum("ac,b->abc", cmap, v))
    # k from the bracket: lowered k_{xye} = g'_{ez} c^z_{xy}.
    kl = np.einsum("ez,zxy->xye", space_b.inner_product, cbr)
    k = np.einsum("pe,exy->pxy", space_b.inverse_metric, kl)
    h = np.outer(w, v)
    b = np.einsum("adc,dp->apc", eps, h)
    return make_deformation(
        space_a, space_b, eps, b, np.zeros((3, 3, 3)), k,
        np.zeros((3, 3, 3)), np.zeros((3, 3)), h_map=h)


def family_linear(mass_matrix, space_a: InternalSpace | None = None,
                  space_b: InternalSpace | None = None) -> DeformationSet:
    """The zero-coupling set of the free theory: only the mass tensor.  The
    spaces default to Euclidean ones of the mass matrix's shape."""
    mass = np.asarray(mass_matrix, dtype=float)
    space_a = space_a or InternalSpace(mass.shape[0])
    space_b = space_b or InternalSpace(mass.shape[1])
    n, m = space_a.dim, space_b.dim
    z = np.zeros
    return make_deformation(space_a, space_b, z((n, n, n)), z((n, m, n)),
                            z((m, n, m)), z((m, m, m)), z((m, n, n)), mass)


def family_e_only(e) -> DeformationSet:
    """Opposite-parity family: only the symmetric e-coupling, zero mass."""
    e = np.atleast_3d(np.asarray(e, dtype=float))
    m, n = e.shape[0], e.shape[1]
    if e.shape != (m, n, n):
        raise ValueError("e must have shape (dim A', dim A, dim A)")
    if np.abs(e - e.transpose(0, 2, 1)).max() > 1e-12 * max(1.0, np.abs(e).max()):
        raise ValueError("e must be symmetric in its two A slots")
    z = np.zeros
    return make_deformation(
        InternalSpace(n), InternalSpace(m), z((n, n, n)), z((n, m, n)),
        z((m, n, m)), z((m, m, m)), e, z((n, m)))


def family_general(massless_a: StructureConstants | None = None,
                   massless_b: StructureConstants | None = None,
                   h0: np.ndarray | None = None,
                   massive: StructureConstants | None = None,
                   mass_value: float = 1.0) -> DeformationSet:
    """General mixed massless/massive parity-even family.

    The first space is the direct sum of a semisimple massless sector and a
    massive sector; the second space is a semisimple massless sector plus an
    isomorphic copy of the massive sector.  The construction realizes:

    * both brackets block diagonal, with the two massless sectors ideals
      commuting with the massive parts;
    * the massive blocks isomorphic under the mass maps (bracket rescaled
      by 1/mass_value on the second space);
    * j the adjoint action of the mass image, b = ad(h(.)) with h the
      inverse mass map on the massive part and h0 on the massless part.

    The massive sector inner product must be invariant under its own
    bracket; this is what lets the mass-j link define a consistent j.
    """
    if massive is None and massless_a is None:
        raise ValueError("need at least one sector")
    blocks_a = []
    blocks_b = []
    if massless_a is not None:
        _require_semisimple(massless_a, "massless A sector")
        blocks_a.append(massless_a)
    if massless_b is not None:
        _require_semisimple(massless_b, "massless A' sector")
        blocks_b.append(massless_b)
    if massive is not None:
        if mass_value == 0.0:
            raise ValueError("massive sector needs a nonzero mass value")
        _require_invariant_metric(massive, "massive sector")
        blocks_a.append(massive)
        scaled = StructureConstants(massive.space, massive.c / mass_value)
        blocks_b.append(scaled)

    sc_a = _chain_sum(blocks_a)
    sc_b = _chain_sum(blocks_b)
    n, m = sc_a.space.dim, sc_b.space.dim
    n0 = massless_a.space.dim if massless_a is not None else 0
    m0 = massless_b.space.dim if massless_b is not None else 0
    kdim = massive.space.dim if massive is not None else 0

    mass_matrix = np.zeros((n, m))
    if massive is not None:
        mass_matrix[n0:, m0:] = mass_value * massive.space.inner_product

    h = np.zeros((n, m))
    if h0 is not None:
        h0 = np.asarray(h0, dtype=float)
        if h0.shape != (n0, m0):
            raise ValueError("h0 must map the massless A' sector into the "
                             "massless A sector")
        if (lie_core.homomorphism_residual(h0, massless_b, massless_a)
                > 1e-10 * max(1.0, np.abs(h0).max()) ** 2):
            raise ValueError("h0 must be a bracket homomorphism from the "
                             "massless A' sector into the massless A sector")
        h[:n0, :m0] = h0
    if massive is not None:
        h[n0:, m0:] = np.eye(kdim) / mass_value

    gb = sc_b.space.inner_product
    gbinv = sc_b.space.inverse_metric
    kl = np.einsum("ez,zxy->xye", gb, sc_b.c)
    k = np.einsum("pe,exy->pxy", gbinv, kl)
    mass = MassTensor(sc_a.space, sc_b.space, mass_matrix)
    jl = -np.einsum("xa,xyz->yaz", mass.map_a, kl)
    j = np.einsum("pq,qaz->paz", gbinv, jl)
    b = np.einsum("adc,dp->apc", sc_a.c, h)
    return make_deformation(
        sc_a.space, sc_b.space, sc_a.c, b, j, k, np.zeros((m, n, n)),
        mass_matrix, h_map=h)


def _chain_sum(blocks) -> StructureConstants:
    out = blocks[0]
    for blk in blocks[1:]:
        out = lie_core.direct_sum(out, blk)
    return out


def _require_semisimple(sc: StructureConstants, what: str):
    if lie_core.jacobi_residual(sc) > 1e-10:
        raise ValueError(f"{what}: bracket fails the Jacobi identity")
    killing = lie_core.killing_metric(sc)
    scale = max(1.0, np.abs(killing).max())
    if abs(np.linalg.det(killing)) <= 1e-10 * scale ** sc.space.dim:
        raise ValueError(f"{what}: not semisimple "
                         "(degenerate Killing metric)")


def _require_invariant_metric(sc: StructureConstants, what: str):
    if lie_core.jacobi_residual(sc) > 1e-10:
        raise ValueError(f"{what}: bracket fails the Jacobi identity")
    g = sc.space.inner_product
    low = np.einsum("ad,dbc->abc", g, sc.c)
    if np.abs(low + low.transpose(2, 1, 0)).max() > 1e-10:
        raise ValueError(f"{what}: inner product is not invariant under "
                         "the sector bracket")
