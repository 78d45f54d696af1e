import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from ymft import lie_core as lc
from ymft.lie_core import InternalSpace, StructureConstants

# The map h of A' into A and the residuals of the relations between the two
# spaces: oracles that only these tests use.


@dataclass(frozen=True)
class LinearMapH:
    """A linear map h from A' into A, with metric adjoint h^T: A -> A'."""

    space_a: InternalSpace
    space_b: InternalSpace
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.space_a.dim, self.space_b.dim):
            raise ValueError("h has wrong shape (expect dim A x dim A')")
        object.__setattr__(self, "h", h)

    @property
    def h_t(self) -> np.ndarray:
        """(h u', v)_A = (u', h^T v)_A' for all u', v."""
        ga = self.space_a.inner_product
        gbinv = self.space_b.inverse_metric
        return gbinv @ self.h.T @ ga

    def adjointness_residual(self) -> float:
        ga = self.space_a.inner_product
        gb = self.space_b.inner_product
        return float(np.abs(self.h.T @ ga - gb @ self.h_t).max())


def derivation_residual(rho: np.ndarray, sc: StructureConstants) -> float:
    """Max-abs of rho(w)[u,v] - [rho(w)u, v] - [u, rho(w)v] over basis triples.

    ``rho`` has shape (m, n, n): rho[w] is an endomorphism of the space of
    ``sc`` for each basis element w of some second space.
    """
    rho = np.asarray(rho, dtype=float)
    n = sc.space.dim
    if rho.ndim != 3 or rho.shape[1:] != (n, n):
        raise ValueError("dimension mismatch")
    c = sc.c
    lhs = np.einsum("wad,dbc->wabc", rho, c)
    rhs = (np.einsum("aec,web->wabc", c, rho)
           + np.einsum("abe,wec->wabc", c, rho))
    return float(np.abs(lhs - rhs).max())


class AdjointMaps:
    """The family of adjoint maps attached to (A, A', h).

    Provides ad, ad^T, ad* on each space and the h-coupled map ad_{h,A}
    with its adjoint, plus the residual of the compatibility relation
    ad*_{h,A}(.) h = -ad*_{A'}(h^T(.)) that holds when h is a homomorphism.
    """

    def __init__(self, c_a: StructureConstants, c_b: StructureConstants,
                 hmap: LinearMapH):
        self.c_a = c_a
        self.c_b = c_b
        self.hmap = hmap
        self.ga = c_a.space.inner_product
        self.gb = c_b.space.inner_product

    def ad_a(self, v):
        return self.c_a.ad(np.asarray(v, dtype=float))

    def ad_b(self, v):
        return self.c_b.ad(np.asarray(v, dtype=float))

    def ad_a_t(self, v):
        return np.linalg.inv(self.ga) @ self.ad_a(v).T @ self.ga

    def ad_b_t(self, v):
        return np.linalg.inv(self.gb) @ self.ad_b(v).T @ self.gb

    def ad_a_star(self, v):
        """ad*_A(v) u = ad^T_A(u) v."""
        n = self.c_a.space.dim
        return np.stack([self.ad_a_t(e) @ np.asarray(v, dtype=float)
                         for e in np.eye(n)], axis=1)

    def ad_b_star(self, v):
        n = self.c_b.space.dim
        return np.stack([self.ad_b_t(e) @ np.asarray(v, dtype=float)
                         for e in np.eye(n)], axis=1)

    def ad_h_a(self, v):
        """ad_{h,A}(v): A' -> A, u' -> [v, h(u')]_A."""
        return self.ad_a(v) @ self.hmap.h

    def ad_h_a_star(self, u):
        """ad*_{h,A}(u): A -> A', v -> -h^T(ad*_A(u) v)."""
        return -self.hmap.h_t @ self.ad_a_star(u)

    def invariance_residual_a(self) -> float:
        """Zero iff the A inner product is ad-invariant (ad* = ad)."""
        n = self.c_a.space.dim
        return float(max(np.abs(self.ad_a_star(e) - self.ad_a(e)).max()
                         for e in np.eye(n)))

    def homomorphism_relation_residual(self) -> float:
        """Residual of ad*_{h,A}(u) h = -ad*_{A'}(h^T u) over basis u."""
        n = self.c_a.space.dim
        worst = 0.0
        for u in np.eye(n):
            lhs = self.ad_h_a_star(u) @ self.hmap.h
            rhs = -self.ad_b_star(self.hmap.h_t @ u)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst


def brute_jacobi(c):
    n = c.shape[0]
    worst = 0.0
    for a, b, cc, d in itertools.product(range(n), repeat=4):
        total = sum(c[a, b, e] * c[e, cc, d] + c[a, cc, e] * c[e, d, b]
                    + c[a, d, e] * c[e, b, cc] for e in range(n))
        worst = max(worst, abs(total))
    return worst


def test_jacobi_built_in_families():
    assert lc.jacobi_residual(lc.su2()) == 0.0
    assert lc.jacobi_residual(lc.su11()) < 1e-12
    assert lc.jacobi_residual(lc.abelian(4)) == 0.0


def test_jacobi_single_entry_perturbation_matches_oracle():
    bad = lc.levi_civita3()
    bad[1, 0, 2] += 0.5
    sc = lc.StructureConstants(lc.InternalSpace(3), bad)
    mine = lc.jacobi_residual(sc)
    assert mine > 0.0
    assert np.isclose(mine, brute_jacobi(bad), atol=1e-14)


def test_jacobi_oracle_agreement_random():
    rng = np.random.default_rng(0)
    c = rng.uniform(-1, 1, (3, 3, 3))
    c = c - c.transpose(0, 2, 1)
    sc = lc.StructureConstants(lc.InternalSpace(3), c)
    assert np.isclose(lc.jacobi_residual(sc), brute_jacobi(c), atol=1e-13)


def test_killing_metric_su2_and_abelian():
    assert np.allclose(lc.killing_metric(lc.su2()), 2.0 * np.eye(3))
    assert np.all(lc.killing_metric(lc.abelian(3)) == 0.0)


def test_killing_metric_symmetric_elementwise():
    rng = np.random.default_rng(1)
    c = rng.uniform(-1, 1, (4, 4, 4))
    k = lc.killing_metric(lc.StructureConstants(lc.InternalSpace(4),
                                                c - c.transpose(0, 2, 1)))
    assert np.array_equal(k, k.T)


def test_noncompact_form_signature():
    k = lc.killing_metric(lc.su11())
    neg, zero, pos = lc.structure_signature(k)
    assert zero == 0 and neg > 0 and pos > 0  # indefinite


@pytest.mark.parametrize("m_matrix,expect_k", [
    (np.zeros((3, 3)), 0),
    (2.0 * np.eye(3), 3),
    (np.diag([2.0, 0.0]), 1),
])
def test_decompose_mass_subspaces(m_matrix, expect_k):
    n, m = m_matrix.shape
    mass = lc.MassTensor(lc.InternalSpace(n), lc.InternalSpace(m), m_matrix)
    split = lc.decompose_mass_subspaces(mass)
    assert split.massive_dim == expect_k
    res = split.residuals(mass)
    assert max(res.values()) < 1e-12
    assert np.linalg.matrix_rank(split.pm_a) == expect_k
    assert np.linalg.matrix_rank(split.pm_b) == expect_k


def test_decompose_diag20_projects_first_direction():
    mass = lc.MassTensor(lc.InternalSpace(2), lc.InternalSpace(2),
                         np.diag([2.0, 0.0]))
    split = lc.decompose_mass_subspaces(mass)
    assert np.allclose(split.pm_a, np.diag([1.0, 0.0]), atol=1e-12)


def test_decompose_with_nontrivial_metric():
    ga = np.array([[2.0, 0.5], [0.5, 1.0]])
    mass = lc.MassTensor(lc.InternalSpace(2, ga), lc.InternalSpace(2),
                         np.diag([1.5, 0.0]))
    split = lc.decompose_mass_subspaces(mass)
    assert max(split.residuals(mass).values()) < 1e-12


def consistency_residual(mass: lc.MassTensor) -> float:
    """Index raising check: both maps reproduce m against the metrics."""
    r1 = mass.space_b.inner_product @ mass.map_a - mass.m.T
    r2 = mass.space_a.inner_product @ mass.map_b - mass.m
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


def test_mass_tensor_index_consistency():
    rng = np.random.default_rng(3)
    ga = np.eye(3) + 0.1 * np.diag([1, 2, 3.0])
    mass = lc.MassTensor(lc.InternalSpace(3, ga), lc.InternalSpace(2),
                         rng.uniform(-1, 1, (3, 2)))
    assert consistency_residual(mass) < 1e-13


def test_homomorphism_scaled_identity():
    kappa = 0.5
    h = LinearMapH(lc.InternalSpace(3), lc.InternalSpace(3),
                      kappa * np.eye(3))
    c_second = lc.StructureConstants(lc.InternalSpace(3),
                                     kappa * lc.levi_civita3())
    assert lc.homomorphism_residual(h.h, c_second, lc.su2()) < 1e-14
    zero_h = LinearMapH(lc.InternalSpace(3), lc.InternalSpace(3),
                           np.zeros((3, 3)))
    assert lc.homomorphism_residual(zero_h.h, lc.abelian(3), lc.su2()) == 0.0


def test_homomorphism_random_fails():
    rng = np.random.default_rng(5)
    h = LinearMapH(lc.InternalSpace(3), lc.InternalSpace(3),
                      rng.uniform(-1, 1, (3, 3)))
    oracle = 0.0
    for u in np.eye(3):
        for v in np.eye(3):
            lhs = lc.su2().bracket(h.h @ u, h.h @ v)
            rhs = h.h @ lc.su2().bracket(u, v)
            oracle = max(oracle, np.abs(lhs - rhs).max())
    assert np.isclose(lc.homomorphism_residual(h.h, lc.su2(), lc.su2()),
                      oracle, atol=1e-13)
    assert oracle > 1e-3


def test_adjointness_of_h_transpose():
    rng = np.random.default_rng(6)
    ga = np.eye(3) * 1.5
    gb = np.eye(2) + 0.2 * np.ones((2, 2))
    h = LinearMapH(lc.InternalSpace(3, ga), lc.InternalSpace(2, gb),
                      rng.uniform(-1, 1, (3, 2)))
    for u in np.eye(2):
        for v in np.eye(3):
            lhs = (h.h @ u) @ ga @ v
            rhs = u @ gb @ (h.h_t @ v)
            assert np.isclose(lhs, rhs, atol=1e-13)
    assert h.adjointness_residual() < 1e-13


def test_adjoint_suite_semisimple_invariance_and_relation():
    kappa = 0.5
    h = LinearMapH(lc.InternalSpace(3), lc.InternalSpace(3),
                      kappa * np.eye(3))
    c_b = lc.StructureConstants(lc.InternalSpace(3),
                                kappa * lc.levi_civita3())
    suite = AdjointMaps(lc.su2(), c_b, h)
    assert suite.invariance_residual_a() < 1e-13
    assert suite.homomorphism_relation_residual() < 1e-13


def test_adjoint_suite_abelian_everything_vanishes():
    h = LinearMapH(lc.InternalSpace(3), lc.InternalSpace(3),
                      np.zeros((3, 3)))
    suite = AdjointMaps(lc.abelian(3), lc.abelian(3), h)
    for v in np.eye(3):
        assert np.abs(suite.ad_a(v)).max() == 0.0
        assert np.abs(suite.ad_h_a(v)).max() == 0.0
    assert suite.homomorphism_relation_residual() == 0.0


def test_adjoint_relation_solvable_h():
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    h = LinearMapH(lc.InternalSpace(3), lc.InternalSpace(3),
                      np.outer(w, v))
    cmap = np.array([[0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])
    cbr = 0.5 * (np.einsum("ab,c->abc", cmap, v)
                 - np.einsum("ac,b->abc", cmap, v))
    c_b = lc.StructureConstants(lc.InternalSpace(3), cbr)
    assert lc.homomorphism_residual(h.h, c_b, lc.su2()) < 1e-13
    suite = AdjointMaps(lc.su2(), c_b, h)
    assert suite.homomorphism_relation_residual() < 1e-13


def test_derivation_residual():
    rho_ad = np.stack([lc.su2().ad(e) for e in np.eye(3)])
    assert derivation_residual(rho_ad, lc.su2()) < 1e-14
    assert derivation_residual(np.zeros((2, 3, 3)), lc.su2()) == 0.0
    rng = np.random.default_rng(8)
    rho = rng.uniform(-1, 1, (3, 3, 3))
    brute = 0.0
    c = lc.su2().c
    for w, u, v in itertools.product(range(3), repeat=3):
        lhs = rho[w] @ c[:, u, v]
        rhs = lc.su2().bracket(rho[w][:, u], np.eye(3)[v]) \
            + lc.su2().bracket(np.eye(3)[u], rho[w][:, v])
        brute = max(brute, np.abs(lhs - rhs).max())
    assert np.isclose(derivation_residual(rho, lc.su2()), brute,
                      atol=1e-13)
    assert brute > 1e-3


def test_representation_property_of_mass_adjoint():
    # rho'(u) = ad_{A'}(m_A u) is a representation of the massive bracket
    from ymft.deformations import family_su2
    ds = family_su2(2.0, 0.5)
    rho = np.einsum("pwq->wpq", ds.j)  # rho'[w]: e_w of A acting through j
    comm = np.einsum("wpq,vqr->wvpr", rho, rho) \
        - np.einsum("vpq,wqr->wvpr", rho, rho)
    closure = np.einsum("awv,apq->wvpq", ds.a, rho)
    assert np.abs(comm - closure).max() < 1e-12


def test_internal_space_validation():
    with pytest.raises(ValueError):
        lc.InternalSpace(2, np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        lc.InternalSpace(2, np.zeros((2, 2)))  # degenerate
    # an indefinite metric is a valid inner product
    indefinite = lc.InternalSpace(2, np.diag([1.0, -1.0]))
    assert np.array_equal(indefinite.inverse_metric, np.diag([1.0, -1.0]))
