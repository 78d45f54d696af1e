"""Internal-vector-space algebra: brackets, inner products, mass tensor.

All objects are basis components: brackets are rank-3 arrays, maps are
matrices.  The bracket convention is [e_b, e_c] = c^a_{bc} e_a throughout
(see CONVENTIONS.md), and indices are raised and lowered with the explicit
inner products of the spaces involved -- never with an implicit identity.

The objects are frozen, so what they derive from their data (the inverse
metric of a space, the two maps of a mass tensor) is computed once per
object, on first use, and kept as a read-only array.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

NONDEGENERACY_RTOL = 1e-10


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a value kept and handed to every caller
    must not be written through."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class InternalSpace:
    """A real inner-product space carrying Lie-algebra-valued fields."""

    dim: int
    inner_product: np.ndarray = None

    def __post_init__(self):
        g = self.inner_product
        g = np.eye(self.dim) if g is None else np.asarray(g, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError("inner product has wrong shape")
        if not np.allclose(g, g.T, atol=1e-13):
            raise ValueError("inner product must be symmetric")
        scale = max(np.abs(g).max(), 1.0)
        if abs(np.linalg.det(g)) <= NONDEGENERACY_RTOL * scale ** self.dim:
            raise ValueError("inner product is degenerate")
        object.__setattr__(self, "inner_product", g)

    @functools.cached_property
    def inverse_metric(self) -> np.ndarray:
        """The inverse of the inner product, computed once per space."""
        return read_only(np.linalg.inv(self.inner_product))


@dataclass(frozen=True)
class StructureConstants:
    """Bracket components c^a_{bc} on one internal space."""

    space: InternalSpace
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        n = self.space.dim
        if c.shape != (n, n, n):
            raise ValueError("structure constants have wrong shape")
        object.__setattr__(self, "c", c)

    def antisymmetry_residual(self) -> float:
        return float(np.abs(self.c + self.c.transpose(0, 2, 1)).max())

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("abc,b,c->a", self.c, u, v)

    def ad(self, v: np.ndarray) -> np.ndarray:
        """Matrix of ad(v): u -> [v, u]."""
        return np.einsum("abc,b->ac", self.c, v)


def su2() -> StructureConstants:
    """The compact three-dimensional algebra with totally antisymmetric bracket."""
    return StructureConstants(InternalSpace(3), levi_civita3())


def levi_civita3() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        eps[i, j, k] = _sign3(i, j, k)
    return eps


def _sign3(i, j, k):
    return float(np.sign((j - i) * (k - i) * (k - j)))


def su11() -> StructureConstants:
    """A noncompact real form: [e1,e2] = 2 e2, [e1,e3] = -2 e3, [e2,e3] = e1."""
    c = np.zeros((3, 3, 3))
    c[1, 0, 1], c[1, 1, 0] = 2.0, -2.0
    c[2, 0, 2], c[2, 2, 0] = -2.0, 2.0
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    return StructureConstants(InternalSpace(3), c)


def abelian(dim: int) -> StructureConstants:
    return StructureConstants(InternalSpace(dim), np.zeros((dim, dim, dim)))


def jacobi_residual(sc: StructureConstants) -> float:
    """Max-abs cyclic Jacobi sum c^a_{b e} c^e_{c d} + cycl(b, c, d).

    Meaningful for antisymmetric constants; the cyclic sum is evaluated as
    written either way, so a tensor that breaks antisymmetry (and with it
    the bracket axioms) shows up as a positive residual too.
    """
    c = sc.c
    cyc = np.einsum("abe,ecd->abcd", c, c)
    total = cyc + cyc.transpose(0, 2, 3, 1) + cyc.transpose(0, 3, 1, 2)
    return float(np.abs(total).max())


def killing_metric(sc: StructureConstants) -> np.ndarray:
    """k_ab = - c^c_{ad} c^d_{bc}; symmetric, positive definite for su2.

    The double contraction is symmetric in (a, b) exactly; the upper
    triangle is mirrored so the output is bitwise symmetric as well.
    """
    k = -np.einsum("cad,dbc->ab", sc.c, sc.c)
    upper = np.triu(k)
    return upper + np.triu(k, 1).T


def structure_signature(metric: np.ndarray) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of a symmetric matrix."""
    vals = np.linalg.eigvalsh(np.asarray(metric, dtype=float))
    tol = 1e-10 * max(1.0, np.abs(vals).max())
    return (int(np.sum(vals < -tol)), int(np.sum(np.abs(vals) <= tol)),
            int(np.sum(vals > tol)))


@dataclass(frozen=True)
class MassTensor:
    """Bilinear mass tensor m_{a a'} with its two induced maps.

    ``map_a`` sends space A into A' (components m_a^{a'} raised with the A'
    inner product); ``map_b`` sends A' into A.  Matrices act from the left
    on component vectors.  Both are computed once per tensor.
    """

    space_a: InternalSpace
    space_b: InternalSpace
    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (self.space_a.dim, self.space_b.dim):
            raise ValueError("mass tensor has wrong shape")
        object.__setattr__(self, "m", m)

    @functools.cached_property
    def map_a(self) -> np.ndarray:
        """(dim A', dim A): u^a -> m_a^{a'} u^a."""
        return read_only(self.space_b.inverse_metric @ self.m.T)

    @functools.cached_property
    def map_b(self) -> np.ndarray:
        """(dim A, dim A'): u'^{a'} -> m_{a'}^{a} u'^{a'}."""
        return read_only(self.space_a.inverse_metric @ self.m)


@dataclass(frozen=True)
class SubspaceSplit:
    """Orthogonal massless/massive projectors induced by a mass tensor."""

    p0_a: np.ndarray
    pm_a: np.ndarray
    p0_b: np.ndarray
    pm_b: np.ndarray
    massive_dim: int

    def residuals(self, mass: MassTensor) -> dict:
        eye_a = np.eye(mass.space_a.dim)
        eye_b = np.eye(mass.space_b.dim)
        return {
            "completeness": max(np.abs(self.p0_a + self.pm_a - eye_a).max(),
                                np.abs(self.p0_b + self.pm_b - eye_b).max()),
            "idempotent": max(np.abs(self.p0_a @ self.p0_a - self.p0_a).max(),
                              np.abs(self.pm_a @ self.pm_a - self.pm_a).max(),
                              np.abs(self.p0_b @ self.p0_b - self.p0_b).max(),
                              np.abs(self.pm_b @ self.pm_b - self.pm_b).max()),
            "annihilation": max(np.abs(self.p0_a @ self.pm_a).max(),
                                np.abs(self.p0_b @ self.pm_b).max()),
            "kernel": max(np.abs(mass.map_a @ self.p0_a).max(),
                          np.abs(mass.map_b @ self.p0_b).max()),
        }


def decompose_mass_subspaces(mass: MassTensor) -> SubspaceSplit:
    """Split both spaces into the kernel of the mass map and its
    metric-orthogonal complement.

    The two massive blocks always have a common rank, which is returned as
    ``massive_dim``; m = 0 and full-rank m are both fine.  A singular
    value counts toward the rank above 1e-10 of the largest (or of 1).
    """
    p0_a, pm_a, rank_a = _kernel_projectors(mass.map_a,
                                            mass.space_a.inner_product)
    p0_b, pm_b, rank_b = _kernel_projectors(mass.map_b,
                                            mass.space_b.inner_product)
    if rank_a != rank_b:
        raise ValueError("mass tensor rank mismatch between spaces")
    return SubspaceSplit(p0_a, pm_a, p0_b, pm_b, rank_a)


def _kernel_projectors(mat: np.ndarray, metric: np.ndarray):
    m, n = np.asarray(mat).shape
    u, s, vt = np.linalg.svd(mat) if mat.size else (None, np.array([]), None)
    if mat.size == 0:
        rank = 0
        kernel = np.eye(n)
    else:
        cutoff = 1e-10 * max(1.0, s.max() if s.size else 0.0)
        rank = int(np.sum(s > cutoff))
        kernel = vt[rank:].T  # Euclidean kernel basis, columns
    if kernel.shape[1] == 0:
        p0 = np.zeros((n, n))
    else:
        k = kernel
        p0 = k @ np.linalg.inv(k.T @ metric @ k) @ k.T @ metric
    return p0, np.eye(n) - p0, rank


def homomorphism_residual(h: np.ndarray, c_b: StructureConstants,
                          c_a: StructureConstants) -> float:
    """Max-abs of [h u', h v']_A - h([u', v']_A') over basis pairs, for h
    a (dim A, dim A') array."""
    if h.shape != (c_a.space.dim, c_b.space.dim):
        raise ValueError("dimension mismatch")
    lhs = np.einsum("ade,db,ec->abc", c_a.c, h, h)
    rhs = np.einsum("ad,dbc->abc", h, c_b.c)
    return float(np.abs(lhs - rhs).max())


def direct_sum(first: StructureConstants,
               second: StructureConstants) -> StructureConstants:
    """Block-diagonal sum of two bracket structures and their metrics."""
    n1, n2 = first.space.dim, second.space.dim
    g = np.zeros((n1 + n2, n1 + n2))
    g[:n1, :n1] = first.space.inner_product
    g[n1:, n1:] = second.space.inner_product
    c = np.zeros((n1 + n2,) * 3)
    c[:n1, :n1, :n1] = first.c
    c[n1:, n1:, n1:] = second.c
    return StructureConstants(InternalSpace(n1 + n2, g), c)
