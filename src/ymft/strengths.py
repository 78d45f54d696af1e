"""Curvatures, the strength operator Y(A, B), and the nonlinear strengths.

The pair (P, Q) of nonlinear field strengths is defined implicitly by

    P^a  - b^a_{b'c} *Q^{b'} ^ A^c                                    = F^a
    Q^{a'} - b_b{}^{a'}{}_c *P^b ^ A^c - k^{a'}_{b'c'} *Q^{b'} ^ B^{c'} = H^{a'}

with F = dA + (1/2) a(A, A) and H = dB (+ j(A, B) in the covariant-curl
variants).  Stacking the component functions of an (A-valued 2-form,
A'-valued 3-form) pair into a vector of length 6n + 4n' turns the left side
into a square matrix Y = 1 + (terms linear in A, B) over the jet ring.

Y - 1 is assembled in closed form: each coupling block is the pairing
tensor (b^T, b or k) contracted with a constant dual-then-wedge sign tensor
and with the coefficient arrays of A or B, elementwise over the whole ring
width, so assembly makes no jet products and works over every ring.  Y is
inverted order by order: LU on the constant coefficients, then a finite
Neumann recursion that terminates at the truncation degree, whose
ring-valued matrix products run one real matmul per output monomial and
per nonzero block pair of the ring.  Invertibility of the constant block is
exactly the det(Y) != 0 restriction on admissible field configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .deformations import DeformationSet
from .forms import (COMPS, CONVENTION, HODGE_TABLE, WEDGE_TABLE, LieForm,
                    MinkowskiConvention, epsilon_dual)
from .jets import NilpotentExtension


class SingularYError(RuntimeError):
    """The constant block of Y(A, B) is numerically singular."""


DET_THRESHOLD = 1e-8


@dataclass
class FieldConfig:
    """A degree-1 form on the first space and a degree-2 form on the second."""

    A: LieForm
    B: LieForm

    def __post_init__(self):
        if self.A.p != 1 or self.B.p != 2:
            raise ValueError("expected a 1-form and a 2-form")

    @property
    def ring(self):
        return self.A.ring


def curvature_F(A: LieForm, a_tensor: np.ndarray) -> LieForm:
    """F = dA + (1/2) a(A, A)."""
    return A.d() + A.wedge(A, np.asarray(a_tensor, dtype=float)).scale(0.5)


def covariant_curl_H(A: LieForm, B: LieForm, j_tensor: np.ndarray) -> LieForm:
    """H = dB + j(A, B); with j = 0 this is the plain curl."""
    return B.d() + A.wedge(B, np.asarray(j_tensor, dtype=float))


def connection_curvature(omega: LieForm, sc) -> LieForm:
    """R = d omega + (1/2)[omega, omega] for a degree-1 connection form."""
    if omega.p != 1:
        raise ValueError("connection form must have degree 1")
    c = sc.c if hasattr(sc, "c") else np.asarray(sc, dtype=float)
    return omega.d() + omega.wedge(omega, c).scale(0.5)


def b_transpose_pairing(ds: DeformationSet) -> np.ndarray:
    """b_b{}^{a'}{}_c as a pairing [out A', left A, right A]."""
    return np.einsum("pq,bqc->pbc", ds.space_b.inverse_metric, ds.b_low())


def apply_linear(matrix: np.ndarray, form: LieForm) -> LieForm:
    """Apply an internal-space linear map to every component of a form."""
    comps = np.einsum("ap,p...->a...", np.asarray(matrix, dtype=float),
                      form.comps)
    return LieForm(form.ring, form.p, comps, form.order)


# ---------------------------------------------------------------------------
# ring-valued linear algebra


def _ring_product(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, K, w) x (K, M, w) -> (N, M, w), one base kernel per block pair."""
    n, k, _ = a.shape
    m = b.shape[1]
    width = ring.base_width
    a_blocks = a.reshape(n, k, ring.blocks, width)
    b_blocks = b.reshape(k, m, ring.blocks, width)
    out = np.zeros((n, m, ring.blocks, width))
    for i, j, o in ring.block_pairs:
        x, y = a_blocks[:, :, i], b_blocks[:, :, j]
        if x.any() and y.any():
            out[:, :, o] += ring.algebra.matmul_coeffs(x, y)
    return out.reshape(n, m, ring.width)


def ring_matmul(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, K, w) x (K, M, w) -> (N, M, w) over the jet ring."""
    return _ring_product(ring, a, b)


def ring_matvec(ring, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(N, K, w) x (K, w) -> (N, w) over the jet ring."""
    return _ring_product(ring, a, v[:, None, :])[:, 0]


def apply_real(matrix: np.ndarray, ringmat: np.ndarray) -> np.ndarray:
    return np.einsum("ab,b...->a...", matrix, ringmat)


def _ring_identity(ring, size: int) -> np.ndarray:
    eye = np.zeros((size, size, ring.width))
    view = eye.reshape(size, size, ring.blocks, -1)
    view[..., 0, 0] = np.eye(size)
    return eye


# ---------------------------------------------------------------------------
# the Y operator


class YOperator:
    """Matrix of Y(A, B) on stacked (A-valued 2-form, A'-valued 3-form) data.

    Row/column layout: P-block first (internal index major, then the six
    ordered 2-form components), Q-block after (four 3-form components).
    """

    def __init__(self, ring, dim_a: int, dim_b: int, matrix: np.ndarray,
                 order: int, conv: MinkowskiConvention = CONVENTION):
        self.ring = ring
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.matrix = matrix
        self.order = order
        self.conv = conv
        self.n_p = dim_a * len(COMPS[2])
        self.n_q = dim_b * len(COMPS[3])
        self.size = self.n_p + self.n_q

    def constant_block(self) -> np.ndarray:
        return self.ring.constant_part(self.matrix)

    def det_constant(self) -> float:
        return float(np.linalg.det(self.constant_block()))

    def symmetry_residual(self, ga: np.ndarray, gb: np.ndarray) -> float:
        """Max-abs of G Y - (G Y)^T, G the block Hodge pairing metric."""
        g = block_metric(self.dim_a, self.dim_b, ga, gb)
        gy = np.einsum("ab,bcw->acw", g, self.matrix)
        return float(np.abs(gy - gy.transpose(1, 0, 2)).max())


def _wedge_vol_factor(p: int, i: int) -> float:
    """Scalar s with *e_i ^ e_i = s vol for the i-th ordered p-component."""
    comp_dual, sign = HODGE_TABLE[p][i]
    for a, b, _, s in WEDGE_TABLE[(4 - p, p)]:
        if a == comp_dual and b == i:
            return sign * s
    return 0.0


def block_metric(dim_a: int, dim_b: int, ga=None, gb=None) -> np.ndarray:
    """Matrix of <(P,Q),(P',Q')> = g_ab *P^a^P'^b + g'_{a'b'} *Q^{a'}^Q'^{b'}."""
    ga = np.eye(dim_a) if ga is None else np.asarray(ga, dtype=float)
    gb = np.eye(dim_b) if gb is None else np.asarray(gb, dtype=float)
    w2 = np.diag([_wedge_vol_factor(2, i) for i in range(len(COMPS[2]))])
    w3 = np.diag([_wedge_vol_factor(3, i) for i in range(len(COMPS[3]))])
    return scipy.linalg.block_diag(np.kron(ga, w2), np.kron(gb, w3))


def stack_pair(p_form: LieForm, q_form: LieForm) -> np.ndarray:
    return np.concatenate([p_form.comps.reshape(-1, p_form.ring.width),
                           q_form.comps.reshape(-1, q_form.ring.width)])


def unstack_pair(ring, dim_a: int, dim_b: int, vec: np.ndarray, order: int):
    n_p = dim_a * len(COMPS[2])
    p_form = LieForm(ring, 2, vec[:n_p].reshape(dim_a, len(COMPS[2]), -1),
                     order)
    q_form = LieForm(ring, 3, vec[n_p:].reshape(dim_b, len(COMPS[3]), -1),
                     order)
    return p_form, q_form


def _dual_wedge_signs(p: int, q: int, scale: float) -> np.ndarray:
    """S[i, j, k] with scale * (*dx^{I_i}) ^ dx^{J_j} = S[i, j, k] dx^{K_k}.

    I runs over the ordered p-components, J over the q-components and K over
    the (4 - p + q)-components; the Hodge dual comes from HODGE_TABLE and the
    wedge from WEDGE_TABLE.
    """
    wedge = {(i, j): (k, sign) for i, j, k, sign in WEDGE_TABLE[(4 - p, q)]}
    out = np.zeros((len(COMPS[p]), len(COMPS[q]), len(COMPS[4 - p + q])))
    for i, (dual, hodge_sign) in enumerate(HODGE_TABLE[p]):
        for j in range(len(COMPS[q])):
            if (dual, j) in wedge:
                k, sign = wedge[dual, j]
                out[i, j, k] = scale * hodge_sign * sign
    return out


def assemble_Y(config: FieldConfig, ds: DeformationSet,
               conv: MinkowskiConvention = CONVENTION) -> YOperator:
    """Identity plus the (A, B)-linear coupling blocks, in closed form.

    The column of Y - 1 for a basis P^a dx^I holds -b^T(c_2 *dx^I e_a, A) in
    the Q rows; the column for a basis Q^a dx^J holds -b(c_3 *dx^J e_a, A) in
    the P rows and -k(c_3 *dx^J e_a, B) in the Q rows (c_p the dual
    constants on ``conv``).  Each block is one real einsum of the pairing
    with a sign tensor from :func:`_dual_wedge_signs` and with the
    coefficient arrays of A or B over the whole ring width.
    """
    ring = config.ring
    n, m = ds.space_a.dim, ds.space_b.dim
    n_p, n_q = n * len(COMPS[2]), m * len(COMPS[3])
    c2 = conv.epsilon_dual_constants[2]
    c3 = conv.epsilon_dual_constants[3]
    a_co, b_co = config.A.comps, config.B.comps
    matrix = _ring_identity(ring, n_p + n_q)
    matrix[n_p:, :n_p] += np.einsum(
        "ijk,cab,bjw->ckaiw", _dual_wedge_signs(2, 1, -c2),
        b_transpose_pairing(ds), a_co).reshape(n_q, n_p, -1)
    matrix[:n_p, n_p:] += np.einsum(
        "ijk,cab,bjw->ckaiw", _dual_wedge_signs(3, 1, -c3), ds.b,
        a_co).reshape(n_p, n_q, -1)
    matrix[n_p:, n_p:] += np.einsum(
        "ijk,cab,bjw->ckaiw", _dual_wedge_signs(3, 2, -c3), ds.k,
        b_co).reshape(n_q, n_q, -1)
    order = min(config.A.order, config.B.order)
    return YOperator(ring, n, m, matrix, order, conv)


def invert_Y(yop: YOperator) -> "YInverse":
    ring = yop.ring
    if isinstance(ring, NilpotentExtension):
        return _invert_nilpotent(yop)
    y0 = yop.constant_block()
    # determinant test on the unit-normalized block: |det(Y0 / ||Y0||)|,
    # which rejects both near-singular and badly scaled constant parts
    scale = np.linalg.norm(y0, 2)
    det = np.linalg.det(y0 / scale) if scale > 0 else 0.0
    if abs(det) <= DET_THRESHOLD:
        raise SingularYError(
            f"constant block of Y is singular (normalized |det| = "
            f"{abs(det):.3e}); reduce the field amplitude")
    y0_inv = np.linalg.inv(y0)
    yp = yop.matrix.copy()
    yp[..., 0] -= y0
    # X_{k+1} = Y0^{-1}(1 - Yp X_k) is exact once the sweep count exceeds
    # the nilpotency order of Yp (jet degree plus any eps grading).
    sweeps = ring.degree + getattr(ring, "order_eps", 0)
    x = np.zeros_like(yop.matrix)
    x[..., 0] = y0_inv
    for _ in range(sweeps):
        x = -apply_real(y0_inv, ring_matmul(ring, yp, x))
        x[..., 0] += y0_inv
    return YInverse(yop, x)


def _invert_nilpotent(yop: YOperator) -> "YInverse":
    """(Y_re + eps Y_im)^-1 = X_re - eps X_re Y_im X_re, per direction."""
    ring: NilpotentExtension = yop.ring
    base = ring.base
    size = yop.size
    blocks = yop.matrix.reshape(size, size, ring.blocks, ring.base_width)
    y_re = YOperator(base, yop.dim_a, yop.dim_b,
                     np.ascontiguousarray(blocks[..., 0, :]), yop.order,
                     yop.conv)
    x_re = invert_Y(y_re).matrix
    out = np.zeros_like(blocks)
    out[..., 0, :] = x_re
    for i in range(ring.directions):
        y_im = np.ascontiguousarray(blocks[..., 1 + i, :])
        if not y_im.any():
            continue
        out[..., 1 + i, :] = -ring_matmul(
            base, x_re, ring_matmul(base, y_im, x_re))
    return YInverse(yop, out.reshape(size, size, ring.width))


class YInverse:
    def __init__(self, yop: YOperator, matrix: np.ndarray):
        self.yop = yop
        self.matrix = matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return ring_matvec(self.yop.ring, self.matrix, vec)

    def roundtrip_residual(self) -> float:
        ring = self.yop.ring
        eye = _ring_identity(ring, self.yop.size)
        prod = ring_matmul(ring, self.yop.matrix, self.matrix)
        prod2 = ring_matmul(ring, self.matrix, self.yop.matrix)
        return float(max(np.abs(prod - eye).max(), np.abs(prod2 - eye).max()))


@dataclass
class StrengthPair:
    """The solved strengths together with the ingredients that defined them."""

    P: LieForm
    Q: LieForm
    starP: LieForm
    starQ: LieForm
    F: LieForm
    H: LieForm
    y_op: YOperator
    y_inv: YInverse

    def defining_residual(self, config: FieldConfig,
                          ds: DeformationSet) -> float:
        """Substitute (P, Q) back into the implicit definitions."""
        lhs_p = self.P - self.starQ.wedge(config.A, ds.b) - self.F
        lhs_q = (self.Q - self.starP.wedge(config.A, b_transpose_pairing(ds))
                 - self.starQ.wedge(config.B, ds.k) - self.H)
        return max(lhs_p.max_abs(), lhs_q.max_abs())


def compute_strengths(config: FieldConfig, ds: DeformationSet,
                      conv: MinkowskiConvention = CONVENTION,
                      curl: str | None = None,
                      d_a: LieForm | None = None,
                      d_b: LieForm | None = None) -> StrengthPair:
    """Solve the implicit strength definitions for (P, Q).

    ``curl`` selects the 3-form strength on the right-hand side: 'plain'
    uses dB, 'covariant' uses dB + j(A, B).  The default follows the
    deformation set: covariant exactly when the mass tensor is nonzero,
    which is the only consistent choice for the built-in families (the
    mass-j link forces j = 0 at zero mass).

    ``d_a`` / ``d_b`` override the derivative slots dA and dB (the generic
    Euler-Lagrange machinery differentiates with respect to them); by
    default they are the exterior derivatives of A and B.
    """
    if curl is None:
        curl = "plain" if ds.mass.is_zero() else "covariant"
    if curl not in ("plain", "covariant"):
        raise ValueError(f"unknown curl mode {curl!r}")
    d_a = config.A.d() if d_a is None else d_a
    d_b = config.B.d() if d_b is None else d_b
    f_form = d_a + config.A.wedge(config.A, ds.a).scale(0.5)
    h_form = d_b
    if curl == "covariant":
        h_form = h_form + config.A.wedge(config.B, ds.j)
    yop = assemble_Y(config, ds, conv)
    yinv = invert_Y(yop)
    vec = yinv.apply(stack_pair(f_form, h_form))
    order = min(f_form.order, h_form.order)
    p_form, q_form = unstack_pair(config.ring, ds.space_a.dim,
                                  ds.space_b.dim, vec, order)
    return StrengthPair(p_form, q_form,
                        epsilon_dual(p_form, "2form", conv),
                        epsilon_dual(q_form, "3form", conv),
                        f_form, h_form, yop, yinv)


# ---------------------------------------------------------------------------
# substitution identities: independent geometric routes to the strengths


def substitution_residual_massless(pair: StrengthPair, config: FieldConfig,
                                   ds: DeformationSet) -> float:
    """P equals the curvature difference of the h-shifted connections.

    With b = ad(h(.)), the first defining relation is identically
    P = R_{A + h(*Q)} - R_{h(*Q)} for the first-space bracket; this route
    never touches the stored b tensor.
    """
    if ds.h_map is None:
        raise ValueError("deformation set has no h map")
    sc = ds.bracket_a()
    h_q = apply_linear(ds.h_map, pair.starQ)
    shifted = connection_curvature(config.A + h_q, sc)
    base = connection_curvature(h_q, sc)
    return (pair.P - shifted + base).max_abs()


def substitution_residual_massive(pair: StrengthPair, config: FieldConfig,
                                  ds: DeformationSet) -> float:
    """Q equals the covariant-curl route through the transpose adjoint maps.

    Q = D'_{A+*Q} B + Gamma'_{*P} A, where D'_X = d - adT'(h^{-1}A + *Q)
    acts through the transpose adjoint of the second-space bracket and
    Gamma' is the b-transpose coupling.  Needs invertible h (pure massive
    sets); the j and k couplings are reconstructed from the bracket and the
    inner products rather than read off the stored tensors.
    """
    if ds.h_map is None:
        raise ValueError("deformation set has no h map")
    h = ds.h_map
    if ds.space_a.dim != ds.space_b.dim or abs(np.linalg.det(h)) < 1e-12:
        raise ValueError("massive substitution identity needs invertible h")
    gb, gbinv = ds.space_b.inner_product, ds.space_b.inverse_metric
    cb = ds.bracket_b().c
    # adT'(e_x)[p, c] = g'^{pq} C'[z, x, q] g'_{zc}
    adt_pairing = np.einsum("pq,zxq,zc->pxc", gbinv, cb, gb)
    h_inv_a = apply_linear(np.linalg.inv(h), config.A)
    connection = h_inv_a + pair.starQ
    d_prime = config.B.d() - connection.wedge(config.B, adt_pairing)
    gamma_a = pair.starP.wedge(config.A, b_transpose_pairing(ds))
    return (pair.Q - d_prime - gamma_a).max_abs()
