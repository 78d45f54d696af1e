"""Curvatures, the strength operator Y(A, B), and the nonlinear strengths.

The pair (P, Q) of nonlinear field strengths is defined implicitly by

    P^a  - b^a_{b'c} *Q^{b'} ^ A^c                                    = F^a
    Q^{a'} - b_b{}^{a'}{}_c *P^b ^ A^c - k^{a'}_{b'c'} *Q^{b'} ^ B^{c'} = H^{a'}

with F = dA + (1/2) a(A, A) and H = dB (+ j(A, B) in the covariant-curl
variants).  Stacking the component functions of an (A-valued 2-form,
A'-valued 3-form) pair into a vector of length 6n + 4n' turns the left side
into a square matrix Y = 1 + (terms linear in A, B) over the jet ring.

Y - 1 is three wedges of the dualised unknown, -(c_2 *P) ^ A, -(c_3 *Q) ^ A
and -(c_3 *Q) ^ B (:func:`_y_blocks`).  On the base ring each coupling
block is the jet matrix of one of them (:func:`ymft.forms.dual_wedge_matrix`,
no jet products), the Hodge dual of the unknown's components folded into
its constants.  Y is never inverted: the inverse Y0^{-1} of its
constant block is formed once, and the ring solves Y x = r right-looking,
one degree level of the jet at a time (:meth:`ymft.jets.JetRing.solve`),
up to the valid order of r = (F, H).  Invertibility of the constant block
is exactly the det(Y) != 0 restriction on admissible field configurations.

Y is assembled, gated and inverted on the base ring only.  It is affine in
the fields, so over an extended ring (a tangent ring of the identity
checks) block i of Y is the same three wedges with block i of A and B,
and the solve needs it only as the product Y_i x_j with solved blocks of
x: x_0 is the base solution and each later
wave of blocks solves with the base solver against r minus those products,
forward mode through a linear solve (Griewank & Walther, *Evaluating
Derivatives*, ch. 15).  The products are wedges of the tangent fields with
the dual of x, so no jet matrix over an extended ring is formed.  The base
solution and its solver come from the strengths of the base blocks of the
fields, those of the seed when the caller has them.

On marked fields (see :mod:`ymft.forms`) the solve is one recorded node of
the reverse sweep, on the base ring: its adjoint solves with the transpose
of Y, then adds per coupling block the adjoint of the wedge's right
factor, A or B (:func:`ymft.forms.wedge_adjoint`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .deformations import DeformationSet
from .forms import (COMPS, HODGE_TABLE, WEDGE_TABLE, LieForm, Node,
                    base_part, dual_wedge_matrix, epsilon_dual, wedge_adjoint)


class SingularYError(RuntimeError):
    """The constant block of Y(A, B) is numerically singular."""


DET_THRESHOLD = 1e-8


@dataclass
class FieldConfig:
    """A degree-1 form A on the first space and a degree-2 form B on the
    second, with their derivative slots dA and dB.

    The slots default to A.d() and B.d(), taken on first use and kept.  The
    generic Euler-Lagrange pass assigns them independent marked leaves; the
    Lagrangians, strengths and field equations read dA and dB from here.
    """

    A: LieForm
    B: LieForm

    def __post_init__(self):
        if self.A.p != 1 or self.B.p != 2:
            raise ValueError("expected a 1-form and a 2-form")

    @property
    def ring(self):
        return self.A.ring

    @functools.cached_property
    def dA(self) -> LieForm:
        return self.A.d()

    @functools.cached_property
    def dB(self) -> LieForm:
        return self.B.d()


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
    """b_b{}^{a'}{}_c as a pairing [out A', left A, right A], computed once
    per set (:meth:`ymft.deformations.DeformationSet.kept`)."""
    return ds.kept("b_transpose", lambda: np.einsum(
        "pq,bqc->pbc", ds.space_b.inverse_metric, ds.b_low()))


def apply_linear(matrix: np.ndarray, form: LieForm) -> LieForm:
    """Apply an internal-space linear map to every component of a form."""
    if form.node is not None:
        raise ValueError("linear maps of marked forms are not recorded")
    comps = np.einsum("ap,p...->a...", np.asarray(matrix, dtype=float),
                      form.comps)
    return LieForm(form.ring, form.p, comps, form.order, form.live)


# ---------------------------------------------------------------------------
# ring-valued linear algebra


def ring_matmul(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, K, w) x (K, M, w) -> (N, M, w) over the jet ring."""
    return ring.matmul(a, b)


def ring_matvec(ring, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(N, K, w) x (K, w) -> (N, w) over the jet ring."""
    return ring_matmul(ring, a, v[:, None, :])[:, 0]


# ---------------------------------------------------------------------------
# the Y operator


class YOperator:
    """Matrix of Y(A, B) on stacked (A-valued 2-form, A'-valued 3-form) data.

    Row/column layout: P-block first (internal index major, then the six
    ordered 2-form components), Q-block after (four 3-form components).
    """

    def __init__(self, ring, dim_a: int, dim_b: int, matrix: np.ndarray):
        self.ring = ring
        self.dim_a = dim_a
        self.dim_b = dim_b
        self.matrix = matrix
        self.size = dim_a * len(COMPS[2]) + dim_b * len(COMPS[3])

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
    return sign * WEDGE_TABLE[(4 - p, p)][comp_dual, i, 0]


def block_metric(dim_a: int, dim_b: int, ga=None, gb=None) -> np.ndarray:
    """Matrix of <(P,Q),(P',Q')> = g_ab *P^a^P'^b + g'_{a'b'} *Q^{a'}^Q'^{b'}."""
    ga = np.eye(dim_a) if ga is None else np.asarray(ga, dtype=float)
    gb = np.eye(dim_b) if gb is None else np.asarray(gb, dtype=float)
    w2 = np.diag([_wedge_vol_factor(2, i) for i in range(len(COMPS[2]))])
    w3 = np.diag([_wedge_vol_factor(3, i) for i in range(len(COMPS[3]))])
    top, bottom = np.kron(ga, w2), np.kron(gb, w3)
    out = np.zeros((len(top) + len(bottom),) * 2)
    out[:len(top), :len(top)] = top
    out[len(top):, len(top):] = bottom
    return out


def stack_pair(p_form: LieForm, q_form: LieForm) -> np.ndarray:
    return np.concatenate([p_form.comps.reshape(-1, p_form.ring.width),
                           q_form.comps.reshape(-1, q_form.ring.width)])


def unstack_pair(ring, dim_a: int, dim_b: int, vec: np.ndarray, order: int,
                 live: np.ndarray | None = None):
    """The (P, Q) pair of a stacked vector, with live flags ``live`` over
    an extended ring (by default, read off the values)."""
    n_p = dim_a * len(COMPS[2])
    p_form = LieForm(ring, 2, vec[:n_p].reshape(dim_a, len(COMPS[2]), -1),
                     order, live)
    q_form = LieForm(ring, 3, vec[n_p:].reshape(dim_b, len(COMPS[3]), -1),
                     order, live)
    return p_form, q_form


def _y_blocks(ds: DeformationSet) -> list:
    """The coupling blocks of Y - 1, the wedges -(c_p *x) ^ field of the
    unknown x, as (rows, columns, degree p of x, field, pairing)."""
    n_p = ds.space_a.dim * len(COMPS[2])
    p_rows, q_rows = slice(0, n_p), slice(n_p, None)
    return [(q_rows, p_rows, 2, "A", b_transpose_pairing(ds)),
            (p_rows, q_rows, 3, "A", ds.b),
            (q_rows, q_rows, 3, "B", ds.k)]


def assemble_Y(config: FieldConfig, ds: DeformationSet) -> YOperator:
    """Identity plus the (A, B)-linear coupling blocks, in closed form.

    The column of Y - 1 for a basis P^a dx^I holds -b^T(c_2 *dx^I e_a, A) in
    the Q rows; the column for a basis Q^a dx^J holds -b(c_3 *dx^J e_a, A) in
    the P rows and -k(c_3 *dx^J e_a, B) in the Q rows (c_p the dual
    constants on ``CONVENTION``).  Each block (:func:`_y_blocks`) is minus
    the jet matrix of x -> (c_p *x) ^ A or B on p-forms x
    (:func:`ymft.forms.dual_wedge_matrix`).

    The matrix is a (size, size, width) view of (width, size, size)
    memory, the jet-matrix layout of :meth:`ymft.jets.JetAlgebra.push`, so
    the solve reads Y's coefficient prefix without copying it.

    The solvers use it on the base ring only (:func:`invert_Y`): over an
    extended ring Y is never formed, and the solve reads its blocks after
    the base block as wedges (:func:`_coupling`).  The assembly itself
    works on every ring, the oracle of that solve.
    """
    ring = config.ring
    n, m = ds.space_a.dim, ds.space_b.dim
    size = n * len(COMPS[2]) + m * len(COMPS[3])
    # built as (w, size, size), the layout of the jet matrices that the
    # solve's kernel takes, so that it reads a view
    coeffs = np.zeros((ring.width, size, size))
    coeffs[0] = np.eye(size)
    for rows, cols, p, field, pairing in _y_blocks(ds):
        coeffs[:, rows, cols] -= dual_wedge_matrix(p, getattr(config, field),
                                                   pairing)
    matrix = coeffs.transpose(1, 2, 0)
    return YOperator(ring, n, m, matrix)


def invert_Y(yop: YOperator) -> "YInverse":
    """Gate Y, over the base ring, on its constant block and return the
    graded solver for Y."""
    if yop.ring.blocks != 1:
        raise ValueError("invert_Y takes Y over the base ring; over an "
                         "extended ring the strengths solve from the base "
                         "solver (compute_strengths)")
    # the gate is the determinant of the unit-normalized block, from the
    # singular values s of Y0 alone: |det(Y0 / ||Y0||_2)| = prod(s / s_max)
    # (Golub & Van Loan, 2.4), which rejects both near-singular and badly
    # scaled constant parts.  Y0^{-1} comes from LU, not from the SVD's
    # vectors: V diag(1/s) U^T costs more and leaves Y0 Y0^{-1} - 1 ten
    # times larger (3e-15 against 3e-16 on the mixed family)
    y0 = yop.constant_block()
    s = np.linalg.svd(y0, compute_uv=False)
    det = np.prod(s / s[0]) if s[0] > 0 else 0.0
    if det <= DET_THRESHOLD:
        raise SingularYError(
            f"constant block of Y is singular (normalized |det| = "
            f"{det:.3e}); reduce the field amplitude")
    return YInverse(yop, np.linalg.inv(y0))


class YInverse:
    """Solves Y x = r order by order (:meth:`ymft.jets.JetRing.solve`);
    Y^{-1} itself is never formed.

    A solver holds Y over the base ring and Y0^{-1}.  Over an extended ring
    (:meth:`over`) Y is that base solver plus ``coupling``, the product of
    Y's blocks after the base block with solved blocks of x, taken from
    the fields rather than from a matrix (:func:`_coupling`).
    """

    def __init__(self, yop: YOperator, y0_inv: np.ndarray, ring=None,
                 coupling=None):
        self.yop = yop
        self.y0_inv = y0_inv
        self.ring = yop.ring if ring is None else ring
        self.coupling = coupling

    def over(self, ring, coupling) -> "YInverse":
        """The solver over ``ring`` of the Y whose base block is this
        solver's and whose other blocks act by ``coupling``."""
        return YInverse(self.yop, self.y0_inv, ring, coupling)

    def transpose(self) -> "YInverse":
        """The solver of Y^T, whose constant block has the inverse
        ``y0_inv.T``; base-ring solvers only (the reverse sweep runs on the
        base ring)."""
        if self.ring.blocks != 1:
            raise ValueError("only a base-ring solver has a transpose")
        yop = self.yop
        return YInverse(YOperator(yop.ring, yop.dim_a, yop.dim_b,
                                  yop.matrix.transpose(1, 0, 2)),
                        self.y0_inv.T)

    def apply(self, r: np.ndarray, order: int | None = None,
              known: np.ndarray | None = None) -> np.ndarray:
        """Solve Y x = r for r of shape (size, w) or (size, M, w), x valid
        to ``order`` (by default the ring degree) and exact 0.0 above;
        ``known`` is x's base block, when the caller has it."""
        return self.ring.solve(self.yop.matrix, self.y0_inv, r,
                               self.coupling, order, known)


@dataclass
class StrengthPair:
    """The solved strengths together with the ingredients that defined them."""

    P: LieForm
    Q: LieForm
    starP: LieForm
    starQ: LieForm
    F: LieForm
    H: LieForm
    y_inv: YInverse

    def defining_residual(self, config: FieldConfig,
                          ds: DeformationSet) -> float:
        """Substitute (P, Q) back into the implicit definitions."""
        lhs_p = self.P - self.starQ.wedge(config.A, ds.b) - self.F
        lhs_q = (self.Q - self.starP.wedge(config.A, b_transpose_pairing(ds))
                 - self.starQ.wedge(config.B, ds.k) - self.H)
        return max(lhs_p.max_abs(), lhs_q.max_abs())


def compute_strengths(config: FieldConfig, ds: DeformationSet,
                      base: StrengthPair | None = None) -> StrengthPair:
    """Solve the implicit strength definitions for (P, Q).

    The 3-form strength on the right-hand side is the plain curl dB at
    zero mass and the covariant curl dB + j(A, B) otherwise, the only
    consistent choice for the built-in families (the mass-j link forces
    j = 0 at zero mass).  dA and dB are the derivative slots of
    ``config``.

    Over an extended ring, ``base`` is the strengths of the base blocks of
    the fields (by default solved here from them): their P and Q are the
    base block of the result, and the tangent blocks are solved with their
    solver (see :class:`YInverse`).
    """
    return _strengths(config, ds, None, base)


def recorded_strengths(config: FieldConfig, ds: DeformationSet,
                       solved: StrengthPair) -> StrengthPair:
    """The strengths ``solved`` of the values of ``config`` over its
    marked fields, recording the solve of ``solved`` without running it."""
    return _strengths(config, ds, solved)


def _strengths(config: FieldConfig, ds: DeformationSet,
               solved: StrengthPair | None,
               base: StrengthPair | None = None) -> StrengthPair:
    f_form = config.dA + config.A.wedge(config.A, ds.a).scale(0.5)
    h_form = config.dB
    if not ds.mass.is_zero():
        h_form = h_form + config.A.wedge(config.B, ds.j)
    order = min(f_form.order, h_form.order)
    if solved is not None:
        yinv, vec = solved.y_inv, stack_pair(solved.P, solved.Q)
    elif config.ring.blocks == 1:
        yinv = invert_Y(assemble_Y(config, ds))
        vec = yinv.apply(stack_pair(f_form, h_form), order)
    else:
        if base is None:
            base = _strengths(base_fields(config), ds, None)
        yinv = base.y_inv.over(config.ring, _coupling(config, ds))
        vec = yinv.apply(stack_pair(f_form, h_form), order,
                         stack_pair(base.P, base.Q))
    p_form, q_form = unstack_pair(config.ring, ds.space_a.dim,
                                  ds.space_b.dim, vec, order)
    _record_solve(config, ds, f_form, h_form, yinv, vec, p_form, q_form)
    return StrengthPair(p_form, q_form,
                        epsilon_dual(p_form), epsilon_dual(q_form),
                        f_form, h_form, yinv)


def base_fields(config: FieldConfig) -> FieldConfig:
    """The base blocks of the fields and derivative slots of ``config``,
    over the base ring."""
    out = FieldConfig(base_part(config.A), base_part(config.B))
    out.dA, out.dB = base_part(config.dA), base_part(config.dB)
    return out


def _coupling(config: FieldConfig, ds: DeformationSet):
    """Y's blocks after the base block, over the extended ring of
    ``config``, as the coupling of :meth:`ymft.jets.JetRing.solve`.

    Y is affine in the fields, so those blocks are the wedges of
    :func:`_y_blocks` with the tangent parts of the fields alone, A and B
    with the base block zeroed and flagged dead: per column of x, the
    product is -(c_p *x[cols]) ^ t in the rows of the block, for t the
    tangent part of its field.  t is the left factor, (-1)^(pq) t ^ (c_p
    *x[cols]) with the swapped pairing, so that the block product runs one
    step per solved block of x, not one per tangent block of the field.
    """
    ring = config.ring
    tangent = {}
    for name in "AB":
        field = getattr(config, name)
        comps = field.comps.copy()
        ring.block_view(comps)[..., 0, :] = 0.0
        tangent[name] = LieForm(ring, field.p, comps, field.order,
                                field.live & (np.arange(ring.blocks) > 0))
    terms = [(rows, p, tangent[name], pairing.transpose(0, 2, 1)
              * (-1.0) ** ((4 - p) * tangent[name].p))
             for rows, _, p, name, pairing in _y_blocks(ds)]

    def coupling(x: np.ndarray, live: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros(x.shape)
        for col in range(x.shape[1]):
            duals = {f.p: epsilon_dual(f) for f in unstack_pair(
                ring, ds.space_a.dim, ds.space_b.dim, x[:, col], order,
                live)}
            for rows, p, field, swap in terms:
                out[rows, col] -= field.wedge(duals[p], swap).comps.reshape(
                    -1, ring.width)
        return out

    return coupling


def _record_solve(config: FieldConfig, ds: DeformationSet, f_form: LieForm,
                  h_form: LieForm, yinv: YInverse, x: np.ndarray,
                  p_form: LieForm, q_form: LieForm) -> None:
    """Record the solve x = Y(A, B)^{-1} r, r = (F, H), as one node and
    give P and Q the nodes of their rows of x; nothing when none of A, B,
    F, H is recorded.  Marked fields live on the base ring, where ``yinv``
    is Y's own solver.

    With the adjoint x_bar of x: r_bar = Y^{-T} x_bar (the solver of the
    transpose) and Y_bar = -r_bar x^T.  A block of Y - 1 is the wedge
    -(c_p *x[cols]) ^ field, so the signs cancel: the field's adjoint adds
    that of the right factor of (c_p *x[cols]) ^ field, from r_bar[rows].
    """
    parents = (config.A.node, config.B.node, f_form.node, h_form.node)
    if all(node is None for node in parents):
        return
    ring, n_p = config.ring, p_form.n * len(COMPS[2])
    # the order of the forward solve, as an int: backward must not hold P
    # or Q, whose nodes lead back to it (a reference cycle)
    order = p_form.order
    # c_p *x, taken from P and Q before they are recorded
    duals = {f.p: epsilon_dual(f) for f in (p_form, q_form)}

    def backward(x_bar):
        r_bar = yinv.transpose().apply(x_bar, order)
        adj = dict.fromkeys("AB")
        for rows, _, p, field, pairing in _y_blocks(ds):
            right = getattr(config, field)
            if right.node is not None:
                seed = r_bar[rows].reshape(len(pairing), -1, ring.width)
                term = wedge_adjoint(duals[p], right, pairing, seed)
                adj[field] = term if adj[field] is None else adj[field] + term
        return (adj["A"], adj["B"], r_bar[:n_p].reshape(f_form.comps.shape),
                r_bar[n_p:].reshape(h_form.comps.shape))

    solve = Node(parents, backward)

    def rows_of(form, lo, hi):
        def place(g):
            x_bar = np.zeros(x.shape)
            x_bar[lo:hi] = g.reshape(hi - lo, -1)
            return (x_bar,)
        form.node = Node((solve,), place)

    rows_of(p_form, 0, n_p)
    rows_of(q_form, n_p, len(x))


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
    d_prime = config.dB - connection.wedge(config.B, adt_pairing)
    gamma_a = pair.starP.wedge(config.A, b_transpose_pairing(ds))
    return (pair.Q - d_prime - gamma_a).max_abs()
