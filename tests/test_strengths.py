import gc

import numpy as np
import pytest

from ymft import lie_core
from ymft.deformations import (family_general, family_solvable, family_su2,
                               make_deformation)
from ymft.forms import (COMPS, LieForm, adjoints, epsilon_dual, mark_leaf,
                        promote_form, random_field_config, tangent_parts)
from ymft.jets import EpsilonTower, JetAlgebra, JetRing, NilpotentExtension
from ymft.lie_core import InternalSpace
from ymft.strengths import (FieldConfig, SingularYError, YOperator,
                            _wedge_vol_factor, assemble_Y,
                            b_transpose_pairing, base_fields, block_metric,
                            compute_strengths, connection_curvature,
                            covariant_curl_H, invert_Y,
                            ring_matmul, ring_matvec, stack_pair,
                            substitution_residual_massive,
                            substitution_residual_massless)

from jet_reference import matrix_coupling, ref_mul

RING = JetRing(3)
CMAP = np.array([[0.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])


def su2_config(seed, amplitude=0.1):
    a_form, b_form = random_field_config(seed, amplitude, 3, 3, 3)
    return FieldConfig(a_form, b_form)


@pytest.mark.parametrize("dims", [(3, 3), (2, 1), (1, 4)])
def test_block_metric_matches_np_block(dims):
    n, m = dims
    rng = np.random.default_rng(n + 10 * m)
    ga, gb = rng.normal(size=(n, n)), rng.normal(size=(m, m))
    w2 = np.diag([_wedge_vol_factor(2, i) for i in range(len(COMPS[2]))])
    w3 = np.diag([_wedge_vol_factor(3, i) for i in range(len(COMPS[3]))])
    top, bottom = np.kron(ga, w2), np.kron(gb, w3)
    ref = np.block([[top, np.zeros((len(top), len(bottom)))],
                    [np.zeros((len(bottom), len(top))), bottom]])
    assert np.array_equal(block_metric(n, m, ga, gb), ref)
    assert np.array_equal(block_metric(n, m),
                          block_metric(n, m, np.eye(n), np.eye(m)))


def test_curvature_zero_and_abelian():
    zero_a, _ = random_field_config(0, 0.0, 3, 3, 3)
    assert connection_curvature(zero_a,
                                lie_core.levi_civita3()).max_abs() == 0.0
    a_form, _ = random_field_config(1, 0.2, 3, 3, 3)
    f_ab = connection_curvature(a_form, np.zeros((3, 3, 3)))
    assert (f_ab - a_form.d()).max_abs() == 0.0


def test_curvature_constant_potential_hand_oracle():
    # A^1 = c1 dx^1, A^2 = c2 dx^2 -> F^3 = eps^3_{12} c1 c2 dx^1 ^ dx^2
    c1, c2 = 0.4, -0.7
    comps = RING.zeros((3, 4))
    comps[0, 1] = RING.const(c1)
    comps[1, 2] = RING.const(c2)
    a_form = LieForm(RING, 1, comps)
    f_form = connection_curvature(a_form, lie_core.levi_civita3())
    idx12 = COMPS[2].index((1, 2))
    val = f_form.comps[2, idx12, 0]
    assert np.isclose(val, lie_core.levi_civita3()[2, 0, 1] * c1 * c2)
    others = f_form.comps.copy()
    others[2, idx12, 0] = 0.0
    assert np.abs(others).max() < 1e-15


def test_covariant_curl_plain_and_zero():
    a_form, b_form = random_field_config(2, 0.2, 3, 3, 3)
    h_plain = covariant_curl_H(a_form, b_form, np.zeros((3, 3, 3)))
    assert (h_plain - b_form.d()).max_abs() == 0.0
    zero_b = LieForm.zero(RING, 2, 3)
    assert covariant_curl_H(a_form, zero_b,
                            lie_core.levi_civita3()).max_abs() == 0.0


def test_curl_identity_covariant():
    # d H + j(A, H) - j(F, B) = 0 for the massive family couplings
    ds = family_su2(2.0, 0.5)
    cfg = su2_config(5)
    f_form = connection_curvature(cfg.A, ds.a)
    h_form = covariant_curl_H(cfg.A, cfg.B, ds.j)
    resid = (h_form.d() + cfg.A.wedge(h_form, ds.j)
             - f_form.wedge(cfg.B, ds.j))
    assert resid.max_abs() < 1e-13


def zero_mass_set_with_j():
    """su2 massless with j = eps: the mass does not switch j off."""
    ds = family_su2(0.0, 0.7)
    return make_deformation(ds.space_a, ds.space_b, ds.a, ds.b,
                            lie_core.levi_civita3(), ds.k, ds.e, ds.mass.m)


@pytest.mark.parametrize("family", [
    lambda: family_su2(2.0, 0.5), lambda: family_su2(0.0, 0.7),
    lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP),
    lambda: family_general(massless_a=lie_core.su2(),
                           massless_b=lie_core.su2(),
                           massive=lie_core.abelian(1)),
    zero_mass_set_with_j],
    ids=["su2-massive", "su2-massless", "solvable", "general",
         "zero-mass-j"])
def test_strengths_solve_against_the_covariant_curl(family):
    ds = family()
    cfg = FieldConfig(*random_field_config(4, 0.1, 3, ds.space_a.dim,
                                           ds.space_b.dim))
    h_form = covariant_curl_H(cfg.A, cfg.B, ds.j)
    assert np.array_equal(compute_strengths(cfg, ds).H.comps, h_form.comps)


def test_assemble_y_identity_cases():
    ds = family_su2(0.0, 0.7)
    zero_a, zero_b = random_field_config(0, 0.0, 3, 3, 3)
    y = assemble_Y(FieldConfig(zero_a, zero_b), ds)
    eye = np.zeros_like(y.matrix)
    eye[..., 0] = np.eye(y.size)
    assert np.abs(y.matrix - eye).max() == 0.0
    # zero couplings give the identity for any config
    z = np.zeros
    ds0 = make_deformation(InternalSpace(3), InternalSpace(3), z((3, 3, 3)),
                           z((3, 3, 3)), z((3, 3, 3)), z((3, 3, 3)),
                           z((3, 3, 3)), z((3, 3)))
    y0 = assemble_Y(su2_config(3), ds0)
    eye0 = np.zeros_like(y0.matrix)
    eye0[..., 0] = np.eye(y0.size)
    assert np.abs(y0.matrix - eye0).max() == 0.0


@pytest.mark.parametrize("builder", [
    lambda: family_su2(0.0, 0.7),
    lambda: family_su2(2.0, 0.5),
    lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP),
])
def test_y_block_symmetry(builder):
    ds = builder()
    cfg = su2_config(7)
    y = assemble_Y(cfg, ds)
    assert y.symmetry_residual(ds.ga, ds.gb) < 1e-13


def strength_solver(cfg, ds):
    """The solver of Y(A, B) that the strengths use: on the base ring
    invert_Y(assemble_Y(...)); over an extended ring the base solver of the
    base blocks with the wedge couplings of the tangent blocks, no jet
    matrix over the extended ring.  The base ring takes no strengths, so
    that its solver runs at jet degree 0 too."""
    if cfg.ring.blocks == 1:
        return invert_Y(assemble_Y(cfg, ds))
    return compute_strengths(cfg, ds).y_inv


def inverse_matrix(inv):
    """Y^{-1} itself: the graded solve applied to the identity columns."""
    return inv.apply(inv.ring.const(np.eye(inv.yop.size)))


def roundtrip_residual(y, inv):
    """Max-abs of Y Y^{-1} - 1 and Y^{-1} Y - 1 over the ring, for the jet
    matrix y of Y, the oracle."""
    ring = inv.ring
    eye = ring.const(np.eye(len(y)))
    y_inv = inverse_matrix(inv)
    return float(max(np.abs(ring_matmul(ring, y, y_inv) - eye).max(),
                     np.abs(ring_matmul(ring, y_inv, y) - eye).max()))


def test_invert_roundtrip_and_determinism():
    ds = family_su2(0.0, 0.7)
    cfg = su2_config(11)
    y = assemble_Y(cfg, ds)
    inv = invert_Y(y)
    assert roundtrip_residual(y.matrix, inv) < 1e-12


def test_singular_y_raised_on_amplitude_scan():
    ds = family_su2(0.0, 0.7)
    raised = False
    for amplitude in (0.1, 1.0, 4.0, 10.0, 40.0):
        cfg = su2_config(1, amplitude)
        y = assemble_Y(cfg, ds)
        try:
            invert_Y(y)
        except SingularYError:
            raised = True
            break
    assert raised


def test_gate_is_the_normalized_determinant():
    # Y0 = diag(1, ..., 1, t): |det(Y0 / ||Y0||_2)| = t, one side of the
    # threshold or the other
    ring, size = JetRing(2), 30
    for t, passes in ((2e-8, True), (0.5e-8, False)):
        yop = YOperator(ring, 3, 3, ring.const(np.diag([1.0] * 29 + [t])))
        if passes:
            invert_Y(yop)
        else:
            with pytest.raises(SingularYError, match="5.000e-09"):
                invert_Y(yop)
    # the inverse is the inverse of Y0 to roundoff
    y = assemble_Y(su2_config(3), family_su2(2.0, 0.5))
    y0_inv = invert_Y(y).y0_inv
    assert np.abs(y0_inv @ y.constant_block() - np.eye(size)).max() < 1e-14


def test_solvers_of_extended_rings_start_from_the_base_ring():
    # Y over an extended ring is never inverted, and the reverse pass's
    # transpose is a base-ring solver
    ds = family_su2(2.0, 0.5)
    cfg = _nilpotent_config(NilpotentExtension(3, 2), 5)
    with pytest.raises(ValueError, match="base ring"):
        invert_Y(assemble_Y(cfg, ds))
    inv = strength_solver(cfg, ds)
    assert inv.yop.ring.blocks == 1 and inv.ring is cfg.ring
    with pytest.raises(ValueError, match="base-ring solver"):
        inv.transpose()


def test_zero_direction_gives_exact_zero_tangent_strengths():
    ds = family_su2(2.0, 0.5)
    a_form, b_form = random_field_config(4, 0.1, 3, 3, 3)
    a_dir, b_dir = random_field_config(5, 0.1, 3, 3, 3)
    ring = NilpotentExtension(3, 2)
    base = compute_strengths(FieldConfig(a_form, b_form), ds)
    cfg = FieldConfig(promote_form(a_form, ring, [None, a_dir]),
                      promote_form(b_form, ring, [None, b_dir]))
    for pair in (compute_strengths(cfg, ds),
                 compute_strengths(cfg, ds, base)):
        zero_p, moved_p = tangent_parts(pair.P)
        zero_q, moved_q = tangent_parts(pair.Q)
        assert not zero_p.comps.any() and not zero_q.comps.any()
        assert moved_p.max_abs() > 0 and moved_q.max_abs() > 0


def test_strengths_zero_config_and_trivial_y():
    ds = family_su2(2.0, 0.5)
    zero_a, zero_b = random_field_config(0, 0.0, 3, 3, 3)
    pair = compute_strengths(FieldConfig(zero_a, zero_b), ds)
    assert pair.P.max_abs() == 0.0 and pair.Q.max_abs() == 0.0
    # b = k = 0: P = F and Q = H exactly
    z = np.zeros
    ds0 = make_deformation(InternalSpace(3), InternalSpace(3),
                           lie_core.levi_civita3(), z((3, 3, 3)),
                           z((3, 3, 3)), z((3, 3, 3)), z((3, 3, 3)),
                           z((3, 3)))
    cfg = su2_config(4)
    pair = compute_strengths(cfg, ds0)
    assert (pair.P - pair.F).max_abs() < 1e-14
    assert (pair.Q - pair.H).max_abs() < 1e-14


@pytest.mark.parametrize("builder,seed", [
    (lambda: family_su2(0.0, 0.7), 11),
    (lambda: family_su2(2.0, 0.5), 11),
    (lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP), 12),
    (lambda: family_general(massless_a=lie_core.su2(),
                            massless_b=lie_core.su2(), h0=np.eye(3),
                            massive=lie_core.abelian(1), mass_value=1.5),
     13),
])
def test_defining_relations_hold_after_solve(builder, seed):
    ds = builder()
    a_form, b_form = random_field_config(seed, 0.1, 3, ds.space_a.dim,
                                         ds.space_b.dim)
    cfg = FieldConfig(a_form, b_form)
    pair = compute_strengths(cfg, ds)
    assert pair.defining_residual(cfg, ds) < 1e-11


def test_connection_curvature():
    omega, _ = random_field_config(9, 0.2, 3, 3, 3)
    assert connection_curvature(
        LieForm.zero(RING, 1, 3), lie_core.su2()).max_abs() == 0.0
    r_ab = connection_curvature(omega, lie_core.abelian(3))
    assert (r_ab - omega.d()).max_abs() == 0.0


@pytest.mark.parametrize("builder", [
    lambda: family_su2(0.0, 0.7),
    lambda: family_su2(2.0, 0.5),
    lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP),
])
def test_substitution_identity_massless_form(builder):
    ds = builder()
    cfg = su2_config(6)
    pair = compute_strengths(cfg, ds)
    assert substitution_residual_massless(pair, cfg, ds) < 1e-10


def test_substitution_identity_massive_form():
    ds = family_su2(2.0, 0.5)
    cfg = su2_config(8)
    pair = compute_strengths(cfg, ds)
    assert substitution_residual_massive(pair, cfg, ds) < 1e-10


def test_linearization_of_strengths():
    # order-eps part of (P, Q) for (eps A, eps B) is exactly (dA, dB/curl)
    from ymft.forms import tangent_parts
    for mass, lam in ((0.0, 0.7), (2.0, 0.5)):
        ds = family_su2(mass, lam)
        dual = NilpotentExtension(3, 1)
        a_form, b_form = random_field_config(21, 0.1, 3, 3, 3)
        za = LieForm.zero(RING, 1, 3)
        zb = LieForm.zero(RING, 2, 3)
        cfg = FieldConfig(promote_form(za, dual, [a_form]),
                          promote_form(zb, dual, [b_form]))
        pair = compute_strengths(cfg, ds)
        [lin_p] = tangent_parts(pair.P)
        [lin_q] = tangent_parts(pair.Q)
        assert (lin_p - a_form.d()).max_abs() < 1e-13
        assert (lin_q - b_form.d()).max_abs() < 1e-13


def test_y_conditioning_at_default_amplitude():
    ds = family_su2(0.0, 0.7)
    for seed in range(20):
        y = assemble_Y(su2_config(seed), ds)
        scale = np.linalg.norm(y.constant_block(), 2)
        assert abs(np.linalg.det(y.constant_block() / scale)) > 1e-8


# ---------------------------------------------------------------------------
# reference implementations: the K-loop ring product, probing assembly and
# the full Neumann inverse


def loop_ring_matmul(ring, a, b):
    """(N, K, w) x (K, M, w) -> (N, M, w), one ring multiply per inner index."""
    out = np.zeros((a.shape[0], b.shape[1], ring.width))
    for l in range(a.shape[1]):
        out += ref_mul(ring, a[:, l, None, :], b[None, l, :, :])
    return out


def loop_ring_matvec(ring, a, v):
    out = np.zeros((a.shape[0], ring.width))
    for l in range(a.shape[1]):
        out += ref_mul(ring, a[:, l, :],
                       np.broadcast_to(v[l], a[:, l, :].shape))
    return out


def probing_assemble_Y(config, ds):
    """Y built column by column from the defining relations on basis pairs."""
    ring = config.ring
    n, m = ds.space_a.dim, ds.space_b.dim
    n_p, n_q = n * len(COMPS[2]), m * len(COMPS[3])
    matrix = ring.const(np.eye(n_p + n_q))
    b_t = b_transpose_pairing(ds)
    col = 0
    for a in range(n):
        for i in range(len(COMPS[2])):
            basis = LieForm.basis(ring, 2, n, a, i)
            img_q = epsilon_dual(basis).wedge(config.A, b_t).scale(-1.0)
            matrix[n_p:, col] += img_q.comps.reshape(n_q, -1)
            col += 1
    for a in range(m):
        for i in range(len(COMPS[3])):
            basis = LieForm.basis(ring, 3, m, a, i)
            star = epsilon_dual(basis)
            img_p = star.wedge(config.A, ds.b).scale(-1.0)
            img_q = star.wedge(config.B, ds.k).scale(-1.0)
            matrix[:n_p, col] += img_p.comps.reshape(n_p, -1)
            matrix[n_p:, col] += img_q.comps.reshape(n_q, -1)
            col += 1
    return YOperator(ring, n, m, matrix)


def neumann_inverse(yop):
    """Full Y^{-1}: a finite Neumann recursion over the ring.

    X_{k+1} = Y0^{-1}(1 - Yp X_k) is exact once the sweep count exceeds the
    nilpotency order of Yp; a nilpotent extension inverts the value block
    and sets each direction to -X_re Y_im X_re.
    """
    ring, size = yop.ring, yop.size
    if isinstance(ring, NilpotentExtension):
        base = JetRing(ring.degree)
        blocks = yop.matrix.reshape(size, size, ring.blocks, ring.base_width)
        x_re = neumann_inverse(YOperator(
            base, yop.dim_a, yop.dim_b,
            np.ascontiguousarray(blocks[..., 0, :])))
        out = np.zeros_like(blocks)
        out[..., 0, :] = x_re
        for i in range(ring.directions):
            y_im = np.ascontiguousarray(blocks[..., 1 + i, :])
            if y_im.any():
                out[..., 1 + i, :] = -ring_matmul(
                    base, x_re, ring_matmul(base, y_im, x_re))
        return out.reshape(size, size, ring.width)
    y0 = yop.constant_block()
    y0_inv = np.linalg.inv(y0)
    yp = yop.matrix.copy()
    yp[..., 0] -= y0
    x = np.zeros_like(yop.matrix)
    x[..., 0] = y0_inv
    for _ in range(ring.degree + ring.blocks - 1):
        x = -np.einsum("ab,b...->a...", y0_inv, ring_matmul(ring, yp, x))
        x[..., 0] += y0_inv
    return x


def _random_ring_array(rng, ring, shape, zero_blocks=()):
    x = rng.uniform(-1.0, 1.0, tuple(shape) + (ring.width,))
    blocks = x.reshape(tuple(shape) + (ring.blocks, ring.base_width))
    for blk in zero_blocks:
        blocks[..., blk, :] = 0.0
    return x


def _rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


PRODUCT_RINGS = [
    *(pytest.param(JetRing(d), (), id=f"jet-d{d}") for d in (*range(6), 8)),
    pytest.param(NilpotentExtension(3, 1), (), id="nil-d3x1"),
    pytest.param(NilpotentExtension(4, 3), (2,), id="nil-d4x3-zero-block"),
    pytest.param(NilpotentExtension(2, 60), (7, 30), id="nil-d2x60"),
    pytest.param(EpsilonTower(3, 3), (), id="eps-d3x3"),
]


@pytest.mark.parametrize("ring,zero_blocks", PRODUCT_RINGS)
def test_ring_matmul_matches_loop(ring, zero_blocks):
    rng = np.random.default_rng(ring.width)
    a = _random_ring_array(rng, ring, (5, 4), zero_blocks)
    b = _random_ring_array(rng, ring, (4, 3))
    assert _rel_err(ring_matmul(ring, a, b), loop_ring_matmul(ring, a, b)) \
        <= 1e-14
    # zero blocks on the right factor too, and exact zeros stay exact
    b0 = _random_ring_array(rng, ring, (4, 3), zero_blocks)
    out = ring_matmul(ring, np.zeros_like(a), b0)
    assert np.abs(out).max() == 0.0
    assert _rel_err(ring_matmul(ring, a, b0), loop_ring_matmul(ring, a, b0)) \
        <= 1e-14


@pytest.mark.parametrize("ring,zero_blocks", PRODUCT_RINGS)
def test_ring_matvec_matches_loop(ring, zero_blocks):
    rng = np.random.default_rng(ring.width + 1)
    a = _random_ring_array(rng, ring, (6, 5), zero_blocks)
    v = _random_ring_array(rng, ring, (5,))
    assert _rel_err(ring_matvec(ring, a, v), loop_ring_matvec(ring, a, v)) \
        <= 1e-14


def test_ring_matmul_y_sized_degree_4():
    # the shape of the su2 strength solve: 30 x 30 at jet degree 4
    ring = JetRing(4)
    rng = np.random.default_rng(4)
    a = _random_ring_array(rng, ring, (30, 30))
    b = _random_ring_array(rng, ring, (30, 30))
    assert _rel_err(ring_matmul(ring, a, b), loop_ring_matmul(ring, a, b)) \
        <= 1e-14


def mixed_family():
    return family_general(massless_a=lie_core.su2(),
                          massless_b=lie_core.su2(), h0=np.eye(3),
                          massive=lie_core.abelian(1), mass_value=1.5)


ASSEMBLY_FAMILIES = [
    pytest.param(lambda: family_su2(0.0, 0.7), id="su2-massless"),
    pytest.param(lambda: family_su2(2.0, 0.5), id="su2-massive"),
    pytest.param(lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP),
                 id="solvable"),
    pytest.param(mixed_family, id="mixed"),
]


@pytest.mark.parametrize("family", ASSEMBLY_FAMILIES)
@pytest.mark.parametrize("degree", [3, 4])
def test_assemble_y_equals_probing_on_jet_ring(family, degree):
    ds = family()
    a_form, b_form = random_field_config(17, 0.1, degree, ds.space_a.dim,
                                         ds.space_b.dim)
    cfg = FieldConfig(a_form, b_form)
    closed, probed = assemble_Y(cfg, ds), probing_assemble_Y(cfg, ds)
    assert np.abs(closed.matrix - probed.matrix).max() == 0.0


@pytest.mark.parametrize("family", ASSEMBLY_FAMILIES)
def test_assemble_y_equals_probing_on_extended_ring(family):
    ds = family()
    n, m = ds.space_a.dim, ds.space_b.dim
    a0, b0 = random_field_config(18, 0.1, 3, n, m)
    a1, b1 = random_field_config(19, 0.1, 3, n, m)
    a2, b2 = random_field_config(20, 0.1, 3, n, m)
    for ring in (NilpotentExtension(3, 2), NilpotentExtension(3, 60),
                 EpsilonTower(3, 2)):
        # A seeds the first and last blocks after the value, B the second
        # (and the middle one when there is room); the rest stay zero
        tangents = ring.blocks - 1
        along_a, along_b = [None] * tangents, [None] * tangents
        along_a[0], along_a[-1], along_b[1] = a1, a2, b1
        if tangents > 2:
            along_b[tangents // 2] = b2
        cfg = FieldConfig(promote_form(a0, ring, along_a),
                          promote_form(b0, ring, along_b))
        closed, probed = assemble_Y(cfg, ds), probing_assemble_Y(cfg, ds)
        assert np.abs(closed.matrix - probed.matrix).max() == 0.0


def test_invert_roundtrip_degree_4():
    ds = family_su2(2.0, 0.5)
    a_form, b_form = random_field_config(11, 0.1, 4, 3, 3)
    y = assemble_Y(FieldConfig(a_form, b_form), ds)
    assert roundtrip_residual(y.matrix, invert_Y(y)) < 1e-12


def test_invert_roundtrip_epsilon_tower():
    # fields with nonzero coefficients at every power of eps: the
    # matrix-free solve against the assembled tower Y
    ds = family_su2(0.0, 0.7)
    ring = EpsilonTower(3, 2)
    a_parts = [random_field_config(30 + i, 0.1, 3, 3, 3) for i in range(3)]
    a_co = np.stack([a.comps for a, _ in a_parts], axis=-2)
    b_co = np.stack([b.comps for _, b in a_parts], axis=-2)
    cfg = FieldConfig(LieForm(ring, 1, a_co.reshape(3, 4, -1)),
                      LieForm(ring, 2, b_co.reshape(3, 6, -1)))
    assert roundtrip_residual(assemble_Y(cfg, ds).matrix,
                              strength_solver(cfg, ds)) < 1e-12


# ---------------------------------------------------------------------------
# the graded solve against the Neumann inverse; over an extended ring the
# solve is matrix-free and the assembled Y is the oracle


def _random_config(rng, ring, n=3, m=3):
    """Fields with coefficients in [-0.1, 0.1] in every block of the ring."""
    return FieldConfig(
        LieForm(ring, 1, 0.1 * _random_ring_array(rng, ring, (n, 4))),
        LieForm(ring, 2, 0.1 * _random_ring_array(rng, ring, (m, 6))))


def _nilpotent_config(ring, seed):
    """A seeded in the first and last directions, every other tangent zero."""
    a0, b0 = random_field_config(seed, 0.1, ring.degree, 3, 3)
    a1, _ = random_field_config(seed + 1, 0.1, ring.degree, 3, 3)
    a2, _ = random_field_config(seed + 2, 0.1, ring.degree, 3, 3)
    along_a = [a1] + [None] * (ring.directions - 1)
    if ring.directions > 1:
        along_a[-1] = a2
    return FieldConfig(promote_form(a0, ring, along_a), promote_form(b0, ring))


SOLVE_RINGS = [
    *(pytest.param(JetRing(d), id=f"jet-d{d}") for d in range(6)),
    pytest.param(NilpotentExtension(3, 1), id="nil-d3x1"),
    pytest.param(NilpotentExtension(4, 60), id="nil-d4x60"),
    pytest.param(EpsilonTower(3, 2), id="eps-d3x2"),
]


def _solve_config(ring, seed):
    if isinstance(ring, NilpotentExtension):
        return _nilpotent_config(ring, seed)
    return _random_config(np.random.default_rng(seed), ring)


@pytest.mark.parametrize("ring", SOLVE_RINGS)
def test_apply_matches_neumann_inverse(ring):
    ds = family_su2(2.0, 0.5)
    cfg = _solve_config(ring, 40)
    yop = assemble_Y(cfg, ds)
    inv, ref = strength_solver(cfg, ds), neumann_inverse(yop)
    rng = np.random.default_rng(ring.width)
    vec = _random_ring_array(rng, ring, (yop.size,))
    cols = _random_ring_array(rng, ring, (yop.size, 3))
    assert _rel_err(inv.apply(vec), ring_matvec(ring, ref, vec)) <= 1e-13
    assert _rel_err(inv.apply(cols), ring_matmul(ring, ref, cols)) <= 1e-13


@pytest.mark.parametrize("ring", [JetRing(3), NilpotentExtension(2, 3),
                                  EpsilonTower(3, 2)],
                         ids=["jet-d3", "nil-d2x3", "eps-d3x2"])
def test_inverse_matrix_is_the_solve_of_identity_columns(ring):
    ds = family_solvable([1, 0, 0], [0, 0, 1], CMAP)
    cfg = _solve_config(ring, 50)
    assert _rel_err(inverse_matrix(strength_solver(cfg, ds)),
                    neumann_inverse(assemble_Y(cfg, ds))) <= 1e-13


@pytest.mark.parametrize("ring", [JetRing(4), NilpotentExtension(3, 4),
                                  EpsilonTower(3, 2)],
                         ids=["jet-d4", "nil-d3x4", "eps-d3x2"])
def test_solve_residual_multi_column(ring):
    ds = mixed_family()
    rng = np.random.default_rng(60)
    cfg = _random_config(rng, ring, ds.space_a.dim, ds.space_b.dim)
    yop = assemble_Y(cfg, ds)
    r = _random_ring_array(rng, ring, (yop.size, 5))
    x = strength_solver(cfg, ds).apply(r)
    assert np.abs(ring_matmul(ring, yop.matrix, x) - r).max() < 1e-12


@pytest.mark.parametrize("ring", [JetRing(8), NilpotentExtension(8, 3),
                                  EpsilonTower(8, 2)],
                         ids=["jet-d8", "nil-d8x3", "eps-d8x2"])
def test_solve_residual_degree_8(ring):
    # Y and its transpose at a jet degree where every level of the
    # right-looking solve has many pairs: Y by the strengths' solver, and
    # Y^T by the transpose of the base solver, the solver of the reverse
    # pass, with the coupling of Y^T's other blocks
    ds = family_su2(2.0, 0.5)
    cfg = _solve_config(ring, 80)
    y = assemble_Y(cfg, ds).matrix
    y_t = y.transpose(1, 0, 2)
    inv = strength_solver(cfg, ds)
    base_t = invert_Y(assemble_Y(base_fields(cfg), ds)).transpose()
    r = _random_ring_array(np.random.default_rng(81), ring, (len(y), 2))
    for matrix, solver in ((y, inv),
                           (y_t, base_t.over(ring,
                                             matrix_coupling(ring, y_t)))):
        x = solver.apply(r)
        assert np.abs(ring_matmul(ring, matrix, x) - r).max() < 1e-12
        assert np.abs(ring_matvec(ring, matrix, solver.apply(r[:, 0]))
                      - r[:, 0]).max() < 1e-12


def test_solve_work_follows_flags_not_values(monkeypatch):
    # A and B flagged live in every block, block 2 exactly zero: the solve
    # runs the products of the flags, the same as where block 2 is nonzero
    ring = NilpotentExtension(3, 2)
    ds = family_su2(2.0, 0.5)
    every = np.ones(ring.blocks, dtype=bool)
    rng = np.random.default_rng(72)
    a, b = (_random_ring_array(rng, ring, (3, k)) for k in (4, 6))
    r = _random_ring_array(rng, ring, (30, 2))
    shapes = []
    original = JetAlgebra.matmul_coeffs

    def recorded(self, x, y):
        shapes.append((x.shape, y.shape))
        return original(self, x, y)

    def solve_shapes(a, b):
        cfg = FieldConfig(LieForm(ring, 1, a, live=every),
                          LieForm(ring, 2, b, live=every))
        inv = strength_solver(cfg, ds)
        shapes.clear()
        monkeypatch.setattr(JetAlgebra, "matmul_coeffs", recorded)
        x = inv.apply(r)
        monkeypatch.undo()
        y = assemble_Y(cfg, ds).matrix
        assert np.abs(ring_matmul(ring, y, x) - r).max() < 1e-12
        return list(shapes)

    nonzero = solve_shapes(0.1 * a, 0.1 * b)
    for z in (a, b):
        ring.block_view(z)[..., 2, :] = 0.0
    assert nonzero and solve_shapes(0.1 * a, 0.1 * b) == nonzero


EXACT_RINGS = [JetRing(3), NilpotentExtension(3, 4), EpsilonTower(2, 3)]
EXACT_IDS = ["jet-d3", "nil-d3x4", "eps-d2x3"]


@pytest.mark.parametrize("ring", EXACT_RINGS, ids=EXACT_IDS)
def test_solve_zero_rhs_is_exact_zero(ring):
    ds = family_su2(2.0, 0.5)
    inv = strength_solver(_random_config(np.random.default_rng(70), ring), ds)
    zero = np.zeros((inv.yop.size, 2, ring.width))
    assert np.abs(inv.apply(zero)).max() == 0.0
    assert np.abs(inv.apply(zero[:, 0])).max() == 0.0


@pytest.mark.parametrize("ring", EXACT_RINGS, ids=EXACT_IDS)
def test_solve_identity_y_returns_rhs(ring):
    # zero couplings: Y is the identity for any fields in every block
    size, z = 30, np.zeros
    ds0 = make_deformation(InternalSpace(3), InternalSpace(3), z((3, 3, 3)),
                           z((3, 3, 3)), z((3, 3, 3)), z((3, 3, 3)),
                           z((3, 3, 3)), z((3, 3)))
    cfg = _random_config(np.random.default_rng(72), ring)
    assert np.array_equal(assemble_Y(cfg, ds0).matrix,
                          ring.const(np.eye(size)))
    r = _random_ring_array(np.random.default_rng(71), ring, (size, 3))
    inv = strength_solver(cfg, ds0)
    assert np.abs(inv.apply(r) - r).max() == 0.0
    assert np.abs(inv.apply(r[:, 1]) - r[:, 1]).max() == 0.0


# ---------------------------------------------------------------------------
# the recorded strength solve: <x_bar, J x_dot> = <J^T x_bar, x_dot> in the
# ring pairing, J x_dot from a one-direction nilpotent pass


def ring_dot(ring, u, v):
    return ref_mul(ring, u, v).reshape(-1, ring.width).sum(axis=0)


LEAVES = ("A", "B", "dA", "dB")


def marked_config(ds, degree, seed, marked=LEAVES):
    """Random fields with those of A, B, dA and dB named in ``marked``
    marked as independent leaves."""
    a_form, b_form = random_field_config(seed, 0.1, degree, ds.space_a.dim,
                                         ds.space_b.dim)
    fields = {"A": a_form, "B": b_form, "dA": a_form.d(), "dB": b_form.d()}
    fields = {name: mark_leaf(f) if name in marked else f
              for name, f in fields.items()}
    config = FieldConfig(fields["A"], fields["B"])
    config.dA, config.dB = fields["dA"], fields["dB"]
    return config


ADJOINT_FAMILIES = [
    pytest.param(lambda: family_su2(2.0, 0.5), id="su2-massive"),
    pytest.param(lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP),
                 id="solvable"),
    pytest.param(mixed_family, id="mixed"),
]
# every family with all four leaves marked, as the Euler-Lagrange pass
# marks them, and one with B and dA only: Y then depends on a field, A,
# whose blocks the solve's adjoint skips
ADJOINT_CASES = [pytest.param(*case.values, LEAVES, id=case.id)
                 for case in ADJOINT_FAMILIES] + [
    pytest.param(mixed_family, ("B", "dA"), id="mixed-B-dA")]


@pytest.mark.parametrize("family", ADJOINT_FAMILIES)
@pytest.mark.parametrize("degree", [3, 5])
def test_strength_solve_adjoint_is_the_transpose(family, degree):
    ds = family()
    config = marked_config(ds, degree, seed=degree)
    pair = compute_strengths(config, ds)
    solve, = pair.P.node.parents
    assert pair.Q.node.parents == (solve,)
    assert solve.parents == (config.A.node, config.B.node, pair.F.node,
                             pair.H.node)
    rng = np.random.default_rng(degree)
    ring = config.ring
    a_dot, b_dot = (rng.uniform(-1, 1, f.comps.shape)
                    for f in (config.A, config.B))
    r = stack_pair(pair.F, pair.H)
    r_dot = rng.uniform(-1, 1, r.shape)
    x_bar = rng.uniform(-1, 1, r.shape)
    a_bar, b_bar, f_bar, h_bar = solve.backward(x_bar)
    # x + eps x_dot = Y(A + eps A_dot, B + eps B_dot)^{-1} (r + eps r_dot)
    dual = NilpotentExtension(degree, 1)
    lifted = FieldConfig(LieForm(dual, 1, dual.promote(config.A.comps,
                                                       [a_dot])),
                         LieForm(dual, 2, dual.promote(config.B.comps,
                                                       [b_dot])))
    # both solves run to the order of P and Q, and the identity holds in
    # the ring pairing within it
    order = pair.P.order
    x = strength_solver(lifted, ds).apply(dual.promote(r, [r_dot]), order)
    x_dot = dual.block(x, 1)
    valid = ring.mask_up_to(order)
    assert np.all(x_dot[:, ~valid] == 0.0)
    lhs = ring_dot(ring, x_bar, x_dot)[valid]
    terms = [ring_dot(ring, a_bar, a_dot), ring_dot(ring, b_bar, b_dot),
             ring_dot(ring, np.concatenate([f_bar.reshape(-1, ring.width),
                                            h_bar.reshape(-1, ring.width)]),
                      r_dot)]
    terms = [term[valid] for term in terms]
    scale = max(np.abs(term).max() for term in [lhs] + terms)
    assert scale > 0.1
    assert np.abs(lhs - sum(terms)).max() <= 1e-14 * scale


@pytest.mark.parametrize("family,marked", ADJOINT_CASES)
def test_strength_adjoints_match_forward_tangents(family, marked):
    # the whole of compute_strengths, from (A, B, dA, dB) to P and to Q;
    # a leaf that is not marked gets no adjoint and is held fixed
    ds = family()
    config = marked_config(ds, 3, seed=8, marked=marked)
    pair = compute_strengths(config, ds)
    leaves = [config.A, config.B, config.dA, config.dB]
    rng = np.random.default_rng(9)
    dots = [rng.uniform(-1, 1, f.comps.shape) if f.node is not None
            else np.zeros(f.comps.shape) for f in leaves]
    dual = NilpotentExtension(3, 1)
    lifted = [LieForm(dual, f.p, dual.promote(f.comps, [t]))
              for f, t in zip(leaves, dots)]
    lifted_config = FieldConfig(lifted[0], lifted[1])
    lifted_config.dA, lifted_config.dB = lifted[2], lifted[3]
    lifted_pair = compute_strengths(lifted_config, ds)
    ring = config.ring
    for out, lifted_out in ((pair.P, lifted_pair.P), (pair.Q, lifted_pair.Q)):
        y_dot, = tangent_parts(lifted_out)
        y_bar = rng.uniform(-1, 1, out.comps.shape)
        # the tangents and the adjoints are valid to the order of the
        # output, and are compared within it
        valid = ring.mask_up_to(out.order)
        lhs = ring_dot(ring, y_bar, y_dot.comps)[valid]
        terms = [ring_dot(ring, adj, t)[valid] for adj, t in
                 zip(adjoints(out, leaves, y_bar), dots)]
        scale = max(np.abs(term).max() for term in [lhs] + terms)
        assert np.abs(lhs - sum(terms)).max() <= 1e-14 * scale


@pytest.mark.parametrize("family", ADJOINT_FAMILIES)
def test_strength_solve_and_its_adjoint_run_no_scalar_jet_products(
        family, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar jet product in the strength solve")

    ds = family()
    config = marked_config(ds, 4, seed=10)
    leaves = [config.A, config.B, config.dA, config.dB]
    monkeypatch.setattr(JetAlgebra, "mul_coeffs", refuse)
    pair = compute_strengths(config, ds)
    rng = np.random.default_rng(11)
    for out in (pair.P, pair.Q):
        seed = rng.uniform(-1, 1, out.comps.shape)
        assert all(np.abs(adj).max() > 0
                   for adj in adjoints(out, leaves, seed))


def test_recorded_solve_makes_no_reference_cycle():
    # the record of the solve holds the forms it reads, not those whose
    # nodes it makes: a cycle through P or Q would keep the arrays of every
    # pass alive until a full collection
    ds = family_su2(2.0, 0.5)
    gc.collect()
    gc.disable()
    try:
        config = marked_config(ds, 3, seed=12)
        pair = compute_strengths(config, ds)
        adjoints(pair.P, [config.A, config.B],
                 np.ones(pair.P.comps.shape))
        del config, pair
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unmarked_solve_records_nothing():
    pair = compute_strengths(su2_config(1), family_su2(2.0, 0.5))
    assert all(form.node is None for form in (pair.P, pair.Q, pair.starP,
                                              pair.starQ, pair.F, pair.H))
