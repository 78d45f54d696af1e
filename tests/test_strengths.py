import numpy as np
import pytest

from ymft import lie_core
from ymft.deformations import (family_general, family_solvable, family_su2,
                               make_deformation)
from ymft.forms import (COMPS, CONVENTION, LieForm, epsilon_dual,
                        random_field_config)
from ymft.jets import EpsilonTower, JetRing, NilpotentExtension
from ymft.lie_core import InternalSpace
from ymft.strengths import (FieldConfig, SingularYError, YOperator,
                            _ring_identity, assemble_Y, b_transpose_pairing,
                            compute_strengths, connection_curvature,
                            covariant_curl_H, curvature_F, invert_Y,
                            ring_matmul, ring_matvec,
                            substitution_residual_massive,
                            substitution_residual_massless)

RING = JetRing(3)
CMAP = np.array([[0.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]])


def su2_config(seed, amplitude=0.1):
    a_form, b_form = random_field_config(seed, amplitude, 3, 3, 3)
    return FieldConfig(a_form, b_form)


def test_curvature_zero_and_abelian():
    zero_a, _ = random_field_config(0, 0.0, 3, 3, 3)
    assert curvature_F(zero_a, lie_core.levi_civita3()).max_abs() == 0.0
    a_form, _ = random_field_config(1, 0.2, 3, 3, 3)
    f_ab = curvature_F(a_form, np.zeros((3, 3, 3)))
    assert (f_ab - a_form.d()).max_abs() == 0.0


def test_curvature_constant_potential_hand_oracle():
    # A^1 = c1 dx^1, A^2 = c2 dx^2 -> F^3 = eps^3_{12} c1 c2 dx^1 ^ dx^2
    c1, c2 = 0.4, -0.7
    comps = RING.zeros((3, 4))
    comps[0, 1] = RING.const(c1)
    comps[1, 2] = RING.const(c2)
    a_form = LieForm(RING, 1, comps)
    f_form = curvature_F(a_form, lie_core.levi_civita3())
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
    f_form = curvature_F(cfg.A, ds.a)
    h_form = covariant_curl_H(cfg.A, cfg.B, ds.j)
    resid = (h_form.d() + cfg.A.wedge(h_form, ds.j)
             - f_form.wedge(cfg.B, ds.j))
    assert resid.max_abs() < 1e-13


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


def test_invert_roundtrip_and_determinism():
    ds = family_su2(0.0, 0.7)
    cfg = su2_config(11)
    y = assemble_Y(cfg, ds)
    inv = invert_Y(y)
    assert inv.roundtrip_residual() < 1e-12


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
    from ymft.forms import direction_part, promote_form
    for mass, lam in ((0.0, 0.7), (2.0, 0.5)):
        ds = family_su2(mass, lam)
        dual = NilpotentExtension(3, 1)
        a_form, b_form = random_field_config(21, 0.1, 3, 3, 3)
        za = LieForm.zero(RING, 1, 3)
        zb = LieForm.zero(RING, 2, 3)
        cfg = FieldConfig(promote_form(za, dual, a_form),
                          promote_form(zb, dual, b_form))
        pair = compute_strengths(cfg, ds)
        lin_p = direction_part(pair.P, RING)
        lin_q = direction_part(pair.Q, RING)
        assert (lin_p - a_form.d()).max_abs() < 1e-13
        assert (lin_q - b_form.d()).max_abs() < 1e-13


def test_y_conditioning_at_default_amplitude():
    ds = family_su2(0.0, 0.7)
    for seed in range(20):
        y = assemble_Y(su2_config(seed), ds)
        scale = np.linalg.norm(y.constant_block(), 2)
        assert abs(np.linalg.det(y.constant_block() / scale)) > 1e-8


# ---------------------------------------------------------------------------
# reference implementations: the K-loop ring product and probing assembly


def loop_ring_matmul(ring, a, b):
    """(N, K, w) x (K, M, w) -> (N, M, w), one ring multiply per inner index."""
    out = np.zeros((a.shape[0], b.shape[1], ring.width))
    for l in range(a.shape[1]):
        out += ring.mul(a[:, l, None, :], b[None, l, :, :])
    return out


def loop_ring_matvec(ring, a, v):
    out = np.zeros((a.shape[0], ring.width))
    for l in range(a.shape[1]):
        out += ring.mul(a[:, l, :], np.broadcast_to(v[l], a[:, l, :].shape))
    return out


def probing_assemble_Y(config, ds, conv=CONVENTION):
    """Y built column by column from the defining relations on basis pairs."""
    ring = config.ring
    n, m = ds.space_a.dim, ds.space_b.dim
    n_p, n_q = n * len(COMPS[2]), m * len(COMPS[3])
    matrix = _ring_identity(ring, n_p + n_q)
    b_t = b_transpose_pairing(ds)
    col = 0
    for a in range(n):
        for i in range(len(COMPS[2])):
            basis = LieForm.basis(ring, 2, n, a, i)
            img_q = epsilon_dual(basis, "2form", conv).wedge(
                config.A, b_t).scale(-1.0)
            matrix[n_p:, col] += img_q.comps.reshape(n_q, -1)
            col += 1
    for a in range(m):
        for i in range(len(COMPS[3])):
            basis = LieForm.basis(ring, 3, m, a, i)
            star = epsilon_dual(basis, "3form", conv)
            img_p = star.wedge(config.A, ds.b).scale(-1.0)
            img_q = star.wedge(config.B, ds.k).scale(-1.0)
            matrix[:n_p, col] += img_p.comps.reshape(n_p, -1)
            matrix[n_p:, col] += img_q.comps.reshape(n_q, -1)
            col += 1
    order = min(config.A.order, config.B.order)
    return YOperator(ring, n, m, matrix, order, conv)


def _random_ring_array(rng, ring, shape, zero_blocks=()):
    x = rng.uniform(-1.0, 1.0, tuple(shape) + (ring.width,))
    blocks = x.reshape(tuple(shape) + (ring.blocks, ring.base_width))
    for blk in zero_blocks:
        blocks[..., blk, :] = 0.0
    return x


def _rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


PRODUCT_RINGS = [
    *(pytest.param(JetRing(d), (), id=f"jet-d{d}") for d in range(6)),
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


ASSEMBLY_FAMILIES = [
    pytest.param(lambda: family_su2(0.0, 0.7), id="su2-massless"),
    pytest.param(lambda: family_su2(2.0, 0.5), id="su2-massive"),
    pytest.param(lambda: family_solvable([1, 0, 0], [0, 0, 1], CMAP),
                 id="solvable"),
    pytest.param(lambda: family_general(massless_a=lie_core.su2(),
                                        massless_b=lie_core.su2(),
                                        h0=np.eye(3),
                                        massive=lie_core.abelian(1),
                                        mass_value=1.5), id="mixed"),
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
    assert closed.order == probed.order


@pytest.mark.parametrize("family", ASSEMBLY_FAMILIES)
def test_assemble_y_equals_probing_on_nilpotent_ring(family):
    from ymft.forms import promote_form
    ds = family()
    n, m = ds.space_a.dim, ds.space_b.dim
    ring = NilpotentExtension(3, 2)
    a0, b0 = random_field_config(18, 0.1, 3, n, m)
    a1, b1 = random_field_config(19, 0.1, 3, n, m)
    a2, _ = random_field_config(20, 0.1, 3, n, m)
    a_form = promote_form(a0, ring, a1, direction=0)
    a_form.comps.reshape(n, 4, 3, -1)[:, :, 2] = a2.comps
    cfg = FieldConfig(a_form, promote_form(b0, ring, b1, direction=1))
    closed, probed = assemble_Y(cfg, ds), probing_assemble_Y(cfg, ds)
    assert np.abs(closed.matrix - probed.matrix).max() == 0.0


def test_invert_roundtrip_degree_4():
    ds = family_su2(2.0, 0.5)
    a_form, b_form = random_field_config(11, 0.1, 4, 3, 3)
    inv = invert_Y(assemble_Y(FieldConfig(a_form, b_form), ds))
    assert inv.roundtrip_residual() < 1e-12


def test_invert_roundtrip_epsilon_tower():
    # fields with nonzero coefficients at every power of eps
    ds = family_su2(0.0, 0.7)
    ring = EpsilonTower(3, 2)
    a_parts = [random_field_config(30 + i, 0.1, 3, 3, 3) for i in range(3)]
    a_co = np.stack([a.comps for a, _ in a_parts], axis=-2)
    b_co = np.stack([b.comps for _, b in a_parts], axis=-2)
    cfg = FieldConfig(LieForm(ring, 1, a_co.reshape(3, 4, -1)),
                      LieForm(ring, 2, b_co.reshape(3, 6, -1)))
    inv = invert_Y(assemble_Y(cfg, ds))
    assert inv.roundtrip_residual() < 1e-12
