import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymft import forms
from ymft.forms import (COMPS, CONVENTION, HODGE_SQUARE_SIGN, SIGNATURE,
                        WEDGE_TABLE, LieForm, adjoints, epsilon_dual,
                        mark_leaf, promote_form, random_field_config,
                        scalar_pairing, tangent_parts)
from ymft.jets import (EpsilonTower, JetAlgebra, JetRing, JetScalar,
                       NilpotentExtension, jet_algebra)
from ymft.lie_core import levi_civita3
from ymft.strengths import apply_linear

from jet_reference import ref_mul
from test_jets import TRUNCATED_IDS, TRUNCATED_RINGS, recorded_push

RING = JetRing(3)


def tensor_component(f: LieForm, indices: tuple) -> np.ndarray:
    """Antisymmetric tensor component T_{mu1..mup} of a form (ring
    coefficients)."""
    merged, sign = forms._sort_sign(indices)
    if sign == 0:
        return f.ring.zeros((f.n,))
    return sign * f.comps[:, forms.COMP_INDEX[f.p][merged]]


def volume_coefficient(f: LieForm) -> JetScalar:
    """Coefficient of dx^0^dx^1^dx^2^dx^3 of a real-valued 4-form."""
    if f.p != 4 or f.n != 1:
        raise ValueError("expected a real-valued 4-form")
    return f.scalar(0, 0)


def coordinate_form(mu):
    return LieForm.basis(RING, 1, 1, 0, mu)


def test_d_of_coordinate_times_basis():
    # d(x^0 dx^1) = dx^0 ^ dx^1
    comps = RING.zeros((1, 4))
    x0 = np.zeros(RING.width)
    alg = RING.algebra
    x0[alg.index[(1, 0, 0, 0)]] = 1.0
    comps[0, 1] = x0
    f = LieForm(RING, 1, comps)
    df = f.d()
    expect = LieForm.basis(RING, 2, 1, 0, COMPS[2].index((0, 1)))
    assert (df - expect).max_abs() == 0.0


def test_d_squared_vanishes_on_random_jets():
    for seed in range(100):
        a_form, b_form = random_field_config(seed, 0.5, 3, 2, 2)
        assert a_form.d().d().max_abs() < 1e-13
        assert b_form.d().d().max_abs() < 1e-13


@pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1),
                                 (0, 3), (2, 2), (1, 3)])
def test_leibniz_rule(p, q):
    if p + q > 4:
        pytest.skip("degree overflow")
    rng = np.random.default_rng(p * 10 + q)
    f = LieForm(RING, p, rng.uniform(-1, 1, (1, len(COMPS[p]), RING.width)))
    g = LieForm(RING, q, rng.uniform(-1, 1, (1, len(COMPS[q]), RING.width)))
    pair = scalar_pairing(np.eye(1))
    if p + q < 4:
        lhs = f.wedge(g, pair).d()
        rhs = f.d().wedge(g, pair) + f.wedge(g.d(), pair).scale((-1.0) ** p)
        assert (lhs - rhs).max_abs() < 1e-13


def test_graded_commutativity():
    rng = np.random.default_rng(0)
    f = LieForm(RING, 1, rng.uniform(-1, 1, (1, 4, RING.width)))
    g = LieForm(RING, 2, rng.uniform(-1, 1, (1, 6, RING.width)))
    pair = scalar_pairing(np.eye(1))
    assert (f.wedge(g, pair) - g.wedge(f, pair)).max_abs() < 1e-14
    h = LieForm(RING, 1, rng.uniform(-1, 1, (1, 4, RING.width)))
    assert (f.wedge(h, pair) + h.wedge(f, pair)).max_abs() < 1e-14


def test_wedge_two_forms_gives_single_component():
    f = LieForm.basis(RING, 2, 1, 0, COMPS[2].index((0, 1)))
    g = LieForm.basis(RING, 2, 1, 0, COMPS[2].index((2, 3)))
    w = f.wedge(g, scalar_pairing(np.eye(1)))
    assert w.p == 4 and w.comps.shape[1] == 1
    assert np.isclose(volume_coefficient(w).value_at_origin(), 1.0)


def test_bracket_paired_wedge_matches_component_oracle():
    eps = levi_civita3()
    a_form, _ = random_field_config(3, 0.5, 3, 3, 3)
    half_bracket = a_form.wedge(a_form, eps).scale(0.5)
    # oracle: (1/2)[A,A]_{mu nu} component = eps^a_{bc} A^b_mu A^c_nu
    for i, (mu, nu) in enumerate(COMPS[2]):
        want = np.zeros((3, RING.width))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    want[a] += eps[a, b, c] * ref_mul(
                        RING, a_form.comps[b, mu], a_form.comps[c, nu])
        assert np.allclose(half_bracket.comps[:, i], want, atol=1e-13)


def test_hodge_star_basis_values():
    one = LieForm.basis(RING, 0, 1, 0, 0)
    vol = one.hodge()
    assert vol.p == 4 and np.isclose(vol.comps[0, 0, 0], 1.0)
    dx0 = coordinate_form(0)
    s = dx0.hodge()
    expect = LieForm.basis(RING, 3, 1, 0, COMPS[3].index((1, 2, 3)), -1.0)
    assert (s - expect).max_abs() == 0.0


@pytest.mark.parametrize("p", range(5))
def test_hodge_square_sign_table(p):
    for i in range(len(COMPS[p])):
        f = LieForm.basis(RING, p, 1, 0, i)
        sq = f.hodge().hodge()
        assert np.isclose(sq.comps[0, i, 0], HODGE_SQUARE_SIGN[p])
    assert HODGE_SQUARE_SIGN[2] == -1.0  # Lorentzian sign on 2-forms


def test_epsilon_dual_is_constant_times_hodge():
    rng = np.random.default_rng(1)
    for p in (2, 3):
        f = LieForm(RING, p, rng.uniform(-1, 1,
                                         (2, len(COMPS[p]), RING.width)))
        dual = epsilon_dual(f)
        c = CONVENTION.epsilon_dual_constants[p]
        assert (dual - f.hodge().scale(c)).max_abs() == 0.0


def test_epsilon_dual_degree_check():
    # the dual is defined on the 2- and 3-forms of the strengths only
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match=f"not a {p}-form"):
            epsilon_dual(LieForm.zero(RING, p, 1))


def literal_epsilon_contraction(f: LieForm) -> LieForm:
    """Raw eps_{...}{}^{...} contraction without 1/p!: the Hodge dual times
    the literal factor of its degree on the convention."""
    return f.hodge().scale(CONVENTION.literal_contraction_factors[f.p])


def test_literal_contraction_oracle():
    # raw eps_{sigma mu}{}^{tau nu} F_{tau nu} for F = dx^0 ^ dx^1
    f = LieForm.basis(RING, 2, 1, 0, COMPS[2].index((0, 1)))
    lit = literal_epsilon_contraction(f)
    eta = np.diag([-1.0, 1, 1, 1])
    eps4 = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1.0
        pl = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if pl[i] > pl[j]:
                    sign = -sign
        eps4[perm] = sign
    f_t = np.zeros((4, 4))
    f_t[0, 1], f_t[1, 0] = 1.0, -1.0
    oracle = np.einsum("smab,at,bn,tn->sm", eps4, np.linalg.inv(eta),
                       np.linalg.inv(eta), f_t)
    for i, (mu, nu) in enumerate(COMPS[2]):
        assert np.isclose(lit.comps[0, i, 0], oracle[mu, nu])


def test_epsilon_dual_square_proportional_to_identity():
    for p in (2,):
        c = CONVENTION.epsilon_dual_constants[p]
        for i in range(len(COMPS[p])):
            f = LieForm.basis(RING, p, 1, 0, i)
            sq = epsilon_dual(epsilon_dual(f))
            assert np.isclose(sq.comps[0, i, 0],
                              c * c * HODGE_SQUARE_SIGN[p])


def test_random_field_config_reproducible():
    a1, b1 = random_field_config(42, 0.1, 3, 3, 3)
    a2, b2 = random_field_config(42, 0.1, 3, 3, 3)
    assert np.array_equal(a1.comps, a2.comps)
    assert np.array_equal(b1.comps, b2.comps)
    z1, z2 = random_field_config(0, 0.0, 3, 3, 3)
    assert z1.max_abs() == 0.0 and z2.max_abs() == 0.0


def test_interior_product_component_oracle():
    rng = np.random.default_rng(9)
    chi = LieForm(RING, 1, rng.uniform(-1, 1, (1, 4, RING.width)))
    s = LieForm(RING, 2, rng.uniform(-1, 1, (1, 6, RING.width)))
    out = s.interior(chi, scalar_pairing(np.eye(1)))
    eta_inv = np.diag([-1.0, 1, 1, 1])
    for mu in range(4):
        want = np.zeros(RING.width)
        for nu in range(4):
            for sig in range(4):
                want += eta_inv[nu, sig] * ref_mul(
                    RING, chi.comps[0, nu], tensor_component(s, (sig, mu))[0])
        assert np.allclose(out.comps[0, mu], want, atol=1e-13)


# -- the wedge as a jet-matrix product against the per-entry reference -----

def wedge_entries(p, q):
    """The nonzero entries (i, j, k, sign) of the wedge sign table."""
    table = WEDGE_TABLE[(p, q)]
    return [(i, j, k, table[i, j, k]) for i, j, k in zip(*np.nonzero(table))]


def dense_wedge(f, g, pairing):
    """Reference wedge: every internal pair multiplied, then contracted."""
    pairing = np.asarray(pairing, dtype=float)
    ring = f.ring
    out = ring.zeros((pairing.shape[0], len(COMPS[f.p + g.p])))
    for i, j, k, sign in wedge_entries(f.p, g.p):
        prod = ref_mul(ring, f.comps[:, None, i], g.comps[None, :, j])
        out[:, k] += sign * np.einsum("cab,ab...->c...", pairing, prod)
    return LieForm(ring, f.p + g.p, out, min(f.order, g.order))


def dense_interior(s, x, pairing):
    """Reference interior product eta^{nu sigma} x_nu s_{sigma mu2...}:
    every internal pair and every index multiplied, then contracted."""
    ring = s.ring
    out = ring.zeros((pairing.shape[0], len(COMPS[s.p - 1])))
    for k, rest in enumerate(COMPS[s.p - 1]):
        for nu in range(4):
            prod = ref_mul(ring, x.comps[:, None, nu],
                           tensor_component(s, (nu,) + rest)[None, :])
            out[:, k] += SIGNATURE[nu] * np.einsum("cab,ab...->c...",
                                                   pairing, prod)
    return LieForm(ring, s.p - 1, out, min(s.order, x.order))


def wedge_magnitude(f, g, pairing):
    """Sum of the absolute values of every term of each wedge coefficient.

    Roundoff in a wedge coefficient is bounded relative to this, however
    much its terms cancel.
    """
    ring = f.ring
    out = ring.zeros((pairing.shape[0], len(COMPS[f.p + g.p])))
    for i, j, k, _ in wedge_entries(f.p, g.p):
        prod = ref_mul(ring, np.abs(f.comps[:, None, i]),
                       np.abs(g.comps[None, :, j]))
        out[:, k] += np.einsum("cab,ab...->c...", np.abs(pairing), prod)
    return out


def random_form(ring, p, n, rng, order=None, directions=None):
    """Random form; on an extended ring only the listed blocks are seeded."""
    base = rng.uniform(-1, 1, (n, len(COMPS[p]), ring.base_width))
    if ring.blocks == 1:
        return LieForm(ring, p, base, order)
    if directions is None:
        directions = range(ring.blocks - 1)
    tangents = [None] * (ring.blocks - 1)
    for d in directions:
        tangents[d] = rng.uniform(-1, 1, base.shape)
    return LieForm(ring, p, ring.promote(base, tangents), order)


def assert_matches_dense(f, g, pairing, interior=False):
    got = g.interior(f, pairing) if interior else f.wedge(g, pairing)
    want = (dense_interior if interior else dense_wedge)(
        *((g, f) if interior else (f, g)), pairing)
    assert got.p == want.p and got.order == want.order
    assert got.comps.shape == want.comps.shape
    # the product is computed within its valid order, and is exact zeros
    # above it
    valid = f.ring.mask_up_to(got.order)
    scale = np.abs(want.comps[..., valid]).max()
    assert np.abs(got.comps - want.comps)[..., valid].max() <= 1e-15 * scale
    assert np.all(got.comps[..., ~valid] == 0.0)
    # slots the pairing never writes to stay exact zeros
    silent = ~np.asarray(pairing, dtype=float).any(axis=(1, 2))
    assert np.all(got.comps[silent] == 0.0)
    return got


def single_entry_pairing():
    pairing = np.zeros((2, 3, 3))
    pairing[1, 2, 0] = 0.7
    return pairing


PAIRINGS = {
    "zero": lambda rng: np.zeros((2, 3, 3)),
    "diagonal-metric": lambda rng: scalar_pairing(np.diag([1.0, -2.0, 0.5])),
    "su2": lambda rng: levi_civita3(),
    "single-entry": lambda rng: single_entry_pairing(),
    "random-dense": lambda rng: rng.uniform(-1, 1, (2, 3, 3)),
}

# name -> (ring, tangents seeded in the left factor, in the right factor;
# None seeds every tangent)
RINGS = {
    "jet3": (lambda: JetRing(3), None, None),
    "jet5": (lambda: JetRing(5), None, None),
    "jet8": (lambda: JetRing(8), None, None),
    "nilpotent-4x60": (lambda: NilpotentExtension(4, 60), (0, 59), (0, 59)),
    # several live left tangents against a right factor whose only live
    # block is the base: one jet-matrix product per wedge
    "nilpotent-3x5-left": (lambda: NilpotentExtension(3, 5),
                           (0, 1, 2, 3, 4), ()),
    "tower-3x2": (lambda: EpsilonTower(3, 2), None, None),
    "tower-4x3": (lambda: EpsilonTower(4, 3), None, None),
}


@pytest.mark.parametrize("pairing_name", PAIRINGS)
@pytest.mark.parametrize("ring_name", RINGS)
def test_wedge_matches_dense_reference(ring_name, pairing_name):
    make, left, right = RINGS[ring_name]
    ring = make()
    rng = np.random.default_rng(17)
    pairing = PAIRINGS[pairing_name](rng)
    for p, q in ((1, 1), (1, 2), (2, 2), (0, 3), (1, 3)):
        f = random_form(ring, p, 3, rng, directions=left)
        g = random_form(ring, q, 3, rng, ring.degree - 1, directions=right)
        got = assert_matches_dense(f, g, pairing)
        if p == 1:
            assert_matches_dense(f, g, pairing, interior=True)
        if ring.blocks > 1:
            # the blocks no live pair reaches are exact zeros
            dead = ~ring.live_product(f.live, g.live)
            assert np.all(ring.block_view(got.comps)[:, :, dead] == 0.0)


@pytest.mark.parametrize("ring", TRUNCATED_RINGS, ids=TRUNCATED_IDS)
def test_products_stop_at_the_valid_order(ring, monkeypatch):
    # an order-(D - 1) form wedged with an order-(D - 2) form: the product
    # runs the kernel of jet_algebra(D - 2) on the coefficient prefix
    degree = ring.degree
    rng = np.random.default_rng(23)
    f = random_form(ring, 1, 3, rng, degree - 1)
    g = random_form(ring, 2, 3, rng, degree - 2)
    want = dense_wedge(f, g, levi_civita3())
    # a NaN above a factor's valid order reaches nothing
    for form in (f, g):
        form.comps[..., ~ring.mask_up_to(form.order)] = np.nan
    calls = recorded_push(monkeypatch)
    got = f.wedge(g, levi_civita3())
    assert got.order == degree - 2
    assert {alg for alg, _ in calls} == {jet_algebra(degree - 2)}
    assert {level for _, level in calls} == set(range(degree - 1))
    valid = ring.mask_up_to(got.order)
    scale = np.abs(want.comps[..., valid]).max()
    assert np.abs(got.comps - want.comps)[..., valid].max() <= 1e-14 * scale
    assert np.all(got.comps[..., ~valid] == 0.0)


def test_wedge_with_zero_pairing_is_exact_zero_form(monkeypatch):
    ring = JetRing(3)
    rng = np.random.default_rng(4)
    f = random_form(ring, 1, 3, rng, order=2)
    g = random_form(ring, 2, 2, rng)

    def no_products(*args, **kwargs):
        raise AssertionError("ring product run for an uncoupled pair")

    monkeypatch.setattr(JetAlgebra, "push", no_products)
    w = f.wedge(g, np.zeros((4, 3, 2)))
    assert (w.p, w.n, w.order) == (3, 4, 2)
    assert w.comps.shape == (4, len(COMPS[3]), ring.width)
    assert np.all(w.comps == 0.0)


@pytest.mark.parametrize("ring", [NilpotentExtension(3, 2),
                                  EpsilonTower(3, 2)],
                         ids=["nilpotent", "tower"])
def test_blocks_no_live_pair_reaches_stay_exact_zeros(ring):
    # block 0 of the product needs the pair (0, 0), and the right factor's
    # base block is dead: it stays 0.0 next to an inf in the left factor
    rng = np.random.default_rng(12)
    f = random_form(ring, 1, 3, rng, directions=(0,))
    ring.block_view(f.comps)[1, 2, 0, 5] = np.inf
    g = promote_form(LieForm.zero(JetRing(3), 2, 3), ring,
                     [random_form(JetRing(3), 2, 3, rng)])
    with np.errstate(invalid="ignore"):
        products = (f.wedge(g, levi_civita3()), g.interior(f, levi_civita3()))
    for product in products:
        blocks = ring.block_view(product.comps)
        dead = ~ring.live_product(f.live, g.live)
        assert dead[0] and not dead.all()
        assert np.all(blocks[:, :, dead] == 0.0)
        assert not np.isfinite(blocks[:, :, ~dead]).all()


def test_live_left_blocks_against_a_base_right_factor_are_one_product(
        monkeypatch):
    # the value and four tangents of the left factor meet the right
    # factor's base block only: their jet matrices are the rows of one
    # jet-matrix product
    ring = NilpotentExtension(3, 4)
    rng = np.random.default_rng(15)
    f = random_form(ring, 1, 3, rng)
    g = random_form(ring, 2, 3, rng, directions=())
    calls, original = [], JetAlgebra.matmul_coeffs

    def counted(self, a, b):
        calls.append(a.shape[:2])
        return original(self, a, b)

    monkeypatch.setattr(JetAlgebra, "matmul_coeffs", counted)
    w = f.wedge(g, levi_civita3())
    assert calls == [(5 * 3 * len(COMPS[3]), 3 * len(COMPS[2]))]
    assert w.live.all()


def test_wedges_and_their_adjoints_run_no_scalar_jet_products(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar jet product in a paired product")

    rng = np.random.default_rng(13)
    eps, metric = levi_civita3(), scalar_pairing(np.eye(3))
    rings = [(JetRing(4), None), (NilpotentExtension(4, 3), (0, 2)),
             (EpsilonTower(4, 2), None)]
    forms = [(random_form(ring, 1, 3, rng, directions=seeded),
              random_form(ring, 2, 3, rng, directions=seeded))
             for ring, seeded in rings]
    f, g = forms[0]
    leaves = [mark_leaf(f), mark_leaf(g)]
    output = leaves[0].wedge(leaves[1], eps).wedge(leaves[0], metric)
    monkeypatch.setattr(JetAlgebra, "mul_coeffs", refuse)
    for one, two in forms:
        one.wedge(two, eps), two.wedge(one, eps), two.interior(one, eps)
    assert all(np.abs(adj).max() > 0 for adj in adjoints(output, leaves))


@pytest.mark.parametrize("op", ["add", "wedge", "interior"])
def test_forms_over_different_rings_do_not_mix(op):
    # equal widths: only the ring's class, degree or block count tells
    # these forms apart
    pairing = np.ones((1, 1, 1))
    ops = {"add": lambda x, y: x + y,
           "wedge": lambda x, y: x.wedge(y, pairing),
           "interior": lambda x, y: y.interior(x, pairing)}
    rng = np.random.default_rng(14)
    rings = [JetRing(4), NilpotentExtension(3, 1), EpsilonTower(3, 1),
             NilpotentExtension(4, 0)]
    assert len({ring.width for ring in rings[:3]}) == 1
    forms = [LieForm(ring, 1, rng.uniform(-1, 1, (1, 4, ring.width)))
             for ring in rings]
    for x, y in itertools.permutations(forms, 2):
        if x.ring.width == y.ring.width:
            with pytest.raises(ValueError, match="ring mismatch"):
                ops[op](x, y)
    # rings equal in class, degree and block count combine, whatever the
    # instance
    twin = LieForm(NilpotentExtension(3, 1), 1, forms[1].comps)
    assert ops[op](forms[1], twin).ring.blocks == 2


@pytest.mark.parametrize("shape", [(3, 3), (1, 3, 3, 1)])
def test_products_reject_pairing_of_wrong_rank(shape):
    rng = np.random.default_rng(5)
    f = random_form(RING, 1, 3, rng)
    g = random_form(RING, 2, 3, rng)
    with pytest.raises(ValueError, match="pairing shape mismatch"):
        f.wedge(g, np.ones(shape))
    with pytest.raises(ValueError, match="pairing shape mismatch"):
        g.interior(f, np.ones(shape))


def test_interior_pairs_oneform_left_and_form_right():
    # oracle: sum_ab pairing[c, a, b] i_{x^a} s^b, each from the n = 1 product
    rng = np.random.default_rng(11)
    chi = random_form(RING, 1, 3, rng)
    s = random_form(RING, 3, 2, rng)
    single = np.zeros((2, 3, 2))
    single[1, 2, 0] = -1.5
    eye = scalar_pairing(np.eye(1))
    for pairing in (rng.uniform(-1, 1, (2, 3, 2)), single):
        out = s.interior(chi, pairing)
        want = np.zeros_like(out.comps)
        for c, a, b in itertools.product(range(2), range(3), range(2)):
            one = LieForm(RING, 3, s.comps[b:b + 1]).interior(
                LieForm(RING, 1, chi.comps[a:a + 1]), eye)
            want[c] += pairing[c, a, b] * one.comps[0]
        assert np.abs(out.comps - want).max() <= 1e-14 * np.abs(want).max()
        assert np.all(out.comps[~pairing.any(axis=(1, 2))] == 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([(0, 2), (1, 1), (1, 2), (2, 2)]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_wedge_over_random_sparsity(n_out, n, m, degrees, seed, density):
    ring = JetRing(2)
    rng = np.random.default_rng(seed)
    f = random_form(ring, degrees[0], n, rng)
    g = random_form(ring, degrees[1], m, rng)
    mask = rng.uniform(0, 1, (n_out, n, m)) < density
    pairing = np.where(mask, rng.uniform(-1, 1, mask.shape), 0.0)
    other = np.where(rng.uniform(0, 1, mask.shape) < density,
                     rng.uniform(-1, 1, mask.shape), 0.0)
    got = assert_matches_dense(f, g, pairing)
    # bilinear in the pairing
    alpha, beta = rng.uniform(-2, 2, 2)
    mixed = f.wedge(g, alpha * pairing + beta * other).comps
    split = alpha * got.comps + beta * f.wedge(g, other).comps
    terms = wedge_magnitude(f, g, abs(alpha) * np.abs(pairing)
                            + abs(beta) * np.abs(other))
    assert np.abs(mixed - split).max() <= 1e-14 * terms.max()


# -- live flags over a tangent ring -------------------------------------------

def sparse_tangent_form(ring, p, n, rng):
    """Random form whose blocks, value blocks too, are zero at random."""
    blocks = rng.uniform(-1, 1, (n, len(COMPS[p]), ring.blocks,
                                 ring.base_width))
    blocks *= rng.integers(0, 2, blocks.shape[:3] + (1,))
    return LieForm(ring, p, blocks.reshape(blocks.shape[:2] + (ring.width,)))


def assert_live_covers_values(form):
    # every block nonzero anywhere in the form is flagged
    nonzero = form.ring.live_blocks(form.comps)
    assert form.live.shape == nonzero.shape == (form.ring.blocks,)
    assert not (nonzero & ~form.live).any()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([(0, 2), (1, 1), (1, 2), (2, 2)]),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0),
       st.sampled_from([NilpotentExtension(2, 5), EpsilonTower(2, 3)]))
def test_live_flags_cover_every_nonzero_block(n_out, n, m, degrees, seed,
                                             density, ring):
    rng = np.random.default_rng(seed)
    f = sparse_tangent_form(ring, degrees[0], n, rng)
    g = sparse_tangent_form(ring, degrees[1], m, rng)
    mask = rng.uniform(0, 1, (n_out, n, m)) < density
    pairing = np.where(mask, rng.uniform(-1, 1, mask.shape), 0.0)
    # products multiply only the flagged blocks and still match the
    # reference, which multiplies every block
    w = assert_matches_dense(f, g, pairing)
    derived = [w, w.hodge(), w - w, LieForm.zero(ring, w.p, w.n) + w,
               w.scale(0.5), f.d(), g.d().hodge()]
    if f.p == 1:
        derived.append(g.interior(f, pairing))
    for form in derived:
        assert_live_covers_values(form)


@pytest.mark.parametrize("ring", [NilpotentExtension(3, 3),
                                  EpsilonTower(3, 3)],
                         ids=["nilpotent", "tower"])
def test_product_flags_follow_the_ring_rule(ring):
    rng = np.random.default_rng(10)
    if isinstance(ring, EpsilonTower):
        # f lifted as eps * f: its value block is dead
        f = promote_form(LieForm.zero(JetRing(3), 1, 3), ring,
                         [random_form(JetRing(3), 1, 3, rng)])
        g = random_form(ring, 2, 3, rng, directions=(0,))
    else:
        f = random_form(ring, 1, 3, rng, directions=(0,))
        g = random_form(ring, 2, 3, rng, directions=(1,))
    assert not np.array_equal(f.live, g.live)
    want = ring.live_product(f.live, g.live)
    assert want.any() and not want.all()
    assert np.array_equal(f.wedge(g, levi_civita3()).live, want)
    assert np.array_equal(g.interior(f, levi_civita3()).live, want)
    # a pairing that couples no internal pair flags nothing
    zero = np.zeros((2, 3, 3))
    for product in (f.wedge(g, zero), g.interior(f, zero)):
        assert product.live.shape == (ring.blocks,)
        assert not product.live.any()


def test_blocks_that_cancel_stay_live():
    ring = NilpotentExtension(3, 2)
    rng = np.random.default_rng(8)
    chi = random_form(ring, 1, 2, rng, directions=(1,))
    gone = chi - chi
    assert np.all(gone.comps == 0.0)
    assert np.array_equal(gone.live, chi.live)
    # d(d chi) = 0 holds only up to roundoff; its flags follow chi's
    ddchi = chi.d().d()
    assert np.abs(ddchi.comps).max() <= 1e-14
    assert ddchi.live[..., 0].all() and ddchi.live[..., 2].all()
    assert not ddchi.live[..., 1].any()


def test_internal_linear_maps_keep_live_flags():
    # both tangent blocks cancel to exactly 0.0 but stay live; a linear
    # map of the internal space keeps the flags, as a scale does
    ring = NilpotentExtension(3, 2)
    rng = np.random.default_rng(15)
    f = random_form(ring, 2, 3, rng)
    tangents_only = LieForm(ring, 2, ring.promote(
        np.zeros(f.comps.shape[:2] + (ring.base_width,)),
        [ring.block(f.comps, 1), ring.block(f.comps, 2)]))
    cancelled = f - tangents_only
    assert np.all(ring.block_view(cancelled.comps)[..., 1:, :] == 0.0)
    assert cancelled.live.all() and cancelled.scale(2.0).live.all()
    mapped = apply_linear(np.eye(3), cancelled)
    assert np.array_equal(mapped.comps, cancelled.comps)
    assert mapped.live.all()


def test_forms_off_tangent_rings_have_no_live_flags():
    # the base ring has one block and no flags; every extended ring,
    # an epsilon tower too, has them
    rng = np.random.default_rng(9)
    f = random_form(JetRing(3), 1, 2, rng)
    assert f.live is None and f.d().live is None
    assert f.wedge(f, np.ones((1, 2, 2))).live is None


# ---------------------------------------------------------------------------
# adjoint rules: <y_bar, J x_dot> = <J^T y_bar, x_dot> in the ring pairing
# <u, v> = sum over components of the ring products u v, with J x_dot the
# tangent of a one-direction nilpotent pass


def ring_dot(ring, u, v):
    return ref_mul(ring, u, v).reshape(-1, ring.width).sum(axis=0)


def assert_transpose_identity(op, forms, degree, seed):
    """``op`` maps base-ring forms to one form; the sweep over its
    recorded nodes pulls a random output adjoint back to adjoints that pair
    with random input tangents as the output tangent pairs with the output
    adjoint."""
    rng = np.random.default_rng(seed)
    ring = JetRing(degree)
    dual = NilpotentExtension(degree, 1)
    dots = [LieForm(ring, f.p, rng.uniform(-1, 1, f.comps.shape))
            for f in forms]
    leaves = [mark_leaf(f) for f in forms]
    out = op(*leaves)
    y_dot, = tangent_parts(op(*[promote_form(f, dual, [t])
                                for f, t in zip(forms, dots)]))
    y_bar = rng.uniform(-1, 1, out.comps.shape)
    x_bars = adjoints(out, leaves, y_bar)
    lhs = ring_dot(ring, y_bar, y_dot.comps)
    terms = [ring_dot(ring, x_bar, t.comps) for x_bar, t in zip(x_bars, dots)]
    # relative to the largest pairing: the terms may cancel (x ^ x = 0)
    scale = max(np.abs(term).max() for term in [lhs] + terms)
    assert scale > 0.1
    assert np.abs(lhs - sum(terms)).max() <= 1e-14 * scale


ADJOINT_PAIRINGS = {name: PAIRINGS[name] for name in (
    "diagonal-metric", "su2", "single-entry", "random-dense")}


@pytest.mark.parametrize("degree", [3, 5, 8])
@pytest.mark.parametrize("pairing_name", ADJOINT_PAIRINGS)
@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (0, 3)])
def test_wedge_adjoint_is_the_transpose(p, q, pairing_name, degree):
    rng = np.random.default_rng(p + 10 * q)
    pairing = ADJOINT_PAIRINGS[pairing_name](rng)
    ring = JetRing(degree)
    f = random_form(ring, p, pairing.shape[1], rng)
    g = random_form(ring, q, pairing.shape[2], rng)
    assert_transpose_identity(lambda x, y: x.wedge(y, pairing), [f, g],
                              degree, seed=degree)
    if p == q:
        # both factors the same form: the two adjoints add up (a random
        # pairing, since x ^ x vanishes under a pairing of its parity)
        dense = rng.uniform(-1, 1, (2, f.n, f.n))
        assert_transpose_identity(lambda x: x.wedge(x, dense), [f],
                                  degree, seed=degree + 1)


@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("p", range(5))
def test_hodge_adjoint_is_the_transpose(p, degree):
    rng = np.random.default_rng(p)
    f = random_form(JetRing(degree), p, 2, rng)
    assert_transpose_identity(LieForm.hodge, [f], degree, seed=degree)


@pytest.mark.parametrize("degree", [3, 5])
def test_scale_and_sum_adjoints_are_the_transpose(degree):
    rng = np.random.default_rng(degree)
    ring = JetRing(degree)
    f, g = random_form(ring, 2, 3, rng), random_form(ring, 2, 3, rng)
    assert_transpose_identity(lambda x, y: x.scale(-0.75) + y - x, [f, g],
                              degree, seed=degree)
    assert_transpose_identity(lambda x, y: -(x - y.scale(2.0)), [f, g],
                              degree, seed=degree + 1)


def test_unmarked_forms_record_nothing():
    rng = np.random.default_rng(3)
    f, g = random_form(RING, 1, 3, rng), random_form(RING, 2, 3, rng)
    out = f.wedge(g, levi_civita3()).hodge().scale(2.0) - f.hodge().hodge()
    assert out.node is None and g.d().node is None
    leaf = mark_leaf(f)
    assert leaf.node is not None and leaf.comps is f.comps
    assert (leaf + f).node is not None and (f + leaf).node is not None


def test_marked_forms_refuse_unrecorded_operations():
    rng = np.random.default_rng(4)
    f, g = random_form(RING, 1, 3, rng), random_form(RING, 2, 3, rng)
    with pytest.raises(ValueError, match="not recorded"):
        mark_leaf(f).d()
    with pytest.raises(ValueError, match="not recorded"):
        g.interior(mark_leaf(f), np.ones((1, 3, 3)))
    with pytest.raises(ValueError, match="not recorded"):
        apply_linear(np.eye(3), mark_leaf(g))


def test_adjoints_sum_over_every_path():
    # L = (1/2) F ^ *F + F ^ g with F = f ^ f: the sweep adds the adjoints
    # of both uses of F and of both factors of f ^ f, and matches the
    # forward gradient along every component of f and g
    rng = np.random.default_rng(6)
    ring = JetRing(3)
    f, g = random_form(ring, 1, 3, rng), random_form(ring, 2, 1, rng)
    pairing = levi_civita3()

    def lagrangian(x, y):
        big_f = x.wedge(x, pairing)
        return (big_f.wedge(big_f.hodge(), scalar_pairing(np.eye(3)))
                .scale(0.5) + big_f.wedge(y, np.ones((1, 3, 1))))

    leaves = [mark_leaf(f), mark_leaf(g)]
    reverse = np.concatenate([adj.reshape(-1, ring.width) for adj in
                              adjoints(lagrangian(*leaves), leaves)])
    units = np.eye(len(reverse))
    dual = NilpotentExtension(3, len(reverse))
    lifted = []
    for form, cols in ((f, units[:, :12]), (g, units[:, 12:])):
        tangents = [ring.const(col.reshape(form.comps.shape[:2]))
                    for col in cols]
        lifted.append(LieForm(dual, form.p,
                              dual.promote(form.comps, tangents)))
    forward = np.array([part.comps[0, 0] for part in
                        tangent_parts(lagrangian(*lifted))])
    assert np.abs(reverse - forward).max() <= 1e-14
    assert np.abs(forward).max() > 0.1


def test_coefficients_are_kept_read_only_within_their_bound(monkeypatch):
    # one read-only array per pairing and sign table, kept for the process
    rng = np.random.default_rng(91)
    pairing = rng.uniform(-1, 1, (2, 3, 3))
    signs = WEDGE_TABLE[(1, 1)]
    coeffs = forms._coefficients(pairing, signs)
    assert forms._coefficients(pairing.copy(), signs) is coeffs
    with pytest.raises(ValueError):
        coeffs[0, 0, 0] = 1.0
    # other contents of the same shapes: another entry
    assert not np.array_equal(forms._coefficients(2 * pairing, signs),
                              coeffs)
    # the table drops its oldest entries beyond its bound
    monkeypatch.setattr(forms, "_COEFFICIENTS", {})
    monkeypatch.setattr(forms, "COEFFICIENTS_MAX_BYTES", 3 * coeffs.nbytes)
    tables = [forms._coefficients(pairing + i, signs) for i in range(5)]
    assert sum(v.nbytes for v in forms._COEFFICIENTS.values()) \
        <= forms.COEFFICIENTS_MAX_BYTES
    assert len(forms._COEFFICIENTS) == 3
    assert forms._coefficients(pairing + 4, signs) is tables[-1]
    assert forms._coefficients(pairing, signs) is not tables[0]
