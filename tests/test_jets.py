import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymft.jets import (EpsilonTower, JetAlgebra, JetRing, JetScalar,
                       NilpotentExtension, jet_algebra)

from jet_reference import matrix_coupling, ref_mul


def brute_force_product(alg: JetAlgebra, a, b):
    out = np.zeros(alg.n_terms)
    for i, ei in enumerate(alg.exponents):
        for j, ej in enumerate(alg.exponents):
            total = tuple(x + y for x, y in zip(ei, ej))
            if sum(total) <= alg.degree:
                out[alg.index[total]] += a[i] * b[j]
    return out


@pytest.mark.parametrize("degree", range(8))
def test_truncated_product_against_brute_force(degree):
    alg = jet_algebra(degree)
    rng = np.random.default_rng(degree)
    a = rng.uniform(-1, 1, alg.n_terms)
    b = rng.uniform(-1, 1, alg.n_terms)
    want = brute_force_product(alg, a, b)
    assert np.allclose(alg.mul_coeffs(a, b), want, atol=1e-14)
    assert np.allclose(ref_mul(JetRing(degree), a, b), want, atol=1e-14)


@pytest.mark.parametrize("degree", range(9))
def test_level_pairs_hold_each_pair_once(degree):
    # the kernel of the jet-matrix product and of the graded Y solve pushes
    # one degree level of the right factor at a time; each output monomial
    # adds its pairs rank by rank, in row-major order, and the outputs with
    # an r-th pair are a prefix of the level's output order
    alg = jet_algebra(degree)
    bounds = alg.level_bounds
    seen = []
    for level, (place, ranks) in enumerate(alg.level_pairs):
        lo, hi = bounds[level], bounds[level + 1]
        end = bounds[degree - level + 1]
        assert (alg.term_degree[lo:hi] == level).all()
        # one place per monomial of degree >= level; those of the level,
        # whose one pair is (0, j), come last
        order = np.argsort(place)
        assert sorted(place.tolist()) == list(range(alg.n_terms - lo))
        assert sorted(order[lo - hi:].tolist()) == list(range(hi - lo))
        assert ranks[0].shape[1] == alg.n_terms - lo
        runs = {}
        for r, rows in enumerate(ranks):
            j, i = np.divmod(rows[0], end)
            # the same pairs in the products without i = 0
            assert (rows[1] == j * (end - 1) + i - 1)[i > 0].all()
            zeros = np.flatnonzero(i == 0).tolist()
            assert zeros == (list(range(lo - hi + len(i), len(i))) if r == 0
                             else [])
            for k, ik, jk in zip(order.tolist(), i.tolist(), j.tolist()):
                jk += lo
                assert alg.term_degree[jk] == level
                total = tuple(x + y for x, y in zip(alg.exponents[ik],
                                                    alg.exponents[jk]))
                assert alg.index[total] == k + lo
                runs.setdefault(k, []).append((ik, jk))
                seen.append((ik, jk))
        # the ranks follow the row-major order of each output's pairs
        assert all(run == sorted(run) for run in runs.values())
    every = [(i, j) for i, ei in enumerate(alg.exponents)
             for j, ej in enumerate(alg.exponents)
             if sum(ei) + sum(ej) <= degree]
    assert sorted(seen) == every


def dense_derivative(alg: JetAlgebra, mu: int) -> np.ndarray:
    """d/dx^mu as an n x n matrix acting on coefficient rows."""
    out = np.zeros((alg.n_terms, alg.n_terms))
    for i, e in enumerate(alg.exponents):
        if e[mu] > 0:
            lower = list(e)
            lower[mu] -= 1
            out[i, alg.index[tuple(lower)]] = e[mu]
    return out


@pytest.mark.parametrize("degree", range(11))
def test_diff_coeffs_matches_dense_derivative(degree):
    alg = jet_algebra(degree)
    a = np.random.default_rng(degree).uniform(-1, 1, (3, 6, alg.n_terms))
    for mu in range(4):
        assert np.array_equal(alg.diff_coeffs(a, mu),
                              a @ dense_derivative(alg, mu))


def test_monomial_count_degree3():
    assert jet_algebra(3).n_terms == 35
    assert jet_algebra(4).n_terms == 70


coeff_arrays = st.lists(st.floats(min_value=-2, max_value=2,
                                  allow_nan=False), min_size=35, max_size=35)


@settings(max_examples=25, deadline=None)
@given(coeff_arrays, coeff_arrays, coeff_arrays)
def test_ring_axioms(a, b, c):
    alg = jet_algebra(3)
    f = JetScalar(alg, np.array(a))
    g = JetScalar(alg, np.array(b))
    h = JetScalar(alg, np.array(c))
    scale = max(1.0, max(np.abs(a)), max(np.abs(b)), max(np.abs(c))) ** 3
    assert ((f * g) * h - f * (g * h)).max_abs() <= 1e-13 * scale
    assert (f * g - g * f).max_abs() <= 1e-13 * scale
    assert (f * (g + h) - (f * g + f * h)).max_abs() <= 1e-13 * scale


def test_multiplication_discards_above_degree_exactly():
    alg = jet_algebra(2)
    x0 = JetScalar.coordinate(0, 2)
    x1 = JetScalar.coordinate(1, 2)
    prod = (x0 * x0) * x1  # total degree 3 > 2
    assert np.all(prod.coeffs == 0.0)


def test_derivative_of_monomials():
    x0 = JetScalar.coordinate(0, 3)
    x1 = JetScalar.coordinate(1, 3)
    f = x0 * x0 * x1
    assert (f.diff(0) - (2.0 * (x0 * x1))).max_abs() == 0.0
    assert f.diff(2).max_abs() == 0.0


def test_mixed_partials_commute_exactly():
    rng = np.random.default_rng(7)
    f = JetScalar.random(rng, 1.0, 4)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            d1 = f.diff(mu).diff(nu).coeffs
            d2 = f.diff(nu).diff(mu).coeffs
            assert np.array_equal(d1, d2)


def test_order_tracking():
    rng = np.random.default_rng(2)
    f = JetScalar.random(rng, 1.0, 3)
    g = f.diff(0)
    assert g.order == 2
    assert (f * g).order == 2
    with pytest.raises(ValueError):
        _ = g.diff(1).diff(2).diff(3).max_abs()  # order below zero


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_scalar_product_stops_at_valid_order(degree, monkeypatch):
    # NaN above each factor's order: a product that read those
    # coefficients would carry it into the result
    alg, ring = jet_algebra(degree), JetRing(degree)
    rng = np.random.default_rng(degree)
    pushes, original = [], JetAlgebra.push

    def recorded(self, *args, **kwargs):
        pushes.append(self.degree)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(JetAlgebra, "push", recorded)
    for oa in range(-1, degree + 2):
        for ob in range(-1, degree + 2):
            a, b = rng.uniform(-1.0, 1.0, (2, alg.n_terms))
            a[alg.term_degree > oa] = np.nan
            b[alg.term_degree > ob] = np.nan
            del pushes[:]
            prod = JetScalar(alg, a, oa) * JetScalar(alg, b, ob)
            order = min(oa, ob)
            valid = alg.term_degree <= order
            assert prod.order == order
            assert (prod.coeffs[~valid] == 0.0).all()
            if order < 0:
                assert pushes == []
                continue
            assert set(pushes) == {min(order, degree)}
            ref = ref_mul(ring, np.where(valid, a, 0.0),
                          np.where(valid, b, 0.0))
            assert np.abs(prod.coeffs[valid] - ref[valid]).max() <= 1e-15


def test_value_at_origin_and_evaluation():
    f = JetScalar.constant(2.5, 3) + JetScalar.coordinate(1, 3)
    assert f.value_at_origin() == 2.5
    assert np.isclose(f((0.0, 0.3, 0.0, 0.0)), 2.8)


def test_nilpotent_extension_is_exact_first_derivative():
    base = JetRing(3)
    dual = NilpotentExtension(3, 1)
    rng = np.random.default_rng(3)
    f = rng.uniform(-1, 1, base.width)
    t = rng.uniform(-1, 1, base.width)
    # (f + eps t)^2 = f^2 + 2 eps f t
    x = dual.promote(f, [t])
    sq = ref_mul(dual, x, x)
    re, im = sq[:base.width], sq[base.width:]
    assert np.allclose(re, ref_mul(base, f, f), atol=1e-14)
    assert np.allclose(im, 2 * ref_mul(base, f, t), atol=1e-14)


def test_multi_direction_extension():
    base = JetRing(2)
    ring = NilpotentExtension(2, 3)
    rng = np.random.default_rng(4)
    f = rng.uniform(-1, 1, base.width)
    tangents = [rng.uniform(-1, 1, base.width) for _ in range(3)]
    x = ring.promote(f, tangents)
    sq = ref_mul(ring, x, x)
    for i, t in enumerate(tangents):
        got = sq.reshape(4, base.width)[1 + i]
        assert np.allclose(got, 2 * ref_mul(base, f, t), atol=1e-14)


def test_epsilon_tower_homogeneous_expansion():
    base = JetRing(3)
    tower = EpsilonTower(3, 3)
    rng = np.random.default_rng(5)
    f = rng.uniform(-1, 1, base.width)
    x = tower.promote(np.zeros(base.width), [f])
    cube = ref_mul(tower, ref_mul(tower, x, x), x)
    blocks = cube.reshape(4, base.width)
    assert np.allclose(blocks[3], ref_mul(base, ref_mul(base, f, f), f),
                       atol=1e-13)
    assert np.abs(blocks[:3]).max() == 0.0


LAYOUT_METHODS = ("block_view", "block", "base_block", "constant_part",
                  "diff", "mask_up_to", "promote")


@pytest.mark.parametrize("ring", [JetRing(3), NilpotentExtension(3, 2),
                                  EpsilonTower(3, 2)],
                         ids=["jet", "nilpotent", "tower"])
def test_block_layout_lives_in_jet_ring(ring):
    # an extended ring inherits every layout method from JetRing
    for name in LAYOUT_METHODS:
        assert getattr(type(ring), name) is getattr(JetRing, name)
    rng = np.random.default_rng(7)
    base = rng.uniform(-1, 1, (2, ring.base_width))
    tangents = [rng.uniform(-1, 1, base.shape)
                for _ in range(ring.blocks - 1)]
    x = ring.promote(base, tangents)
    assert x.shape == (2, ring.width)
    assert np.shares_memory(ring.block_view(x), x)
    assert np.array_equal(ring.base_block(x), base)
    assert np.array_equal(ring.constant_part(x), base[:, 0])
    for i, t in enumerate([base] + tangents):
        assert np.array_equal(ring.block(x, i), t)
        for mu in range(4):
            assert np.array_equal(ring.block(ring.diff(x, mu), i),
                                  ring.algebra.diff_coeffs(t, mu))
    for order in range(ring.degree + 1):
        assert np.array_equal(ring.block_view(ring.mask_up_to(order)),
                              np.tile(ring.algebra.mask_up_to(order),
                                      (ring.blocks, 1)))


def loop_nilpotent_mul(ring: NilpotentExtension, x, y):
    """Reference tangent product: one elementwise jet product per block."""
    base = JetRing(ring.degree)
    xs, ys = ring.block_view(x), ring.block_view(y)
    xr, xi = xs[..., 0, :], xs[..., 1:, :]
    yr, yi = ys[..., 0, :], ys[..., 1:, :]
    re = ref_mul(base, xr, yr)
    im = (ref_mul(base, xr[..., None, :], yi)
          + ref_mul(base, xi, yr[..., None, :]))
    out = np.concatenate([re[..., None, :], im], axis=-2)
    return out.reshape(out.shape[:-2] + (ring.width,))


def _rel_err(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("directions", [1, 3, 50, 60])
@pytest.mark.parametrize("degree", range(6))
def test_nilpotent_mul_matches_loop(degree, directions):
    ring = NilpotentExtension(degree, directions)
    rng = np.random.default_rng(50 + degree)
    # the wedge broadcast (3, 1, W) x (1, 3, W), and equal shapes
    for x_shape, y_shape in (((3, 1), (1, 3)), ((2, 3), (2, 3))):
        x = rng.uniform(-1, 1, x_shape + (ring.width,))
        y = rng.uniform(-1, 1, y_shape + (ring.width,))
        ref = loop_nilpotent_mul(ring, x, y)
        got = ref_mul(ring, x, y)
        assert got.shape == ref.shape
        assert _rel_err(got, ref) <= 1e-14


def test_nilpotent_mul_zero_tangents_stay_exact_zero():
    ring = NilpotentExtension(4, 60)
    rng = np.random.default_rng(60)
    x = rng.uniform(-1, 1, (3, 1, ring.blocks, ring.base_width))
    y = rng.uniform(-1, 1, (1, 3, ring.blocks, ring.base_width))
    zero = [4, 17, 59]  # directions zero on both inputs
    x[..., [1 + d for d in zero], :] = 0.0
    y[..., [1 + d for d in zero], :] = 0.0
    x[..., 30, :] = 0.0  # zero on one input only
    out = ring.matmul(x.reshape(3, 1, -1), y.reshape(1, 3, -1))
    blocks = out.reshape(3, 3, ring.blocks, ring.base_width)
    for d in zero:
        assert np.all(blocks[..., 1 + d, :] == 0.0)
    assert np.abs(blocks[..., 30, :]).max() > 0.0


def direction_sets(k):
    """Live tangent directions of one factor: none, all, or any subset;
    -1 stands for the value block."""
    return st.one_of(st.just(frozenset(range(-1, k))),
                     st.just(frozenset({-1})),
                     st.frozensets(st.integers(-1, k - 1)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 4, 60]), st.integers(0, 5),
       st.sampled_from([((3, 1), (1, 3)), ((2, 3), (2, 3)), ((), (4,)),
                        ((5,), ())]),
       st.integers(0, 2**32 - 1))
def test_nilpotent_mul_live_directions_match_loop(data, directions, degree,
                                                  shapes, seed):
    ring = NilpotentExtension(degree, directions)
    live = [data.draw(direction_sets(directions)) for _ in shapes]
    rng = np.random.default_rng(seed)
    x, y = (rng.uniform(-1, 1, shape + (ring.blocks, ring.base_width))
            for shape in shapes)
    for z, rows in zip((x, y), live):
        dead = [1 + d for d in range(-1, directions) if d not in rows]
        z[..., dead, :] = 0.0
        # a live direction may still be zero in some batch entries
        z[..., 1:, :] *= rng.integers(0, 2, z.shape[:-1] + (1,))[..., 1:, :]
    x = x.reshape(shapes[0] + (ring.width,))
    y = y.reshape(shapes[1] + (ring.width,))
    # the plain loop, and the planned product as the outer product of the
    # two batches (K = 1)
    a, b = x.reshape(-1, 1, ring.width), y.reshape(1, -1, ring.width)
    for got, ref in ((ref_mul(ring, x, y), loop_nilpotent_mul(ring, x, y)),
                     (ring.matmul(a, b), ref_mul(ring, a, b))):
        assert got.shape == ref.shape
        # relative to the largest entry; exact where the product is all zero
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        blocks = ring.block_view(got)
        for d in set(range(directions)) - live[0] - live[1]:
            assert np.all(blocks[..., 1 + d, :] == 0.0)
    # flags naming more blocks than are nonzero change nothing
    every = np.ones(ring.blocks, dtype=bool)
    assert np.array_equal(ring.matmul(a, b, (every, every)), got)


def outer(ring, x, y):
    """The planned product of two batches of ring values (..., blocks, n)
    as an outer product, (len(x), 1, w) x (1, len(y), w)."""
    return ring.matmul(x.reshape(len(x), 1, -1), y.reshape(1, len(y), -1))


def recorded_matmul(monkeypatch) -> list:
    """The stacked rows of each jet-matrix product that runs."""
    rows = []
    original = JetAlgebra.matmul_coeffs

    def recorded(self, a, b):
        rows.append(a.shape[0])
        return original(self, a, b)

    monkeypatch.setattr(JetAlgebra, "matmul_coeffs", recorded)
    return rows


def test_nilpotent_mul_live_rows_carry_nan_and_inf():
    ring = NilpotentExtension(3, 5)
    n = ring.base_width
    rng = np.random.default_rng(61)
    x = rng.uniform(-1, 1, (2, ring.blocks, n))
    y = rng.uniform(-1, 1, (2, ring.blocks, n))
    x[..., 2:, :] = 0.0
    y[..., 2:, :] = 0.0
    x[0, 2, 7] = np.nan  # direction 1: zero but for one NaN
    y[1, 3, 0] = np.inf  # direction 2: zero but for one inf
    y[1, 0, 0] = np.inf  # an inf in a value block
    with np.errstate(invalid="ignore"):  # 0 * inf in the live rows
        out = outer(ring, x, y).reshape(2, 2, ring.blocks, n)
    assert np.isnan(out[0, :, 2]).any()
    assert not np.isfinite(out[:, 1, 3]).all()
    # directions 3-5 are zero in both factors: 0.0, not 0 * inf = NaN
    assert np.all(out[..., 4:, :] == 0.0)
    # nor does a zero value block meet the other factor's inf tangent
    x[..., :2, :] = 0.0
    with np.errstate(invalid="ignore"):
        out = outer(ring, x, y).reshape(2, 2, ring.blocks, n)
    assert np.all(out[..., 1, :] == 0.0) and np.all(out[..., 3, :] == 0.0)


def test_nilpotent_mul_skips_tangents_against_a_zero_value(monkeypatch):
    ring = NilpotentExtension(2, 6)
    rng = np.random.default_rng(62)
    x = rng.uniform(-1, 1, (3, ring.blocks, ring.base_width))
    y = rng.uniform(-1, 1, (3, ring.blocks, ring.base_width))
    x[..., 0, :] = 0.0  # x has no value: y's tangents meet nothing
    x[..., 4:, :] = 0.0
    rows = recorded_matmul(monkeypatch)
    # x's three live tangents times y's value: one product, whose rows
    # stack the three; the dead value block of x skips the value product
    got = outer(ring, x, y)
    assert rows == [3 * 3]
    ref = loop_nilpotent_mul(ring, x.reshape(3, 1, -1), y.reshape(1, 3, -1))
    assert _rel_err(got, ref) <= 1e-14
    # the other way round, y's value times each of x's live tangents
    rows.clear()
    got = outer(ring, y, x)
    assert rows == [3, 3, 3]
    ref = loop_nilpotent_mul(ring, y.reshape(3, 1, -1), x.reshape(1, 3, -1))
    assert _rel_err(got, ref) <= 1e-14


def loop_tower_mul(ring: EpsilonTower, x, y):
    """Reference tower product: one jet product per block pair."""
    base = JetRing(ring.degree)
    xs, ys = ring.block_view(x), ring.block_view(y)
    out = np.zeros(np.broadcast_shapes(xs.shape, ys.shape))
    for i in range(ring.blocks):
        for j in range(ring.blocks - i):
            out[..., i + j, :] += ref_mul(base, xs[..., i, :],
                                          ys[..., j, :])
    return out.reshape(out.shape[:-2] + (ring.width,))


@pytest.mark.parametrize("order", [1, 2, 4])
def test_tower_matmul_is_one_product_per_live_right_block(order,
                                                          monkeypatch):
    ring = EpsilonTower(3, order)
    rng = np.random.default_rng(63 + order)
    x = rng.uniform(-1, 1, (3, ring.blocks, ring.base_width))
    y = rng.uniform(-1, 1, (3, ring.blocks, ring.base_width))
    x[..., 0, :] = 0.0  # x lifted as eps * f: its value block is dead
    rows = recorded_matmul(monkeypatch)
    got = outer(ring, x, y)
    # the pairs (i, j, i + j) with i >= 1: per right block j, the rows of
    # the left blocks 1..order - j, and none for j = order
    assert rows == [3 * (order - j) for j in range(order)]
    ref = loop_tower_mul(ring, x.reshape(3, 1, -1), y.reshape(1, 3, -1))
    assert _rel_err(got, ref) <= 1e-15
    assert np.all(ring.block(got, 0) == 0.0)


@pytest.mark.parametrize("ring", [NilpotentExtension(3, 3),
                                  EpsilonTower(3, 3)],
                         ids=["nilpotent", "tower"])
def test_matmul_matches_plain_loop_mul(ring):
    rng = np.random.default_rng(64)
    a = rng.uniform(-1, 1, (4, 5, ring.blocks, ring.base_width))
    b = rng.uniform(-1, 1, (5, 2, ring.blocks, ring.base_width))
    a[..., 2, :] = 0.0  # a dead block in the middle of the left factor
    a, b = a.reshape(4, 5, -1), b.reshape(5, 2, -1)
    ref = ref_mul(ring, a[:, :, None], b[None]).sum(axis=1)
    assert _rel_err(ring.matmul(a, b), ref) <= 1e-14
    assert np.abs(ring.matmul(np.zeros_like(a), b)).max() == 0.0


def test_matmul_plans_once_per_flag_pattern():
    # the plans are kept per block table: a second ring with the table of
    # the first makes no new plan for the flags the first one met
    ring, other = NilpotentExtension(2, 4), NilpotentExtension(2, 4)
    rng = np.random.default_rng(65)
    a = rng.uniform(-1, 1, (3, 2, ring.width))
    b = rng.uniform(-1, 1, (2, 3, ring.width))
    first = ring.matmul(a, b)
    key = ring.live_blocks(a).tobytes() + ring.live_blocks(b).tobytes()
    plan, count = ring._plans[key], len(ring._plans)
    # the same flags on other values and another ring: the kept plan
    assert np.array_equal(other.matmul(2 * a, b), 2 * first)
    assert other._plans is ring._plans
    assert len(ring._plans) == count and ring._plans[key] is plan
    # another block table of as many blocks has plans of its own
    assert EpsilonTower(2, 4)._plans is not ring._plans


def recorded_push(monkeypatch) -> list:
    """(algebra, level) of each :meth:`JetAlgebra.push` that runs."""
    calls = []
    original = JetAlgebra.push

    def recorded(self, a, x, level, *args, **kwargs):
        calls.append((self, level))
        return original(self, a, x, level, *args, **kwargs)

    monkeypatch.setattr(JetAlgebra, "push", recorded)
    return calls


TRUNCATED_RINGS = [JetRing(5), NilpotentExtension(5, 2), EpsilonTower(5, 2)]
TRUNCATED_IDS = ["jet", "nilpotent", "tower"]


@pytest.mark.parametrize("ring", TRUNCATED_RINGS, ids=TRUNCATED_IDS)
def test_solve_stops_at_the_valid_order(ring, monkeypatch):
    # y x = r for an x of valid order D - 2: the solve runs the kernel of
    # jet_algebra(D - 2) on the coefficient prefix, and reads nothing of y
    # and r above that order, neither in y's base block nor through the
    # coupling of its other blocks
    size, order = 4, ring.degree - 2
    rng = np.random.default_rng(29)
    y = 0.1 * rng.uniform(-1, 1, (size, size, ring.width))
    y[..., 0] += np.eye(size)
    r = rng.uniform(-1, 1, (size, 2, ring.width))
    y0_inv = np.linalg.inv(ring.constant_part(y))
    full = ring.solve(ring.base_block(y), y0_inv, r, matrix_coupling(ring, y))
    valid = ring.mask_up_to(order)
    planted_y, planted_r = y.copy(), r.copy()
    planted_y[..., ~valid] = np.nan
    planted_r[..., ~valid] = np.nan
    calls = recorded_push(monkeypatch)
    x = ring.solve(ring.base_block(planted_y), y0_inv, planted_r,
                   matrix_coupling(ring, planted_y), order=order)
    assert {alg for alg, _ in calls} == {jet_algebra(order)}
    assert {level for _, level in calls} <= set(range(order + 1))
    assert np.all(x[..., ~valid] == 0.0)
    assert np.isfinite(x).all()
    # y x = r within the valid order, by the reference product
    residual = ref_mul(ring, y[:, :, None], x[None]).sum(axis=1) - r
    assert np.abs(residual[..., valid]).max() <= 1e-14 * np.abs(r).max()
    assert _rel_err(x[..., valid], full[..., valid]) <= 1e-14
    # below order 0 the solution is exact zeros, and nothing runs
    calls.clear()
    assert not ring.solve(ring.base_block(y), y0_inv, r,
                          matrix_coupling(ring, y), order=-1).any()
    assert not ring.matmul(y, r, order=-1).any()
    assert calls == []


@pytest.mark.parametrize("ring", TRUNCATED_RINGS[1:], ids=TRUNCATED_IDS[1:])
def test_solve_starts_from_a_known_base_block(ring, monkeypatch):
    # given x's base block, the solve runs no level of the first wave: the
    # base block is the one given, bit for bit, and the later blocks are
    # those of the whole solve
    size = 4
    rng = np.random.default_rng(31)
    y = 0.1 * rng.uniform(-1, 1, (size, size, ring.width))
    y[..., 0] += np.eye(size)
    r = rng.uniform(-1, 1, (size, 2, ring.width))
    y0_inv = np.linalg.inv(ring.constant_part(y))
    args = (ring.base_block(y), y0_inv, r, matrix_coupling(ring, y))
    calls = recorded_push(monkeypatch)
    full = ring.solve(*args)
    pushes = len(calls)
    calls.clear()
    x = ring.solve(*args, known=ring.base_block(full))
    assert 0 < len(calls) < pushes
    assert np.array_equal(ring.base_block(x), ring.base_block(full))
    assert _rel_err(x, full) <= 1e-14
    # the later blocks follow the base block they are given
    known = rng.uniform(-1, 1, (size, 2, ring.base_width))
    moved = ring.solve(*args, known=known)
    assert np.array_equal(ring.base_block(moved), known)
    assert not np.allclose(moved, full)
