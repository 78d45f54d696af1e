import numpy as np
import pytest

from ymft.deformations import family_su2
from ymft.forms import LieForm, random_field_config
from ymft.jets import JetRing
from ymft.observables import (ETA_INV, ChargeResult, _pointwise_stress,
                              _random_unit_timelike, charge_line,
                              charge_surface, coulomb_sampler,
                              energy_causality_check,
                              random_strength_values, stress_energy,
                              uniform_scalar_sampler, zero_sampler)
from ymft.strengths import FieldConfig, compute_strengths

from jet_reference import ref_mul

RING = JetRing(3)


def test_stress_energy_zero():
    sp = LieForm.zero(RING, 2, 3)
    sq = LieForm.zero(RING, 1, 3)
    tensor = stress_energy((sp, sq), np.eye(3), np.eye(3))
    assert np.abs(tensor.values[..., 0]).max() == 0.0


def test_stress_energy_single_scalar_component_oracle():
    # *Q = q dx^1, constant: T_00 = k q^2 / 4, trace = -k q^2 / 2
    q, k = 0.7, 1.3
    sq = LieForm.basis(RING, 1, 1, 0, 1, q)
    sp = LieForm.zero(RING, 2, 1)
    tensor = stress_energy((sp, sq), k * np.eye(1), k * np.eye(1))
    assert np.isclose(tensor[0, 0].value_at_origin(), 0.25 * k * q * q)
    assert np.isclose(tensor.trace().value_at_origin(), -0.5 * k * q * q)


def test_stress_energy_symmetric_exactly():
    rng = np.random.default_rng(0)
    sp = LieForm(RING, 2, rng.uniform(-1, 1, (3, 6, RING.width)))
    sq = LieForm(RING, 1, rng.uniform(-1, 1, (3, 4, RING.width)))
    tensor = stress_energy((sp, sq), np.eye(3), np.eye(3))
    assert tensor.symmetry_residual() == 0.0


def test_p_sector_traceless():
    rng = np.random.default_rng(1)
    sp = LieForm(RING, 2, rng.uniform(-1, 1, (3, 6, RING.width)))
    sq = LieForm.zero(RING, 1, 3)
    tensor = stress_energy((sp, sq), np.eye(3), np.eye(3))
    assert np.abs(tensor.trace().coeffs).max() < 1e-12


def test_trace_equals_minus_half_q_norm():
    rng = np.random.default_rng(2)
    sp = LieForm(RING, 2, rng.uniform(-1, 1, (3, 6, RING.width)))
    sq = LieForm(RING, 1, rng.uniform(-1, 1, (3, 4, RING.width)))
    tensor = stress_energy((sp, sq), np.eye(3), np.eye(3))
    eta_inv = np.diag([-1.0, 1, 1, 1])
    q_norm = np.zeros(RING.width)
    for mu in range(4):
        for a in range(3):
            q_norm += eta_inv[mu, mu] * ref_mul(RING, sq.comps[a, mu],
                                                sq.comps[a, mu])
    assert np.allclose(tensor.trace().coeffs, -0.5 * q_norm, atol=1e-12)


def test_stress_energy_from_computed_strengths():
    ds = family_su2(0.0, 0.7)
    cfg = FieldConfig(*random_field_config(3, 0.1, 3, 3, 3))
    pair = compute_strengths(cfg, ds)
    tensor = stress_energy(pair, ds.ga, ds.gb)
    assert tensor.symmetry_residual() == 0.0


def test_stress_energy_unchanged_under_second_type_variation_linear():
    # strengths of the free theory do not see delta B = d chi: F is
    # bitwise untouched and H moves only by the d(d chi) roundoff
    from ymft.forms import random_gauge_params
    a_form, b_form = random_field_config(4, 0.1, 3, 3, 3)
    _, chi = random_gauge_params(5, 0.1, 3, 3, 3)
    f_form, h_form = a_form.d(), b_form.d()
    shifted = (b_form + chi.d()).d()
    assert (h_form - shifted).max_abs() < 1e-15
    t1 = stress_energy((f_form.hodge(), h_form.hodge()), np.eye(3),
                       np.eye(3))
    t2 = stress_energy((f_form.hodge(), shifted.hodge()), np.eye(3),
                       np.eye(3))
    assert np.abs(t1.values[..., 0] - t2.values[..., 0]).max() < 1e-15


def test_causality_sampling():
    star_p, star_q = random_strength_values(np.random.default_rng(1), 3, 3,
                                            1000)
    rep = energy_causality_check(star_p, star_q, np.eye(3), np.eye(3),
                                 n_timelike=4)
    assert rep["energy_nonnegative"] and rep["flux_causal"]
    assert rep["samples"] == 1000


def test_causality_refuses_indefinite_metric():
    # each metric is checked on its own, gb as well as ga
    star_p, star_q = random_strength_values(np.random.default_rng(3), 3, 3,
                                            1)
    indefinite = np.diag([1.0, 1.0, -1.0])
    asymmetric = np.eye(3) + np.triu(np.ones((3, 3)), 1)
    for ga, gb, name in ((indefinite, np.eye(3), "ga"),
                         (np.eye(3), indefinite, "gb"),
                         (np.eye(3), -np.eye(3), "gb"),
                         (asymmetric, np.eye(3), "ga")):
        with pytest.raises(ValueError, match=f"positive-definite inner "
                                             f"products; {name} is not"):
            energy_causality_check(star_p, star_q, ga, gb)
    with pytest.raises(ValueError, match="ga is not"):
        energy_causality_check(star_p[:0], star_q[:0], indefinite, np.eye(3))


def test_causality_zero_strengths():
    rep = energy_causality_check(np.zeros((1, 3, 4, 4)), np.zeros((1, 3, 4)),
                                 np.eye(3), np.eye(3))
    assert rep["min_energy"] == 0.0 and abs(rep["max_flux_norm"]) == 0.0


def test_coulomb_charge():
    res = charge_surface(coulomb_sampler(1.0), radius=2.0,
                         grid=(64, 128))
    assert abs(res.values[0] - 1.0) < 1e-6
    res = charge_surface(coulomb_sampler(-2.5), radius=3.0)
    assert abs(res.values[0] + 2.5) < 1e-6


def test_offset_coulomb_still_encloses_charge():
    res = charge_surface(coulomb_sampler(1.0, center=(0.4, -0.3, 0.2)),
                         radius=2.0, grid=(64, 128))
    assert abs(res.values[0] - 1.0) < 1e-6


def test_radial_magnetic_charge():
    # a radial magnetic 2-form has the Coulomb components
    res = charge_surface(coulomb_sampler(0.8), 2.0)
    assert abs(res.values[0] - 0.8) < 1e-6


def test_zero_sampler():
    res = charge_surface(zero_sampler())
    assert res.values[0] == 0.0


def test_nonfinite_sampler_rejected():
    def bad(x, y, z):
        out = np.zeros(np.shape(x) + (1, 4, 4))
        out[..., 0, 0, 1] = np.inf
        return out
    with pytest.raises(ValueError):
        charge_surface(bad)


def test_scalar_line_charge_and_convergence():
    res = charge_line(uniform_scalar_sampler(0.9), radius=2.0, n_points=64)
    assert abs(res.values[0] - 0.9) < 1e-9
    fine = charge_line(uniform_scalar_sampler(0.9), radius=2.0,
                       n_points=128)
    assert abs(fine.values[0] - 0.9) < 1e-12


def lumpy(x, y, z):
    """Coulomb field times a smooth non-polynomial angular factor."""
    r = np.sqrt(x * x + y * y + z * z)
    out = coulomb_sampler(1.0)(x, y, z)
    out *= np.asarray(1.0 + 0.3 * np.exp(np.sin(3 * z / r)))[..., None,
                                                            None, None]
    return out


def test_surface_quadrature_convergence_order():
    # smooth non-polynomial flux: quadrature error drops by >= 4x per
    # doubling (the rule converges much faster on this integrand)
    coarse = charge_surface(lumpy, 2.0, (4, 8))
    finer = charge_surface(lumpy, 2.0, (8, 16))
    finest = charge_surface(lumpy, 2.0, (32, 64))
    err_coarse = abs(coarse.values[0] - finest.values[0])
    err_finer = abs(finer.values[0] - finest.values[0])
    assert err_finer < err_coarse / 4.0


def test_charge_result_error_estimate_shrinks():
    res_small = charge_surface(coulomb_sampler(1.0, center=(0.5, 0, 0)),
                               2.0, (16, 32))
    res_big = charge_surface(coulomb_sampler(1.0, center=(0.5, 0, 0)),
                             2.0, (64, 128))
    assert isinstance(res_big, ChargeResult)
    assert res_big.estimated_error <= max(res_small.estimated_error, 1e-12)


# ---------------------------------------------------------------------------
# per-point references for the batched quadratures and causality check: one
# scalar sampler call per node and one loop pass per timelike vector


def ref_sphere_quad(sampler, radius, grid):
    n_theta, n_phi = grid
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    total = None
    for u, w in zip(nodes, weights):
        sin_theta = np.sqrt(1.0 - u * u)
        for phi in phis:
            normal = np.array([sin_theta * np.cos(phi),
                               sin_theta * np.sin(phi), u])
            x = radius * normal
            vals = np.asarray(sampler(*x), dtype=float)
            flux = np.einsum("aij,j->ai", vals[:, :, 1:], normal)[:, 0]
            contrib = w * (2.0 * np.pi / n_phi) * flux * radius ** 2
            total = contrib if total is None else total + contrib
    return total / (4.0 * np.pi)


def ref_circle_quad(sampler, radius, n_points):
    phis = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    total = None
    for phi in phis:
        vals = np.asarray(sampler(radius * np.cos(phi), radius * np.sin(phi),
                                  0.0), dtype=float)
        tangent = np.array([0.0, -np.sin(phi), np.cos(phi), 0.0])
        contrib = np.einsum("am,m->a", vals[:, 3, 0, :], tangent)
        contrib = contrib * radius * (2.0 * np.pi / n_points)
        total = contrib if total is None else total + contrib
    return total / (2.0 * np.pi)


def ref_energy_causality(star_p, star_q, ga, gb, n_timelike, seed):
    # the observers one by one, each rapidity and direction from its own
    # child stream of the seed
    rapidity, direction_rng = (np.random.default_rng(child) for child in
                               np.random.SeedSequence(seed).spawn(2))
    worst_energy, worst_flux = np.inf, -np.inf
    for sp_vals, sq_vals in zip(star_p, star_q):
        t_mn = _pointwise_stress(sp_vals, sq_vals, ga, gb)
        for _ in range(n_timelike):
            chi = rapidity.uniform(0.0, 1.0)
            direction = direction_rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            t_vec = np.concatenate([[np.cosh(chi)], np.sinh(chi) * direction])
            energy = t_vec @ t_mn @ t_vec
            flux = t_vec @ t_mn
            worst_energy = min(worst_energy, energy)
            worst_flux = max(worst_flux, flux @ (ETA_INV @ flux))
    return worst_energy, worst_flux


SURFACE_SAMPLERS = {
    "coulomb": coulomb_sampler(-2.5),
    "offset-coulomb": coulomb_sampler(1.0, center=(0.4, -0.3, 0.2)),
    "radial-magnetic": coulomb_sampler(0.8),
    "zero": zero_sampler(2),
    "lumpy": lumpy,
}
GRIDS = [(64, 128), (16, 32), (5, 7)]


@pytest.mark.parametrize("name", SURFACE_SAMPLERS)
def test_sphere_quad_matches_per_point_reference(name):
    sampler = SURFACE_SAMPLERS[name]
    for grid in GRIDS:
        res = charge_surface(sampler, 3.0, grid)
        ref = ref_sphere_quad(sampler, 3.0, grid)
        ref_coarse = ref_sphere_quad(sampler, 3.0, (max(grid[0] // 2, 2),
                                                    max(grid[1] // 2, 4)))
        ref_error = float(np.abs(ref - ref_coarse).max())
        assert res.values.shape == ref.shape
        if name == "coulomb":
            # same operations in the same order: bit-equal
            assert np.array_equal(res.values, ref)
            assert res.estimated_error == ref_error
        else:
            assert np.abs(res.values - ref).max() <= 1e-15
            assert abs(res.estimated_error - ref_error) <= 1e-15


@pytest.mark.parametrize("sampler", [uniform_scalar_sampler(0.9),
                                     zero_sampler(1, 3)],
                         ids=["uniform-scalar", "zero"])
def test_circle_quad_matches_per_point_reference(sampler):
    for n_points in (256, 64, 9):
        res = charge_line(sampler, 2.0, n_points)
        ref = ref_circle_quad(sampler, 2.0, n_points)
        ref_coarse = ref_circle_quad(sampler, 2.0, max(n_points // 2, 4))
        assert np.abs(res.values - ref).max() <= 1e-15
        assert abs(res.estimated_error
                   - float(np.abs(ref - ref_coarse).max())) <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_causality_matches_per_point_reference(seed):
    star_p, star_q = random_strength_values(np.random.default_rng(seed), 3,
                                            2, 150)
    ga, gb = np.diag([1.0, 2.0, 0.5]), 1.5 * np.eye(2)
    for n_timelike in (8, 3):
        rep = energy_causality_check(star_p, star_q, ga, gb,
                                     n_timelike=n_timelike, seed=seed)
        energy, flux = ref_energy_causality(star_p, star_q, ga, gb,
                                            n_timelike, seed)
        assert rep["samples"] == len(star_p)
        assert abs(rep["min_energy"] - energy) <= 4e-15 * abs(energy)
        assert abs(rep["max_flux_norm"] - flux) <= 4e-15 * abs(flux)
        assert rep["energy_nonnegative"] is bool(energy >= -1e-12)
        assert rep["flux_causal"] is bool(flux <= 1e-12)


def test_causality_rejects_empty_sample_set():
    empty = random_strength_values(np.random.default_rng(0), 3, 3, 0)
    assert empty[0].shape == (0, 3, 4, 4) and empty[1].shape == (0, 3, 4)
    with pytest.raises(ValueError, match="at least one sample"):
        energy_causality_check(*empty, np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="at least one sample"):
        energy_causality_check(np.zeros((1, 3, 4, 4)), empty[1], np.eye(3),
                               np.eye(3))


def test_causality_rejects_mismatched_sample_counts():
    star_p, star_q = random_strength_values(np.random.default_rng(0), 3, 3,
                                            4)
    with pytest.raises(ValueError, match="different sample counts"):
        energy_causality_check(star_p, star_q[:1], np.eye(3), np.eye(3))


def old_strength_values(rng, dim_a, dim_b):
    """One sample as the per-sample sampler drew it."""
    sp = rng.uniform(-1.0, 1.0, (dim_a, 4, 4))
    sp = sp - sp.transpose(0, 2, 1)
    sq = rng.uniform(-1.0, 1.0, (dim_b, 4))
    return sp, sq


@pytest.mark.parametrize("dims", [(3, 3), (3, 2), (1, 1)])
@pytest.mark.parametrize("count", [1, 150])
def test_random_strength_values_match_per_sample_draws(dims, count):
    dim_a, dim_b = dims
    star_p, star_q = random_strength_values(np.random.default_rng(5), dim_a,
                                            dim_b, count)
    rng = np.random.default_rng(5)
    ref = [old_strength_values(rng, dim_a, dim_b) for _ in range(count)]
    assert star_p.shape == (count, dim_a, 4, 4)
    assert star_q.shape == (count, dim_b, 4)
    assert np.array_equal(star_p, np.stack([sp for sp, _ in ref]))
    assert np.array_equal(star_q, np.stack([sq for _, sq in ref]))
    assert np.array_equal(star_p, -star_p.transpose(0, 1, 3, 2))


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_unit_timelike_prefix_stable_and_own_streams(seed):
    k = 40
    vecs = _random_unit_timelike(seed, (k,))
    assert vecs.shape == (k, 4)
    assert np.array_equal(vecs, _random_unit_timelike(seed, (k + 7,))[:k])
    assert np.array_equal(vecs.reshape(5, 8, 4),
                          _random_unit_timelike(seed, (5, 8)))
    norm = np.einsum("kn,n,kn->k", vecs, np.diag(ETA_INV), vecs)
    assert np.abs(norm + 1.0).max() <= 1e-14
    assert (vecs[:, 0] > 0).all()
    # the rapidities are not the uniforms of default_rng(seed), the stream
    # that the observables command draws its samples from
    chi = np.arccosh(vecs[:, 0])
    assert not np.isclose(chi, np.random.default_rng(seed).random(k),
                          rtol=0.0, atol=1e-6).any()


def test_wrong_sampler_shape_rejected():
    def per_point(x, y, z):
        # ignores the batch shape: the old one-point contract
        return coulomb_sampler(1.0)(0.0, 0.0, 2.0)
    with pytest.raises(ValueError, match=r"expected \(8, 16, n, 4, 4\)"):
        charge_surface(per_point, 2.0, (8, 16))
    with pytest.raises(ValueError, match=r"expected \(64, n, 4, 4, 4\)"):
        charge_line(zero_sampler(1, 2), 2.0, 64)
    with pytest.raises(ValueError, match=r"expected \(8, 16, n, 4, 4\)"):
        charge_surface(zero_sampler(1, 3), 2.0, (8, 16))


@pytest.mark.parametrize("sampler,rank", [
    (coulomb_sampler(1.0, center=(0.1, 0.2, 0.3)), 2),
    (coulomb_sampler(0.8), 2), (uniform_scalar_sampler(0.9), 3),
    (zero_sampler(), 2), (zero_sampler(2, 3), 3)],
    ids=["coulomb", "radial-magnetic", "uniform-scalar", "zero", "zero-3"])
def test_builtin_samplers_scalar_and_batched_calls(sampler, rank):
    point = (0.7, -1.1, 0.4)
    one = sampler(*point)
    assert one.shape[1:] == (4,) * rank and one.ndim == rank + 1
    xs = np.array([[point[0], 1.3], [0.2, -0.5]])
    ys = np.array([[point[1], 0.4], [0.9, 0.1]])
    zs = np.array([[point[2], -0.8], [0.0, 1.5]])
    batch = sampler(xs, ys, zs)
    assert batch.shape == (2, 2) + one.shape
    assert np.array_equal(batch[0, 0], one)
