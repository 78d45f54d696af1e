"""Stress-energy tensor, energy/causality sampling, and charge quadratures.

The stress-energy tensor is built pointwise from the dual strengths; its
algebraic properties (symmetry, tracelessness of the 2-form sector, energy
positivity and flux causality for positive-definite internal metrics) are
checked on sampled values, drawn as arrays together with their timelike
observers and checked in one array pass.  The charge integrals are global
statements, so they operate on user-supplied closed-form samplers rather
than on local jets; built-in samplers cover the radial electric, radial magnetic and
uniform scalar configurations with known enclosed charges.

Sampler contract: ``sampler(x, y, z)`` takes coordinate arrays of one shape
S and returns the field at every point at once, an array of shape
S + (n, 4, 4) for a 2-form (S + (n, 4, 4, 4) for a 3-form), antisymmetric
in the form slots.  A scalar call (S = ()) gives (n, 4, 4).  Each
quadrature grid is sampled with one call, and a result of the wrong shape
or with non-finite entries is rejected with ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .forms import SIGNATURE, COMPS, _perm_sign
from .jets import JetScalar, jet_algebra
from .strengths import StrengthPair

ETA = np.diag(SIGNATURE)
ETA_INV = np.diag(1.0 / SIGNATURE)


@dataclass
class StressEnergy:
    """Symmetric T_{mu nu} as one (4, 4, n) array of jet coefficients,
    valid to ``order``, at jet degree ``degree``."""

    values: np.ndarray
    degree: int
    order: int

    def _jet(self, coeffs: np.ndarray) -> JetScalar:
        return JetScalar(jet_algebra(self.degree), coeffs, self.order)

    def __getitem__(self, idx) -> JetScalar:
        return self._jet(self.values[idx])

    def trace(self) -> JetScalar:
        """eta^{mu mu} T_{mu mu}, summed over mu = 0..3 in order."""
        diag = np.arange(4)
        return self._jet(np.add.reduce(
            self.values[diag, diag] * np.diag(ETA_INV)[:, None], axis=0))

    def symmetry_residual(self) -> float:
        return float(np.abs(self.values - self.values.swapaxes(0, 1)).max())


def stress_energy(strengths, ga: np.ndarray, gb: np.ndarray) -> StressEnergy:
    """T_{mu nu} from the dual strengths and the two inner products.

    T = g_ab(*P_{mu s} *P_{nu t} eta^{st}) + (1/2) g'(*Q_mu *Q_nu)
        - (1/4) eta_{mu nu} (|*P|^2 + |*Q|^2),
    with |.|^2 the eta-contracted squares.  Each T_{mu nu}, mu <= nu, is
    one constant-coefficient bilinear map of the stacked components of *P
    and *Q, all of them one :meth:`ymft.jets.JetRing.bilinear`; the lower
    triangle is the mirror of the upper, so T is symmetric exactly.
    """
    if isinstance(strengths, StrengthPair):
        star_p, star_q = strengths.starP, strengths.starQ
    else:
        star_p, star_q = strengths
    ring = star_p.ring
    x = np.concatenate([star_p.comps.reshape(-1, ring.width),
                        star_q.comps.reshape(-1, ring.width)])
    order = min(star_p.order, star_q.order)
    upper = ring.bilinear(x, _stress_coefficients(ga, gb), x, order=order)
    values = np.empty((4, 4, ring.width))
    mu, nu = np.triu_indices(4)
    values[mu, nu] = values[nu, mu] = upper
    return StressEnergy(values, ring.degree, order)


def _stress_coefficients(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """The coefficients (u, (mu, nu), v) of T_{mu nu}, mu <= nu, on the
    stacked components u, v of *P (internal index major, then the six
    ordered 2-form components) and *Q (then the four 1-form components)."""
    ga, gb = np.asarray(ga, dtype=float), np.asarray(gb, dtype=float)
    # *P_{mu s} from the components of *P
    expand = np.zeros((len(COMPS[2]), 4, 4))
    for c, (mu, nu) in enumerate(COMPS[2]):
        expand[c, mu, nu], expand[c, nu, mu] = 1.0, -1.0
    sectors = [
        (np.einsum("ab,ims,jnt,st->aimnbj", ga, expand, expand, ETA_INV),
         1.0),
        (np.einsum("ab,im,jn->aimnbj", gb, np.eye(4), np.eye(4)), 0.5)]
    size = sum(len(pair) * pair.shape[1] for pair, _ in sectors)
    (mu, nu), out, lo = np.triu_indices(4), np.zeros((size, 10, size)), 0
    for pair, weight in sectors:
        square = np.einsum("mn,aimnbj->aibj", ETA_INV, pair)
        full = (weight * pair - 0.25 * np.einsum("mn,aibj->aimnbj", ETA,
                                                 square))
        rows = len(pair) * pair.shape[1]
        out[lo:lo + rows, :, lo:lo + rows] = full[:, :, mu, nu].reshape(
            rows, 10, rows)
        lo += rows
    return out


def energy_causality_check(star_p: np.ndarray, star_q: np.ndarray,
                           ga: np.ndarray, gb: np.ndarray,
                           n_timelike: int = 8, seed: int = 0) -> dict:
    """Energy positivity and flux causality over sampled strength values.

    ``star_p`` (S, n, 4, 4) and ``star_q`` (S, m, 4) hold S >= 1 samples,
    as :func:`random_strength_values` draws them; each is tested against
    the ``n_timelike`` observers of :func:`_random_unit_timelike` for
    ``seed``, with 1e-12 of slack on both verdicts.  Refuses internal
    metrics ``ga``, ``gb`` that are not symmetric with smallest eigenvalue
    > 0: the causal energy statements hold only for positive-definite
    inner products.
    """
    for name, g in (("ga", ga), ("gb", gb)):
        g = np.asarray(g, dtype=float)
        if not (np.allclose(g, g.T, atol=1e-13)
                and np.linalg.eigvalsh(g).min() > 0):
            raise ValueError("energy/causality checks require positive-"
                             f"definite inner products; {name} is not")
    if not (len(star_p) and len(star_q)):
        raise ValueError("energy/causality check needs at least one sample")
    if len(star_p) != len(star_q):
        raise ValueError("star_p and star_q hold different sample counts")
    t_mn = _pointwise_stress(star_p, star_q, ga, gb)        # (S, 4, 4)
    t_vec = _random_unit_timelike(seed, (len(t_mn), n_timelike))
    flux = t_vec @ t_mn                                     # lower index nu
    energy = np.einsum("skn,skn->sk", flux, t_vec)
    norm = np.einsum("skn,skn->sk", flux, flux * np.diag(ETA_INV))
    worst_energy = energy.min()
    worst_flux = norm.max()
    return {
        "samples": len(t_mn),
        "min_energy": float(worst_energy),
        "max_flux_norm": float(worst_flux),
        "energy_nonnegative": bool(worst_energy >= -1e-12),
        "flux_causal": bool(worst_flux <= 1e-12),
    }


def _random_unit_timelike(seed: int, shape: tuple) -> np.ndarray:
    """Unit future timelike vectors (cosh chi, sinh chi n), shape + (4,).

    The rapidities chi (uniform on [0, 1)) and the directions n (three
    standard normals, normalized) are one draw each from the two children
    of ``SeedSequence(seed).spawn(2)``: independent of each other and of
    ``default_rng(seed)``, which draws the samples, and filled in order, so
    the first k vectors of a seed do not depend on how many are drawn.
    """
    count = int(np.prod(shape))
    rapidity, direction = (np.random.default_rng(child) for child in
                           np.random.SeedSequence(seed).spawn(2))
    chi = rapidity.random(count)
    n = direction.standard_normal((count, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    vecs = np.concatenate([np.cosh(chi)[:, None],
                           np.sinh(chi)[:, None] * n], axis=-1)
    return vecs.reshape(shape + (4,))


def _pointwise_stress(sp_vals, sq_vals, ga, gb) -> np.ndarray:
    """T_{mu nu} at each sample: (..., n, 4, 4) and (..., m, 4) values in,
    (..., 4, 4) out."""
    p_pair = np.einsum("ab,...ams,...bnt,st->...mn", ga, sp_vals, sp_vals,
                       ETA_INV, optimize=True)
    q_pair = np.einsum("ab,...am,...bn->...mn", gb, sq_vals, sq_vals,
                       optimize=True)
    p_sq = np.einsum("mn,...mn->...", ETA_INV, p_pair)
    q_sq = np.einsum("mn,...mn->...", ETA_INV, q_pair)
    return (p_pair + 0.5 * q_pair
            - 0.25 * ETA * (p_sq + q_sq)[..., None, None])


def random_strength_values(rng: np.random.Generator, dim_a: int, dim_b: int,
                           count: int):
    """*P (count, dim_a, 4, 4), antisymmetric, and *Q (count, dim_b, 4):
    one uniform(-1, 1) draw of 16 dim_a + 4 dim_b per sample, split into A
    (*P = A - A^T) and *Q, so ``count`` one-sample draws give the same."""
    draw = rng.uniform(-1.0, 1.0, (count, 16 * dim_a + 4 * dim_b))
    star_p = draw[:, :16 * dim_a].reshape(count, dim_a, 4, 4)
    # *Q copied out, so that the raw draw is freed on return
    return (star_p - star_p.transpose(0, 1, 3, 2),
            draw[:, 16 * dim_a:].reshape(count, dim_b, 4).copy())


# ---------------------------------------------------------------------------
# charge quadratures


@dataclass
class ChargeResult:
    values: np.ndarray
    grid: tuple
    estimated_error: float


def charge_surface(sampler, radius: float = 2.0,
                   grid: tuple = (64, 128)) -> ChargeResult:
    """(1/4pi) of the flux of sampler's 2-form through the radius sphere.

    ``sampler(x, y, z)`` takes coordinate arrays of shape S and returns an
    array of shape S + (n, 4, 4), antisymmetric in the last two slots; it
    is called once per grid.  The integrand is the (time, radial)
    contraction.  Gauss-Legendre in the polar direction times trapezoid in
    azimuth; the error estimate is the difference against the
    half-resolution grid.  The flux of an electric 2-form is its electric
    charge, that of a magnetic one its magnetic charge.
    """
    value = _sphere_quad(sampler, radius, grid)
    coarse = _sphere_quad(sampler, radius, (max(grid[0] // 2, 2),
                                            max(grid[1] // 2, 4)))
    return ChargeResult(value, grid, float(np.abs(value - coarse).max()))


def _sample(sampler, coords: np.ndarray, rank: int) -> np.ndarray:
    """One sampler call on the points ``coords`` (S + (3,)), checked to
    return a finite array of shape S + (n,) + (4,) * rank."""
    shape = coords.shape[:-1]
    vals = np.asarray(sampler(*np.moveaxis(coords, -1, 0)), dtype=float)
    if (vals.ndim != len(shape) + 1 + rank
            or vals.shape[:len(shape)] != shape
            or vals.shape[len(shape) + 1:] != (4,) * rank):
        expected = ", ".join(map(str, shape + ("n",) + (4,) * rank))
        raise ValueError(f"sampler returned shape {vals.shape}; expected "
                         f"({expected}) for coordinate arrays of shape "
                         f"{shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampler returned non-finite values")
    return vals


def _sequential_sum(contribs: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, node after node in order."""
    return np.add.accumulate(contribs, axis=0)[-1]


@functools.lru_cache(maxsize=16)
def _sphere_grid(n_theta: int, n_phi: int) -> tuple:
    """The unit normals (n_theta, n_phi, 3), theta-major, and the weight
    per polar node (n_theta, 1, 1) of the (n_theta, n_phi) sphere grid:
    Gauss-Legendre in cos(theta) times trapezoid in azimuth.  Read-only,
    built once per process for each grid (the last 16 grids are kept)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    sin_theta = np.sqrt(1.0 - nodes * nodes)[:, None]
    normal = np.stack(np.broadcast_arrays(sin_theta * np.cos(phis),
                                          sin_theta * np.sin(phis),
                                          nodes[:, None]), axis=-1)
    weights = (weights * (2.0 * np.pi / n_phi))[:, None, None]
    for table in (normal, weights):
        table.flags.writeable = False
    return normal, weights


def _sphere_quad(sampler, radius: float, grid: tuple) -> np.ndarray:
    normal, weights = _sphere_grid(*grid)
    vals = _sample(sampler, radius * normal, 2)
    flux = np.einsum("...aj,...j->...a", vals[..., 0, 1:], normal)
    contrib = weights * flux * radius ** 2
    return _sequential_sum(contrib.reshape(-1, flux.shape[-1])) / (4.0 * np.pi)


def charge_line(sampler, radius: float = 2.0,
                n_points: int = 256) -> ChargeResult:
    """(1/2pi) of the line integral of sampler's 3-form around a circle.

    ``sampler(x, y, z)`` takes coordinate arrays of shape S and returns an
    array of shape S + (n, 4, 4, 4), antisymmetric in the last three slots;
    it is called once per set of points.  The circle lies in the z = 0
    plane; the contraction is with the surface normal (z), the hypersurface
    normal (t) and the tangent.  Trapezoid rule, spectrally accurate on
    periodic integrands; the error estimate is the difference against half
    the points.
    """
    value = _circle_quad(sampler, radius, n_points)
    coarse = _circle_quad(sampler, radius, max(n_points // 2, 4))
    return ChargeResult(value, (n_points,),
                        float(np.abs(value - coarse).max()))


def _circle_quad(sampler, radius: float, n_points: int) -> np.ndarray:
    phis = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    zeros = np.zeros(n_points)
    vals = _sample(sampler, np.stack([radius * cos_phi, radius * sin_phi,
                                      zeros], axis=-1), 3)
    tangent = np.stack([zeros, -sin_phi, cos_phi, zeros], axis=-1)
    # contraction with n = z-direction (index 3) and t = time (index 0)
    contrib = np.einsum("...am,...m->...a", vals[..., 3, 0, :], tangent)
    contrib = contrib * radius * (2.0 * np.pi / n_points)
    return _sequential_sum(contrib) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# built-in samplers (known analytic charges)


def coulomb_sampler(q: float = 1.0, center=(0.0, 0.0, 0.0)):
    """Radial electric 2-form with enclosed charge q: X_{0i} = q x_i / r^3."""
    center = np.asarray(center, dtype=float)

    def sampler(x, y, z):
        rel = np.stack(np.broadcast_arrays(x, y, z), axis=-1) - center
        # |rel| from one dot product per point, as np.linalg.norm takes it
        # for a single vector
        r = np.sqrt(rel[..., None, :] @ rel[..., :, None])[..., 0]
        field = q * rel / r ** 3
        out = np.zeros(rel.shape[:-1] + (1, 4, 4))
        out[..., 0, 0, 1:] = field
        out[..., 0, 1:, 0] = -field
        return out

    return sampler


def uniform_scalar_sampler(s: float = 1.0):
    """3-form with uniform angular component s/r around the z axis: the
    alternating product of the z, t and azimuthal unit vectors times s/r."""

    def sampler(x, y, z):
        x, y, z = np.broadcast_arrays(x, y, z)
        rho = np.hypot(x, y)
        scale = s / rho
        out = np.zeros(rho.shape + (1, 4, 4, 4))
        for axis, phi_hat in ((1, -y / rho), (2, x / rho)):
            for perm in itertools.permutations(range(3)):
                idx = tuple((3, 0, axis)[p] for p in perm)
                out[(..., 0) + idx] = _perm_sign(perm) * phi_hat * scale
        return out

    return sampler


def zero_sampler(dim: int = 1, rank: int = 2):
    shape = (dim,) + (4,) * rank

    def sampler(x, y, z):
        return np.zeros(np.broadcast(x, y, z).shape + shape)

    return sampler
