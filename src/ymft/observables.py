"""Stress-energy tensor, energy/causality sampling, and charge quadratures.

The stress-energy tensor is built pointwise from the dual strengths; its
algebraic properties (symmetry, tracelessness of the 2-form sector, energy
positivity and flux causality for positive-definite internal metrics) are
checked on sampled values.  The charge integrals are global statements, so
they operate on user-supplied closed-form samplers rather than on local
jets; built-in samplers cover the radial electric, radial magnetic and
uniform scalar configurations with known enclosed charges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forms import SIGNATURE, LieForm, COMPS, _perm_sign
from .jets import JetScalar, jet_algebra
from .strengths import StrengthPair

ETA = np.diag(SIGNATURE)
ETA_INV = np.diag(1.0 / SIGNATURE)


def _form_tensor(form: LieForm) -> np.ndarray:
    """Full antisymmetric component tensor (n, 4, ..., 4, ring width)."""
    shape = (form.n,) + (4,) * form.p + (form.ring.width,)
    out = np.zeros(shape)
    for comp_idx, comp in enumerate(COMPS[form.p]):
        for perm in itertools.permutations(range(form.p)):
            sign = _perm_sign(perm)
            idx = tuple(comp[p] for p in perm)
            out[(slice(None),) + idx] = sign * form.comps[:, comp_idx]
    return out


@dataclass
class StressEnergy:
    """Symmetric 4x4 table of jet scalars T_{mu nu}."""

    table: list
    degree: int

    def __getitem__(self, idx):
        mu, nu = idx
        return self.table[mu][nu]

    def trace(self) -> JetScalar:
        out = None
        for mu in range(4):
            term = self.table[mu][mu] * float(ETA_INV[mu, mu])
            out = term if out is None else out + term
        return out

    def symmetry_residual(self) -> float:
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                diff = self.table[mu][nu].coeffs - self.table[nu][mu].coeffs
                worst = max(worst, float(np.abs(diff).max()))
        return worst

    def values_at_origin(self) -> np.ndarray:
        return np.array([[self.table[m][n].value_at_origin()
                          for n in range(4)] for m in range(4)])


def stress_energy(strengths, ga: np.ndarray, gb: np.ndarray,
                  include_q: bool = True,
                  include_p: bool = True) -> StressEnergy:
    """T_{mu nu} from the dual strengths and the two inner products.

    T = g_ab(*P_{mu s} *P_{nu t} eta^{st}) + (1/2) g'(*Q_mu *Q_nu)
        - (1/4) eta_{mu nu} (|*P|^2 + |*Q|^2),
    with |.|^2 the eta-contracted squares.  Symmetric by construction.
    """
    if isinstance(strengths, StrengthPair):
        star_p, star_q = strengths.starP, strengths.starQ
    else:
        star_p, star_q = strengths
    ring = star_p.ring
    alg = jet_algebra(ring.degree)
    sp_t = _form_tensor(star_p)    # (n, 4, 4, W)
    sq_t = _form_tensor(star_q)    # (m, 4, W)
    ga = np.asarray(ga, dtype=float)
    gb = np.asarray(gb, dtype=float)
    order = min(star_p.order, star_q.order)

    def js(coeffs):
        return JetScalar(alg, coeffs, order)

    def pair_p(mu, nu):
        # g_ab eta^{st} *P^a_{mu s} *P^b_{nu t}
        out = np.zeros(ring.width)
        for s in range(4):
            out += (1.0 / SIGNATURE[s]) * ring.mul(
                np.einsum("ab,aw->bw", ga, sp_t[:, mu, s]),
                sp_t[:, nu, s]).sum(axis=0)
        return out

    def pair_q(mu, nu):
        return ring.mul(np.einsum("ab,aw->bw", gb, sq_t[:, mu]),
                        sq_t[:, nu]).sum(axis=0)

    p_sq = sum((1.0 / SIGNATURE[mu]) * pair_p(mu, mu) for mu in range(4))
    q_sq = sum((1.0 / SIGNATURE[mu]) * pair_q(mu, mu) for mu in range(4))

    table = [[None] * 4 for _ in range(4)]
    for mu in range(4):
        for nu in range(mu, 4):
            val = np.zeros(ring.width)
            sub = np.zeros(ring.width)
            if include_p:
                val = val + pair_p(mu, nu)
                sub = sub + p_sq
            if include_q:
                val = val + 0.5 * pair_q(mu, nu)
                sub = sub + q_sq
            val = val - 0.25 * ETA[mu, nu] * sub
            table[mu][nu] = js(val)
            table[nu][mu] = js(val.copy())
    return StressEnergy(table, ring.degree)


def random_unit_timelike(rng: np.random.Generator) -> np.ndarray:
    chi = rng.uniform(0.0, 1.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return np.concatenate([[np.cosh(chi)], np.sinh(chi) * direction])


def energy_causality_check(samples, ga: np.ndarray, gb: np.ndarray,
                           positive_definite: bool,
                           n_timelike: int = 8, seed: int = 0,
                           tol: float = 1e-12) -> dict:
    """Energy positivity and flux causality over sampled strength values.

    ``samples`` is an iterable of (star_p values (n,4,4), star_q values
    (m,4)) pointwise arrays (antisymmetric in the 2-form slot).  Refuses
    indefinite internal metrics: the causal energy statements hold only for
    positive-definite inner products.
    """
    if not positive_definite:
        raise ValueError("energy/causality checks require positive-definite "
                         "inner products; the supplied metric is not")
    rng = np.random.default_rng(seed)
    worst_energy = np.inf
    worst_flux = -np.inf
    count = 0
    for sp_vals, sq_vals in samples:
        sp_vals = np.asarray(sp_vals, dtype=float)
        sq_vals = np.asarray(sq_vals, dtype=float)
        t_mn = _pointwise_stress(sp_vals, sq_vals, ga, gb)
        for _ in range(n_timelike):
            t_vec = random_unit_timelike(rng)
            energy = t_vec @ t_mn @ t_vec
            flux = t_vec @ t_mn            # lower index nu
            flux_up = ETA_INV @ flux
            norm = flux @ flux_up
            worst_energy = min(worst_energy, energy)
            worst_flux = max(worst_flux, norm)
        count += 1
    return {
        "samples": count,
        "min_energy": float(worst_energy),
        "max_flux_norm": float(worst_flux),
        "energy_nonnegative": bool(worst_energy >= -tol),
        "flux_causal": bool(worst_flux <= tol),
    }


def _pointwise_stress(sp_vals, sq_vals, ga, gb) -> np.ndarray:
    p_pair = np.einsum("ab,ams,bnt,st->mn", ga, sp_vals, sp_vals, ETA_INV)
    q_pair = np.einsum("ab,am,bn->mn", gb, sq_vals, sq_vals)
    p_sq = np.einsum("mn,mn->", ETA_INV, p_pair)
    q_sq = np.einsum("mn,mn->", ETA_INV, q_pair)
    return p_pair + 0.5 * q_pair - 0.25 * ETA * (p_sq + q_sq)


def random_strength_values(rng: np.random.Generator, dim_a: int, dim_b: int,
                           amplitude: float = 1.0):
    sp = rng.uniform(-amplitude, amplitude, (dim_a, 4, 4))
    sp = sp - sp.transpose(0, 2, 1)
    sq = rng.uniform(-amplitude, amplitude, (dim_b, 4))
    return sp, sq


# ---------------------------------------------------------------------------
# charge quadratures


@dataclass
class ChargeResult:
    values: np.ndarray
    grid: tuple
    estimated_error: float

    def total(self) -> float:
        return float(self.values.sum())


def charge_surface(sampler, kind: str = "electric", radius: float = 2.0,
                   grid: tuple = (64, 128)) -> ChargeResult:
    """(1/4pi) of the flux of sampler's 2-form through the radius sphere.

    ``sampler(x, y, z)`` returns an antisymmetric (n, 4, 4) array; the
    integrand is its (time, radial) contraction.  Gauss-Legendre in the
    polar direction times trapezoid in azimuth; the error estimate is the
    difference against the half-resolution grid.
    """
    if kind not in ("electric", "magnetic"):
        raise ValueError(f"unknown surface charge kind {kind!r}")
    value = _sphere_quad(sampler, radius, grid)
    coarse = _sphere_quad(sampler, radius, (max(grid[0] // 2, 2),
                                            max(grid[1] // 2, 4)))
    return ChargeResult(value, grid, float(np.abs(value - coarse).max()))


def _sphere_quad(sampler, radius: float, grid: tuple) -> np.ndarray:
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
            if not np.all(np.isfinite(vals)):
                raise ValueError("sampler returned non-finite values")
            flux = np.einsum("aij,j->ai", vals[:, :, 1:], normal)[:, 0]
            contrib = w * (2.0 * np.pi / n_phi) * flux * radius ** 2
            total = contrib if total is None else total + contrib
    return total / (4.0 * np.pi)


def charge_line(sampler, radius: float = 2.0,
                n_points: int = 256) -> ChargeResult:
    """(1/2pi) of the line integral of sampler's 3-form around a circle.

    The circle lies in the z = 0 plane; the contraction is with the surface
    normal (z), the hypersurface normal (t) and the tangent.  Trapezoid
    rule, spectrally accurate on periodic integrands; the error estimate is
    the difference against half the points.
    """
    value = _circle_quad(sampler, radius, n_points)
    coarse = _circle_quad(sampler, radius, max(n_points // 2, 4))
    return ChargeResult(value, (n_points,),
                        float(np.abs(value - coarse).max()))


def _circle_quad(sampler, radius: float, n_points: int) -> np.ndarray:
    phis = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    total = None
    for phi in phis:
        x = radius * np.cos(phi)
        y = radius * np.sin(phi)
        vals = np.asarray(sampler(x, y, 0.0), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampler returned non-finite values")
        tangent = np.array([0.0, -np.sin(phi), np.cos(phi), 0.0])
        # contraction with n = z-direction (index 3) and t = time (index 0)
        contrib = np.einsum("am,m->a", vals[:, 3, 0, :], tangent)
        contrib = contrib * radius * (2.0 * np.pi / n_points)
        total = contrib if total is None else total + contrib
    return total / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# built-in samplers (known analytic charges)


def coulomb_sampler(q: float = 1.0, center=(0.0, 0.0, 0.0)):
    """Radial electric 2-form with enclosed charge q: X_{0i} = q x_i / r^3."""
    center = np.asarray(center, dtype=float)

    def sampler(x, y, z):
        rel = np.array([x, y, z]) - center
        r = np.linalg.norm(rel)
        out = np.zeros((1, 4, 4))
        out[0, 0, 1:] = q * rel / r ** 3
        out[0, 1:, 0] = -q * rel / r ** 3
        return out

    return sampler


def radial_magnetic_sampler(g: float = 1.0):
    """Radial 2-form of strength g; integrates to the magnetic charge g."""
    return coulomb_sampler(g)


def uniform_scalar_sampler(s: float = 1.0):
    """3-form with uniform angular component s/r around the z axis."""

    def sampler(x, y, z):
        rho = np.hypot(x, y)
        phi_hat = np.array([0.0, -y / rho, x / rho, 0.0])
        n_hat = np.array([0.0, 0.0, 0.0, 1.0])
        t_hat = np.array([1.0, 0.0, 0.0, 0.0])
        tensor = _alternating3(n_hat, t_hat, phi_hat) * (s / rho)
        return tensor[None]

    return sampler


def _alternating3(u, v, w) -> np.ndarray:
    out = np.zeros((4, 4, 4))
    for perm in itertools.permutations(range(3)):
        sign = _perm_sign(perm)
        vecs = [u, v, w]
        out += sign * np.einsum("i,j,k->ijk", vecs[perm[0]], vecs[perm[1]],
                                vecs[perm[2]])
    return out


def zero_sampler(dim: int = 1, rank: int = 2):
    shape = (dim,) + (4,) * rank

    def sampler(x, y, z):
        return np.zeros(shape)

    return sampler
