"""Stress-energy, causal energy flux, and charges by quadrature.

The stress-energy tensor built from the dual strengths is symmetric, has a
traceless 2-form sector, and yields a nonnegative energy density with a
causal flux for every strength value when the internal metrics are positive
definite.  Charges are global surface and line integrals, evaluated here on
closed-form configurations with known enclosed values.
"""

import numpy as np

from ymft.deformations import family_su2
from ymft.forms import random_field_config
from ymft.observables import (charge_line, charge_surface, coulomb_sampler,
                              energy_causality_check, random_strength_values,
                              stress_energy, uniform_scalar_sampler)
from ymft.strengths import FieldConfig, compute_strengths

# --- stress-energy from an actual solved strength pair -----------------------

ds = family_su2(0.0, 0.7)
config = FieldConfig(*random_field_config(3, 0.1, 3, 3, 3))
pair = compute_strengths(config, ds)
tensor = stress_energy(pair, ds.ga, ds.gb)
print("stress-energy from solved strengths")
print("  symmetry residual:", tensor.symmetry_residual())
print("  energy density at the origin:",
      f"{tensor[0, 0].value_at_origin():.6f}")

# the 2-form sector alone: *Q set to zero
p_only = stress_energy((pair.starP, pair.starQ.scale(0.0)), ds.ga, ds.gb)
print("  2-form sector trace:",
      f"{np.abs(p_only.trace().coeffs).max():.2e}")

# --- causal energy-momentum over random strength values ----------------------

star_p, star_q = random_strength_values(np.random.default_rng(1), 3, 3, 1000)
report = energy_causality_check(star_p, star_q, np.eye(3), np.eye(3))
print("\n1000 random strength samples, random unit timelike observers")
print("  minimum energy density:", f"{report['min_energy']:.3f}",
      "(nonnegative:", report["energy_nonnegative"], ")")
print("  worst flux norm:", f"{report['max_flux_norm']:.3f}",
      "(causal means <= 0:", report["flux_causal"], ")")

# --- charges ------------------------------------------------------------------

print("\ncharges by sphere and circle quadrature (radius 2)")
for label, result, expect in [
    ("radial electric, q = 1",
     charge_surface(coulomb_sampler(1.0), 2.0, (64, 128)), 1.0),
    ("off-center electric, q = 1",
     charge_surface(coulomb_sampler(1.0, center=(0.4, -0.3, 0.2)), 2.0,
                    (64, 128)), 1.0),
    # a radial magnetic 2-form has the Coulomb components
    ("radial magnetic, g = 0.8",
     charge_surface(coulomb_sampler(0.8), 2.0), 0.8),
    ("uniform scalar, s = 0.9",
     charge_line(uniform_scalar_sampler(0.9), 2.0, 256), 0.9),
]:
    print(f"  {label:28s} value={result.values[0]:+.9f} "
          f"(error {abs(result.values[0] - expect):.1e}, "
          f"quadrature estimate {result.estimated_error:.1e})")
