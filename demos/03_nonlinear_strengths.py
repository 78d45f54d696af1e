"""Solving the implicit field strengths through the Y operator.

The nonlinear strengths (P, Q) are defined implicitly: their duals feed
back into their own definition.  Stacking components turns the definition
into a square matrix Y = 1 + (terms linear in the potentials) over the jet
ring, solved exactly order by order: the constant block is inverted once
and applied to each output monomial after the lower orders are
subtracted.  The solved strengths then satisfy several
independent geometric identities, checked here to machine precision.
"""

import numpy as np

from ymft.deformations import family_su2
from ymft.forms import random_field_config
from ymft.strengths import (FieldConfig, SingularYError, assemble_Y,
                            compute_strengths, invert_Y,
                            substitution_residual_massive,
                            substitution_residual_massless)

ds = family_su2(2.0, 0.5)
A, B = random_field_config(seed=11, amplitude=0.1, degree=3,
                           dim_a=3, dim_b=3)
config = FieldConfig(A, B)

y = assemble_Y(config, ds)
print("Y operator on the stacked (2-form, 3-form) components")
print("  size:", y.size, "x", y.size, "over", y.ring.width, "jet coefficients")
print("  block symmetry residual:", y.symmetry_residual(ds.ga, ds.gb))
print("  constant-block determinant:", f"{y.det_constant():.6f}")

invert_Y(y)   # raises SingularYError when the constant block degenerates
print("  constant block passes the admissibility gate")

pair = compute_strengths(config, ds)
print("\nsolved strengths substituted back into their definition:",
      f"{pair.defining_residual(config, ds):.2e}")

print("independent curvature route       P = R(A + h *Q) - R(h *Q):",
      f"{substitution_residual_massless(pair, config, ds):.2e}")
print("independent covariant-curl route  Q = D'(A + *Q) B + Gamma'(*P) A:",
      f"{substitution_residual_massive(pair, config, ds):.2e}")

# --- the admissibility boundary ----------------------------------------------

print("\nraising the field amplitude until the constant block degenerates:")
for amplitude in (0.1, 1.0, 3.0, 10.0):
    A, B = random_field_config(1, amplitude, 3, 3, 3)
    try:
        invert_Y(assemble_Y(FieldConfig(A, B), ds))
        print(f"  amplitude {amplitude:5.1f}: invertible")
    except SingularYError as exc:
        print(f"  amplitude {amplitude:5.1f}: {exc}")
        break
