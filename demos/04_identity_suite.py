"""The full differential identity suite on one massive configuration.

Everything the theory asserts -- gauge invariance up to a boundary term,
divergence identities, commutator closure, linearization, agreement of the
hand-coded field equations with the generic variational derivative, and the
closed-form strength transformation laws -- is verified off-shell as an
exact statement on jet coefficients.
"""

import sys

import numpy as np

from ymft.deformations import family_su2, make_deformation
from ymft.dynamics import TheoryVariant, run_identity_suite
from ymft.lie_core import InternalSpace, levi_civita3

variant = TheoryVariant(family_su2(2.0, 0.5))
out = run_identity_suite(variant, seeds=[1, 2, 3], degree=3, amplitude=0.1)

print("identity suite, massive three-dimensional family, seeds 1-3")
for name, report in out["reports"].items():
    for row in report.results:
        print(f"  {row.name:28s} residual={row.residual:.2e} "
              f"(tol {row.tolerance:.0e})  "
              f"{'ok' if row.passed else 'FAILED'}")
# wall time goes to stderr, so that stdout is the same on every run
print(f"  total time: {sum(out['timings'].values()):.1f}s", file=sys.stderr)

# --- negative control: breaking the coupling breaks invariance --------------

eps = levi_civita3()
bad = make_deformation(InternalSpace(3), InternalSpace(3), eps, 0.3 * eps,
                       eps, 0.3 * eps, np.zeros((3, 3, 3)),
                       2.0 * np.eye(3), h_map=0.3 * np.eye(3))
out = run_identity_suite(TheoryVariant(bad), seeds=[1],
                         checks=["gauge-invariance"])
report = out["reports"]["gauge-invariance"]
print("\nsame suite with the coupling forced to 0.3 instead of 1/m:")
for row in report.results:
    print(f"  {row.name:28s} residual={row.residual:.2e}  "
          f"{'ok' if row.passed else 'FAILED (as it must)'}")
