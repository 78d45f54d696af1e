"""Symbolic-numeric verifier for coupled vector / antisymmetric-tensor
gauge theories on 4D Minkowski space.

The package constructs the massless, massive and opposite-parity nonlinear
theories of Yang-Mills potentials coupled to Freedman-Townsend tensor
potentials and machine-checks their algebraic constraints and differential
identities on randomized truncated-Taylor field configurations.
"""

from .jets import JetAlgebra, JetRing, JetScalar, NilpotentExtension
from .forms import CONVENTION, LieForm, MinkowskiConvention, epsilon_dual
from .lie_core import (InternalSpace, MassTensor, StructureConstants,
                       decompose_mass_subspaces, jacobi_residual,
                       killing_metric)
from .deformations import (DeformationSet, check_all_relations,
                           check_e_mass_obstruction, check_linear_relations,
                           check_quadratic_relations, family_e_only,
                           family_general, family_solvable, family_su2,
                           parity_grade)
from .strengths import (FieldConfig, SingularYError, StrengthPair,
                        assemble_Y, compute_strengths, connection_curvature,
                        covariant_curl_H, invert_Y)
from .dynamics import (TheoryVariant, field_equations, gauge_variation,
                       run_identity_suite)
from .observables import (charge_line, charge_surface,
                          energy_causality_check, stress_energy)

__version__ = "0.1.0"
