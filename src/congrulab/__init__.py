"""congrulab: numerical verification of congruence of 3D projections and
sections of convex and star bodies in R^4."""

from .bodies import (Body4, BumpShape, BumpTerm, DiameterSet, EllipsoidShape,
                     PolytopeShape, ball, body_from_spec, body_to_spec, cube,
                     diameter_segment, ellipsoid, find_diameters, polytope)
from .funk import (GridFunction, ParityPair, funk_transform, parity_decompose,
                   sample_on_sphere)
from .orthogonal import (Orthogonal4, compose, equator_flip, identity,
                         pole_reflection, pole_rotation)
from .polylab import (Polytope3, SymmetryRecord, approximation_rate,
                      detect_rigid_symmetries, hausdorff_distance,
                      inscribe_polytope, match_congruent, perturb_to_asymmetric,
                      project_polytope, random_subspace_bases)
from .registration import (Classification, RotationWitness, classify_direction,
                           find_equator_flip_symmetry, register_pole_flip,
                           register_pole_rotation)
from .sphere import (SphereFrame, SphereGrid, circle_quadrature,
                     directions_orthogonal_to, gauss_grid, great_circle_nodes,
                     make_frame, unit)
from .verifier import (Verdict, VerifyConfig, decide_functional_equation,
                       verify_projection_theorem, verify_section_theorem)

__version__ = "0.1.0"
