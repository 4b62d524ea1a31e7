"""Exact classification and dynamics of surjective endomorphisms of
complex tori with rational complex structure."""

from .errors import (ComplexStructureError, DomainError, InvarianceViolation,
                     InvariantViolation, NotHolomorphicError, NotSubtorusError,
                     NotSurjectiveError, ParseError, ResourceError, ToridynError)
from .exactnum import (DEFAULT_PRECISION, CertifiedMagnitudeMultiset,
                       IntPolynomial, MagnitudeEntry, cyclotomic_poly,
                       cyclotomic_root_count, gauss_poly_conj, gauss_poly_mul,
                       polynomial_class, root_magnitudes, unit_circle_root_count)
from .matlin import (RationalMatrix, SmithDecomposition, Sublattice, charpoly,
                     exterior_basis, exterior_power, restrict_and_quotient,
                     saturate, smith_form)
from .torus import (ComplexTorus, NeronSeveriSpace, Subtorus,
                    canonical_ample_class, form_to_ns_vector, is_ample,
                    make_subtorus, make_torus, neron_severi, ns_vector_to_form)
from .endo import (EigenData, TorusEndomorphism, analytic_charpoly, eigen_data,
                   eigen_split, fixed_subtorus, iterate, make_endo,
                   minimal_unity_iterate, unity_free)
from .dynamics import (FixedPointSet, TorsionOrbitGraph, fixed_points,
                       lefschetz_number, periodic_count, subtorus_orbit,
                       torsion_dynamics)
from .classify import (AmplifiedVerdict, ClassificationReport, DegreeData,
                       PolarizedVerdict, amplified, chain_violations,
                       dynamical_degrees, finite_order, full_report,
                       h1_magnitudes, ns_action, ns_charpoly,
                       polarization_q_candidate, polarized, serre_test,
                       verify_iterates)
from .scenarios import (CMOrder, Scenario, cm_matrix_endo, cm_power_torus,
                        eisenstein_order, elliptic_curve, gaussian_order,
                        get_example, order_by_name, named_examples, product,
                        quadratic_order, random_endo)

__version__ = "0.1.0"
