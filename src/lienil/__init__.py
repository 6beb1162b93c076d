"""Exact supermatrix algebras over Lie nilpotent rings.

Constructions and checks for transitive matrices, Hadamard automorphisms,
supermatrix algebras over an endomorphism-and-transitive-matrix pair,
Grassmann algebras with their gradings, and the symmetric/right/left
determinant theory with Cayley-Hamilton identities and integrality
certificates.  All arithmetic is exact.
"""

from .scalars import QQ, Cyc, CyclotomicField, cyclotomic_polynomial
from .rings import (ContextMismatchError, Endomorphism, OracleRing,
                    PolynomialRing, RingError, RPolynomial, classical_adj,
                    classical_det, commutator, extend_endomorphism_to_poly,
                    fixed_ring_member, is_lie_nilpotent_index,
                    left_normed_commutator, oracle_ring)
from .grassmann import (ComponentBasis, GrassmannAlgebra, GrassmannElement,
                        epsilon, graded_component_basis, rho, sigma,
                        sigma_inverse, solve_constraint)
from .matrices import (Matrix, MatrixRing, TransitiveMatrix, blow_up, delta_n,
                       factor_transitive, hadamard, is_transitive, theta,
                       theta_inverse, transitive_from_units, transitive_square)
from .supermatrix import (EmbeddingConditionsReport, SuperAlgebraSpec,
                          check_embedding_conditions, closure_check, embed,
                          example_5_1, example_5_2, example_5_3,
                          example_algebra, hadamard_identity, is_supermatrix,
                          p_matrix, sample_supermatrix, shape, verify_embedding)
from .dets import (AdjointSequence, CharPoly, CostCapError,
                   IntegralityCertificate, adjoint_sequence,
                   cayley_hamilton_check, charpoly, integrality_certificate,
                   ldet, leading_coefficient_value, preadjoint,
                   preadjoint_via_minors, rdet, sdet, sdet_first_form)

__version__ = "0.1.0"
