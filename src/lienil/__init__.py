"""Exact supermatrix algebras over Lie nilpotent rings.

Constructions and checks for transitive matrices, Hadamard automorphisms,
supermatrix algebras over an endomorphism-and-transitive-matrix pair,
Grassmann algebras with their gradings, and the symmetric/right/left
determinant theory with Cayley-Hamilton identities and integrality
certificates.  All arithmetic is exact.  Importing the package loads none
of its modules: each public name is imported from its module on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "scalars": "QQ Cyc CyclotomicField cyclotomic_polynomial",
    "rings": "ContextMismatchError CostCapError Endomorphism "
             "PolynomialRing RingError RPolynomial commutator "
             "fixed_ring_member left_normed_commutator",
    "oracle": "OracleRing classical_adj classical_det",
    "grassmann": "ComponentBasis GrassmannAlgebra GrassmannElement epsilon "
                 "graded_component_basis rho sigma "
                 "solve_constraint",
    "matrices": "Matrix TransitiveMatrix blow_up delta_n factor_transitive "
                "hadamard is_transitive theta theta_inverse "
                "transitive_from_units transitive_square",
    "supermatrix": "EmbeddingConditionsReport SuperAlgebraSpec "
                   "check_embedding_conditions closure_check embed "
                   "example_5_1 example_5_2 example_5_3 example_algebra "
                   "is_supermatrix p_matrix "
                   "sample_supermatrix shape verify_embedding",
    "dets": "AdjointSequence CharPoly IntegralityCertificate "
            "adjoint_sequence cayley_hamilton_check charpoly "
            "integrality_certificate ldet leading_coefficient_value "
            "preadjoint preadjoint_via_minors rdet sdet sdet_first_form",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):                  # PEP 562: the first use of a name
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
