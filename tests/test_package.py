"""The package namespace: every public name resolves, on first use, to the
object its module defines."""

import importlib

import pytest

import lienil

# Every name ``lienil`` exported when its ``__init__`` imported all of its
# modules eagerly, under the module it was imported from.
EXPORTED = {
    "scalars": "QQ Cyc CyclotomicField cyclotomic_polynomial",
    "rings": "ContextMismatchError Endomorphism OracleRing PolynomialRing "
             "RingError RPolynomial classical_adj classical_det commutator "
             "fixed_ring_member left_normed_commutator",
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
    "dets": "AdjointSequence CharPoly CostCapError IntegralityCertificate "
            "adjoint_sequence cayley_hamilton_check charpoly "
            "integrality_certificate ldet leading_coefficient_value "
            "preadjoint preadjoint_via_minors rdet sdet sdet_first_form",
}
NAMES = [(module, name) for module, names in EXPORTED.items()
         for name in names.split()]


def test_every_exported_name_is_its_modules_object():
    assert len(NAMES) == 63
    for module, name in NAMES:
        namespace = {}
        exec(f"from lienil import {name}", namespace)
        expected = getattr(importlib.import_module(f"lienil.{module}"), name)
        assert namespace[name] is expected, name
        assert getattr(lienil, name) is expected, name


def test_dir_and_all_list_every_exported_name():
    names = {name for _, name in NAMES}
    assert names <= set(dir(lienil))
    assert set(lienil.__all__) == names
    assert "__version__" in dir(lienil)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lienil.no_such_name
    with pytest.raises(ImportError):
        exec("from lienil import no_such_name", {})
    from lienil import serialize     # a module, not a listed name
    assert serialize is importlib.import_module("lienil.serialize")
