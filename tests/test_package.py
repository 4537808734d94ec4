"""The package namespace is the program's API: the errors, the objects of
the paper and the operations the command line runs on them.  Helpers that
only tests use live in tests/oracles.py, not here."""

import inspect

import hopfgalois

API = {
    # errors
    "CapabilityError", "ConsistencyError", "DomainError",
    "FixtureValidationError", "HopfGaloisError", "StructureError",
    "TheoremViolationError",
    # permutation groups, coset spaces and regular subgroups
    "CosetSpace", "FiniteGroup", "LambdaEmbedding", "Permutation",
    "RegularSubgroup", "build_coset_space", "centralizer_bruteforce",
    "enumerate_regular_normalized", "group_queries", "is_normalized_by",
    "left_translation_embedding", "metacyclic_group", "opposite",
    # transition determinants
    "IntPolynomial", "det_identity", "det_symbolic", "signed_canonical_det",
    "transition_matrix_of",
    # number fields
    "FieldElement", "GaloisContext", "NumberField", "Subfield",
    "check_irreducible", "fixed_subfield", "load_field",
    # descent and its verification predicates
    "DescendedAlgebra", "GroupAlgebraElement", "descend", "is_separable",
    "verify_commuting", "verify_hopf_galois",
    # associated orders and freeness
    "AssociatedOrder", "CertificateReport", "FractionalIdeal",
    "FreenessResult", "Lattice", "associated_order", "freeness_certificate",
    "freeness_search",
}


def test_package_exports_exactly_the_program_api():
    public = {name for name, obj in vars(hopfgalois).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == API
