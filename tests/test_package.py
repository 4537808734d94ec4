"""The package namespace is the program's API: the errors, the objects of
the paper and the operations the command line runs on them.  Helpers that
only tests use live in tests/oracles.py, not here."""

import ast
import inspect
from pathlib import Path

import hopfgalois

API = {
    # errors
    "CapabilityError", "ConsistencyError", "DomainError",
    "FixtureValidationError", "HopfGaloisError", "StructureError",
    "TheoremViolationError",
    # permutation groups, coset spaces and regular subgroups
    "CosetSpace", "FiniteGroup", "Permutation", "build_coset_space",
    "centralizer_bruteforce", "enumerate_regular_normalized",
    "metacyclic_group", "opposite",
    # transition determinants
    "IntPolynomial", "det_identity", "det_symbolic", "signed_canonical_det",
    "transition_matrix_of",
    # number fields
    "FieldElement", "GaloisContext", "NumberField", "Subfield",
    "check_irreducible", "fixed_subfield", "load_field",
    # descent and its verification predicates
    "DescendedAlgebra", "descend", "is_separable", "verify_commuting",
    "verify_hopf_galois",
    # associated orders and freeness
    "AssociatedOrder", "CertificateReport", "FractionalIdeal",
    "FreenessResult", "Lattice", "associated_order", "freeness_certificate",
    "freeness_search",
}


def test_package_exports_exactly_the_program_api():
    public = {name for name, obj in vars(hopfgalois).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == API


# imported and never called: perfbench/smoke.py checks that its tracer wraps
# these names in these modules
LOOKED_UP = {("cli", "descend"), ("cli", "is_generator"),
             ("integral", "is_generator")}


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(Path(hopfgalois.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the API above
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)
                   if (path.stem, name) not in LOOKED_UP]
    assert unused == []
