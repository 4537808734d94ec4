"""Exact-arithmetic toolkit for Hopf-Galois structures on finite separable
field extensions: regular-subgroup enumeration on coset spaces, opposite
(commuting) structures, Galois descent of group algebras, normal-basis
generator tests, and associated-order freeness certificates."""

from .errors import (CapabilityError, ConsistencyError, DomainError,
                     FixtureValidationError, HopfGaloisError, StructureError,
                     TheoremViolationError)
from .perm import (CosetSpace, FiniteGroup, Permutation, build_coset_space,
                   centralizer_bruteforce, enumerate_regular_normalized,
                   metacyclic_group, opposite)
from .transition import (IntPolynomial, det_identity, det_symbolic,
                         signed_canonical_det, transition_matrix_of)
from .numberfield import (FieldElement, GaloisContext, NumberField, Subfield,
                          check_irreducible, fixed_subfield, load_field)
from .descent import (DescendedAlgebra, descend, is_separable,
                      verify_commuting, verify_hopf_galois)
from .integral import (AssociatedOrder, CertificateReport, FractionalIdeal,
                       FreenessResult, Lattice, associated_order,
                       freeness_certificate, freeness_search)

__version__ = "0.1.0"
