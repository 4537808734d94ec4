"""Parser and validator for `.hgx` extension descriptors, plus the bundled
fixture library.

A descriptor is a JSON document with named blocks: a group (permutation
generators or a split metacyclic presentation), a stabilizer subgroup, an
optional exact field block (minimal polynomial and automorphism images of the
generator, low-degree-first coefficient arrays, rationals as "p/q" strings),
an integral basis, and named fractional-ideal bases.  Validation reports every
failure found, not just the first.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from math import lcm
from pathlib import Path

from . import descent, integral, linalg
from .errors import (CapabilityError, FixtureValidationError, HopfGaloisError,
                     StructureError)
from .integral import FractionalIdeal, Lattice
from .numberfield import GaloisContext, Subfield, fixed_subfield, load_field
from .perm import (GROUP_ORDER_BOUND, CosetSpace, FiniteGroup, Permutation,
                   build_coset_space, enumerate_regular_normalized,
                   metacyclic_group, opposite)
from .transition import signed_canonical_det

BUNDLED = ("qi", "qzeta3", "c4quartic", "v4biquad", "qcbrt2", "s3sextic",
           "metacyclic21", "d4", "q8")


def bundled_path(name: str):
    """Filesystem path of a bundled fixture (with or without extension)."""
    if name.endswith(".hgx"):
        name = name[:-4]
    ref = resources.files("hopfgalois").joinpath(f"data/{name}.hgx")
    return ref


def _parse_rational(value, problems, where) -> Fraction:
    # a JSON true or false is a Python int, and a float is no exact rational;
    # a string is "p" or "p/q" only: Fraction would also read "1e9999999"
    # and build its ten-million-digit integer
    try:
        if type(value) is int or isinstance(value, str) and re.fullmatch(
                r"-?[0-9]+(/[0-9]+)?", value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    problems.append(f"{where}: not a rational number: {value!r}")
    return Fraction(0)


def _parse_vector(values, problems, where):
    if not isinstance(values, list):
        problems.append(f"{where}: expected an array of rationals")
        return []
    return [_parse_rational(v, problems, f"{where}[{i}]")
            for i, v in enumerate(values)]


class Fixture:
    """A fully validated descriptor, with its coset space, built at parse.
    Each other derived fact is built on first use into one store (`_once`):
    the structures and their opposites, and per structure its transition
    determinant, its algebra, and per ideal lattice (not name: two names for
    one lattice share them) its associated order and freeness certificate."""

    def __init__(self, name, space, context, subfield, ideals, assertions):
        self.name = name
        self.group: FiniteGroup = space.group
        self.stabilizer: FiniteGroup = space.stabilizer
        self._space: CosetSpace = space
        self.context: GaloisContext | None = context
        self._subfield: Subfield | None = subfield
        self.ideals: dict[str, FractionalIdeal] = ideals
        self.assertions = assertions
        self._facts = {}

    def _once(self, key, build):
        """The fact under `key`, built by `build()` on the first call."""
        if key not in self._facts:
            self._facts[key] = build()
        return self._facts[key]

    @property
    def has_field(self) -> bool:
        return self.context is not None

    def coset_space(self) -> CosetSpace:
        return self._space

    def subfield(self) -> Subfield:
        if self.context is None:
            raise HopfGaloisError(
                f"fixture {self.name!r} has no field block; only group-level "
                "operations are available")
        return self._subfield

    def structures(self):
        return self._once("structures", lambda: enumerate_regular_normalized(
            self.coset_space()))

    def opposites(self) -> list[FiniteGroup]:
        """The opposite of each structure (perm.opposite)."""
        return self._once("opposites", lambda: [
            opposite(n, self.coset_space()) for n in self.structures()])

    def opposite_indices(self) -> list[int]:
        """Position in structures() of each structure's opposite."""
        return self._once("opposite_indices", lambda: list(
            map(self.structures().index, self.opposites())))

    def transition_det(self, index: int):
        """transition.signed_canonical_det of structures()[index]: the
        canonical determinant and the sign relating it to the transition
        matrix's determinant."""
        return self._once(("det", index), lambda: signed_canonical_det(
            self.structures()[index], self.coset_space()))

    def algebra(self, index: int):
        return self._once(("algebra", index), lambda: descent.descend(
            self.structures()[index], self.subfield()))

    def order(self, index: int, name: str):
        """integral.associated_order of structure `index` on the ideal."""
        algebra = self.algebra(index)
        ideal = self.ideal(name)
        return self._once(("order", index, ideal.lattice),
                          lambda: integral.associated_order(algebra, ideal))

    def certificate(self, index: int, name: str, bound: int):
        """integral.freeness_certificate of structure `index` and its
        opposite on the ideal, searched to `bound`."""
        partner = self.opposite_indices()[index]
        ideal = self.ideal(name)
        return self._once(
            ("certificate", index, ideal.lattice, bound),
            lambda: integral.freeness_certificate(
                self.algebra(index), self.algebra(partner), ideal, bound,
                self.order(index, name)))

    def ideal(self, name: str) -> FractionalIdeal:
        if name not in self.ideals:
            raise HopfGaloisError(
                f"fixture {self.name!r} has no ideal named {name!r}; "
                f"available: {sorted(self.ideals)}")
        return self.ideals[name]

    def __repr__(self):
        return f"Fixture({self.name!r})"


def _build_group(block, problems):
    if not isinstance(block, dict):
        problems.append("group: expected an object")
        return None, {}
    declared = block.get("order")
    if type(declared) is not int or declared < 1:
        problems.append("group.order: a positive integer is required")
        return None, {}
    if declared > GROUP_ORDER_BOUND:
        raise CapabilityError(f"group of order {declared} exceeds the group "
                              f"order bound {GROUP_ORDER_BOUND}")
    if "presentation" in block:
        pres = block["presentation"]
        if not isinstance(pres, dict):
            problems.append("group.presentation: expected an object")
            return None, {}
        if pres.get("kind") != "metacyclic":
            problems.append(
                f"group.presentation.kind: unsupported kind {pres.get('kind')!r}; "
                "only the split metacyclic family is supported")
            return None, {}
        names = pres.get("generators", ["s", "t"])
        if not (isinstance(names, list) and len(names) == 2
                and all(isinstance(x, str) for x in names)
                and names[0] != names[1]):
            problems.append("group.presentation.generators: a list of two "
                            "distinct names is required")
            return None, {}
        try:
            group, s_perm, t_perm = metacyclic_group(
                pres.get("r"), pres.get("q"), pres.get("d"))
        except StructureError as err:
            problems.append(f"group.presentation: {err}")
            return None, {}
        if group.order() != declared:
            problems.append(
                f"group.presentation: defines a group of order {group.order()}, "
                f"declared {declared}")
            return None, {}
        return group, {names[0]: group.index_of(s_perm),
                       names[1]: group.index_of(t_perm)}
    gens_block = block.get("generators")
    if not isinstance(gens_block, dict) or not gens_block:
        problems.append("group.generators: a nonempty object is required")
        return None, {}
    # a permutation of more points than the order bound is refused unbuilt
    widest = max((len(v) for v in gens_block.values() if isinstance(v, list)),
                 default=0)
    if widest > GROUP_ORDER_BOUND:
        raise CapabilityError(f"generator of degree {widest} exceeds the group "
                              f"order bound {GROUP_ORDER_BOUND}")
    perms = {}
    degree = None
    for gname, images in gens_block.items():
        try:
            p = Permutation(images)
        except (HopfGaloisError, TypeError) as err:
            problems.append(f"group.generators.{gname}: {err}")
            continue
        if degree is None:
            degree = p.degree
        elif p.degree != degree:
            problems.append(
                f"group.generators.{gname}: degree {p.degree} differs from {degree}")
            continue
        perms[gname] = p
    if len(perms) != len(gens_block):
        return None, {}
    try:
        group = FiniteGroup.generated_by(list(perms.values()), limit=declared)
    except StructureError as err:
        problems.append(f"group: {err}")
        return None, {}
    if group.order() != declared:
        problems.append(
            f"group: generators close to order {group.order()}, declared {declared}")
        return None, {}
    return group, {g: group.index_of(p) for g, p in perms.items()}


def _evaluate_word(word: str, group: FiniteGroup, names, problems, where):
    result = group.elements[group.identity_index]
    for token in word.split("*"):
        token = token.strip()
        if not token:
            problems.append(f"{where}: empty factor in word {word!r}")
            return None
        if "^" in token:
            base, _, exp = token.partition("^")
            base = base.strip()
            try:
                power = int(exp)
            except ValueError:
                problems.append(f"{where}: bad exponent in {token!r}")
                return None
        else:
            base, power = token, 1
        if base not in names:
            problems.append(f"{where}: unknown generator {base!r} in word {word!r}")
            return None
        g = group.elements[names[base]]
        # g^power = g^(power mod the order of g), for negative powers too
        for _ in range(power % g.order()):
            result = result * g
    return result


def _build_stabilizer(block, group, names, problems):
    if block is not None and not isinstance(block, dict):
        problems.append("subgroup: expected an object")
        return None
    gens = []
    entries = (block or {}).get("generators", [])
    if not isinstance(entries, list):
        problems.append("subgroup.generators: expected an array")
        return None
    # as for the group's generators: past the order bound, refused unbuilt
    widest = max((len(e) for e in entries if isinstance(e, list)), default=0)
    if widest > GROUP_ORDER_BOUND:
        raise CapabilityError(f"subgroup generator of degree {widest} exceeds "
                              f"the group order bound {GROUP_ORDER_BOUND}")
    for i, entry in enumerate(entries):
        where = f"subgroup.generators[{i}]"
        if isinstance(entry, str):
            g = _evaluate_word(entry, group, names, problems, where)
            if g is None:
                return None
        else:
            try:
                g = Permutation(entry)
            except (HopfGaloisError, TypeError) as err:
                problems.append(f"{where}: {err}")
                return None
            if g.degree != group.degree:
                problems.append(
                    f"{where}: a permutation of degree {g.degree} is not an "
                    f"element of the group, of degree {group.degree}")
                return None
            if g not in group:
                problems.append(
                    f"{where}: permutation {list(g.images)} is not an element "
                    "of the group")
                return None
        gens.append(g)
    if not gens:
        return FiniteGroup.trivial(group.degree)
    return FiniteGroup.generated_by(gens)


def parse_text(text: str) -> Fixture:
    """Parse and fully validate a descriptor; raises FixtureValidationError
    carrying every problem found."""
    problems: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise FixtureValidationError(
            [f"syntax error at line {err.lineno}, column {err.colno}: {err.msg}"])
    except RecursionError:
        raise FixtureValidationError(
            ["syntax error: arrays or objects nested too deeply to parse"])
    except ValueError:
        # an integer literal past the interpreter's digit limit (4,300 by
        # default) for converting a string to an int
        raise FixtureValidationError(
            ["syntax error: an integer literal has too many digits to parse"])
    if not isinstance(raw, dict):
        raise FixtureValidationError(["descriptor must be a JSON object"])
    if not isinstance(raw.get("name"), str) or not raw.get("name"):
        problems.append("name: a nonempty string is required")
        raw.setdefault("name", "<unnamed>")

    group, names = _build_group(raw.get("group"), problems)
    if group is None:
        raise FixtureValidationError(problems)
    stabilizer = _build_stabilizer(raw.get("subgroup"), group, names, problems)
    if stabilizer is None:
        raise FixtureValidationError(problems)
    space = build_coset_space(group, stabilizer)

    context = None
    sub = None
    ideals: dict[str, FractionalIdeal] = {}
    fblock = raw.get("field")
    if "field" in raw and not isinstance(fblock, dict):
        problems.append("field: expected an object")
    elif "field" in raw:
        core = [p for p in stabilizer.elements
                if all(q * p * q.inverse() in stabilizer
                       for q in group.elements)]
        if len(core) > 1:
            problems.append(
                "subgroup: its core in the group is nontrivial, so the field "
                "is larger than the Galois closure of the fixed subfield")
        min_poly, degree = fblock.get("min_poly"), 0
        if isinstance(min_poly, list):
            min_poly = _parse_vector(min_poly, problems, "field.min_poly")
            if any(c.denominator != 1 for c in min_poly):
                problems.append("field.min_poly: coefficients must be integers")
            if min_poly and min_poly[-1] != 1:
                problems.append("field.min_poly: the last coefficient must be "
                                "1 (f is monic)")
            else:
                degree = len(min_poly) - 1
        else:
            problems.append("field.min_poly: an array of integer coefficients "
                            "is required")
        autos = fblock.get("automorphisms", {})
        if not isinstance(autos, dict):
            problems.append("field.automorphisms: expected an object")
            autos = {}
        images = {}
        for gname, coeffs in autos.items():
            if gname not in names:
                problems.append(f"field.automorphisms: unknown generator {gname!r}")
                continue
            where = f"field.automorphisms.{gname}"
            g, image = names[gname], _parse_vector(coeffs, problems, where)
            # names of one permutation must carry one image
            if images.setdefault(g, image) != image:
                first = next(h for h in autos if names.get(h) == g)
                problems.append(
                    f"field.automorphisms: generators {first!r} and {gname!r} "
                    "are one permutation but have different images")
            if degree > 0 and isinstance(coeffs, list) and len(coeffs) != degree:
                problems.append(f"{where}: expected {degree} coordinates")
        missing = [g for g in names if names[g] in group.generators
                   and names[g] not in images]
        if missing:
            problems.append(
                f"field.automorphisms: missing images for generators {missing}")
        irreducible = fblock.get("irreducible")
        if irreducible not in (None, "asserted"):
            problems.append(f'field.irreducible: expected "asserted", not '
                            f"{json.dumps(irreducible)}")
        if not problems:
            try:
                context = load_field(
                    min_poly, group, images,
                    irreducible_asserted=irreducible == "asserted")
                sub = fixed_subfield(context, space)
            except HopfGaloisError as err:
                problems.append(f"field: {err}")
        if sub is not None:
            ring = _validate_integral_basis(
                raw.get("integral_basis"), context, sub, problems)
            iblock = {} if raw.get("ideals") is None else raw["ideals"]
            if not isinstance(iblock, dict):
                problems.append("ideals: expected an object")
                iblock = {}
            for iname, vectors in iblock.items():
                ideal = _build_ideal(iname, vectors, context, sub,
                                     ring or (), problems)
                if ideal is not None:
                    ideals[iname] = ideal

    assertions = _validate_assertions(raw.get("assertions"), problems)
    if problems:
        raise FixtureValidationError(problems)
    return Fixture(raw["name"], space, context, sub, ideals, assertions)


def _subfield_rows(vectors, where, context, sub: Subfield, problems):
    """The subfield coordinates of the field elements with the given
    power-basis coordinates, read over Z (Subfield.int_coords), as integer
    rows over one denominator (d, rows); None once a vector is malformed or
    not fixed by the stabilizer."""
    scaled = []
    for i, vec in enumerate(vectors):
        coords = _parse_vector(vec, problems, f"{where}[{i}]")
        if len(coords) != context.degree:
            problems.append(f"{where}[{i}]: expected {context.degree} coordinates")
            return None
        c, (ints,) = linalg._clear_denominators([coords])
        row = sub.int_coords(ints)
        if row is None:
            problems.append(f"{where}[{i}]: element is not fixed by the stabilizer")
            return None
        scaled.append((c, row))
    d = lcm(*(c for c, _ in scaled))
    return d, [[x * (d // c) for x in row] for c, row in scaled]


def _validate_integral_basis(block, context, sub: Subfield, problems):
    """The ring of the integral basis, or None: each element's
    multiplication matrix on the subfield in integer form (d, Mz), combined
    from the subfield's table over Z.  1 and every product of two elements
    must lie in the basis's lattice; a product e_i e_j has coordinates
    Mz_i r_j / (d c) for the element rows r_j over c."""
    if block is None:
        problems.append("integral_basis: required when a field block is present")
        return None
    if not isinstance(block, list):
        problems.append("integral_basis: expected an array")
        return None
    form = _subfield_rows(block, "integral_basis", context, sub, problems)
    if form is None:
        return None
    c, rows = form
    if len(rows) != sub.dim:
        problems.append(
            f"integral_basis: {len(rows)} elements cannot span a subfield of "
            f"dimension {sub.dim}")
        return None
    if linalg.rank(rows) != sub.dim:
        problems.append("integral_basis: elements are linearly dependent")
        return None
    lattice = Lattice.from_integer_rows(c, rows)
    if not lattice.contains(sub.int_coords([1] + [0] * (context.degree - 1))):
        problems.append("integral_basis: 1 is not an integer combination of the basis")
    s2, table = sub.int_multiplication_matrices()
    ring = [(c * s2, mz) for mz in linalg.combined(table, rows)]
    for i, (d, mz) in enumerate(ring):
        for j, row in enumerate(rows):
            if not lattice._spans([lattice.denominator * v
                                   for v in linalg.mat_vec(mz, row)], d * c):
                problems.append(
                    "integral_basis: not multiplicatively closed; the product "
                    f"of elements {i} and {j} leaves the span")
                return None
    return ring


def _build_ideal(name, vectors, context, sub: Subfield, ring, problems):
    """The ideal with the given basis, checked to be a full-rank lattice
    stable under the integral basis's ring (FractionalIdeal.build); None
    after a problem."""
    if not isinstance(vectors, list):
        problems.append(f"ideals.{name}: expected an array of vectors")
        return None
    form = _subfield_rows(vectors, f"ideals.{name}", context, sub, problems)
    if form is None:
        return None
    d, rows = form
    if len(rows) != sub.dim:
        problems.append(
            f"ideals.{name}: {len(rows)} vectors cannot be a full-rank lattice "
            f"in dimension {sub.dim}")
        return None
    if linalg.rank(rows) != sub.dim:
        problems.append(f"ideals.{name}: basis vectors are linearly dependent")
        return None
    try:
        return FractionalIdeal.build(name, Lattice.from_integer_rows(d, rows),
                                     ring)
    except StructureError as err:
        problems.append(f"ideals.{name}: {err}")
        return None


# assertion key -> its computed value; the parser accepts these keys only
_ASSERTED = {
    "coset_count": lambda fx: fx.coset_space().size,
    "structure_count": lambda fx: len(fx.structures()),
    "center_order": lambda fx: fx.group.center().order(),
    "nontrivial_proper_normal_orders": lambda fx: sorted(
        h.order() for h in fx.group.normal_subgroups()
        if 1 < h.order() < fx.group.order()),
}
# the assertion keys whose value is an array of counts; any other is a count
_LISTED = frozenset({"nontrivial_proper_normal_orders"})


def _validate_assertions(block, problems):
    if block is None:
        return {}
    if not isinstance(block, dict):
        problems.append("assertions: expected an object")
        return {}
    out = {}
    for key, spec in block.items():
        if key not in _ASSERTED:
            problems.append(f"assertions.{key}: unknown assertion")
            continue
        if not isinstance(spec, dict) or "value" not in spec:
            problems.append(f"assertions.{key}: expected an object with a value")
            continue
        value = spec["value"]
        if key not in _LISTED:
            entries = [("", value)]
        elif isinstance(value, list):
            entries = [(f"[{i}]", v) for i, v in enumerate(value)]
        else:
            entries = []
            problems.append(f"assertions.{key}.value: expected an array of "
                            f"counts, not {json.dumps(value)}")
        # a JSON true or false is a Python int, but not a count
        for at, entry in entries:
            if type(entry) is not int:
                problems.append(f"assertions.{key}.value{at}: a count must be "
                                f"an integer, not {json.dumps(entry)}")
            elif entry < 0:
                problems.append(f"assertions.{key}.value{at}: a count must be "
                                f"nonnegative, not {entry}")
        provenance = spec.get("provenance", "unspecified")
        if not isinstance(provenance, str):
            problems.append(f"assertions.{key}.provenance: expected a string, "
                            f"not {json.dumps(provenance)}")
        out[key] = {"value": value, "provenance": provenance}
    return out


def parse(path) -> Fixture:
    """Parse and validate the descriptor file at `path` (UTF-8); a file that
    cannot be read, or is not UTF-8 text, is a validation problem too."""
    reader = path if hasattr(path, "read_text") else Path(path)
    try:
        content = reader.read_text(encoding="utf-8")
    except OSError as err:
        raise FixtureValidationError([f"cannot read the file: {err.strerror}"])
    except UnicodeDecodeError as err:
        raise FixtureValidationError([f"not UTF-8 text: {err.reason}"])
    return parse_text(content)


def load_bundled(name: str) -> Fixture:
    return parse_text(bundled_path(name).read_text(encoding="utf-8"))
