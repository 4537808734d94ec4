"""Transition matrices and their exact determinants.

Entry (eta, g) of the transition matrix of a structure N is the value at
coset eta(g): symbolically the indeterminate y_k ("apply the representative
of coset k"), numerically that representative applied to a field element.
Symbolic determinants are integer-coefficient sparse polynomials in
y_0 .. y_{m-1}; they take any matrix of integer linear forms, such as the
norm form of a freeness search.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable
from functools import cache
from itertools import combinations_with_replacement
from operator import getitem, itemgetter, mul

from .errors import CapabilityError, ConsistencyError
from .perm import ENUMERATION_BOUND, CosetSpace, FiniteGroup


class IntPolynomial:
    """Sparse integer-coefficient polynomial in variables y_0 .. y_{nvars-1}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, IntPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return IntPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __str__(self):
        # printing order: total degree, concentration pattern (the exponents
        # sorted downwards), then lex; all descending, so y0^3 + y1^3 + y2^3
        # - 3*y0*y1*y2 prints in that order.  Each term's (degree, pattern)
        # is built once, as a group key: a determinant's hundreds of terms
        # share a few dozen, and each group sorts on its exponents alone
        if not self.terms:
            return "0"
        groups = {}
        for exps in self.terms:
            groups.setdefault((sum(exps), tuple(sorted(exps, reverse=True))),
                              []).append(exps)
        top = max(degree for degree, _ in groups)
        # names[k][e] is "*y{k}^{e}", "*y{k}" at e = 1 and "" at e = 0
        names = [["", f"*y{k}", *(f"*y{k}^{e}" for e in range(2, top + 1))]
                 for k in range(self.nvars)]
        pieces = []
        for key in sorted(groups, reverse=True):
            for exps in sorted(groups[key], reverse=True):
                coeff = self.terms[exps]
                factors = "".join(map(getitem, names, exps))
                mag = abs(coeff)
                if not factors:
                    body = str(mag)
                elif mag == 1:
                    body = factors[1:]
                else:
                    body = f"{mag}{factors}"
                if not pieces:
                    pieces.append(body if coeff > 0 else f"-{body}")
                else:
                    pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"IntPolynomial({self})"


def transition_matrix_of(n: FiniteGroup, values):
    """Entry (eta, g) is values[eta(g)]: numeric on the coset values of a
    field element, symbolic on the unit linear forms y_k."""
    return [list(map(values.__getitem__, eta.images)) for eta in n.elements]


def det_symbolic(matrix) -> IntPolynomial:
    """Exact determinant by Laplace expansion along the rows, memoized over
    column sets: the minor on the bottom k rows and a k-column set is built
    once, so the expansion visits 2^m minors instead of m! permutations.
    Entries are integer linear forms in y_0 .. y_{n-1}, each given as its
    coefficient vector (a_0, .., a_{n-1}).  The minors are packed
    (_dense_det) when some entry has two or more nonzero coefficients and
    more than half of all m * m * n coefficients are nonzero, as in most
    norm forms: such minors are nearly dense.  Any other matrix, such as a
    transition matrix or forms with mostly zero coefficients, is expanded
    over dicts (_sparse_det), and so is a packed one whose coefficients
    outgrow their slots."""
    m, nvars = len(matrix), len(matrix[0][0])
    if m > ENUMERATION_BOUND:
        raise CapabilityError(f"matrix size {m} exceeds the symbolic "
                              f"determinant bound {ENUMERATION_BOUND}")
    counts = [len(form) - form.count(0) for row in matrix for form in row]
    if max(counts) > 1 and 2 * sum(counts) > m * m * nvars:
        terms = _dense_det(matrix, nvars)
        if terms is not None:
            return IntPolynomial(nvars, terms)
    return IntPolynomial(nvars, _sparse_det(matrix, nvars))


def _sparse_det(matrix, nvars: int) -> dict:
    """The determinant's terms, each minor a dict of its nonzero terms.  The
    expansion runs over the rows of matrix, from the bottom up."""
    m = len(matrix)
    # an exponent vector is one integer in radix m + 1 (no exponent of a
    # degree-m determinant exceeds m), so multiplying by y_k adds radix^k
    radix = m + 1
    weights = [radix ** j for j in range(nvars)]
    rows = [[[(weights[j], a) for j, a in enumerate(form) if a] for form in row]
            for row in matrix]
    # column bitmask -> {packed exponents: coefficient} of the minor on those
    # columns
    minors = {0: {0: 1}}
    for row in reversed(rows):
        grown: dict[int, dict[int, int]] = {}
        for cols, minor in minors.items():
            for c in range(m):
                bit = 1 << c
                if cols & bit:
                    continue
                # cofactor sign: parity of the columns of the minor left of c
                sign = -1 if (cols & (bit - 1)).bit_count() % 2 else 1
                target = grown.setdefault(cols | bit, {})
                for step, a in row[c]:
                    a *= sign
                    for key, coeff in minor.items():
                        key += step
                        target[key] = target.get(key, 0) + a * coeff
        for poly in grown.values():
            for key in [key for key, coeff in poly.items() if not coeff]:
                del poly[key]
        minors = grown
    terms = {}
    for key, coeff in minors[(1 << m) - 1].items():
        exps = []
        for _ in range(nvars):
            key, e = divmod(key, radix)
            exps.append(e)
        terms[tuple(exps)] = coeff
    return terms


# a packed coefficient is a signed 64-bit slot
_SLOT_LIMIT = 1 << 63


@cache
def _monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The exponent vectors of the given degree in graded order: the
    multisets of variables in lexicographic order."""
    return tuple(tuple(combo.count(j) for j in range(nvars))
                 for combo in combinations_with_replacement(range(nvars), degree))


def _gather(indices) -> Callable:
    """itemgetter(*indices), returning a tuple also for one index or none."""
    if not indices:
        return lambda seq: ()
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda seq: (get(seq),)


def _monomial_steps(wanted) -> list[tuple[Callable, Callable]]:
    """The gathers that build the values of the monomials `wanted`, each
    given as its multiset of variables (a sorted tuple), all of one degree
    d, from a point: for each degree 1 .. d, one gather reads the monomials
    one degree below, and one the point, so each monomial is one product:
    the one without its last variable times that variable."""
    steps = []
    while wanted and wanted[0]:
        below = sorted({combo[:-1] for combo in wanted})
        position = {combo: i for i, combo in enumerate(below)}
        steps.append((_gather([position[combo[:-1]] for combo in wanted]),
                      _gather([combo[-1] for combo in wanted])))
        wanted = below
    return steps[::-1]


def _plan(forms):
    """The steps that build the table of the monomials the forms have
    (_monomial_steps), and each form's gather of its own monomials from that
    table with its coefficients."""
    # multiset of variables -> the monomial's slot in the shared table
    slots: dict[tuple[int, ...], int] = {}
    plans = []
    for form in forms:
        reads = [slots.setdefault(
            tuple(j for j, k in enumerate(e) for _ in range(k)), len(slots))
            for e in form.terms]
        plans.append((_gather(reads), tuple(form.terms.values())))
    return _monomial_steps(list(slots)), plans


def form_evaluator(forms) -> Callable[[list[int]], list[int]]:
    """The values of homogeneous IntPolynomials of one degree, all in the
    same variables, as a function of an integer point: one value per form.
    The plan is made once (_plan).  Each point then costs one table of the
    monomials' values, shared by the forms, and one sum of products per form
    over its own monomials."""
    steps, plans = _plan(forms)

    def evaluate(point):
        table = (1,)
        for lower, variable in steps:
            table = list(map(mul, lower(table), variable(point)))
        return [sum(map(mul, coeffs, gather(table)))
                for gather, coeffs in plans]
    return evaluate


def form_residues(forms, columns, p: int) -> list[list[int]]:
    """The values mod p of homogeneous IntPolynomials of one degree, all in
    the same variables, at many integer points at once: columns[j] holds
    variable j at every point, and the result holds one column of residues
    per form.  The monomials' table is built as form_evaluator's, one column
    per monomial, each product reduced mod p.  Each column is then packed in
    one integer, one unsigned 64-bit slot per point, and each form is one
    combination of its monomials' packed columns with its coefficients mod
    p: no slot exceeds T p^2 for T terms, which must be below 2^63 (else
    CapabilityError).  The slots are read back and reduced mod p."""
    steps, plans = _plan(forms)
    most = max((len(coeffs) for _, coeffs in plans), default=0)
    if most * p * p >= _SLOT_LIMIT:
        raise CapabilityError(f"{most} terms mod {p} overflow a 64-bit slot")
    size = len(columns[0]) if columns else 0
    table = [[1] * size]
    for lower, variable in steps:
        table = [[a * b % p for a, b in zip(x, y)]
                 for x, y in zip(lower(table), variable(columns))]
    order = sys.byteorder
    packed = [int.from_bytes(array("Q", column).tobytes(), order)
              for column in table]
    residues = []
    for gather, coeffs in plans:
        value = sum(c % p * v for c, v in zip(coeffs, gather(packed)))
        residues.append([x % p for x in array(
            "Q", value.to_bytes(8 * size, order))])
    return residues


@cache
def _times_variable(nvars: int, degree: int) -> tuple[itemgetter, ...]:
    """For each variable y_j, the gather that reads the coefficients of
    y_j * P off those of P, of the given degree, followed by a zero slot:
    the coefficient of a monomial of degree + 1 without y_j is that zero.
    With nvars >= 2 each gather reads at least two slots, so it returns a
    tuple."""
    index = {e: i for i, e in enumerate(_monomials(nvars, degree))}
    zero = len(index)
    gathers = []
    for j in range(nvars):
        reads = []
        for e in _monomials(nvars, degree + 1):
            reads.append(index[e[:j] + (e[j] - 1,) + e[j + 1:]] if e[j] else zero)
        gathers.append(itemgetter(*reads))
    return tuple(gathers)


def _dense_det(matrix, nvars: int) -> dict | None:
    """The determinant's terms, with every minor of degree k packed in one
    integer: its coefficients over the degree-k monomials in graded order,
    one signed 64-bit slot each, slot i at bit 64 i.  Extending the minors by
    a row with entries a_c = sum_j a_cj y_j, the minor on a column set S is
    sum_j y_j Q_j with Q_j = sum_{c in S} +-a_cj P_{S-c}: each Q_j is a few
    big-integer products, decoded once (bias-xor, then the bytes read as
    signed slots), and multiplied by y_j as a gather (_times_variable).

    Every Q_j slot and every new coefficient is at most the row's absolute
    coefficient sum times the largest |coefficient| of the level below.
    Before each level that product is checked against 2^63.  When it is not
    below, the result is None, and det_symbolic expands the whole matrix
    over dicts instead.  Some entry has two nonzero coefficients, so
    nvars >= 2."""
    m = len(matrix)
    order = sys.byteorder
    coeffs = {0: (1,)}  # column bitmask -> coefficients of the minor
    for k, row in enumerate(reversed(matrix)):
        largest = max(max(map(abs, c)) for c in coeffs.values())
        if sum(abs(a) for form in row for a in form) * largest >= _SLOT_LIMIT:
            return None
        size = len(_monomials(nvars, k))
        # 2^63 in every slot: adding it makes every slot nonnegative, and
        # xor-ing it again turns a slot into its two's complement
        bias = int.from_bytes((bytes(7) + b"\x80") * size, "little")
        nbytes = 8 * (size + 1)  # one more, the zero slot
        gathers = _times_variable(nvars, k)
        negated = [tuple(-a for a in form) for form in row]
        parts: dict[int, list] = {}
        for cols, minor in coeffs.items():
            packed = (int.from_bytes(array("q", minor).tobytes(), order)
                      ^ bias) - bias
            for c in range(m):
                bit = 1 << c
                if not cols & bit:
                    # cofactor sign: parity of the columns of the minor left of c
                    odd = (cols & (bit - 1)).bit_count() % 2
                    parts.setdefault(cols | bit, []).append(
                        (negated[c] if odd else row[c], packed))
        coeffs = {}
        for cols, terms in parts.items():
            gathered = []
            for j, gather in enumerate(gathers):
                q = 0
                for form, packed in terms:
                    if form[j]:
                        q += form[j] * packed
                if q:
                    gathered.append(gather(array(
                        "q", ((q + bias) ^ bias).to_bytes(nbytes, order))))
            total = tuple(map(sum, zip(*gathered)))
            if any(total):
                coeffs[cols] = total
        if not coeffs:
            return {}
    full = coeffs[(1 << m) - 1]
    return {e: c for e, c in zip(_monomials(nvars, m), full) if c}


def signed_canonical_det(n: FiniteGroup,
                         space: CosetSpace) -> tuple[IntPolynomial, int]:
    """The canonical determinant, the transition determinant normalised to a
    positive y_0^m coefficient (its first printed term), together with the
    sign s for which the transition determinant is s times it.  For a
    regular N the transition matrix is a Latin square: y_0 fills one
    permutation matrix, whose sign is the y_0^m coefficient, so any other
    coefficient raises ConsistencyError."""
    m = space.size
    forms = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    poly = det_symbolic(transition_matrix_of(n, forms))
    sign = poly.terms.get((m,) + (0,) * (m - 1), 0)
    if sign not in (1, -1):
        raise ConsistencyError(f"transition determinant has y0^{m} "
                               f"coefficient {sign}: N is not regular")
    return (poly, 1) if sign == 1 else (-poly, -1)


def reindexing_witness(n: FiniteGroup, n_opp: FiniteGroup,
                       space: CosetSpace) -> bool:
    """The structural fact behind the determinant identity: relabelling the
    columns of each transition matrix through the simple-transitivity tables
    turns one matrix into the transpose of the other."""
    base = space.base_point
    left = [[eta(etap(base)) for etap in n_opp.elements] for eta in n.elements]
    right = [[etap(eta(base)) for eta in n.elements] for etap in n_opp.elements]
    return all(left[i][j] == right[j][i]
               for i in range(space.size) for j in range(space.size))


def det_identity(n: FiniteGroup, n_opp: FiniteGroup, space: CosetSpace,
                 det_n: IntPolynomial, det_opp: IntPolynomial) -> bool:
    """The determinant identity for N and its opposite, given their canonical
    transition determinants: exact polynomial equality of the two, plus the
    row/column reindexing fact used to prove it."""
    return reindexing_witness(n, n_opp, space) and det_n == det_opp
