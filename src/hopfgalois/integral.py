"""Integer lattices in rational coordinate spaces, fractional ideals,
associated orders, the bounded freeness search, and the transfer certificate
tying the two commuting structures together."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import mul

from . import linalg
from .errors import (CapabilityError, ConsistencyError, DomainError,
                     StructureError, TheoremViolationError)
# is_generator is unused here: perfbench/smoke.py checks that its tracer wraps
# integral.is_generator
from .descent import DescendedAlgebra, generates, generator_sample, is_generator
from .transition import IntPolynomial, det_symbolic

# the sup-norm bound of the freeness box scan when the command line gives none
DEFAULT_BOUND = 3
# the box of DEFAULT_BOUND, 7^m candidates, at the size-8 limit
FREENESS_BOX_BOUND = 7 ** 8
# the box scan packs two trailing variables while their box has at most this
# many points, and one beyond
_PACKED_SLOTS = 256


@dataclass(frozen=True)
class Lattice:
    """Full-rank Z-lattice in Q^m, stored canonically: an integer basis in row
    Hermite normal form together with a common denominator, with the pair
    reduced so gcd(denominator, all entries) is 1."""

    denominator: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_integer_rows(cls, den, int_rows) -> "Lattice":
        """The lattice spanned by the rows int_rows / den, for integer rows
        and a positive integer den."""
        if not int_rows:
            raise StructureError("a lattice needs at least one basis vector")
        m = len(int_rows[0])
        reduced = linalg.hnf(int_rows)
        if len(reduced) != m:
            raise ConsistencyError(
                f"lattice has rank {len(reduced)}, expected full rank {m}")
        den, reduced = linalg._integer_form(den, reduced)
        return cls(den, tuple(map(tuple, reduced)))

    def contains(self, vector) -> bool:
        """Whether the integer vector lies in the lattice: whether the
        denominator times it is spanned."""
        return self._spans([self.denominator * v for v in vector])

    def _spans(self, scaled: list[int], d: int = 1) -> bool:
        """Whether the integer vector over the positive integer d is an
        integer vector in the span of the rows over Z, that is, whether it
        over d times the denominator lies in the lattice."""
        if any(v % d for v in scaled):
            return False
        scaled = [v // d for v in scaled]
        for row in self.rows:
            j = next(i for i, v in enumerate(row) if v)
            if scaled[j]:
                if scaled[j] % row[j]:
                    return False
                q = scaled[j] // row[j]
                for k in range(j, len(scaled)):
                    scaled[k] -= q * row[k]
        return not any(scaled)


@dataclass(frozen=True)
class FractionalIdeal:
    """A full-rank lattice in subfield coordinates, verified stable under
    multiplication by every integral-basis element."""

    name: str
    lattice: Lattice

    @classmethod
    def build(cls, name: str, lattice: Lattice, ring) -> "FractionalIdeal":
        """The ideal, checked stable under the ring: the multiplication
        matrix of each integral-basis element in integer form (d, Mz).  With
        M = Mz/d and a basis vector r/D of the lattice, M r/D lies in it when
        Mz r is divisible by d and the rows span Mz r / d."""
        for k, (d, mz) in enumerate(ring):
            for row in lattice.rows:
                if not lattice._spans(linalg.mat_vec(mz, row), d):
                    raise StructureError(
                        f"not stable under integral-basis element {k}")
        return cls(name, lattice)


@dataclass(frozen=True)
class AssociatedOrder:
    """The full multiplier order of an ideal inside a descended algebra, in
    algebra-basis coordinates.  The integer action F_k of lattice basis
    vector k on the ideal is kept row-major as one flat row (_flat_matrix):
    the callers of a search keep its order, and an int64 array takes 8
    bytes an entry where a tuple of tuples takes a slot and an int object."""

    lattice: Lattice
    ideal_action_matrices: tuple  # flat F_k, one per lattice basis vector


def _flat_matrix(rows):
    """The integer matrix row-major as an int64 array, or as a tuple when
    an entry needs more than 64 bits."""
    flat = [v for row in rows for v in row]
    try:
        return array("q", flat)
    except OverflowError:
        return tuple(flat)


def associated_order(algebra: DescendedAlgebra, ideal: FractionalIdeal) -> AssociatedOrder:
    """Exact computation of every algebra element mapping the ideal into
    itself: the dual of the row lattice of the rewritten action matrices,
    then verified to be a unital, multiplicatively closed stabilizer.  Over
    Z: with the ideal basis W = Wz/d_I, the inverse Wz^-1 = P/d_P in
    integer form and the algebra's integer form d_A A_k, the rewritten
    W^-1 A_k W = Wz^-1 A_k Wz (d_I cancels) is S_k/D for S_k = P (d_A A_k) Wz
    and D = d_P d_A; the Hermite form and the dual basis are unchanged by
    the positive scale D."""
    m = algebra.dim
    wz = linalg.transpose(ideal.lattice.rows)
    w_inv = linalg.invert(wz)
    if w_inv is None:
        raise ConsistencyError("ideal basis is singular")
    d_p, p = w_inv
    scaled = [linalg.mat_mul(linalg.mat_mul(p, a), wz)
              for a in algebra.int_action_matrices]
    scale = d_p * algebra.action_denominator

    reduced = linalg.hnf([[s[i][j] for s in scaled]
                          for i in range(m) for j in range(m)])
    if len(reduced) != m:
        raise ConsistencyError(
            "action is degenerate; it cannot come from a Hopf-Galois structure")
    # the dual basis: the columns of scale H^-1, with H^-1 = Q/d_H
    d_h, q = linalg.invert(reduced)
    lattice = Lattice.from_integer_rows(
        d_h, [[scale * v for v in col] for col in zip(*q)])

    if not lattice.contains(list(algebra.identity_coords)):
        raise ConsistencyError("associated order does not contain the identity")
    # basis element c/d_L acts on the ideal as sum_k c_k S_k / (d_L D)
    q = lattice.denominator * scale
    actions = []
    for mat in linalg.combined(scaled, lattice.rows):
        if any(v % q for row in mat for v in row):
            raise ConsistencyError("order element does not stabilize the ideal")
        actions.append(_flat_matrix([[v // q for v in row] for row in mat]))
    # closure over Z: for rows a, b the product of a/d_L and b/d_L is
    # sum a_i b_j C_ij / (d_L^2 d_s), for the structure constants C_ij over
    # d_s; it lies in the lattice when d_L times it is an integer row that the
    # rows span
    consts = algebra.int_structure_constants
    den = lattice.denominator * algebra.structure_denominator
    for a in lattice.rows:
        # column k holds the k-th coordinates of a * b_j over the j
        a_times = list(zip(*(
            [sum(map(mul, a, column)) for column in zip(*(c[j] for c in consts))]
            for j in range(m))))
        for b in lattice.rows:
            product = [sum(map(mul, b, column)) for column in a_times]
            if not lattice._spans(product, den):
                raise ConsistencyError(
                    "associated order is not closed under multiplication")
    return AssociatedOrder(lattice, tuple(actions))


@dataclass(frozen=True)
class FreenessResult:
    status: str                    # "FREE" or "UNKNOWN"
    witness_ideal_coords: tuple | None = None
    witness_subfield_coords: tuple | None = None  # (denominator, integers)

    @property
    def free(self) -> bool:
        return self.status == "FREE"


def witness_matrix(order: AssociatedOrder, v):
    """Columns are the ideal-coordinates of (order basis element) . x for the
    candidate x with ideal-coordinates v; integer by construction."""
    m = len(v)
    cols = [[sum(map(mul, f[i:i + m], v)) for i in range(0, m * m, m)]
            for f in order.ideal_action_matrices]
    return [list(row) for row in zip(*cols)]


def is_free_witness(order: AssociatedOrder, v) -> bool:
    return abs(linalg.int_det(witness_matrix(order, v))) == 1


def norm_form(order: AssociatedOrder) -> IntPolynomial:
    """The form N with N(v) = det witness_matrix(order, v): entry (i, k) of
    the witness matrix is the linear form with coefficients row i of F_k."""
    mats = order.ideal_action_matrices
    m = len(mats)
    return det_symbolic([[f[i * m:(i + 1) * m] for f in mats] for i in range(m)])


def _unit_points(poly: IntPolynomial, bound: int):
    """(v, poly(v)) for the v of sup-norm at most `bound` whose first nonzero
    coordinate is negative and with poly(v) = +-1, in lexicographic order.

    The last k variables are packed: one integer holds a value per trailing
    point of [-bound, bound]^k, each in a w-bit slot, the points in
    lexicographic order from the low bits up.  k is 2 while that box has at
    most _PACKED_SLOTS points, and 1 beyond (or the number of variables, if
    smaller).  Packing is Z-linear, so the head variables are fixed by
    nested substitution on packed coefficients: fixing y_0 leaves a
    polynomial in y_1 .., and so on down to one integer that holds poly at
    every trailing point.  A trailing monomial is packed as the product of
    one block per tail variable i, its power's values at a stride of
    (2B+1)^(k-1-i) slots (_packed): a tail point's slot index has the
    variables' offsets as its base-(2B+1) digits, so the factors' slots
    meet only there.

    Every |poly(v)| in the box, and every packed monomial, is at most
    M = sum |c| bound^deg < 2^(w-2).  So the slot digit poly(v) + 2^(w-1) + 1
    lies in [0, 2^w), and no carry crosses a slot.  A hit's digit is 2^(w-1)
    or 2^(w-1) + 2: clearing bit 1 and flipping bit w-1 of every slot zeroes
    exactly the hits.  The SWAR test (x - ONES) & ~x & HIGHS then flags every
    zero slot, and besides only slots above a zero one, so a block with a hit
    always fires; a block is decoded slot by slot only when it does, from one
    binary string, so decoding is linear in the slot count.

    While the head prefix is zero, each head variable runs over -bound..0;
    with the whole head zero, only the tails before the zero tail (first
    nonzero entry negative) are kept.  A negative head variable opens the
    whole sub-box.

    A head prefix is skipped, before its coefficients are built or its block
    evaluated, when poly vanishes identically mod q on the prefix's residue
    class mod q, for q = 2 and 3 where q divides the number of variables
    (_live_classes): mod 2 and mod 3 the units +-1 are all the nonzero
    residues, so such a class holds no hit.  If poly vanishes identically
    mod q, nothing is scanned."""
    if not poly.terms:
        return
    points = range(-bound, bound + 1)
    k = min(poly.nvars, 2 if len(points) ** 2 <= _PACKED_SLOTS else 1)
    heads = poly.nvars - k
    # an unused q is the modulus 1: every prefix is in its one live class
    (q2, live2), (q3, live3) = (
        (q, _live_classes(poly, q, heads)) if poly.nvars % q == 0
        else (1, [b"\x01"] * (heads + 1)) for q in (2, 3))
    if not (live2[0][0] and live3[0][0]):
        return
    tails = list(product(points, repeat=k))
    top = max(map(sum, poly.terms))
    width = (sum(map(abs, poly.terms.values())) * bound ** top).bit_length() + 2
    half = 1 << width - 1
    ones = int(("0" * (width - 1) + "1") * len(tails), 2)
    highs = ones << width - 1
    digits = f"0{width * len(tails)}b"
    # y_i^d for tail variable i, a value per point of [-bound, bound]
    blocks = {(i, d): _packed([t ** d for t in points],
                              width * len(points) ** (k - 1 - i))
              for i, d in {(i, d) for e in poly.terms
                           for i, d in enumerate(e[heads:])}}
    packed, coeffs = {}, {}
    for e, c in poly.terms.items():
        tail = e[heads:]
        if tail not in packed:
            packed[tail] = prod(blocks[i, d] for i, d in enumerate(tail))
        coeffs[e[:heads]] = coeffs.get(e[:heads], 0) + c * packed[tail]
    monomials, plans = list(coeffs), []
    for _ in range(heads - 1):
        rest = sorted({e[1:] for e in monomials})
        index = {e: i for i, e in enumerate(rest)}
        plans.append((len(rest), [(e[0], index[e[1:]]) for e in monomials]))
        monomials = rest
    powers = {t: [t ** d for d in range(top + 1)] for t in points}
    last = {t: [powers[t][e[0]] for e in monomials] for t in points} if heads else {}
    # a slot digit is poly + 2^(w-1) + 1; keep clears bit 1 of every slot
    offset = highs + ones
    keep = ~(ones << 1)
    below_zero_tail = len(tails) // 2
    low = (1 << width * below_zero_tail) - 1

    def decode(q, prefix, zero):
        # one binary string, slot s ending width * s bits from its end
        bits = format(q, digits)
        for s in range(below_zero_tail if zero else len(tails)):
            end = len(bits) - width * s
            v = int(bits[end - width:end], 2) - half - 1
            if v == 1 or v == -1:
                yield prefix + tails[s], v

    if not heads:
        yield from decode(coeffs[()] + offset & low, (), True)
        return
    # depth first over the head prefixes, each with the coefficients left
    # once it is substituted and its residue classes mod q2 and q3; a
    # prefix's live children are pushed in reverse, so they are popped in
    # lexicographic order
    stack = [(0, list(coeffs.values()), (), True, 0, 0)]
    while stack:
        level, coeffs, prefix, zero, c2, c3 = stack.pop()
        choices = range(-bound, 1) if zero else points
        l2, l3 = live2[level + 1], live3[level + 1]
        b2, b3 = q2 * c2, q3 * c3
        if level == len(plans):
            for t in choices:
                if not (l2[b2 + t % q2] and l3[b3 + t % q3]):
                    continue
                q = sum(map(mul, coeffs, last[t])) + offset
                if zero and not t:
                    q &= low
                x = q & keep ^ highs
                if (x - ones) & ~x & highs:
                    yield from decode(q, prefix + (t,), zero and not t)
            continue
        size, plan = plans[level]
        children = []
        for t in choices:
            r2, r3 = b2 + t % q2, b3 + t % q3
            if not (l2[r2] and l3[r3]):
                continue
            pw, out = powers[t], [0] * size
            for (d, j), c in zip(plan, coeffs):
                out[j] += c * pw[d]
            children.append((level + 1, out, prefix + (t,), zero and not t,
                             r2, r3))
        stack.extend(reversed(children))


def _packed(values: list[int], shift: int) -> int:
    """sum values[j] 2^(shift j), signed values and all, by joining
    neighbours pairwise: each round halves the count and doubles the shift,
    so n values take n log n bit operations, not the n^2 of one sum."""
    while len(values) > 1:
        pairs = iter(values + [0] * (len(values) % 2))
        values = [a + (b << shift) for a, b in zip(pairs, pairs)]
        shift *= 2
    return values[0]


def _live_classes(poly: IntPolynomial, q: int, depth: int) -> list[bytearray]:
    """For d = 0 .. depth, live[d][c] is 1 when poly does not vanish
    identically mod the prime q on the residue class c = sum r_i q^(d-1-i)
    of its first d variables, and 0 when it does.  On F_q, y^q = y, so an
    exponent k >= 1 folds to 1 + (k - 1) mod (q - 1); a polynomial whose
    exponents are all below q is zero as a function on F_q^m only when each
    of its coefficients is zero mod q.  So the residues are substituted one
    variable at a time, and a class is live while terms remain; the
    subclasses of a dead class are dead."""
    folded = {}
    for e, c in poly.terms.items():
        if c % q:
            e = tuple(k and 1 + (k - 1) % (q - 1) for k in e)
            folded[e] = folded.get(e, 0) + c
    live = [bytearray(q ** d) for d in range(depth + 1)]
    stack = [(0, 0, {e: c % q for e, c in folded.items() if c % q})]
    while stack:
        d, code, terms = stack.pop()
        if not terms:
            continue
        live[d][code] = 1
        if d == depth:
            continue
        children = [{} for _ in range(q)]
        for e, c in terms.items():
            rest, k = e[1:], e[0]
            for r, child in enumerate(children):
                child[rest] = child.get(rest, 0) + c * r ** k
        stack.extend((d + 1, code * q + r, {e: c % q for e, c in child.items()
                                            if c % q})
                     for r, child in enumerate(children))
    return live


def freeness_search(order: AssociatedOrder, ideal: FractionalIdeal,
                    bound: int) -> FreenessResult:
    """Scan the integer box of ideal-coordinates for an element whose order
    orbit is exactly the ideal; the first (lexicographically smallest) witness
    wins.  An exhausted box is reported as UNKNOWN, never as a refutation.
    The scan evaluates the norm form on half the box: |N(-v)| = |N(v)|, and
    of v and -v the one whose first nonzero coordinate is negative comes
    first, so the first witness is there.  It evaluates N at a block of
    trailing points per integer operation and tests the whole block for +-1
    at once; that test has no false negatives, and a block is decoded
    exactly only when it fires (see _unit_points).  It skips the head
    prefixes whose residue class mod 2 or 3 (for the q dividing m) makes N
    vanish identically mod q: +-1 is nonzero mod q, so no witness lies
    there.  Its hit is confirmed by the integer determinant and the Hermite
    normal form of the witness matrix.  The cap counts the whole box."""
    if bound < 1:
        return FreenessResult("UNKNOWN")
    m = len(order.ideal_action_matrices)
    if (2 * bound + 1) ** m > FREENESS_BOX_BOUND:
        raise CapabilityError(f"freeness box of {2 * bound + 1}^{m} candidates "
                              f"exceeds the bound {FREENESS_BOX_BOUND}")
    # N is homogeneous of degree m, so the zero vector is never a hit
    for v, value in _unit_points(norm_form(order), bound):
        matrix = witness_matrix(order, v)
        if linalg.int_det(matrix) != value:
            raise ConsistencyError(
                "norm form disagrees with the witness determinant")
        unit = [[int(i == j) for j in range(m)] for i in range(m)]
        if linalg.hnf(linalg.transpose(matrix)) != unit:
            raise ConsistencyError(
                "unit determinant without lattice equality; witness check "
                "is inconsistent")
        lattice = ideal.lattice
        return FreenessResult("FREE", tuple(v), (lattice.denominator, tuple(
            linalg.mat_vec(linalg.transpose(lattice.rows), v))))
    return FreenessResult("UNKNOWN")


def _transfer_rows(partner: DescendedAlgebra, c, xi, scale, images):
    """For each given a . x, the unique partner element z with z . x = a . x,
    as rows in integer form (d, rows): one generator test of x and one
    inverse of the partner's orbit of x, shared by every a.  x is given by
    its coordinates xi/c in the subfield basis both algebras act on, as are
    all vectors here, for an integer vector xi and a positive integer c;
    each a . x by an integer image, scale times it.  The generator test runs
    on xi = c x, which generates exactly when x does, and shares with the
    inverse the partner's orbit of xi, which is c d times the true one (d its
    action_denominator).  With O that orbit as columns and O^-1 = P/e,
    z = c d P image / (e scale)."""
    sample = generator_sample(partner.subfield, xi)
    orbit = partner.orbit(xi)  # c d times the true orbit, built once
    if not generates(partner, sample, orbit):
        raise DomainError("transfer needs the witness to generate over the partner")
    # the orbit spans the subfield (generates), so it is invertible
    e, p = linalg.invert(linalg.transpose(orbit))
    factor = c * partner.action_denominator
    return linalg._integer_form(e * scale, [
        [factor * v for v in linalg.mat_vec(p, image)] for image in images])


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the two-sided freeness verification for a commuting pair."""

    verdict_main: FreenessResult
    verdict_partner: FreenessResult
    witness_transfers: bool | None      # None without a witness; failures raise
    transferred_lattice_matches: bool | None
    commuting_transport_holds: bool | None

    @property
    def consistent(self) -> bool:
        checks = [self.witness_transfers, self.transferred_lattice_matches,
                  self.commuting_transport_holds]
        return all(c is not False for c in checks)


def freeness_certificate(algebra: DescendedAlgebra, partner: DescendedAlgebra,
                         ideal: FractionalIdeal, bound: int,
                         order_main: AssociatedOrder | None = None) -> CertificateReport:
    """Run the bounded search on both commuting structures and verify that a
    witness on either side is a witness on the other, that the transferred
    order elements span exactly the partner's associated order, and that the
    transport commutes with the order action.  A self-opposite structure
    (partner is algebra) is one side computed once.  Both algebras act on
    one subfield basis, in which the ideal is given.  `order_main`, when
    given, is associated_order(algebra, ideal), already built by the caller."""
    if order_main is None:
        order_main = associated_order(algebra, ideal)
    res_main = freeness_search(order_main, ideal, bound)
    if partner is algebra:
        order_partner, res_partner = order_main, res_main
    else:
        order_partner = associated_order(partner, ideal)
        res_partner = freeness_search(order_partner, ideal, bound)

    transport_holds = None

    pairs = []
    if res_main.free:
        pairs.append((res_main, order_main, order_partner, algebra, partner))
    if res_partner.free and partner is not algebra:
        pairs.append((res_partner, order_partner, order_main, partner, algebra))

    for result, order_here, order_there, side_here, side_there in pairs:
        v = list(result.witness_ideal_coords)
        if not is_free_witness(order_there, v):
            raise TheoremViolationError(
                "witness on one side fails on the commuting side; the "
                "freeness equivalence was violated")

        # over Z: x = xi/c, the order's basis is its rows over d_L, and an
        # algebra acts by its integer form over its action denominator
        c, xi = result.witness_subfield_coords
        w_mats = linalg.combined(side_here.int_action_matrices,
                                 order_here.lattice.rows)
        w_of_x = [linalg.mat_vec(a, xi) for a in w_mats]
        scale = (order_here.lattice.denominator * side_here.action_denominator
                 * c)
        z_den, z_rows = _transfer_rows(side_there, c, xi, scale, w_of_x)
        if Lattice.from_integer_rows(z_den, z_rows) != order_there.lattice:
            raise TheoremViolationError(
                "transferred order elements do not span the partner's "
                "associated order")

        # each side's scale is common to both products, so the transport
        # z (w x) = w (z x) holds exactly when it holds on the integer forms
        ok = True
        for z_mat in linalg.combined(side_there.int_action_matrices, z_rows):
            z_of_x = linalg.mat_vec(z_mat, xi)
            for w_mat, wx in zip(w_mats, w_of_x):
                if linalg.mat_vec(z_mat, wx) != linalg.mat_vec(w_mat, z_of_x):
                    ok = False
        transport_holds = ok if transport_holds is None else (transport_holds and ok)

    if res_main.free != res_partner.free:
        raise TheoremViolationError(
            "one bounded search found a witness and the other did not, even "
            "though the witness transfers")
    # a witness that fails to transfer, or whose transfer spans another
    # lattice, raised above
    transferred = True if pairs else None
    return CertificateReport(res_main, res_partner, transferred, transferred,
                             transport_holds)
