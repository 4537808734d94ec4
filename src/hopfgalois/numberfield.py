"""Exact arithmetic in E = Q[t]/(f), Galois automorphisms as Q-linear maps,
fixed subfields, and traces.  No floating point anywhere."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import count
from math import factorial, isqrt, lcm
from operator import mul

from . import linalg
from .errors import CapabilityError, ConsistencyError, DomainError, StructureError
from .perm import ENUMERATION_BOUND, CosetSpace, FiniteGroup

MAX_DEGREE = 12
_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the mod-p certificates reduce at a prime no smaller than this
REDUCTION_PRIME_MIN = 10007
# the rational-root test tries every divisor d <= sqrt|a0| of the constant
# term a0: a million at this bound
RATIONAL_ROOT_BOUND = 10 ** 12


class NumberField:
    """The field Q[t]/(f) for a monic integer polynomial f, with elements in
    power-basis coordinates."""

    __slots__ = ("modulus", "degree")

    def __init__(self, modulus):
        coeffs = _trim([int(c) for c in modulus])
        if len(coeffs) < 2:
            raise StructureError("minimal polynomial must have degree at least 1")
        if coeffs[-1] != 1:
            raise StructureError("minimal polynomial must be monic")
        self.modulus = tuple(coeffs)
        self.degree = len(coeffs) - 1
        if self.degree > MAX_DEGREE:
            raise StructureError(
                f"degree {self.degree} exceeds the supported bound {MAX_DEGREE}")

    def element(self, coords) -> "FieldElement":
        den, (ints,) = linalg._clear_denominators([coords])
        return FieldElement(self, tuple(Fraction(c, den) for c in _reduce_int(
            ints + [0] * self.degree, self.modulus)))

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def reduction_root(self) -> tuple[int, int]:
        """A pair (p, r): p >= REDUCTION_PRIME_MIN the least prime at which
        the modulus is squarefree and has a root mod p, r its least root.
        t -> r is a ring map Z[t]/(f) -> F_p, since f is monic and f(r) is
        0 mod p.  It is the one map every generator certificate reads, on
        integer power-basis vectors (descent._residues,
        CosetImages.residue_rows): a determinant of images nonzero mod p
        proves the integer one nonzero.  Computed once per modulus.
        The search ends: a degree-n polynomial has a root modulo a set of
        primes of density at least 1/n (Chebotarev)."""
        return _reduction_root(self.modulus)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField(degree={self.degree})"


class FieldElement:
    """Element of a NumberField with exact rational power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    def __add__(self, other):
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FieldElement(self.field,
                            tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        den, (a, b) = linalg._clear_denominators((self.coords, other.coords))
        scale = den * den
        return FieldElement(self.field, tuple(
            Fraction(c, scale) for c in _int_mul(a, b, self.field.modulus)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        # x = v / c multiplies by M / c, M with columns v t^j in Z[t]/(f);
        # the inverse is the image of 1, the first column of c M^-1
        c, (col,) = linalg._clear_denominators([self.coords])
        cols = [col]
        for _ in range(len(col) - 1):
            cols.append(_reduce_int([0] + cols[-1], self.field.modulus))
        inv = linalg.invert(linalg.transpose(cols))
        if inv is None:
            raise ConsistencyError(
                "nonzero element has singular multiplication matrix; "
                "the modulus is not irreducible")
        d, rows = inv
        return FieldElement(self.field,
                            tuple(Fraction(c * r[0], d) for r in rows))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def __pow__(self, k: int):
        result = self.field.one()
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.modulus, self.coords))

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return self.coords[0]

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coords]})"


def _int_mul(a, b, modulus) -> list[int]:
    """Product in Z[t]/(f) of two integer coordinate vectors, f the monic
    modulus: integer convolution, then reduction by f."""
    acc = [0] * (2 * (len(modulus) - 1) - 1)
    _convolve_into(acc, a, b)
    return _reduce_int(acc, modulus)


def _convolve_into(acc, a, b):
    """acc += a * b as polynomials in t, unreduced."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    acc[i + j] += x * y


def _reduce_int(acc, modulus) -> list[int]:
    """The coordinates of acc, of any length, modulo the monic f of degree n,
    by subtracting multiples of f from the top down."""
    n = len(modulus) - 1
    for k in range(len(acc) - 1, n - 1, -1):
        top = acc[k]
        if top:
            for i in range(n):
                acc[k - n + i] -= top * modulus[i]
    return acc[:n]


# Kronecker substitution: an integer polynomial is packed into one integer,
# its value at t = 2^(8 w), so a product of polynomials is one big-integer
# product.  Unpacking reads the coefficients back as w-byte slots, which is
# exact when each is less than 2^(8 w - 1) in absolute value.

def _slot_bytes(bound: int) -> int:
    """The least slot width w, in bytes, with bound < 2^(8 w - 1)."""
    return bound.bit_length() // 8 + 1


def _pack(coords, width: int) -> int:
    """The integer polynomial with these coefficients at t = 2^(8 width)."""
    shift = 8 * width
    value = 0
    for c in reversed(coords):
        value = (value << shift) + c
    return value


def _unpack(value: int, slots: int, width: int) -> list[int]:
    """The first `slots` coefficients of a packed polynomial whose
    coefficients are each less than 2^(8 width - 1) in absolute value:
    adding that half to every slot makes each slot a nonnegative digit."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = (value + bias).to_bytes(slots * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, slots * width, width)]


def _pack_points(vectors, m: int) -> tuple[list[int], int]:
    """The integer vectors packed at one slot width w, and w, for values of
    degree m in them.  With L the largest l1 norm of a vector, w holds every
    coefficient up to 2 m! L^m in absolute value: a determinant of an m x m
    matrix of the vectors is a sum of m! products of m entries, so its
    coefficients are at most m! L^m, and so are those of a degree-m form
    whose coefficients sum to at most m! in absolute value (a determinant
    in unit forms); a form summing to at most 2 m! still fits."""
    largest = max(sum(map(abs, v)) for v in vectors)
    width = _slot_bytes(2 * factorial(m) * largest ** m)
    return [_pack(v, width) for v in vectors], width


def _packed_det(rows, modulus) -> list[int]:
    """Coordinates of the determinant in Z[t]/(f), f the monic modulus, of a
    square matrix of integer coordinate vectors.  Each distinct entry (by
    identity) is packed once.  Packing is a ring map Z[t] -> Z, so the
    integer determinant of the packed matrix (linalg.int_det, fraction-free
    elimination, exact over any integral domain) is the packed determinant;
    it is unpacked and reduced by f once (the slot width: _pack_points)."""
    m, n = len(rows), len(modulus) - 1
    if m > ENUMERATION_BOUND:
        raise CapabilityError(f"matrix size {m} exceeds the field determinant "
                              f"bound {ENUMERATION_BOUND}")
    distinct = {id(e): e for row in rows for e in row}
    values, width = _pack_points(list(distinct.values()), m)
    packed = dict(zip(distinct, values))
    det = linalg.int_det([[packed[id(e)] for e in row] for row in rows])
    return _reduce_int(_unpack(det, m * (n - 1) + 1, width), modulus)


def _rational_roots(coeffs) -> list[int]:
    # monic integer polynomial: rational roots are integers dividing a0
    a0 = coeffs[0]
    if a0 == 0:
        return [0]
    if abs(a0) > RATIONAL_ROOT_BOUND:
        raise CapabilityError(
            "constant term of the minimal polynomial exceeds the "
            f"rational-root search bound {RATIONAL_ROOT_BOUND} in absolute "
            "value")
    roots = []
    d = 1
    while d * d <= abs(a0):
        if a0 % d == 0:
            for cand in {d, -d, a0 // d, -(a0 // d)}:
                acc = 0
                for c in reversed(coeffs):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
        d += 1
    return sorted(set(roots))


def _trim(coeffs):
    """coeffs with its trailing zeros removed, in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mod_p(coeffs, p):
    return _trim([c % p for c in coeffs])


def _polymul_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    _convolve_into(out, a, b)
    return _poly_mod_p(out, p)


def _polydivmod_p(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b over F_p, for b nonzero with
    a nonzero leading coefficient."""
    a = [c % p for c in a]
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for shift in reversed(range(len(q))):
        factor = q[shift] = a[shift + len(b) - 1] * inv_lead % p
        if factor:
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % p
    return _trim(q), _trim(a[:len(b) - 1])


def _polygcd_p(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _polydivmod_p(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _polypow_p(base, e, m, p):
    """base^e modulo the polynomial m, over F_p."""
    acc = [1]
    while e:
        if e & 1:
            acc = _polydivmod_p(_polymul_p(acc, base, p), m, p)[1]
        base = _polydivmod_p(_polymul_p(base, base, p), m, p)[1]
        e >>= 1
    return acc


def _minus_x_p(a, p):
    """a - x over F_p."""
    out = list(a) + [0] * (2 - len(a))
    out[1] = (out[1] - 1) % p
    return _trim(out)


def _is_squarefree_p(f, p) -> bool:
    deriv = _trim([(i * c) % p for i, c in enumerate(f)][1:])
    return bool(deriv) and len(_polygcd_p(f, deriv, p)) == 1


def _factor_degrees_mod_p(coeffs, p):
    """Multiset of irreducible factor degrees of a squarefree poly mod p, via
    distinct-degree splitting; None when the reduction is not usable."""
    f = _poly_mod_p(coeffs, p)
    if len(f) != len(coeffs):
        return None  # leading coefficient vanished (cannot happen: monic)
    if not _is_squarefree_p(f, p):
        return None
    degrees = []
    work = list(f)
    xq = [0, 1]  # x
    d = 0
    while len(work) > 1:
        d += 1
        if d > (len(work) - 1) // 2:
            degrees.extend([len(work) - 1])
            break
        xq = _polypow_p(xq, p, work, p)
        g = _polygcd_p(work, _minus_x_p(xq, p), p)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            work = _polydivmod_p(work, g, p)[0]
            xq = _polydivmod_p(xq, work, p)[1]
    return degrees


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@cache
def _reduction_root(modulus: tuple[int, ...]) -> tuple[int, int]:
    for p in filter(_is_prime, count(REDUCTION_PRIME_MIN)):
        # a squarefree f has a root mod p when it has a linear factor; the
        # least root is then found by Horner's rule at r = 0, 1, ...
        if 1 in (_factor_degrees_mod_p(modulus, p) or ()):
            f = _poly_mod_p(modulus, p)
            return p, next(r for r in range(p) if not reduce(
                lambda acc, c: (acc * r + c) % p, reversed(f), 0))


def check_irreducible(coeffs) -> bool | None:
    """True when irreducibility over Q is proved, None when the small-prime
    factor-degree sieve is inconclusive.  Raises on a detected factorization
    (rational root)."""
    coeffs = [int(c) for c in coeffs]
    n = len(coeffs) - 1
    if n == 1:
        return True
    roots = _rational_roots(coeffs)
    if roots:
        raise StructureError(
            f"polynomial is reducible: rational root {roots[0]}")
    if n <= 3:
        return True  # no root and degree <= 3
    possible = set(range(1, n))
    usable = 0
    for p in _SIEVE_PRIMES:
        degrees = _factor_degrees_mod_p(coeffs, p)
        if degrees is None:
            continue
        usable += 1
        achievable = {0}
        for d in degrees:
            achievable |= {a + d for a in achievable}
        possible &= achievable
        if not possible:
            return True
        if usable >= 6:
            break
    return None


class GaloisContext:
    """A number field together with a faithful action of a finite group by
    verified field automorphisms.  `matrices[g]` is automorphism g in
    integer form (d, M), the power-basis matrix M / d (linalg._integer_form)."""

    __slots__ = ("field", "group", "matrices", "irreducibility", "_fixed")

    def __init__(self, field, group, matrices, irreducibility):
        self.field = field
        self.group = group
        self.matrices = matrices
        self.irreducibility = irreducibility
        self._fixed = {}

    @property
    def degree(self) -> int:
        return self.field.degree

    def fixed_space(self, indices: tuple[int, ...]):
        """linalg.fixed_space of the automorphisms with these sorted indices,
        the fixed field of the group they generate; built once per tuple."""
        if indices not in self._fixed:
            self._fixed[indices] = linalg.fixed_space(
                [self.matrices[i] for i in indices], self.degree)
        return self._fixed[indices]

    def apply(self, g_index: int, x: FieldElement) -> FieldElement:
        # M x / d, Fraction on the left of each product: no reverse operator
        d, m = self.matrices[g_index]
        first, rest = x.coords[0], x.coords[1:]
        coords = [sum(map(mul, rest, row[1:]), first * row[0]) for row in m]
        if d > 1:
            coords = [c / d for c in coords]
        return FieldElement(self.field, tuple(coords))

    def trace(self, x: FieldElement) -> Fraction:
        total = self.field.zero()
        for i in range(self.group.order()):
            total = total + self.apply(i, x)
        return total.rational_value()


def load_field(modulus, group: FiniteGroup, generator_images: dict[int, list],
               irreducible_asserted: bool = False) -> GaloisContext:
    """Validate a field descriptor: irreducibility of f, that each generator
    image is a root of f, that the induced maps satisfy the group's relations,
    and that the automorphisms are |G| distinct maps, all over Z.  Each
    automorphism is kept in integer form (GaloisContext), a product of the
    generators' forms; forms are unique, so the checks compare them."""
    field = NumberField(modulus)
    if group.order() != field.degree:
        raise StructureError(
            f"group order {group.order()} differs from the field degree "
            f"{field.degree}; the field cannot be Galois with this group")
    proved = check_irreducible(list(field.modulus))
    if proved is None and not irreducible_asserted:
        raise StructureError(
            "irreducibility is inconclusive at this degree; the descriptor "
            "must assert it explicitly")
    irreducibility = "proved" if proved else "asserted"

    n, modulus = field.degree, field.modulus
    gen_forms = {}
    for g_index, image_coords in generator_images.items():
        e, (v,) = linalg._clear_denominators([image_coords])
        cols, power = [], [1] + [0] * (n - 1)
        for k in range(n):
            cols.append([e ** (n - 1 - k) * x for x in power])
            power = _int_mul(power, v, modulus)
        # e^n f(v / e) = v^n + e sum_k c_k (column k), read off the powers
        if any(top + e * sum(c * col[i] for c, col in zip(modulus, cols))
               for i, top in enumerate(power)):
            raise StructureError(
                f"invalid automorphism for generator index {g_index}: "
                "its image of t is not a root of the minimal polynomial")
        gen_forms[g_index] = linalg._integer_form(e ** (n - 1),
                                                  linalg.transpose(cols))

    for g in group.generators:
        if g not in gen_forms:
            raise StructureError(
                f"no automorphism supplied for generator index {g}")

    forms = {group.identity_index:
             (1, [[int(i == j) for j in range(n)] for i in range(n)])}
    frontier = [group.identity_index]
    while frontier:
        nxt = []
        for i in frontier:
            d, product = forms[i]
            for g in group.generators:
                j = group.mul(i, g)
                d_g, m_g = gen_forms[g]
                form = linalg._integer_form(d * d_g,
                                            linalg.mat_mul(product, m_g))
                if j not in forms:
                    forms[j] = form
                    nxt.append(j)
                elif forms[j] != form:
                    raise StructureError(
                        "automorphism images do not satisfy the group's "
                        f"multiplication table at element index {j}")
        frontier = nxt
    if len(forms) != group.order():
        raise StructureError("generators do not generate the whole group")
    matrices = tuple(forms[i] for i in range(group.order()))
    distinct = {(d, tuple(map(tuple, m))) for d, m in matrices}
    if len(distinct) != group.order():
        raise StructureError(
            f"only {len(distinct)} distinct automorphisms for a group of order "
            f"{group.order()}; the field is not Galois with this group")
    return GaloisContext(field, group, matrices, irreducibility)


class Subfield:
    """A Q-basis of the subfield fixed by a coset space's stabilizer, as
    linalg.fixed_space returns it: integer vectors over one denominator,
    with their free columns, so coordinates relative to it are read off
    rather than solved for.  It carries that coset space, whose cosets index
    its embeddings, and builds its multiplication table and its CosetImages
    on the space once, here; both are kept over Z only."""

    __slots__ = ("context", "space", "dim", "_free", "_int_scale",
                 "_int_vectors", "_int_multiplication", "coset_images")

    def __init__(self, context: GaloisContext, space: CosetSpace,
                 denominator, vectors, free):
        self.context = context
        self.space = space
        self.dim = len(vectors)
        self._free = free
        self._int_scale, self._int_vectors = denominator, vectors
        modulus = context.field.modulus
        self._int_multiplication = denominator ** 2, tuple(
            linalg.transpose([self.int_coords(_int_mul(a, b, modulus))
                              for b in vectors]) for a in vectors)
        self.coset_images = CosetImages(self)

    def coords(self, x: FieldElement):
        if not self.contains(x):
            raise DomainError("element does not lie in the fixed subfield")
        return [x.coords[f] for f in self._free]

    def int_coords(self, ints):
        """The subfield coordinates times c of the element whose power-basis
        coordinates times a nonzero c are the integers ints; None outside
        the subfield.  Read off over Z, against the basis times its common
        denominator."""
        return linalg.echelon_coords(self._int_vectors, self._free, ints,
                                     self._int_scale)

    def contains(self, x: FieldElement) -> bool:
        _, (ints,) = linalg._clear_denominators([x.coords])
        return self.int_coords(ints) is not None

    def from_coords(self, coords) -> FieldElement:
        """The element with these subfield coordinates, a / c once cleared:
        the basis's integer vectors combined by a, over c and their
        denominator."""
        c, (ints,) = linalg._clear_denominators([coords])
        scale = c * self._int_scale
        return FieldElement(self.context.field, tuple(
            Fraction(v, scale) for v in
            linalg.mat_vec(linalg.transpose(self._int_vectors), ints)))

    def multiplication_matrix(self, x: FieldElement):
        """Matrix of y -> x*y on the subfield, in subfield coordinates: the
        integer multiplication table combined by the coordinates of x."""
        d, table = self.int_multiplication_matrices()
        xc = self.coords(x)
        return [[Fraction(sum(map(mul, xc, entries)), d)
                 for entries in zip(*rows)] for rows in zip(*table)]

    def int_multiplication_matrices(self):
        """The multiplication table over Z: (d, the integer matrices M_k),
        M_k / d the multiplication matrix of basis element k.  With the
        basis the integer vectors v_k over s, column j of M_k is int_coords
        of the product v_k v_j in Z[t]/(f), which is s^2 times the product;
        so d = s^2."""
        return self._int_multiplication

    def random_coords(self, rng) -> list[int]:
        """dim integers drawn uniformly from -9..9, as [rng.randint(-9, 9)
        ...] draws them on CPython 3.10-3.13, from the same bits: 5 random
        bits, drawn again while they are 19 or more, minus 9."""
        draw = rng.getrandbits
        coords = []
        for _ in range(self.dim):
            r = draw(5)
            while r >= 19:
                r = draw(5)
            coords.append(r - 9)
        return coords

    def random_element(self, rng) -> FieldElement:
        return self.from_coords(self.random_coords(rng))


class CosetImages:
    """The images sigma_k(b_j) of a subfield basis under the representative
    sigma_k of each coset k of the subfield's space, in the integer form that
    descents and generator samples read: `matrices[k]`, the n x d integer
    matrix whose column j is sigma_k(b_j) times the common denominator D of
    all of them: the integer products M_k V, for sigma_k in integer form
    (d_k, M_k) and V the basis's integer vectors, put in integer form once.
    It is linear in the subfield coordinates, so an element's images are
    read off it (`vectors`), and so are their residues: `residue_rows[k]`,
    built on first use, is matrices[k] at t -> r mod p, the ring map of
    NumberField.reduction_root(), so its dot product with integer
    coordinates is the residue of the integer vector M_k ints."""

    def __init__(self, subfield: Subfield):
        ctx = subfield.context
        n = ctx.degree
        self.field = ctx.field
        forms = [ctx.matrices[g] for g in subfield.space.representatives]
        common = lcm(*(d for d, _ in forms))
        basis = linalg.transpose(subfield._int_vectors)
        self.denominator, rows = linalg._integer_form(
            common * subfield._int_scale,
            [[common // d * x for x in row]
             for d, m in forms for row in linalg.mat_mul(m, basis)])
        self.matrices = tuple(rows[k:k + n] for k in range(0, len(rows), n))

    def vectors(self, ints) -> list[list[int]]:
        """The power-basis coordinates, times D, of the images of the
        subfield element with integer coordinates ints."""
        return [linalg.mat_vec(m, ints) for m in self.matrices]

    @cached_property
    def residue_rows(self) -> tuple[tuple[int, ...], ...]:
        p, r = self.field.reduction_root()
        powers = [pow(r, i, p) for i in range(self.field.degree)]
        return tuple(
            tuple(v % p for v in linalg.mat_vec(linalg.transpose(mat), powers))
            for mat in self.matrices)


def fixed_subfield(context: GaloisContext, space: CosetSpace) -> Subfield:
    """The subfield fixed by the space's stabilizer: the fixed space of the
    stabilizer's generators, whose dimension must be the index [G : G_L]."""
    if space.group != context.group:
        raise StructureError("the coset space is not of the field's group")
    stabilizer = space.stabilizer
    d, vectors, free = context.fixed_space(tuple(sorted(
        {context.group.index_of(stabilizer.elements[g])
         for g in stabilizer.generators})))
    expected = context.group.order() // stabilizer.order()
    if len(vectors) != expected:
        raise ConsistencyError(
            f"fixed subfield has dimension {len(vectors)}, expected {expected}; "
            "automorphism data is inconsistent")
    return Subfield(context, space, d, vectors, free)
