"""Finite permutation groups, coset spaces with their left translations, and
the regular-subgroup machinery (enumeration, opposites, centralizers)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import lcm

from .errors import CapabilityError, StructureError

# the coset-space size bound: regular subgroups are enumerated, and symbolic
# and field determinants are taken, only on coset spaces of at most this size
ENUMERATION_BOUND = 8
# FiniteGroup checks closure with |G|^2 products and metacyclic_group builds
# |G| permutations of degree |G|: descriptors declare at most this order
GROUP_ORDER_BOUND = 120
# FiniteGroup.normal_subgroups serves groups of at most this order
GROUP_QUERY_BOUND = 60


class Permutation:
    """Bijection of {0, ..., n-1} given by its int images;
    ``(p * q)(i) == p(q(i))``."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if (not {*map(type, images)} <= {int}
                or sorted(images) != list(range(len(images)))):
            raise StructureError(f"not a bijection of 0..{len(images) - 1}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # a product of two bijections of one set is one: no check but the degree
        if len(other.images) != len(self.images):
            raise StructureError("permutations of different degrees")
        product = Permutation.__new__(Permutation)
        product.images = tuple(self.images[j] for j in other.images)
        return product

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> list[list[int]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cur, cyc = start, []
            while not seen[cur]:
                seen[cur] = True
                cyc.append(cur)
                cur = self.images[cur]
            out.append(cyc)
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def _close_tuples(gens: list[tuple[int, ...]], degree: int, limit: int | None = None):
    """Closure of image tuples under composition; None once the products of
    the generators take it past `limit`.  Breadth-first, one product per
    element and generator: in a finite group, those already close up.  The
    package's one subgroup closure, on permutations or table rows alike."""
    group = {tuple(range(degree)), *gens}
    frontier = list(group)
    while frontier:
        products = {tuple([p[i] for i in g]) for p in frontier for g in gens}
        frontier = [q for q in products if q not in group]
        group.update(frontier)
        if frontier and limit is not None and len(group) > limit:
            return None
    return group


class FiniteGroup:
    """A group of permutations of a common finite set, with the element list
    sorted canonically (lexicographic image tuples) and its multiplication
    table on those indices: |G|^2 entries, at most 14,400 at
    GROUP_ORDER_BOUND."""

    __slots__ = ("elements", "generators", "_index", "_inv", "_table", "degree",
                 "_center", "_classes")

    def __init__(self, elements, generators=None):
        elems = sorted(set(elements))
        if not elems:
            raise StructureError("a group needs at least the identity element")
        self.degree = elems[0].degree
        for p in elems:
            if p.degree != self.degree:
                raise StructureError("elements act on sets of different sizes")
        self.elements = tuple(elems)
        # element images -> index; the closure check is the table: one
        # product per pair, looked up
        self._index = index = {p.images: i for i, p in enumerate(self.elements)}
        table = []
        for p in elems:
            image = p.images.__getitem__
            row = [index.get(tuple(map(image, q.images))) for q in elems]
            if None in row:
                q = elems[row.index(None)]
                raise StructureError(
                    f"not closed under composition: {p} * {q} is missing")
            table.append(tuple(row))
        self._table = tuple(table)
        if not self.elements[0].is_identity():
            raise StructureError("identity element is missing")
        self._inv = tuple(row.index(0) for row in self._table)
        if generators is None:
            generators = tuple(range(len(self.elements)))
        # each generator index once, in first-seen order
        self.generators = tuple(dict.fromkeys(
            index[g.images] if isinstance(g, Permutation) else g
            for g in generators))
        self._center = None
        self._classes = None

    @classmethod
    def generated_by(cls, gens, limit: int | None = None) -> "FiniteGroup":
        gens = list(dict.fromkeys(gens))
        if not gens:
            raise StructureError("need at least one generator (or an explicit identity)")
        degree = gens[0].degree
        closure = _close_tuples([g.images for g in gens], degree, limit)
        if closure is None:
            raise StructureError(f"closure exceeds the limit of {limit} elements")
        return cls((Permutation(t) for t in closure), generators=gens)

    @classmethod
    def trivial(cls, degree: int) -> "FiniteGroup":
        return cls([Permutation.identity(degree)])

    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0  # identity is lexicographically minimal

    def index_of(self, p: Permutation) -> int:
        return self._index[p.images]

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._index

    def mul(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def point_map(self, base: int) -> dict[int, Permutation]:
        """point -> the unique element sending the base point there; raises
        StructureError unless the group is regular (simply transitive)."""
        table = {}
        for p in self.elements:
            target = p(base)
            if target in table:
                raise StructureError("subgroup is not simply transitive")
            table[target] = p
        if len(table) != self.degree:
            raise StructureError("subgroup is not transitive")
        return table

    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(p.order() for p in self.elements))

    def is_abelian(self) -> bool:
        """Every conjugacy class is one element."""
        return len(self._class_indices()) == len(self.elements)

    def center(self) -> "FiniteGroup":
        """The elements alone in their conjugacy class, built once."""
        if self._center is None:
            self._center = FiniteGroup(self.elements[i]
                                       for cls in self._class_indices()
                                       if len(cls) == 1 for i in cls)
        return self._center

    def _class_indices(self) -> list[frozenset[int]]:
        """The conjugacy classes as index sets, built once."""
        if self._classes is None:
            table, inv = self._table, self._inv
            self._classes, seen = [], set()
            for p in range(len(table)):
                if p not in seen:
                    cls = frozenset(table[table[q][p]][inv[q]]
                                    for q in range(len(table)))
                    seen.update(cls)
                    self._classes.append(cls)
        return self._classes

    def normal_subgroups(self) -> list["FiniteGroup"]:
        """Every normal subgroup, in the order of (order, element images).  A
        normal subgroup is a union of conjugacy classes, so it is the join of
        the normal closures <C> of the classes C it contains; the joins of
        every set of closures are built one closure at a time.  The join HK
        of two normal subgroups is their product set.  A class closes with
        `_close_tuples` on multiplication-table rows: row p composed with
        row g is row pg, and row[0] reads the index back."""
        if self.order() > GROUP_QUERY_BOUND:
            raise CapabilityError(f"group of order {self.order()} exceeds "
                                  f"the query bound {GROUP_QUERY_BOUND}")
        table = self._table
        found = {frozenset([0])}
        for cls in self._class_indices():
            closure = frozenset(row[0] for row in _close_tuples(
                [table[c] for c in cls], len(table)))
            found |= {frozenset(table[h][k] for h in sub for k in closure)
                      for sub in found if not closure <= sub}
        # indices are sorted as the elements' images are.  The whole group,
        # last, is self: its table is not built again
        ordered = sorted((len(s), sorted(s)) for s in found)
        return [FiniteGroup(map(self.elements.__getitem__, s))
                for _, s in ordered[:-1]] + [self]


@dataclass(frozen=True)
class CosetSpace:
    """The left coset space X = G / G_L with canonical minimal representatives."""

    group: FiniteGroup
    stabilizer: FiniteGroup
    representatives: tuple[int, ...]      # coset index -> minimal G-element index
    coset_of: tuple[int, ...]             # G-element index -> coset index
    base_point: int                       # the coset of the identity

    @property
    def size(self) -> int:
        return len(self.representatives)

    @cached_property
    def translations(self) -> tuple[Permutation, ...]:
        """lambda: G-element index -> its left translation of the cosets,
        checked to be a transitive homomorphism G -> Perm(X).  Built on first
        use.  The check takes |gens| * |G| products, lambda(g h) = lambda(g)
        lambda(h) for each generator g and every h.  At h = e it gives
        lambda(e) = id, as lambda(g) is invertible; then, by induction on a
        word w in the generators, lambda(w h) = lambda(w) lambda(h) for
        every w."""
        group = self.group
        maps = tuple(Permutation(self.coset_of[group.mul(i, rep)]
                                 for rep in self.representatives)
                     for i in range(group.order()))
        if any(maps[group.mul(g, h)] != maps[g] * maps[h]
               for g in group.generators for h in range(group.order())):
            raise StructureError("coset translation is not a homomorphism")
        if len({p(self.base_point) for p in maps}) != self.size:
            raise StructureError("coset translation image is not transitive")
        return maps


def build_coset_space(group: FiniteGroup, stabilizer: FiniteGroup) -> CosetSpace:
    """Partition G into left cosets of G_L, labelling each coset by the minimal
    element index it contains."""
    for p in stabilizer.elements:
        if p not in group:
            raise StructureError(
                f"stabilizer element {p} does not belong to the group")
    stab = [group.index_of(p) for p in stabilizer.elements]
    assigned = {}
    reps = []
    for i, p in enumerate(group.elements):
        if i in assigned:
            continue
        coset = len(reps)
        members = sorted(group.mul(i, s) for s in stab)
        if members[0] != i:
            # i was not minimal in its coset; the minimal member was visited first
            raise StructureError("coset partition is inconsistent")
        for m in members:
            if m in assigned:
                raise StructureError(
                    f"cosets overlap at element {group.elements[m]}; "
                    "stabilizer is not a subgroup")
        for m in members:
            assigned[m] = coset
        reps.append(i)
    coset_of = tuple(assigned[i] for i in range(group.order()))
    return CosetSpace(group, stabilizer, tuple(reps), coset_of,
                      coset_of[group.identity_index])


def _candidates_over(size: int, base: int, target: int):
    """The permutations carrying base to target (target != base) whose cyclic
    group meets the base point freely: those whose cycles all have one length
    (the fixed-point-free ones whose nontrivial powers are fixed-point-free),
    as image tuples in lexicographic order.  Built cycle type by cycle type:
    for each divisor d > 1 of size, the d-cycle through the base point starts
    base -> target, and `_fill_cycles` moves the other points in d-cycles."""
    out = []
    others = [x for x in range(size) if x not in (base, target)]
    for d in range(2, size + 1):
        if size % d == 0:
            images = [0] * size
            for tail in itertools.permutations(others, d - 2):
                cycle = (base, target, *tail)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
                _fill_cycles(out, images,
                             [x for x in others if x not in tail], d)
    out.sort()
    return out


def _fill_cycles(out, images, free, d):
    """Append to out every completion of the partial images that moves the
    free points in d-cycles."""
    if not free:
        out.append(tuple(images))
        return
    # the cycle through the least free point, in the order it is visited
    start, rest = free[0], free[1:]
    for tail in itertools.permutations(rest, d - 1):
        cycle = (start, *tail)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        _fill_cycles(out, images, [x for x in rest if x not in tail], d)


def enumerate_regular_normalized(space: CosetSpace) -> list[FiniteGroup]:
    """All regular subgroups of Perm(X) normalized by the translation image,
    canonically ordered.

    The search picks, for each uncovered coset, a candidate carrying the base
    point there.  The partial group is closed under conjugation by λ(G), so
    joining it to the candidate's λ(G)-conjugation orbit keeps the generators
    λ(G)-stable; `_close_tuples` closes them, pruning a closure past |X|.  In
    a regular N the elements send the base point to distinct points, so a
    join or closure in which two agree there is dropped.  That test is also
    enough: λ(G) is transitive and normalizes the closure, so the stabilizers
    of the points are all conjugate, and the closure is semiregular exactly
    when the base point's stabilizer is trivial.
    """
    size = space.size
    if size > ENUMERATION_BOUND:
        raise CapabilityError(f"coset space of size {size} exceeds the "
                              f"enumeration bound {ENUMERATION_BOUND}")
    base = space.base_point
    identity = tuple(range(size))
    lam_gens = [(g.images, g.inverse().images) for g in
                map(space.translations.__getitem__, space.group.generators)]

    # a target's candidates, built when the search first reaches it
    pool: dict[int, list[tuple[int, ...]]] = {}

    def meets_base_once(perms):
        return len({p[base] for p in perms}) == len(perms)

    # depth first over the partial groups; the results are sorted below
    results: set[frozenset] = set()
    partial = [{identity}]
    while partial:
        group = partial.pop()
        if len(group) == size:
            results.add(frozenset(group))
            continue
        hits = {p[base] for p in group}
        target = min(c for c in range(size) if c not in hits)
        if target not in pool:
            pool[target] = _candidates_over(size, base, target)
        for cand in pool[target]:
            # join the candidate's λ(G)-conjugation orbit to the group, as
            # long as no two of its elements agree at the base point
            gens, frontier = group | {cand}, [cand]
            while frontier and meets_base_once(gens):
                conjugates = {tuple([g[p[i]] for i in ginv])
                              for p in frontier for g, ginv in lam_gens}
                frontier = [q for q in conjugates if q not in gens]
                gens.update(frontier)
            if not meets_base_once(gens):
                continue
            bigger = _close_tuples(list(gens), size, limit=size)
            if bigger is not None and meets_base_once(bigger):
                partial.append(bigger)
    subgroups = [FiniteGroup(Permutation(t) for t in g) for g in results]
    subgroups.sort(key=lambda n: n.elements)
    return subgroups


def right_translation_subgroup(space: CosetSpace) -> FiniteGroup:
    """The image of right translation h -> h g^{-1}, the commuting partner
    of the left translations; defined on the coset space only when the
    stabilizer is trivial (the classical structure)."""
    if space.stabilizer.order() != 1:
        raise StructureError(
            "right translation needs a trivial stabilizer (a Galois fixture)")
    return opposite(FiniteGroup(space.translations), space)


def opposite(n: FiniteGroup, space: CosetSpace) -> FiniteGroup:
    """The commuting partner of N: built pointwise from the simple-transitivity
    table, sending each coset g to (element over g)(eta(base))."""
    base = space.base_point
    table = n.point_map(base)
    partners = []
    for eta in n.elements:
        anchor = eta(base)
        partners.append(Permutation(table[g](anchor) for g in range(n.degree)))
    result = FiniteGroup(partners)
    result.point_map(base)  # must again be simply transitive
    return result


def centralizer_bruteforce(n: FiniteGroup,
                           space: CosetSpace) -> tuple[Permutation, ...]:
    """Exact centralizer of N in the full symmetric group on X, sorted; the
    oracle for `opposite`.  An exhaustive search of Sym(X) that reads only
    the images of N's elements: the images sigma(0), sigma(1), .. are
    assigned in turn, each to every unused point, and a partial assignment
    is dropped as soon as an equation sigma(q(j)) = q(sigma(j)), for q in N,
    has both sides assigned and fails.  Where q(j) = i > j, only the point
    q(sigma(j)) is tried for sigma(i): every other fails that equation."""
    size = space.size
    if size > ENUMERATION_BOUND:
        raise CapabilityError(f"coset space of size {size} exceeds the "
                              f"brute-force bound {ENUMERATION_BOUND}")
    # the equations decided once sigma(i) is assigned: max(j, q(j)) == i.
    # One with q(j) == i > j pins sigma(i) to q(sigma(j)).  Element 0, the
    # identity, commutes with everything
    checks = [[] for _ in range(size)]
    pins = [None] * size
    for p in n.elements[1:]:
        q = p.images
        for j in range(size):
            checks[max(j, q[j])].append((q, j, q[j]))
            if q[j] > j:
                pins[q[j]] = (q, j)
    out = []
    _extend_commuting([], [False] * size, checks, pins, out)
    return tuple(out)


def _extend_commuting(images, used, checks, pins, out):
    """Append to out every commuting completion of the partial images, in
    lexicographic order; a module-level recursion, so that no closure holds
    itself in a reference cycle."""
    i = len(images)
    if i == len(checks):
        out.append(Permutation(images))
        return
    pin = pins[i]
    for v in range(len(checks)) if pin is None else (pin[0][images[pin[1]]],):
        if used[v]:
            continue
        images.append(v)
        for q, j, qj in checks[i]:
            if images[qj] != q[images[j]]:
                break
        else:
            used[v] = True
            _extend_commuting(images, used, checks, pins, out)
            used[v] = False
        images.pop()


def metacyclic_group(r: int, q: int, d: int) -> tuple[FiniteGroup, Permutation, Permutation]:
    """The split metacyclic group <s, t | s^r = t^q = 1, t s = s^d t> as its
    right-regular permutation representation on the q*r normal forms s^i t^j.

    Returns (group, image of s, image of t).  The parameters must be ints, and
    d is taken modulo r.  The presentation defines a group of order q*r
    exactly when d^q = 1 (mod r); anything else is rejected, and an order
    above GROUP_ORDER_BOUND raises CapabilityError.
    """
    if not all(type(x) is int for x in (r, q, d)):
        raise StructureError("integer r, q, d are required")
    if r < 1 or q < 1:
        raise StructureError("metacyclic parameters must be positive")
    if q * r > GROUP_ORDER_BOUND:
        raise CapabilityError(f"group of order {q * r} exceeds the group "
                              f"order bound {GROUP_ORDER_BOUND}")
    if pow(d, q, r) != 1 % r:
        raise StructureError(
            f"inconsistent presentation: {d}^{q} is not 1 modulo {r}")
    d %= r
    n = q * r

    def idx(i, j):
        return (i % r) * q + (j % q)

    def mul(a, b):
        ia, ja = divmod(a, q)
        ib, jb = divmod(b, q)
        return idx(ia + ib * pow(d, ja, r), ja + jb)

    def left_mult(a):
        return Permutation(mul(a, b) for b in range(n))

    s_perm = left_mult(idx(1, 0))
    t_perm = left_mult(idx(0, 1))
    group = FiniteGroup.generated_by([s_perm, t_perm])
    if group.order() != n:
        raise StructureError("presentation closure has the wrong order")
    # relations must hold in the representation
    e = Permutation.identity(n)
    s_r = reduce(Permutation.__mul__, [s_perm] * r, e)
    t_q = reduce(Permutation.__mul__, [t_perm] * q, e)
    s_d = reduce(Permutation.__mul__, [s_perm] * d, e)
    if s_r != e or t_q != e or t_perm * s_perm != s_d * t_perm:
        raise StructureError("presentation relations fail in the representation")
    return group, s_perm, t_perm
