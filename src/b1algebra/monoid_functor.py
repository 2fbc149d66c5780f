"""Finite commutative monoids and the subsets bridge to algebras.

A finite commutative monoid gives an algebra on its subsets: union as
the sum, elementwise products as the product. The construction is a
functor; the forgetful partner keeps only the multiplication, and the
two are adjoint. Restricted to abelian groups the subsets functor is
fully faithful, and along an integral extension of monoids being a
group transfers both ways. Everything here is small and finite, so
each claim is checked by direct enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import FinAlgebra, algebra_morphism, algebra_morphisms
# canonical_tables is bound here too: perfbench/check_bench.py checks
# that the tracer wraps its alias in this module
from .canonical import canonical_classes, canonical_tables, table_maps  # noqa: F401
from .core_lattice import _check_map, _commutative_monoid, _set_name
from .errors import (
    NoUnit,
    NotAGroup,
    NotSubmonoid,
    SizeTooLarge,
)

FUNCTOR_LIMIT = 5
MONOID_ENUM_LIMIT = 6


@dataclass(frozen=True)
class FinMonoid:
    """A finite commutative monoid as a multiplication table."""

    names: tuple
    mul: tuple
    unit: int

    @property
    def size(self):
        return len(self.names)

    def times(self, a, b):
        return self.mul[a][b]


@dataclass(frozen=True)
class MonoidMorphism:
    source: FinMonoid
    target: FinMonoid
    map: tuple

    def __call__(self, x):
        return self.map[x]


def validate_monoid(names, mul):
    names = tuple(names)
    mul = tuple(map(tuple, mul))
    unit = _commutative_monoid(names, mul, op="mul")
    if unit is None:
        raise NoUnit("no neutral element for the product")
    return FinMonoid(names, mul, unit)


def monoid_morphism(source, target, mapping):
    mapping = _check_map(source, target, mapping, ("unit",), ("mul",))
    return MonoidMorphism(source, target, mapping)


def monoid_morphisms(source, target):
    """Every unit- and product-preserving map, sorted by map."""
    candidates = [
        (target.unit,) if x == source.unit else range(target.size)
        for x in range(source.size)
    ]
    return [
        MonoidMorphism(source, target, m)
        for m in table_maps((source.mul,), (target.mul,), candidates)
    ]


def cyclic_group(n):
    """The cyclic group of order n, written multiplicatively."""
    if n < 1:
        raise ValueError("order must be positive")
    names = tuple(
        "1" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(n)
    )
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FinMonoid(names, mul, 0)


def direct_product(a, b):
    names = []
    for i in range(a.size):
        for j in range(b.size):
            names.append(f"({a.names[i]},{b.names[j]})")
    size = a.size * b.size

    def idx(i, j):
        return i * b.size + j

    mul = [[0] * size for _ in range(size)]
    for i in range(a.size):
        for j in range(b.size):
            for k in range(a.size):
                for l in range(b.size):
                    mul[idx(i, j)][idx(k, l)] = idx(a.mul[i][k], b.mul[j][l])
    return FinMonoid(
        tuple(names),
        tuple(tuple(row) for row in mul),
        idx(a.unit, b.unit),
    )


@lru_cache(maxsize=None)
def all_monoids(n, limit=MONOID_ENUM_LIMIT):
    """All commutative monoids of order n up to isomorphism.

    Generated by filling the multiplication table cell by cell with the
    unit pinned at index 0, pruning on the associativity violations
    already visible, and deduplicating by canonical table.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > limit:
        raise SizeTooLarge(f"monoid enumeration capped at {limit}")
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[0][x] = mul[x][0] = x
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]

    def violates(i, j):
        # only triples that consume the fresh cell as an outer product
        for z in range(n):
            for a, b, c in ((i, j, z), (i, z, j), (z, i, j)):
                ab = mul[a][b]
                bc = mul[b][c]
                if ab is None or bc is None:
                    continue
                left = mul[ab][c]
                right = mul[a][bc]
                if left is not None and right is not None and left != right:
                    return True
        return False

    def associative():
        # commutativity leaves three groupings per triple; compare all
        for a in range(1, n):
            for b in range(a, n):
                for c in range(b, n):
                    v = mul[a][mul[b][c]]
                    if mul[b][mul[a][c]] != v or mul[c][mul[a][b]] != v:
                        return False
        return True

    def rec(k):
        if k == len(cells):
            if associative():
                yield (tuple(tuple(row) for row in mul),)
            return
        i, j = cells[k]
        for v in range(n):
            mul[i][j] = mul[j][i] = v
            if not violates(i, j):
                yield from rec(k + 1)
        mul[i][j] = mul[j][i] = None

    names = ("1",) + tuple(f"m{i}" for i in range(1, n))
    return tuple(
        FinMonoid(names, tbl, 0) for (tbl,) in canonical_classes(rec(0), n, 1)
    )


def units(a):
    """The invertible elements, in index order."""
    return tuple(
        u
        for u in range(a.size)
        if any(a.mul[u][v] == a.unit for v in range(a.size))
    )


def is_group(a):
    return len(units(a)) == a.size


def _check_submonoid(a, elements):
    """NotSubmonoid unless the sorted elements contain the unit and are
    closed under the product; the witness is the first pair outside."""
    inside = set(elements)
    if a.unit not in inside:
        raise NotSubmonoid("the unit is missing")
    for x in elements:
        for y in elements:
            if a.mul[x][y] not in inside:
                raise NotSubmonoid(
                    f"{a.names[x]}*{a.names[y]} falls outside", witness=(x, y)
                )


def submonoid(a, elements):
    """The induced monoid on a closed subset containing the unit."""
    elements = tuple(sorted(set(elements)))
    _check_submonoid(a, elements)
    pos = {x: i for i, x in enumerate(elements)}
    mul = tuple(
        tuple(pos[a.mul[x][y]] for y in elements) for x in elements
    )
    return FinMonoid(tuple(a.names[x] for x in elements), mul, pos[a.unit])


def submonoids(a):
    """Index sets of all submonoids, smallest first."""
    found = []
    for mask in range(1 << a.size):
        if not mask >> a.unit & 1:
            continue
        elems = [x for x in range(a.size) if mask >> x & 1]
        if all(a.mul[x][y] in elems for x in elems for y in elems):
            found.append(tuple(elems))
    found.sort(key=lambda t: (len(t), t))
    return found


def is_integral_over(a, b):
    """Does every element have a positive power inside b?"""
    inside = set(b)
    _check_submonoid(a, sorted(inside))
    for x in range(a.size):
        p = x
        seen = set()
        while True:
            if p in inside:
                break
            if p in seen:
                return False
            seen.add(p)
            p = a.mul[p][x]
    return True


def _subset_order(a):
    """Mask order for the subsets algebra: empty, then the unit
    singleton, then the rest numerically."""
    ubit = 1 << a.unit
    order = [0, ubit] + [m for m in range(1 << a.size) if m not in (0, ubit)]
    return order, {m: i for i, m in enumerate(order)}


def powerset_algebra(a, limit=FUNCTOR_LIMIT):
    """The algebra of subsets of a monoid: union and set product.

    Index 0 is the empty set, index 1 the unit singleton.

    The tables are built, not checked: the subsets of a commutative
    monoid form an algebra under union and set product, and the
    singletons under the product are a copy of the monoid, so a monoid
    law that fails shows up in the subset tables too. Checking the
    monoid therefore refuses the same inputs as checking the subset
    tables would, with a witness in the monoid: NotCommutative or
    NotAssociative, or NoUnit with the first x that the unit does not
    fix. ValueError if two subsets get the same name.
    """
    if a.size > limit:
        raise SizeTooLarge(f"2^{a.size} subsets; the functor caps at {limit}")
    if _commutative_monoid(a.names, a.mul, op="mul") != a.unit:
        u = a.mul[a.unit]
        x = next(x for x in range(a.size) if u[x] != x)
        raise NoUnit(
            f"{a.names[a.unit]}*{a.names[x]} = {a.names[u[x]]}",
            witness=(x,),
            op="mul",
        )
    order, index = _subset_order(a)
    size = len(order)
    # image[x][m]: the set product {x} * m, one bit added per step
    image = [[0] * size for _ in range(a.size)]
    for row, mul_x in zip(image, a.mul):
        for m in range(1, size):
            row[m] = row[m & (m - 1)] | 1 << mul_x[(m & -m).bit_length() - 1]
    # prod[m][k]: the set product m * k, one element of m added per step
    prod = [[0] * size]
    for m in range(1, size):
        low = image[(m & -m).bit_length() - 1]
        prod.append([p | q for p, q in zip(prod[m & (m - 1)], low)])

    names = tuple(_set_name(a.names, m) for m in order)
    if len(set(names)) < size:
        raise ValueError("subset names must be distinct")
    sum_t = tuple(tuple(index[m | k] for k in order) for m in order)
    mul_t = tuple(tuple(index[prod[m][k]] for k in order) for m in order)
    return FinAlgebra(names, sum_t, 0, mul_t, 1)


def powerset_algebra_map(phi):
    """Direct image of subsets along a monoid morphism."""
    src = powerset_algebra(phi.source)
    tgt = powerset_algebra(phi.target)
    s_order, _ = _subset_order(phi.source)
    _, t_index = _subset_order(phi.target)
    mapping = []
    for mask in s_order:
        out = 0
        for x in range(phi.source.size):
            if mask >> x & 1:
                out |= 1 << phi(x)
        mapping.append(t_index[out])
    return algebra_morphism(src, tgt, mapping)


def multiplicative_monoid(e):
    """Forget the sum of an algebra."""
    return FinMonoid(e.names, e.mul, e.unit)


def restrict_to_singletons(a, phi):
    """Turn an algebra morphism out of the subsets algebra of a monoid
    into the monoid morphism it does on singletons."""
    if phi.source.size != 1 << a.size:
        raise ValueError("the morphism does not start from the subsets of a")
    _, index = _subset_order(a)
    mapping = [phi(index[1 << x]) for x in range(a.size)]
    return monoid_morphism(a, multiplicative_monoid(phi.target), mapping)


def extend_by_joins(psi, e):
    """Turn a monoid morphism into the multiplicative monoid of an
    algebra into the algebra morphism on subsets, by joining images."""
    if psi.target != multiplicative_monoid(e):
        raise ValueError("the codomain is not the multiplicative monoid of e")
    src = powerset_algebra(psi.source)
    order, _ = _subset_order(psi.source)
    mapping = []
    for mask in order:
        acc = e.bottom
        for x in range(psi.source.size):
            if mask >> x & 1:
                acc = e.sum[acc][psi(x)]
        mapping.append(acc)
    return algebra_morphism(src, e, mapping)


@dataclass(frozen=True)
class FullFaithfulness:
    """What exhaustive search says about homs between two subset
    algebras of groups."""

    algebra_hom_count: int
    monoid_hom_count: int
    singletons_to_singletons: bool
    every_hom_induced: bool

    @property
    def fully_faithful(self):
        return (
            self.algebra_hom_count == self.monoid_hom_count
            and self.singletons_to_singletons
            and self.every_hom_induced
        )


def full_faithfulness_check(a, b, limit=4):
    """Compare algebra homs between subset algebras of two abelian
    groups with the group homs that induce them."""
    for g in (a, b):
        if not is_group(g):
            raise NotAGroup("full faithfulness is only claimed over groups")
    if a.size > limit or b.size > limit:
        raise SizeTooLarge(f"group order capped at {limit}")
    fa = powerset_algebra(a)
    fb = powerset_algebra(b)
    ahoms = algebra_morphisms(fa, fb)
    mhoms = monoid_morphisms(a, b)
    _, a_index = _subset_order(a)
    t_order, _ = _subset_order(b)
    singles = True
    induced = set()
    for h in ahoms:
        point = []
        for x in range(a.size):
            out_mask = t_order[h(a_index[1 << x])]
            if bin(out_mask).count("1") != 1:
                singles = False
                break
            point.append(out_mask.bit_length() - 1)
        if len(point) == a.size:
            induced.add(tuple(point))
    wanted = {m.map for m in mhoms}
    return FullFaithfulness(
        algebra_hom_count=len(ahoms),
        monoid_hom_count=len(mhoms),
        singletons_to_singletons=singles,
        every_hom_induced=(induced == wanted and len(ahoms) == len(mhoms)),
    )
