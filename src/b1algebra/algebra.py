"""Finite algebras over B1: modules with a compatible multiplication.

An algebra here is a finite module carrying a second commutative
associative table with a neutral element 1 (distinct from the bottom),
distributing over the sum and absorbed by the bottom. Congruences are
the equivalence relations compatible with both tables that keep 0 and
1 apart; quotients, generated congruences and the maximality test are
the tools the enumeration modules are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .canonical import canonical_tables, table_maps
from .core_lattice import FinModule, _check_map, _commutative_monoid, validate_module
from .errors import (
    CollapsesZeroOne,
    LawViolation,
    NoUnit,
    NotDistributiveLaw,
    SizeTooLarge,
    ZeroEqualsOne,
    ZeroNotAbsorbing,
)

CONGRUENCE_ENUM_LIMIT = 6


@dataclass(frozen=True)
class FinAlgebra(FinModule):
    """A finite B1-algebra. mul is the product table, unit its neutral."""

    mul: tuple
    unit: int

    def times(self, a, b):
        return self.mul[a][b]

    def module(self):
        """Forget the multiplication."""
        return FinModule(self.names, self.sum, self.bottom)


@dataclass(frozen=True)
class AlgebraMorphism:
    """A map preserving bottom, unit, sum and mul."""

    source: FinAlgebra
    target: FinAlgebra
    map: tuple

    def __call__(self, i):
        return self.map[i]


@dataclass(frozen=True)
class Congruence:
    """A partition of an algebra, stored as class ids per element.

    Valid ones separate 0 from 1 and are compatible with both tables;
    build through congruence_closure or validate_congruence.
    """

    algebra: FinAlgebra
    class_of: tuple

    @property
    def class_count(self):
        return max(self.class_of) + 1

    def classes(self):
        out = [[] for _ in range(self.class_count)]
        for e, c in enumerate(self.class_of):
            out[c].append(e)
        return tuple(tuple(c) for c in out)

    def pairs(self):
        """Generating pairs: each element with its class representative."""
        rep = {}
        out = []
        for e, c in enumerate(self.class_of):
            if c in rep:
                out.append((rep[c], e))
            else:
                rep[c] = e
        return tuple(out)


def validate_algebra(names, sum_table, mul_table):
    """Check every algebra law; returns the validated FinAlgebra.

    The bottom and unit are located wherever they are, not forced to
    sit at indices 0 and 1 (file loading is stricter).
    """
    mod = validate_module(names, sum_table)
    names, add, zero = mod.names, mod.sum, mod.bottom
    mul = tuple(map(tuple, mul_table))
    unit = _commutative_monoid(names, mul, op="mul")
    if unit is None:
        raise NoUnit("no element is neutral for the product")
    if unit == zero:
        raise ZeroEqualsOne("bottom and unit coincide")
    for a, v in enumerate(mul[zero]):
        if v != zero:
            raise ZeroNotAbsorbing(f"0*{names[a]} = {names[v]}", witness=(a,))
    # over all c, a*(b+c) is row a read through row b+ and
    # a*b + a*c is row (a*b)+ read through row a
    reads = [itemgetter(*row) for row in add]
    for a, ma in enumerate(mul):
        read_a = itemgetter(*ma)
        for b, read_b in enumerate(reads):
            lhs, sab = read_b(ma), add[ma[b]]
            if lhs != read_a(sab):
                c = next(c for c in range(len(names)) if lhs[c] != sab[ma[c]])
                raise NotDistributiveLaw(
                    f"{names[a]}*({names[b]}+{names[c]}) != "
                    f"{names[a]}*{names[b]} + {names[a]}*{names[c]}",
                    witness=(a, b, c),
                )
    return FinAlgebra(names, add, zero, mul, unit)


def b1_algebra():
    """The scalars as an algebra: 0 at index 0, 1 at index 1."""
    return FinAlgebra(("0", "1"), ((0, 1), (1, 1)), 0, ((0, 0), (0, 1)), 1)


def algebra_morphism(source, target, mapping):
    """Validate a map as an algebra morphism and wrap it."""
    pinned, ops = ("bottom", "unit"), ("sum", "mul")
    mapping = _check_map(source, target, mapping, pinned, ops)
    return AlgebraMorphism(source, target, mapping)


def algebra_morphisms(source, target):
    """All algebra morphisms, sorted by map."""
    pinned = {source.bottom: (target.bottom,), source.unit: (target.unit,)}
    candidates = [pinned.get(x, range(target.size)) for x in range(source.size)]
    maps = table_maps(
        (source.sum, source.mul), (target.sum, target.mul), candidates
    )
    return [AlgebraMorphism(source, target, m) for m in maps]


def validate_congruence(algebra, class_of):
    """Check separation of 0 and 1 plus compatibility with both tables."""
    class_of = _normalize_classes(class_of)
    if len(class_of) != algebra.size:
        raise ValueError("class_of length does not match the algebra")
    if class_of[algebra.bottom] == class_of[algebra.unit]:
        raise CollapsesZeroOne("0 and 1 fall in the same class")
    n = algebra.size
    for a in range(n):
        for b in range(n):
            if class_of[a] != class_of[b]:
                continue
            for c in range(n):
                if (
                    class_of[algebra.sum[a][c]] != class_of[algebra.sum[b][c]]
                    or class_of[algebra.mul[a][c]] != class_of[algebra.mul[b][c]]
                ):
                    raise LawViolation(
                        "partition is not compatible with the tables",
                        witness=(a, b, c),
                    )
    return Congruence(algebra, class_of)


def _normalize_classes(class_of):
    # first-appearance numbering, so equal partitions compare equal
    order = {}
    out = []
    for c in class_of:
        if c not in order:
            order[c] = len(order)
        out.append(order[c])
    return tuple(out)


def congruence_closure(algebra, pairs):
    """Smallest congruence containing the pairs.

    Union-find fixpoint: when a and b merge, a+c with b+c and a*c with
    b*c are queued for every c. Raises CollapsesZeroOne if 0 and 1 end
    up together, meaning no congruence at all contains the pairs.
    """
    n = algebra.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for c in range(n):
            work.append((algebra.sum[a][c], algebra.sum[b][c]))
            work.append((algebra.mul[a][c], algebra.mul[b][c]))
    if find(algebra.bottom) == find(algebra.unit):
        raise CollapsesZeroOne("the pairs force 0 = 1")
    return Congruence(algebra, _normalize_classes([find(x) for x in range(n)]))


def quotient(algebra, cong):
    """The algebra on the classes, plus the projection morphism.

    Classes are reindexed with the bottom's class at 0 and the unit's
    class at 1; names join the member names with '|'.
    """
    if cong.algebra is not algebra and cong.algebra != algebra:
        raise ValueError("congruence belongs to a different algebra")
    k = cong.class_count
    order = [cong.class_of[algebra.bottom], cong.class_of[algebra.unit]]
    for c in range(k):
        if c not in order:
            order.append(c)
    newid = {c: i for i, c in enumerate(order)}
    cls = [newid[c] for c in cong.class_of]
    members = [[] for _ in range(k)]
    for e, c in enumerate(cls):
        members[c].append(e)
    names = tuple("|".join(algebra.names[e] for e in m) for m in members)
    sum_t = [[0] * k for _ in range(k)]
    mul_t = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            x, y = members[a][0], members[b][0]
            sum_t[a][b] = cls[algebra.sum[x][y]]
            mul_t[a][b] = cls[algebra.mul[x][y]]
    q = FinAlgebra(names, tuple(map(tuple, sum_t)), 0, tuple(map(tuple, mul_t)), 1)
    proj = AlgebraMorphism(algebra, q, tuple(cls))
    return q, proj


def is_maximal(algebra, cong):
    """No strictly coarser congruence: every cross-class merge collapses.

    Sound and complete for finite algebras, since a strictly coarser
    congruence must contain the closure of the given pairs plus at
    least one cross-class pair.
    """
    base = cong.pairs()
    reps = {}
    for e, c in enumerate(cong.class_of):
        reps.setdefault(c, e)
    rep_list = sorted(reps.values())
    for i, x in enumerate(rep_list):
        for y in rep_list[i + 1 :]:
            try:
                congruence_closure(algebra, base + ((x, y),))
            except CollapsesZeroOne:
                continue
            return False
    return True


def all_congruences(algebra):
    """Every valid congruence, by filtering all partitions."""
    n = algebra.size
    if n > CONGRUENCE_ENUM_LIMIT:
        raise SizeTooLarge(
            f"partition search over {n} elements; limit is {CONGRUENCE_ENUM_LIMIT}"
        )
    out = []

    def rec(e, class_of, used):
        if e == n:
            try:
                out.append(validate_congruence(algebra, tuple(class_of)))
            except (LawViolation, CollapsesZeroOne):
                pass
            return
        for c in range(used + 1):
            class_of.append(c)
            rec(e + 1, class_of, max(used, c + 1) if c == used else used)
            class_of.pop()

    rec(0, [], 0)
    return out


def _normal_tables(algebra, mark=None):
    """Relabel so bottom -> 0, unit -> 1 (mark -> 2 when separate)."""
    pinned = [algebra.bottom, algebra.unit]
    if mark is not None and mark not in pinned:
        pinned.append(mark)
    rest = [e for e in range(algebra.size) if e not in pinned]
    order = pinned + rest
    pos = {e: i for i, e in enumerate(order)}
    n = algebra.size
    s = tuple(
        tuple(pos[algebra.sum[order[i]][order[j]]] for j in range(n))
        for i in range(n)
    )
    m = tuple(
        tuple(pos[algebra.mul[order[i]][order[j]]] for j in range(n))
        for i in range(n)
    )
    return s, m, len(pinned)


def canonical_key(algebra, mark=None):
    """Canonical (sum, mul) pair fixing bottom, unit and the optional
    marked element; equal keys mean (marked-)isomorphic algebras."""
    s, m, pinned = _normal_tables(algebra, mark)
    key = canonical_tables((s, m), algebra.size, pinned=pinned)
    # a mark equal to 0 or 1 still has to distinguish which one it is
    tag = -1 if mark is None else (0 if mark == algebra.bottom else
                                   1 if mark == algebra.unit else 2)
    return key, tag


def marked_isomorphic(a_alg, a, b_alg, b):
    """Is there a bijection preserving both tables with 0 -> 0, 1 -> 1
    and a -> b?"""
    if a_alg.size != b_alg.size:
        return False
    roles_a = (a == a_alg.bottom, a == a_alg.unit)
    roles_b = (b == b_alg.bottom, b == b_alg.unit)
    if roles_a != roles_b:
        return False
    return canonical_key(a_alg, a) == canonical_key(b_alg, b)


def isomorphic(a_alg, b_alg):
    """Plain isomorphism, only 0 and 1 pinned."""
    if a_alg.size != b_alg.size:
        return False
    return canonical_key(a_alg) == canonical_key(b_alg)


def algebra_automorphisms(algebra):
    """All self-bijections fixing 0 and 1 preserving both tables, in
    lexicographic order (the identity first)."""
    fixed = (algebra.bottom, algebra.unit)
    rest = tuple(e for e in range(algebra.size) if e not in fixed)
    candidates = [(x,) if x in fixed else rest for x in range(algebra.size)]
    tables = (algebra.sum, algebra.mul)
    return table_maps(tables, tables, candidates, injective=True)
