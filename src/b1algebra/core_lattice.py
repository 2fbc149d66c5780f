"""Finite modules over the two-element Boolean semifield.

A finite module over B1 = {0, 1} (addition is OR, multiplication is
AND) is the same thing as a nonempty finite lattice: the sum is an
idempotent commutative associative operation with neutral element, the
derived relation a <= b iff a+b = b is a partial order in which every
pair has a least upper bound (the sum itself), and greatest lower
bounds come for free by finiteness.

Everything here works on plain index tables. Elements are 0..n-1,
`sum[a][b]` is the index of a+b, and all structures are immutable
after validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

# canonical_tables is bound here too: perfbench/check_bench.py checks
# that the tracer wraps its alias in this module
from .canonical import canonical_classes, canonical_tables, table_maps  # noqa: F401
from .errors import (
    LawViolation,
    NoBottom,
    NotAssociative,
    NotCommutative,
    NotDecent,
    NotIdempotent,
)

SCALAR_SUM = ((0, 1), (1, 1))
SCALAR_MUL = ((0, 0), (0, 1))


@dataclass(frozen=True)
class FinPoset:
    """A finite partial order: names plus an n x n 0/1 leq table."""

    names: tuple
    leq: tuple

    @property
    def size(self):
        return len(self.names)


@dataclass(frozen=True)
class FinModule:
    """A finite B1-module: names, sum table, index of the bottom."""

    names: tuple
    sum: tuple
    bottom: int

    @property
    def size(self):
        return len(self.names)

    def join(self, a, b):
        return self.sum[a][b]

    def leq(self, a, b):
        return self.sum[a][b] == b

    def index(self, name):
        return self.names.index(name)


@dataclass(frozen=True)
class ModuleMorphism:
    """A bottom- and join-preserving map between finite modules.

    `map[i]` is the target index of source element i. Use
    module_morphism() to build one with the laws checked.
    """

    source: FinModule
    target: FinModule
    map: tuple

    def __call__(self, i):
        return self.map[i]


def _commutative_monoid(names, table, op=None, idempotent=False):
    """The one law check of modules, algebras and monoids: is the tuple
    table a commutative monoid law on the distinct names? Returns its
    first neutral element, or None.

    ValueError for repeated names, a table that is not square or an
    entry that is not an index; then NotIdempotent (only if asked),
    NotCommutative or NotAssociative with the first witness and op.
    """
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("element names must be distinct")
    if len(table) != n:
        raise ValueError(f"table has {len(table)} rows, expected {n}")
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"entry ({i},{j}) = {v!r} is not an index")
    sym = "*" if op == "mul" else "+"
    if idempotent:
        for a in range(n):
            if table[a][a] != a:
                raise NotIdempotent(
                    f"{names[a]}{sym}{names[a]} = {names[table[a][a]]}",
                    witness=(a,),
                    op=op,
                )
    # rows 0..a-1 equal their columns, so row a first differs at b > a
    for a, (row, col) in enumerate(zip(table, zip(*table))):
        if row != col:
            b = next(b for b in range(n) if row[b] != col[b])
            raise NotCommutative(
                f"{names[a]}{sym}{names[b]} != {names[b]}{sym}{names[a]}",
                witness=(a, b),
                op=op,
            )
    # over all c, (a.b).c is row a.b and a.(b.c) is row a read through
    # row b; a one-element table is associative
    reads = [itemgetter(*row) for row in table] if n > 1 else ()
    for a, ra in enumerate(table):
        for b, read_b in enumerate(reads):
            rab = table[ra[b]]
            if rab != read_b(ra):
                rb = table[b]
                c = next(c for c in range(n) if rab[c] != ra[rb[c]])
                x, y, z = names[a], names[b], names[c]
                raise NotAssociative(
                    f"({x}{sym}{y}){sym}{z} != {x}{sym}({y}{sym}{z})",
                    witness=(a, b, c),
                    op=op,
                )
    identity = tuple(range(n))
    return next((z for z, row in enumerate(table) if row == identity), None)


def _check_map(source, target, mapping, pinned, ops):
    """The one preservation check of module, algebra and monoid
    morphisms; returns the map as a tuple.

    ValueError unless the map has one entry per source element, each a
    target index. Then LawViolation with witness (x,) for the first
    pinned element x (an attribute: 'bottom', 'unit') not sent to its
    counterpart, or with witness (a, b) and op for the first pair
    a <= b, in ascending order, where a table op ('sum', 'mul') is not
    preserved; the tables are commutative, so no pair b < a fails first.
    """
    f = tuple(mapping)
    if len(f) != source.size:
        raise ValueError("map length does not match the source size")
    for x, v in enumerate(f):
        if not isinstance(v, int) or not 0 <= v < target.size:
            raise ValueError(f"map entry {x} = {v!r} is not a target index")
    for what in pinned:
        x = getattr(source, what)
        if f[x] != getattr(target, what):
            raise LawViolation(f"{what} is not sent to {what}", witness=(x,))
    tables = [(op, getattr(source, op), getattr(target, op)) for op in ops]
    for a in range(source.size):
        for b in range(a, source.size):
            for op, s, t in tables:
                if f[s[a][b]] != t[f[a]][f[b]]:
                    sym = "*" if op == "mul" else "+"
                    raise LawViolation(
                        f"f(a{sym}b) != f(a){sym}f(b)", witness=(a, b), op=op
                    )
    return f


def validate_module(names, sum_table):
    """Check the module laws and return the validated FinModule.

    Raises NotIdempotent, NotCommutative, NotAssociative or NoBottom,
    each carrying the lexicographically first witness. Decency of the
    derived order needs no separate check: joins are the sums and the
    neutral element is the least element.
    """
    names = tuple(names)
    if not names:
        raise ValueError("a module needs at least one element")
    table = tuple(map(tuple, sum_table))
    bottom = _commutative_monoid(names, table, idempotent=True)
    if bottom is None:
        raise NoBottom("no element is neutral for the sum")
    return FinModule(names, table, bottom)


def b1_module():
    """The scalars themselves, as a 2-element module."""
    return FinModule(("0", "1"), SCALAR_SUM, 0)


def module_morphism(source, target, mapping):
    """Validate bottom and sum preservation, then wrap the map."""
    mapping = _check_map(source, target, mapping, ("bottom",), ("sum",))
    return ModuleMorphism(source, target, mapping)


def is_bijective(f):
    return len(set(f.map)) == f.target.size == f.source.size


def order_of(mod):
    """The derived partial order: a <= b iff a+b = b."""
    n = mod.size
    leq = tuple(
        tuple(1 if mod.sum[a][b] == b else 0 for b in range(n)) for a in range(n)
    )
    return FinPoset(mod.names, leq)


def validate_poset(names, leq):
    names = tuple(names)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("element names must be distinct")
    table = tuple(tuple(int(bool(v)) for v in row) for row in leq)
    if len(table) != n or any(len(r) != n for r in table):
        raise ValueError("leq table is not square")
    for a in range(n):
        if not table[a][a]:
            raise LawViolation("leq is not reflexive", witness=(a,))
    for a in range(n):
        for b in range(n):
            if a != b and table[a][b] and table[b][a]:
                raise LawViolation("leq is not antisymmetric", witness=(a, b))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[a][b] and table[b][c] and not table[a][c]:
                    raise LawViolation("leq is not transitive", witness=(a, b, c))
    return FinPoset(names, table)


def module_of_order(poset):
    """Sums as least upper bounds; inverse of order_of on valid input.

    Raises NotDecent when there is no least element or some pair has
    no least upper bound.
    """
    n = poset.size
    leq = poset.leq
    bottom = None
    for z in range(n):
        if all(leq[z][a] for a in range(n)):
            bottom = z
            break
    if bottom is None:
        raise NotDecent("no least element")
    # up[a] as a bitmask; a pair has a join iff the intersection of
    # their upper sets is itself some element's upper set
    up = [0] * n
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                up[a] |= 1 << b
    by_up = {u: a for a, u in enumerate(up)}
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            common = up[a] & up[b]
            j = by_up.get(common)
            if j is None:
                raise NotDecent(
                    f"{poset.names[a]} and {poset.names[b]} have no join"
                )
            table[a][b] = j
    return FinModule(poset.names, tuple(map(tuple, table)), bottom)


def meet(mod, a, b):
    """Greatest lower bound, as the join of all common lower bounds."""
    acc = mod.bottom
    for c in range(mod.size):
        if mod.leq(c, a) and mod.leq(c, b):
            acc = mod.sum[acc][c]
    return acc


def _meet_table(mod):
    n = mod.size
    return [[meet(mod, a, b) for b in range(n)] for a in range(n)]


def is_distributive(mod):
    """(True, None) or (False, first triple with a^(b+c) != a^b + a^c)."""
    n = mod.size
    mt = _meet_table(mod)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = mt[a][mod.sum[b][c]]
                rhs = mod.sum[mt[a][b]][mt[a][c]]
                if lhs != rhs:
                    return False, (a, b, c)
    return True, None


def is_modular(mod):
    """Checks a <= c implies a + (b^c) = (a+b)^c, first witness on failure."""
    n = mod.size
    mt = _meet_table(mod)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if not mod.leq(a, c):
                    continue
                if mod.sum[a][mt[b][c]] != mt[mod.sum[a][b]][c]:
                    return False, (a, b, c)
    return True, None


def _irreducible_indices(mod):
    out = []
    for m in range(mod.size):
        if m == mod.bottom:
            continue
        reducible = False
        for x in range(mod.size):
            for y in range(x + 1, mod.size):
                if x != m and y != m and mod.sum[x][y] == m:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            out.append(m)
    return tuple(out)


def join_irreducibles(mod):
    """The sub-poset of elements m != 0 that are not proper joins.

    Every element of the module is the join of the irreducibles below
    it, which is what makes the Birkhoff map injective on distributive
    modules.
    """
    return _sub_poset(mod, _irreducible_indices(mod))


def _sub_poset(mod, idx):
    names = tuple(mod.names[i] for i in idx)
    leq = tuple(
        tuple(1 if mod.leq(a, b) else 0 for b in idx) for a in idx
    )
    return FinPoset(names, leq)


def _downset_masks(poset):
    n = poset.size
    below = [0] * n  # below[x]: mask of everything <= x
    for y in range(n):
        for x in range(n):
            if poset.leq[x][y]:
                below[y] |= 1 << x
    masks = []
    for s in range(1 << n):
        ok = True
        for x in range(n):
            if s >> x & 1 and below[x] & ~s:
                ok = False
                break
        if ok:
            masks.append(s)
    return masks


def _set_name(names, mask):
    return "{" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "}"


def downset_lattice(poset):
    """The module of down-closed subsets under union. Always distributive."""
    return _downset_module(poset, _downset_masks(poset))


def _downset_module(poset, masks):
    pos = {m: i for i, m in enumerate(masks)}
    table = tuple(
        tuple(pos[a | b] for b in masks) for a in masks
    )
    names = tuple(_set_name(poset.names, m) for m in masks)
    return FinModule(names, table, 0)


def birkhoff(mod):
    """The map m -> {irreducibles below m}, into the down-set module.

    Always a morphism; an isomorphism exactly when mod is distributive.
    """
    idx = _irreducible_indices(mod)
    poset = _sub_poset(mod, idx)
    masks = _downset_masks(poset)
    target = _downset_module(poset, masks)
    pos = {m: i for i, m in enumerate(masks)}
    mapping = []
    for m in range(mod.size):
        s = 0
        for p, e in enumerate(idx):
            if mod.leq(e, m):
                s |= 1 << p
        mapping.append(pos[s])
    return ModuleMorphism(mod, target, tuple(mapping))


def is_projective(mod):
    """Projectivity coincides with distributivity for finite modules."""
    return is_distributive(mod)[0]


def powerset_module(n):
    """All subsets of an n-point set under union, points named 0..n-1."""
    point_names = tuple(str(i) for i in range(n))
    size = 1 << n
    table = tuple(tuple(a | b for b in range(size)) for a in range(size))
    names = tuple(_set_name(point_names, m) for m in range(size))
    return FinModule(names, table, 0)


def module_morphisms(source, target):
    """Every bottom- and sum-preserving map, sorted by map."""
    candidates = [
        (target.bottom,) if x == source.bottom else range(target.size)
        for x in range(source.size)
    ]
    return [
        ModuleMorphism(source, target, m)
        for m in table_maps((source.sum,), (target.sum,), candidates)
    ]


def embeds_in_powerset(mod):
    """Does mod sit inside some powerset as a sublattice (unions AND
    intersections), bottom going to the empty set?

    Decided by prime-filter separation: the coordinates of any such
    embedding are maps to the scalars preserving joins and meets, so
    an embedding exists iff those maps jointly separate elements.
    Join-only embeddings exist for every finite lattice and decide
    nothing, which is why the meet condition matters.
    """
    n = mod.size
    maps = table_maps(
        (mod.sum, _meet_table(mod)),
        (SCALAR_SUM, SCALAR_MUL),
        [(0,) if x == mod.bottom else (0, 1) for x in range(n)],
    )
    # each map is the indicator of a prime filter (or the zero map),
    # listed by size and then by members
    filters = sorted(maps, key=lambda f: (sum(f), [x for x in range(n) if f[x]]))
    vectors = [tuple(f[m] for f in filters) for m in range(n)]
    if len(set(vectors)) != n:
        return False, None
    k = len(filters)
    target = powerset_module(k)
    mapping = []
    for m in range(n):
        mask = 0
        for i, f in enumerate(filters):
            if f[m]:
                mask |= 1 << i
        mapping.append(mask)
    return True, module_morphism(mod, target, tuple(mapping))


@dataclass(frozen=True)
class RetractionReport:
    """Diagnostics for the intersection retraction of a union-closed
    family: theta(A) = intersection of the members containing A.

    The construction is a genuine retraction exactly when the family
    is closed under intersections; on merely union-closed families any
    of the three properties can fail, and the first failure of each
    kind is reported as a witness.
    """

    ground: frozenset
    family: tuple
    mapping: tuple  # ((subset, theta(subset)), ...) over all subsets
    lands_in_family: bool
    landing_failure: frozenset | None
    preserves_unions: bool
    union_failure: tuple | None
    identity_on_family: bool
    identity_failure: frozenset | None
    intersection_closed: bool


def intersection_retraction(n, family):
    """Diagnose theta(A) = intersection of family members containing A.

    The ground set is {0..n-1}; the family must be nonempty, contain
    the empty and full sets, and be union-closed (that much is a
    precondition, not a diagnostic).
    """
    ground = frozenset(range(n))
    fam = sorted({frozenset(s) for s in family}, key=lambda s: (len(s), sorted(s)))
    if not fam:
        raise ValueError("family is empty")
    for s in fam:
        if not s <= ground:
            raise ValueError(f"{set(s)} is not a subset of the ground set")
    famset = set(fam)
    if frozenset() not in famset or ground not in famset:
        raise ValueError("family must contain the empty and full sets")
    for a in fam:
        for b in fam:
            if a | b not in famset:
                raise ValueError("family is not union-closed")

    def theta(a):
        acc = ground
        for s in fam:
            if a <= s:
                acc = acc & s
        return acc

    subsets = [
        frozenset(x for x in ground if m >> x & 1) for m in range(1 << n)
    ]
    mapping = tuple((a, theta(a)) for a in subsets)
    image = dict(mapping)

    lands, land_w = True, None
    for a in subsets:
        if image[a] not in famset:
            lands, land_w = False, a
            break
    preserves, union_w = True, None
    for a in subsets:
        for b in subsets:
            if image[a | b] != image[a] | image[b]:
                preserves, union_w = False, (a, b)
                break
        if not preserves:
            break
    ident, ident_w = True, None
    for s in fam:
        if image[s] != s:
            ident, ident_w = False, s
            break
    closed = all(a & b in famset for a in fam for b in fam)
    return RetractionReport(
        ground=ground,
        family=tuple(fam),
        mapping=mapping,
        lands_in_family=lands,
        landing_failure=land_w,
        preserves_unions=preserves,
        union_failure=union_w,
        identity_on_family=ident,
        identity_failure=ident_w,
        intersection_closed=closed,
    )


def _natural_orders(n, force_bottom):
    """DFS over down-set tables of naturally labeled posets on 0..n-1.

    Yields, per poset, the list down[k] = bitmask of elements strictly
    below k. Natural labeling (j < k whenever j is below k) means each
    new element goes above or beside the existing ones, so down[k]
    ranges over the down-closed subsets of the part built so far.
    With force_bottom, element 0 is below everything.
    """
    down = [0] * n

    def closed_subsets(k):
        base = 1 if force_bottom and k > 0 else 0
        out = []
        for s in range(1 << k):
            if force_bottom and k > 0 and not s & 1:
                continue
            ok = True
            t = s
            while t:
                j = (t & -t).bit_length() - 1
                if down[j] & ~s:
                    ok = False
                    break
                t &= t - 1
            if ok:
                out.append(s)
        return out

    def rec(k):
        if k == n:
            yield tuple(down)
            return
        for s in closed_subsets(k):
            down[k] = s
            yield from rec(k + 1)

    yield from rec(0)


def _lattice_table(down, n):
    """Sum table from strict-below masks, or None if some pair has no
    least upper bound."""
    up = [0] * n
    for a in range(n):
        up[a] |= 1 << a
        for b in range(n):
            if a != b and down[b] >> a & 1:
                up[a] |= 1 << b
    by_up = {u: a for a, u in enumerate(up)}
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            j = by_up.get(up[a] & up[b])
            if j is None:
                return None
            row.append(j)
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def enumerate_lattices(n):
    """All lattices with n elements, one representative per
    isomorphism class, bottom at index 0, in canonical table order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (FinModule(("e0",), ((0,),), 0),)
    tables = (
        _lattice_table(down, n) for down in _natural_orders(n, force_bottom=True)
    )
    forms = canonical_classes(((t,) for t in tables if t is not None), n, 1)
    names = tuple(f"e{i}" for i in range(n))
    return tuple(FinModule(names, t, 0) for (t,) in forms)


@lru_cache(maxsize=None)
def enumerate_posets(n):
    """All posets with n elements up to isomorphism, canonical order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (FinPoset((), ()),)
    leqs = (
        tuple(
            tuple(1 if a == b or (down[b] >> a & 1) else 0 for b in range(n))
            for a in range(n)
        )
        for down in _natural_orders(n, force_bottom=False)
    )
    forms = canonical_classes(((t,) for t in leqs), n, relabel=(False,))
    names = tuple(f"e{i}" for i in range(n))
    return tuple(FinPoset(names, t) for (t,) in forms)
