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
from itertools import permutations
from operator import itemgetter

# canonical_tables is bound here too: perfbench/check_bench.py checks
# that the tracer wraps its alias in this module
from .canonical import (  # noqa: F401
    canonical_classes,
    canonical_tables,
    least_relabeling,
    table_maps,
)
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
    up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
    table = _lattice_table(up)
    if table is None:
        ups = set(up)
        a, b = next(
            (a, b) for a in range(n) for b in range(n) if up[a] & up[b] not in ups
        )
        raise NotDecent(f"{poset.names[a]} and {poset.names[b]} have no join")
    return FinModule(poset.names, table, bottom)


def meet(mod, a, b):
    """Greatest lower bound, as the join of all common lower bounds."""
    acc = mod.bottom
    for c in range(mod.size):
        if mod.leq(c, a) and mod.leq(c, b):
            acc = mod.sum[acc][c]
    return acc


def _down_masks(mod):
    """down[b]: the mask of the elements under b, read off the sum
    table (a <= b iff a + b = b; the table is commutative)."""
    return [
        sum(1 << a for a, v in enumerate(row) if v == b)
        for b, row in enumerate(mod.sum)
    ]


def _meet_table(mod):
    """meet(a, b) for every pair, read as the element whose down-set is
    down[a] & down[b]: the common lower bounds of a and b are exactly
    the elements under their meet."""
    down = _down_masks(mod)
    by_down = {d: x for x, d in enumerate(down)}
    return [[by_down[da & db] for db in down] for da in down]


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
    for a, row in enumerate(mod.sum):
        above = [c for c in range(n) if row[c] == c]
        for b in range(n):
            for c in above:
                if row[mt[b][c]] != mt[row[b]][c]:
                    return False, (a, b, c)
    return True, None


def _irreducible_indices(mod):
    """The join-irreducibles: the elements m that are not the join of
    the elements strictly under them, which leaves out the bottom, the
    join of none. These are the m other than the bottom that are no
    join x + y of two elements other than m."""
    out = []
    for m, d in enumerate(_down_masks(mod)):
        acc = mod.bottom
        strict = d & ~(1 << m)
        while strict:
            acc = mod.sum[acc][(strict & -strict).bit_length() - 1]
            strict &= strict - 1
        if acc != m:
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


def _poset_down(poset):
    """down[y]: the mask of the elements <= y."""
    return [
        sum(1 << x for x, row in enumerate(poset.leq) if row[y])
        for y in range(poset.size)
    ]


def _downset_masks(poset):
    """The down-sets in mask order: the masks s that are the union of
    the down-sets of their members, that union grown bit by bit."""
    below = _poset_down(poset)
    closure = [0] * (1 << poset.size)
    for s in range(1, len(closure)):
        low = s & -s
        closure[s] = closure[s ^ low] | below[low.bit_length() - 1]
    return [s for s, c in enumerate(closure) if s == c]


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
    mapping = tuple(
        pos[sum(1 << p for p, e in enumerate(idx) if d >> e & 1)]
        for d in _down_masks(mod)
    )
    return ModuleMorphism(mod, target, mapping)


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


def _lattice_table(up):
    """Sum table from up-set masks (up[a]: the elements >= a), or None
    if some pair has no least upper bound."""
    by_up = {u: a for a, u in enumerate(up)}
    table = []
    for ua in up:
        row = tuple(by_up.get(ua & ub) for ub in up)
        if None in row:
            return None
        table.append(row)
    return tuple(table)


@lru_cache(maxsize=None)
def enumerate_lattices(n):
    """All lattices with n elements, one representative per
    isomorphism class, bottom at index 0, in canonical table order.

    A lattice with n >= 2 elements is bottom + P + top for the poset P
    of its other elements, and bottom + P + top is a lattice exactly
    when every pair in it has a join. Two lattices are isomorphic
    exactly when their middles are, so each class of
    enumerate_posets(n - 2) gives at most one class, and its exact form
    is computed once.

    The exact form is the least relabeled sum table over the
    relabelings that fix the bottom, compared row by row. Row 0, the
    bottom's row, is 0..n-1 under all of them. Row 1 is the row of the
    element x labelled 1: each entry is at least 1, as x + y is never
    the bottom, and every entry is 1 exactly when x + y = x for all y,
    that is when x is the top. So the least form puts the top at 1,
    and only the (n-2)! relabelings (0, *q, 1) that send the top
    (index n-1) to 1 are tried, not all (n-1)! that fix the bottom.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (FinModule(("e0",), ((0,),), 0),)
    # bottom 0, the elements of P at 1..n-2, top n-1
    top = 1 << (n - 1)
    perms = [(0, *q, 1) for q in permutations(range(2, n))]
    forms = []
    for p in enumerate_posets(n - 2):
        up = [(top << 1) - 1]
        up += [sum(2 << b for b, v in enumerate(row) if v) | top for row in p.leq]
        up.append(top)
        t = _lattice_table(up)
        if t is not None:
            forms.append(least_relabeling((t,), perms)[0])
    names = tuple(f"e{i}" for i in range(n))
    return tuple(FinModule(names, t, 0) for (t,) in sorted(forms))


@lru_cache(maxsize=None)
def enumerate_posets(n):
    """All posets with n elements up to isomorphism, canonical order.

    A poset with n > 0 elements has a maximal element, and removing it
    leaves a poset with n - 1 elements; so every class arises by
    putting a new element above a down-set of a class one size down.
    Only a candidate whose new element has a down-set at least as large
    as every other maximal element's takes an exact form (canonical
    augmentation, McKay 1998): removing such an element from any
    n-poset leaves a class one size down with the element above one of
    its down-sets, so every class is still reached, and
    canonical_classes merges the survivors. The candidate's other
    maximal elements are the maximal elements of the class that are
    not under the new one, with the down-sets they had there.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (FinPoset((), ()),)
    new_row = (0,) * (n - 1) + (1,)
    leqs = []
    for p in enumerate_posets(n - 1):
        down = _poset_down(p)
        # (element, down-set size) of the maximal elements of p
        tops = [
            (b, d.bit_count())
            for b, d in enumerate(down)
            if sum(p.leq[b]) == 1
        ]
        for s in _downset_masks(p):
            size = s.bit_count() + 1
            if all(s >> b & 1 or k <= size for b, k in tops):
                leq = tuple(row + (s >> a & 1,) for a, row in enumerate(p.leq))
                leqs.append((leq + (new_row,),))
    forms = canonical_classes(leqs, n, relabel=(False,))
    names = tuple(f"e{i}" for i in range(n))
    return tuple(FinPoset(names, t) for (t,) in forms)
