"""The shared map search against exhaustive enumeration.

Every hom set and automorphism list is compared, contents and order,
with a filter over all maps (itertools.product) or all bijections
(itertools.permutations), written here independently of the library.
Each structure is also tried with its labels reversed, so that joins
and products no longer come after their factors and the search cannot
lean on forced images.
"""
from itertools import permutations, product

from b1algebra import (
    FinAlgebra,
    FinModule,
    FinMonoid,
    algebra_automorphisms,
    algebra_morphisms,
    all_monoids,
    enumerate_lattices,
    enumerate_monogenic,
    module_morphisms,
    monoid_morphisms,
)
from b1algebra.canonical import table_automorphisms


def _reverse_table(t):
    n = len(t)
    return tuple(
        tuple(n - 1 - t[n - 1 - i][n - 1 - j] for j in range(n)) for i in range(n)
    )


def _reversed(obj):
    """The same structure with element i renamed n-1-i."""
    last = obj.size - 1
    names = obj.names[::-1]
    if isinstance(obj, FinAlgebra):
        return FinAlgebra(
            names, _reverse_table(obj.sum), last - obj.bottom,
            _reverse_table(obj.mul), last - obj.unit,
        )
    if isinstance(obj, FinModule):
        return FinModule(names, _reverse_table(obj.sum), last - obj.bottom)
    return FinMonoid(names, _reverse_table(obj.mul), last - obj.unit)


def _with_reversed(objs):
    return objs + [_reversed(o) for o in objs]


def _preserves(f, src_tables, tgt_tables):
    n = len(f)
    return all(
        f[s[a][b]] == t[f[a]][f[b]]
        for s, t in zip(src_tables, tgt_tables)
        for a in range(n)
        for b in range(n)
    )


def _all_maps(src_tables, tgt_tables, n, m, pins):
    return [
        f
        for f in product(range(m), repeat=n)
        if all(f[x] == y for x, y in pins) and _preserves(f, src_tables, tgt_tables)
    ]


def _all_bijections(tables, n, fixed):
    return [
        p
        for p in permutations(range(n))
        if all(p[x] == x for x in fixed) and _preserves(p, tables, tables)
    ]


LATTICES = _with_reversed([m for k in (1, 2, 3, 4) for m in enumerate_lattices(k)])
MONOIDS = _with_reversed([m for k in (1, 2, 3) for m in all_monoids(k)])
ALGEBRAS = _with_reversed(
    [r.algebra for k in (2, 3, 4) for r in enumerate_monogenic(k)]
)


def test_module_morphisms_match_exhaustive_search():
    pairs = 0
    for a in LATTICES:
        for b in LATTICES:
            if b.size > 3:
                continue
            want = _all_maps(
                (a.sum,), (b.sum,), a.size, b.size, ((a.bottom, b.bottom),)
            )
            assert [f.map for f in module_morphisms(a, b)] == want
            pairs += 1
    assert pairs == 10 * 6


def test_monoid_morphisms_match_exhaustive_search():
    for a in MONOIDS:
        for b in MONOIDS:
            want = _all_maps(
                (a.mul,), (b.mul,), a.size, b.size, ((a.unit, b.unit),)
            )
            assert [f.map for f in monoid_morphisms(a, b)] == want


def test_algebra_morphisms_match_exhaustive_search():
    for a in ALGEBRAS:
        for b in ALGEBRAS:
            want = _all_maps(
                (a.sum, a.mul), (b.sum, b.mul), a.size, b.size,
                ((a.bottom, b.bottom), (a.unit, b.unit)),
            )
            assert [f.map for f in algebra_morphisms(a, b)] == want


def test_table_automorphisms_match_exhaustive_search():
    cases = [((m.sum,), m.size) for m in LATTICES]
    cases += [((m.mul,), m.size) for m in MONOIDS]
    cases += [((a.sum, a.mul), a.size) for a in ALGEBRAS]
    for tables, n in cases:
        for pinned in range(min(n, 2) + 1):
            got = table_automorphisms(tables, n, pinned=pinned)
            assert got == _all_bijections(tables, n, range(pinned))
            assert got[0] == tuple(range(n))


def test_algebra_automorphisms_match_exhaustive_search():
    for a in ALGEBRAS:
        got = algebra_automorphisms(a)
        want = _all_bijections((a.sum, a.mul), a.size, (a.bottom, a.unit))
        assert got == want
        assert got[0] == tuple(range(a.size))
