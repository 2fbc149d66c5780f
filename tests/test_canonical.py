"""Canonical forms against exhaustive minima written here.

The oracle relabels every table in full for every bijection that sends
each colour class of refine_colors onto its block of positions, built
with itertools.permutations, and takes the least tuple. Inputs are
given random labels first (pinned positions kept), so that the
library's answer is never the input itself.
"""
import random
from itertools import permutations, product

from b1algebra import (
    all_monoids,
    enumerate_lattices,
    enumerate_monogenic,
    enumerate_posets,
)
from b1algebra.canonical import (
    canonical_classes,
    canonical_tables,
    least_relabeling,
    refine_colors,
)


def _relabel(table, perm, entries):
    """new[perm[i]][perm[j]] = perm[t[i][j]], or t[i][j] verbatim."""
    n = len(table)
    new = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = table[i][j]
            new[perm[i]][perm[j]] = perm[v] if entries else v
    return tuple(tuple(row) for row in new)


def _shuffled(tables, fixed, rng, flags=None):
    """The tables under a random bijection that sends fixed[k] to k."""
    flags = flags or (True,) * len(tables)
    n = len(tables[0])
    rest = [x for x in range(n) if x not in fixed]
    slots = list(range(len(fixed), n))
    rng.shuffle(slots)
    perm = [0] * n
    for k, x in enumerate(fixed):
        perm[x] = k
    for x, p in zip(rest, slots):
        perm[x] = p
    return tuple(_relabel(t, perm, f) for t, f in zip(tables, flags))


def _oracle(tables, n, pinned=0, flags=None):
    flags = flags or (True,) * len(tables)
    colors = refine_colors(tables, n, pinned, flags)
    classes = {}
    for x in range(pinned, n):
        classes.setdefault(colors[x], []).append(x)
    groups = [classes[c] for c in sorted(classes)]
    blocks = []
    offset = pinned
    for g in groups:
        blocks.append(range(offset, offset + len(g)))
        offset += len(g)
    best = None
    for images in product(*(permutations(b) for b in blocks)):
        perm = list(range(n))
        for g, img in zip(groups, images):
            for x, p in zip(g, img):
                perm[x] = p
        cand = tuple(_relabel(t, perm, f) for t, f in zip(tables, flags))
        if best is None or cand < best:
            best = cand
    return best


def test_lattices_match_the_oracle():
    rng = random.Random(1)
    for n in range(1, 7):
        for mod in enumerate_lattices(n):
            for _ in range(3):
                tables = _shuffled((mod.sum,), [mod.bottom], rng)
                assert canonical_tables(tables, n, pinned=1) == _oracle(tables, n, 1)


def test_monoids_match_the_oracle():
    rng = random.Random(2)
    for n in range(1, 5):
        for mon in all_monoids(n):
            for _ in range(3):
                tables = _shuffled((mon.mul,), [mon.unit], rng)
                assert canonical_tables(tables, n, pinned=1) == _oracle(tables, n, 1)


def test_posets_match_the_oracle():
    rng = random.Random(3)
    for n in range(1, 6):
        for pos in enumerate_posets(n):
            tables = _shuffled((pos.leq,), [], rng, (False,))
            got = canonical_tables(tables, n, relabel=(False,))
            assert got == _oracle(tables, n, 0, (False,))


def test_census_algebras_match_the_oracle_with_and_without_a_mark():
    rng = random.Random(4)
    for n in range(2, 7):
        for r in enumerate_monogenic(n):
            alg = r.algebra
            for mark in (None, r.generator):
                fixed = [alg.bottom, alg.unit]
                if mark is not None and mark not in fixed:
                    fixed.append(mark)
                tables = _shuffled((alg.sum, alg.mul), fixed, rng)
                got = canonical_tables(tables, n, pinned=len(fixed))
                assert got == _oracle(tables, n, len(fixed))


def test_lattice_classes_are_least_over_all_bottom_fixing_relabelings():
    for n in range(1, 7):
        for mod in enumerate_lattices(n):
            least = min(
                _relabel(mod.sum, (0,) + tail, True)
                for tail in permutations(range(1, n))
            )
            assert mod.sum == least


def test_canonical_classes_keeps_one_exact_form_per_class():
    rng = random.Random(5)
    cases = [
        ([m.sum for m in enumerate_lattices(n)], n, 1, None) for n in range(1, 7)
    ]
    cases += [([m.mul for m in all_monoids(n)], n, 1, None) for n in range(1, 5)]
    cases += [
        ([p.leq for p in enumerate_posets(n)], n, 0, (False,)) for n in range(1, 5)
    ]
    for reps, n, pinned, flags in cases:
        cands = [
            _shuffled((t,), list(range(pinned)), rng, flags)
            for t in reps
            for _ in range(3)
        ]
        rng.shuffle(cands)
        forms = canonical_classes(cands, n, pinned, flags)
        assert len(forms) == len(reps)
        assert forms == sorted({canonical_tables(c, n, pinned, flags) for c in cands})


def test_least_relabeling_keeps_the_first_minimum():
    # lattices with automorphisms have several least relabelings
    for n in range(1, 6):
        for mod in enumerate_lattices(n):
            perms = [(0,) + tail for tail in permutations(range(1, n))]
            values = [(_relabel(mod.sum, p, True),) for p in perms]
            least = min(values)
            got = least_relabeling((mod.sum,), perms)
            assert got == (least, perms[values.index(least)])
