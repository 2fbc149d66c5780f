"""Canonical forms for finite operation tables.

Two structures given by n x n tables are isomorphic exactly when some
bijection of {0..n-1} carries one family of tables onto the other. The
exact canonical form, canonical_tables, is the lexicographically least
relabeled table tuple over a set of admissible bijections, where
"admissible" always means fixing a prefix of pinned positions (bottom,
unit, a marked generator, ...).

The elements are refined into color classes (degree-style colors
recomputed until stable, pinned positions seeded with unique colors)
and the minimum is taken only over bijections that send each color
class onto a fixed block of positions, laid out in color order. The
coloring is an isomorphism invariant, so corresponding classes of
isomorphic tables land in the same blocks and the restricted minimum
is still complete; it just skips permutations that mix provably
distinguishable elements. The minimum is built row by row: a
relabeling is dropped at its first row greater than the best one's,
and its remaining rows are built only after a smaller row.

canonical_classes deduplicates isomorphism classes by the exact form
of each candidate, so its cost is one form per candidate. Its callers
pass few labeled copies per class: enumerate_posets a 0/1 order table
for each class one size down and each of its down-sets above which the
new element has a largest down-set among the maximal elements (583
forms for the 405 classes of sizes 1 to 6, against 939 candidates),
and all_monoids the tables of a search that cuts most relabeled copies
by lex-leader tests (monoid_functor._monoid_tables). Lattices are
generated one per class and need no deduplication.

A lattice's join table with only its bottom pinned never splits under
the coloring, so canonical_tables(..., 1) is then the plain
lexicographic minimum over the relabelings that fix the bottom. That minimum always puts the
top at 1, and enumerate_lattices takes it with least_relabeling over
only those relabelings. Pinning the top here instead would not give
the same forms: the coloring would then split the elements, and the
minimum would be taken over color-block layouts only.

Hom sets (module, algebra and monoid morphisms, automorphisms) all
come from one backtracking search, table_maps.
"""

from __future__ import annotations

from itertools import permutations, product


def refine_colors(tables, n, pinned=0, relabel=None):
    """Stable coloring of {0..n-1} under the given tables.

    Starts from 'pinned positions get unique colors, the rest one
    shared color' and repeatedly extends each element's signature with
    the multiset of (partner color, result color) pairs per table,
    until the partition stops splitting. Color ids are assigned by
    sorted signature, so they are isomorphism-invariant and pinned
    positions keep colors 0..pinned-1. Entries of tables whose relabel
    flag is False (0/1 relation tables) are used verbatim.
    """
    if relabel is None:
        relabel = (True,) * len(tables)
    colors = [i if i < pinned else pinned for i in range(n)]
    while True:
        sigs = []
        for x in range(n):
            sig = [colors[x]]
            for t_id, table in enumerate(tables):
                if relabel[t_id]:
                    row = sorted(
                        (colors[y], colors[table[x][y]]) for y in range(n)
                    )
                else:
                    row = sorted(
                        (colors[y], table[x][y], table[y][x]) for y in range(n)
                    )
                sig.append((t_id, tuple(row)))
            sigs.append(tuple(sig))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return tuple(colors)
        colors = new


def _color_groups(colors, n, pinned):
    classes = {}
    for x in range(pinned, n):
        classes.setdefault(colors[x], []).append(x)
    return [classes[c] for c in sorted(classes)]


def admissible_perms(tables, n, pinned=0, relabel=None):
    """Bijections to minimize over: those fixing the pinned prefix and
    sending each color class onto its canonical position block
    (classes laid out in color order).
    """
    colors = refine_colors(tables, n, pinned, relabel)
    groups = _color_groups(colors, n, pinned)
    blocks = []
    offset = pinned
    for g in groups:
        blocks.append(range(offset, offset + len(g)))
        offset += len(g)
    perm = list(range(n))
    for images in product(*map(permutations, blocks)):
        for grp, img in zip(groups, images):
            for x, p in zip(grp, img):
                perm[x] = p
        yield tuple(perm)


def _relabeled_rows(tables, relabel, perm, inv):
    """Rows of the relabeled tables in lexicographic order, table by
    table: new[i][j] = perm[t[inv[i]][inv[j]]], with entries copied
    as-is for tables whose relabel flag is False (0/1 relation tables,
    where entries are truth values rather than elements)."""
    for t, r in zip(tables, relabel):
        for x in inv:
            row = t[x]
            if r:
                yield tuple([perm[row[j]] for j in inv])
            else:
                yield tuple([row[j] for j in inv])


def least_relabeling(tables, perms, relabel=None):
    """The lexicographically least relabeled table tuple over perms
    (perm[x] is the new index of x), and the first perm that gives it.

    Each candidate is built one row at a time against the best so far:
    it is dropped at its first greater row, and only after a smaller
    row are its remaining rows built, as the new best.
    """
    if relabel is None:
        relabel = (True,) * len(tables)
    best = best_perm = None
    for perm in perms:
        inv = [0] * len(perm)
        for x, p in enumerate(perm):
            inv[p] = x
        rows = _relabeled_rows(tables, relabel, perm, inv)
        if best is None:
            best, best_perm = list(rows), perm
            continue
        for k, row in enumerate(rows):
            if row > best[k]:
                break
            if row < best[k]:
                best[k:] = [row, *rows]
                best_perm = perm
                break
    n = len(best_perm)
    least = tuple(tuple(best[k * n:(k + 1) * n]) for k in range(len(tables)))
    return least, best_perm


def canonical_tables(tables, n, pinned=0, relabel=None):
    """Lexicographically least tuple of relabeled tables.

    relabel: per-table flags for entry relabeling (default: all True).
    """
    perms = admissible_perms(tables, n, pinned, relabel)
    return least_relabeling(tables, perms, relabel)[0]


def canonical_classes(families, n, pinned=0, relabel=None):
    """canonical_tables of one member of each isomorphism class among
    the table tuples in families, sorted.

    Each candidate costs one exact form.
    """
    return sorted({canonical_tables(t, n, pinned, relabel) for t in families})


def table_automorphisms(tables, n, pinned=0):
    """All bijections fixing 0..pinned-1 that preserve every table, in
    lexicographic order (the identity first)."""
    rest = range(pinned, n)
    candidates = [(x,) for x in range(pinned)] + [rest] * (n - pinned)
    return table_maps(tables, tables, candidates, injective=True)


def table_maps(src_tables, tgt_tables, candidates, injective=False):
    """Every map f with f(x) in candidates[x] and
    f(s[a][b]) == t[f(a)][f(b)] for each paired source table s and
    target table t, as tuples in lexicographic order.

    Images are assigned in index order. An element that is s[a][b] for
    earlier a and b has its image forced, so only that value is tried,
    and each law instance is checked as soon as the last of a, b and
    s[a][b] has an image. injective=True keeps only one-to-one maps.
    candidates[x] is an ascending sequence of target indices.
    """
    n = len(candidates)
    forced = [None] * n
    checks = [[] for _ in range(n)]
    for s, t in zip(src_tables, tgt_tables):
        for a in range(n):
            for b in range(n):
                c = s[a][b]
                checks[max(a, b, c)].append((t, a, b, c))
                if c > a and c > b and forced[c] is None:
                    forced[c] = (t, a, b)
    f = [None] * n
    out = []

    def rec(x):
        if x == n:
            out.append(tuple(f))
            return
        if forced[x] is None:
            options = candidates[x]
        else:
            t, a, b = forced[x]
            v = t[f[a]][f[b]]
            options = (v,) if v in candidates[x] else ()
        for v in options:
            if injective and v in f[:x]:
                continue
            f[x] = v
            for t, a, b, c in checks[x]:
                if f[c] != t[f[a]][f[b]]:
                    break
            else:
                rec(x + 1)

    rec(0)
    return out
