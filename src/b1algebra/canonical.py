"""Canonical forms for finite operation tables.

Two structures given by n x n tables are isomorphic exactly when some
bijection of {0..n-1} carries one family of tables onto the other. We
canonicalize by taking the lexicographically least relabeled table
tuple over a set of admissible bijections, where "admissible" always
means fixing a prefix of pinned positions (bottom, unit, a marked
generator, ...).

The elements are refined into color classes (degree-style colors
recomputed until stable, pinned positions seeded with unique colors)
and the minimum is taken only over bijections that send each color
class onto a fixed block of positions, laid out in color order. The
coloring is an isomorphism invariant, so corresponding classes of
isomorphic tables land in the same blocks and the restricted minimum
is still complete; it just skips permutations that mix provably
distinguishable elements.

Hom sets (module, algebra and monoid morphisms, automorphisms) all
come from one backtracking search, table_maps.
"""

from __future__ import annotations

from itertools import permutations


def apply_perm(table, perm, relabel_entries=True):
    """Relabel an n x n table by a bijection of indices.

    new[perm[i]][perm[j]] = perm[table[i][j]]   (entries are elements)
    With relabel_entries=False entries are copied as-is (0/1 relation
    tables, where entries are truth values rather than elements).
    """
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    if relabel_entries:
        return tuple(
            tuple(perm[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )
    return tuple(tuple(table[inv[i]][inv[j]] for j in range(n)) for i in range(n))


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


def _assignments(groups, targets):
    """All ways to map each group bijectively onto its target block."""

    def rec(i):
        if i == len(groups):
            yield ()
            return
        for tail in rec(i + 1):
            for img in permutations(targets[i]):
                yield (img,) + tail

    for combo in rec(0):
        perm = {}
        for grp, img in zip(groups, combo):
            for p, q in zip(grp, img):
                perm[p] = q
        yield perm


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
        blocks.append(list(range(offset, offset + len(g))))
        offset += len(g)
    for mapping in _assignments(groups, blocks):
        perm = list(range(pinned)) + [0] * (n - pinned)
        for p, q in mapping.items():
            perm[p] = q
        yield tuple(perm)


def canonical_tables(tables, n, pinned=0, relabel=None):
    """Lexicographically least tuple of relabeled tables.

    relabel: per-table flags for entry relabeling (default: all True).
    """
    if relabel is None:
        relabel = (True,) * len(tables)
    best = None
    for perm in admissible_perms(tables, n, pinned, relabel):
        cand = tuple(
            apply_perm(t, perm, r) for t, r in zip(tables, relabel)
        )
        if best is None or cand < best:
            best = cand
    return best


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
