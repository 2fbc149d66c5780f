"""Free modules over B1 and their automorphism groups.

The free module on n generators is the powerset of the generator set:
subsets encoded as n-bit masks, sum = bitwise union, generator i
sitting inside as the singleton mask 1 << i. Extending a map on
generators to the whole module is taking joins, and every bijective
self-map that respects sums turns out to come from a permutation of
the generators, so the automorphism group has order n!.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .core_lattice import (
    FinModule,
    ModuleMorphism,
    _check_map,
    is_bijective,
    powerset_module,
)
from .errors import LawViolation, SizeTooLarge

AUTOMORPHISM_LIMIT = 6


@dataclass(frozen=True)
class FreeModule(FinModule):
    """Powerset module that remembers its basis. Element index = bitmask."""

    basis_size: int

    def generator(self, i):
        """Index of the singleton {i}."""
        if not 0 <= i < self.basis_size:
            raise ValueError(f"no generator {i} in a basis of {self.basis_size}")
        return 1 << i


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple."""

    image: tuple

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"{self.image} is not a permutation")

    @property
    def size(self):
        return len(self.image)

    def __call__(self, i):
        return self.image[i]

    def compose(self, other):
        """self after other."""
        if other.size != self.size:
            raise ValueError("sizes differ")
        return Permutation(tuple(self.image[j] for j in other.image))

    def inverse(self):
        inv = [0] * self.size
        for i, j in enumerate(self.image):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self):
        """Cycle notation, fixed points omitted; identity prints as ()."""
        seen = [False] * self.size
        parts = []
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.image[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.image[nxt]
            if len(cyc) > 1:
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "()"


@dataclass(frozen=True)
class InducedAutomorphism(ModuleMorphism):
    """An automorphism of a free module, tagged with the permutation
    of generators it applies bitwise."""

    permutation: Permutation


def free_module(n):
    """The free module on n generators."""
    if n < 0:
        raise ValueError("basis size must be nonnegative")
    base = powerset_module(n)
    return FreeModule(base.names, base.sum, 0, n)


def free_extend(free, target, images):
    """The unique morphism sending generator i to images[i].

    Each subset goes to the join of the images of its members; the
    empty set goes to the bottom. Sum preservation is automatic
    because unions of subsets turn into joins of joins.
    """
    images = tuple(images)
    if len(images) != free.basis_size:
        raise ValueError("one image per generator, please")
    for v in images:
        if not isinstance(v, int) or not 0 <= v < target.size:
            raise ValueError(f"{v!r} is not an element of the target")
    mapping = []
    for mask in range(free.size):
        acc = target.bottom
        for i in range(free.basis_size):
            if mask >> i & 1:
                acc = target.sum[acc][images[i]]
        mapping.append(acc)
    return ModuleMorphism(free, target, tuple(mapping))


def _induced(free, perm):
    """The automorphism of free that applies perm to each subset."""
    mapping = [0] * free.size
    for mask in range(1, free.size):
        low = mask & -mask
        mapping[mask] = mapping[mask ^ low] | 1 << perm.image[low.bit_length() - 1]
    return InducedAutomorphism(free, free, tuple(mapping), perm)


def perm_to_aut(perm):
    """The automorphism B |-> {perm(x) : x in B} of the free module."""
    return _induced(free_module(perm.size), perm)


def automorphisms(n):
    """All sum-preserving bijections of the rank-n free module.

    Candidates are the permutation-induced maps; each is re-checked
    against the morphism laws rather than trusted. That this list is
    exhaustive is the content of the GL_n result, and
    brute_force_automorphisms provides the independent check for
    small n.
    """
    if n < 0:
        raise ValueError("basis size must be nonnegative")
    if n > AUTOMORPHISM_LIMIT:
        raise SizeTooLarge(
            f"rank {n} free module has 2^{n} elements; limit is {AUTOMORPHISM_LIMIT}"
        )
    free = free_module(n)
    out = []
    for image in permutations(range(n)):
        aut = _induced(free, Permutation(image))
        try:
            _check_map(aut.source, aut.target, aut.map, ("bottom",), ("sum",))
        except LawViolation:
            continue
        if is_bijective(aut):
            out.append(aut)
    return out


def brute_force_automorphisms(n):
    """Oracle arm: search all bijections of the 2^n elements for
    sum-preserving ones, with no permutation assumption. Exponential
    factorial cost, so n is capped at 3."""
    if n > 3:
        raise SizeTooLarge("brute force over (2^n)! bijections; n capped at 3")
    free = free_module(n)
    size = free.size
    found = []
    for image in permutations(range(size)):
        ok = True
        for a in range(size):
            for b in range(size):
                if image[a | b] != image[a] | image[b]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(ModuleMorphism(free, free, image))
    return found
