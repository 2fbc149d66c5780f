"""Polynomials over B1: finite sets of monomials.

With coefficients in {0, 1} a polynomial carries no more information
than the set of monomials present, so the semiring of polynomials in
variables A is the set of finite subsets of N^A: sum = union, product
= Minkowski sum of exponent vectors, zero = the empty set, one = the
zero vector alone. Setting a group of variables to zero kills every
monomial that mentions them; whether anything survives is a two-valued
invariant, and those invariants are exactly the maximal congruences,
one per subset of the variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

from .algebra import b1_algebra
from .errors import (
    PolyParseError,
    SizeTooLarge,
    UnknownVariable,
    VariableMismatch,
)

MAXSPEC_LIMIT = 10
# parsed exponents are capped: closing and evaluating cost one step per unit
MAX_EXPONENT = 10_000
DEFAULT_SEED = 0xB1


def default_seed():
    """Seed for sampled batteries: B1_SEED from the environment, else 177."""
    return int(os.environ.get("B1_SEED", DEFAULT_SEED))


@dataclass(frozen=True)
class Poly:
    """A polynomial: variable names plus a frozenset of exponent tuples."""

    variables: tuple
    monomials: frozenset

    def is_zero(self):
        return not self.monomials


def make_poly(variables, monomials):
    """Validate exponent vectors and build a Poly."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    n = len(variables)
    mons = set()
    for m in monomials:
        m = tuple(m)
        if len(m) != n:
            raise ValueError(f"monomial {m} has {len(m)} exponents, expected {n}")
        if any(not isinstance(e, int) or e < 0 for e in m):
            raise ValueError(f"monomial {m} has a bad exponent")
        mons.add(m)
    return Poly(variables, frozenset(mons))


def zero_poly(variables):
    return make_poly(variables, ())


def one_poly(variables):
    variables = tuple(variables)
    return make_poly(variables, ((0,) * len(variables),))


def variable_poly(variables, name):
    variables = tuple(variables)
    if name not in variables:
        raise UnknownVariable(f"unknown variable {name!r}")
    i = variables.index(name)
    mono = tuple(1 if j == i else 0 for j in range(len(variables)))
    return make_poly(variables, (mono,))


def _same_vars(r, s):
    if r.variables != s.variables:
        raise VariableMismatch(
            f"variable lists differ: {r.variables} vs {s.variables}"
        )


def poly_add(r, s):
    """Union of monomial sets."""
    _same_vars(r, s)
    return Poly(r.variables, r.monomials | s.monomials)


def poly_mul(r, s):
    """Minkowski sum: every pairwise sum of exponent vectors."""
    _same_vars(r, s)
    out = set()
    for a in r.monomials:
        for b in s.monomials:
            out.add(tuple(x + y for x, y in zip(a, b)))
    return Poly(r.variables, frozenset(out))


def evaluate(f, algebra, phi):
    """Value of f in an algebra under a variables -> elements map.

    phi maps each variable name to an element index. Join of products
    of powers, empty join = bottom, empty product = unit.
    """
    for var in f.variables:
        if var not in phi:
            raise UnknownVariable(f"no value for variable {var!r}")
    total = algebra.bottom
    for mono in f.monomials:
        prod = algebra.unit
        for var, e in zip(f.variables, mono):
            v = phi[var]
            for _ in range(e):
                prod = algebra.mul[prod][v]
        total = algebra.sum[total][prod]
    return total


def set_vars_to_zero(f, names):
    """Monomials of f not using any of the named variables.

    Substituting 0 for those variables kills every monomial with a
    positive exponent there and leaves the rest untouched.
    """
    names = frozenset(names)
    for x in names:
        if x not in f.variables:
            raise UnknownVariable(f"unknown variable {x!r}")
    idx = [i for i, v in enumerate(f.variables) if v in names]
    kept = frozenset(
        m for m in f.monomials if all(m[i] == 0 for i in idx)
    )
    return Poly(f.variables, kept)


def equal_mod_zero_set(r, s, names):
    """Do r and s agree after the named variables are set to zero,
    up to the two-valued collapse: both nothing left, or both
    something left? This is the maximal congruence attached to the
    zero set."""
    _same_vars(r, s)
    return set_vars_to_zero(r, names).is_zero() == set_vars_to_zero(
        s, names
    ).is_zero()


# ---------------------------------------------------------------------------
# parsing and rendering


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+*^":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in "0123456789":  # not isdigit(): int() refuses '²'
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def parse_poly(text, variables):
    """Parse 'x^2*y + x + 1' style text.

    Grammar: poly is '0' or terms joined by '+'; a term is '1' or
    factors joined by '*'; a factor is a variable with an optional
    '^' exponent. Whitespace is ignored; '+' and '*' collapse
    duplicates by the set semantics. An exponent above MAX_EXPONENT,
    alone or summed over a term's factors, is a PolyParseError.
    """
    variables = tuple(variables)
    pos = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text)
    k = 0

    def peek():
        return tokens[k]

    def take(kind):
        nonlocal k
        t = tokens[k]
        if t[0] != kind:
            raise PolyParseError(f"expected {kind}, found {t[1]!r}", t[2])
        k += 1
        return t

    if peek()[0] == "num" and peek()[1] == "0":
        take("num")
        take("end")
        return zero_poly(variables)

    def factor(exps):
        t = peek()
        if t[0] != "ident":
            raise PolyParseError(f"expected a variable, found {t[1]!r}", t[2])
        take("ident")
        if t[1] not in pos:
            raise UnknownVariable(f"unknown variable {t[1]!r}")
        i = pos[t[1]]
        e = 1
        if peek()[0] == "^":
            take("^")
            t = take("num")
            # digit count first: int() refuses very long digit strings
            too_long = len(t[1].lstrip("0")) > len(str(MAX_EXPONENT))
            e = MAX_EXPONENT + 1 if too_long else int(t[1])
        exps[i] += e
        if exps[i] > MAX_EXPONENT:
            raise PolyParseError(f"exponent is above the limit of {MAX_EXPONENT}", t[2])

    def term():
        t = peek()
        if t[0] == "num":
            if t[1] != "1":
                raise PolyParseError(f"only 0 and 1 are constants, found {t[1]!r}", t[2])
            take("num")
            return (0,) * len(variables)
        exps = [0] * len(variables)
        factor(exps)
        while peek()[0] == "*":
            take("*")
            factor(exps)
        return tuple(exps)

    mons = {term()}
    while peek()[0] == "+":
        take("+")
        mons.add(term())
    take("end")
    return Poly(variables, frozenset(mons))


def render_poly(f):
    """Canonical text: terms in descending graded-lex order."""
    if not f.monomials:
        return "0"
    terms = []
    for m in sorted(f.monomials, key=lambda m: (sum(m), m), reverse=True):
        factors = []
        for v, e in zip(f.variables, m):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        terms.append("*".join(factors) if factors else "1")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# the maximal spectrum


@dataclass(frozen=True)
class SpectrumPoint:
    """One maximal congruence: the variables sent to zero, the 0/1
    assignment realizing it, and the battery agreement record."""

    zero_set: tuple
    assignment: tuple  # (var, 0 or 1) pairs in declaration order
    agrees: bool
    checked: int


@dataclass(frozen=True)
class MaxSpecReport:
    variables: tuple
    points: tuple
    pairwise_distinguished: bool
    battery_size: int
    sampled: bool


def battery_monomials(n):
    """All exponent vectors with entries at most 2."""
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in (0, 1, 2)]
    return out


def _battery_choices(n):
    """The monomial sets of battery_polys, in its order."""
    mons = battery_monomials(n)
    return chain.from_iterable(combinations(mons, r) for r in range(4))


def battery_polys(variables):
    """Every poly with at most 3 monomials, exponents at most 2.

    Exhaustive for up to 4 variables; above that the caller samples.
    """
    variables = tuple(variables)
    return [
        Poly(variables, frozenset(chosen))
        for chosen in _battery_choices(len(variables))
    ]


def sampled_battery(variables, count, seed):
    import random

    rng = random.Random(seed)
    variables = tuple(variables)
    n = len(variables)
    out = []
    for _ in range(count):
        mons = set()
        for _ in range(rng.randint(0, 3)):
            mons.add(tuple(rng.randint(0, 2) for _ in range(n)))
        out.append(Poly(variables, frozenset(mons)))
    return out


def distinguishing_witness(variables, zero_a, zero_b):
    """A battery polynomial on which the two points disagree.

    Any variable in the symmetric difference works: the single-variable
    poly is congruent to zero at exactly one of the two points.
    """
    diff = set(zero_a) ^ set(zero_b)
    if not diff:
        raise ValueError("the zero sets coincide")
    return variable_poly(variables, min(diff))


def maxspec(variables):
    """All maximal congruences on the polynomials in these variables.

    One point per subset of the variables, each verified against the
    battery: collapsing to zero under the subset's congruence must
    match evaluating under the subset's 0/1 assignment. Exhaustive
    battery through 4 variables, seeded sample beyond. Both tests are
    conjunctions over monomials: f collapses to zero exactly when each
    of its monomials uses a zeroed variable, and f evaluates to 0 in
    B1 exactly when each of its monomials does. So they agree on f
    whenever they agree on each monomial of f, and the check runs once
    per distinct battery monomial. Conversely a monomial on which they
    disagree is itself a battery polynomial whenever the battery holds
    every monomial alone, as the exhaustive one does. A stride sample
    of the battery checks the whole-polynomial evaluation against the
    per-monomial values. So the exhaustive battery is never built: its
    size is counted from the combinations, its monomials are
    battery_monomials(n), and only the stride sample becomes
    polynomials. Distinctness of the points is certified two
    ways: the zero set is recovered from the congruence as
    {x : x equal to 0}, and for small n every pair additionally gets
    an explicit witness polynomial re-checked on both sides.
    """
    variables = tuple(variables)
    n = len(variables)
    if n < 1:
        raise ValueError("at least one variable")
    if n > MAXSPEC_LIMIT:
        raise SizeTooLarge(f"2^{n} points; limit is {MAXSPEC_LIMIT}")
    sampled = n > 4
    if sampled:
        battery = sampled_battery(variables, 500, default_seed())
        size = len(battery)
        monomials = sorted({m for f in battery for m in f.monomials})
        stride = battery[::97]
    else:
        size = sum(comb(3**n, r) for r in range(4))
        monomials = battery_monomials(n)
        stride = [
            Poly(variables, frozenset(chosen))
            for chosen in islice(_battery_choices(n), 0, None, 97)
        ]
    scalars = b1_algebra()
    single = {m: Poly(variables, frozenset((m,))) for m in monomials}
    points = []
    recovered = []
    for mask in range(1 << n):
        zero_set = tuple(v for i, v in enumerate(variables) if mask >> i & 1)
        assignment = tuple(
            (v, 0 if mask >> i & 1 else 1) for i, v in enumerate(variables)
        )
        phi = dict(assignment)
        killed = {
            m: evaluate(f, scalars, phi) == scalars.bottom
            for m, f in single.items()
        }
        agrees = all(
            set_vars_to_zero(f, zero_set).is_zero() == killed[m]
            for m, f in single.items()
        ) and all(
            (evaluate(f, scalars, phi) == scalars.bottom)
            == all(killed[m] for m in f.monomials)
            for f in stride
        )
        points.append(SpectrumPoint(zero_set, assignment, agrees, size))
        # recovery: which single variables are congruent to zero here
        zp = zero_poly(variables)
        recovered.append(
            frozenset(
                v
                for v in variables
                if equal_mod_zero_set(variable_poly(variables, v), zp, zero_set)
            )
        )
    distinguished = len(set(recovered)) == len(points) and all(
        rec == frozenset(p.zero_set) for rec, p in zip(recovered, points)
    )
    if n <= 4 and distinguished:
        zp = zero_poly(variables)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                w = distinguishing_witness(
                    variables, points[i].zero_set, points[j].zero_set
                )
                za = equal_mod_zero_set(w, zp, points[i].zero_set)
                zb = equal_mod_zero_set(w, zp, points[j].zero_set)
                if za == zb:
                    distinguished = False
    return MaxSpecReport(variables, tuple(points), distinguished, size, sampled)
