"""Enumeration of one-generator algebras and its two oracle arms.

The closure-family oracle below recounts the index-n congruences with
no reference to the enumerator's lattice search: sum congruences on the
powerset of the generator's powers are exactly intersection-closed
families containing the full set (classes are keyed by their closure),
and product compatibility reduces to the single monomial shift.
"""
import hashlib
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

from b1algebra import (
    brute_force_count,
    canonical_key,
    close_presentation,
    enumerate_monogenic,
    marked_isomorphic,
    parse_presentation,
    render_presentation,
    unmarked_count,
    zhu_formula,
)
from b1algebra import monogenic
from b1algebra.algebra import congruence_closure
from b1algebra.core_lattice import _irreducible_indices, enumerate_lattices
from b1algebra.errors import CollapsesZeroOne, SizeTooLarge, TooLarge
from b1algebra.monogenic import (
    Presentation,
    _algebra_from_classes,
    _close,
    _close_in_power_algebra,
    _derive_presentation,
    _exp_poly,
    _implies,
    _poly_exps,
    _power_structures,
    _refute_by_model,
    _relation_masks,
    _relation_rules,
    _rules,
    _saturate_power_rule,
    _shift_table,
    _structure_relation,
    _structure_size,
    _trial_presents,
    _tropical_point,
    power_reduction_algebra,
)
from b1algebra.polynomial import MAX_EXPONENT


def close(text):
    return close_presentation(parse_presentation(text))


def power_structure(algebra, g):
    """Recover (kind, data) of the generator's power sequence."""
    seen = {}
    x = algebra.unit
    k = 0
    while True:
        if x == algebra.bottom:
            return ("nil", k)
        if x in seen:
            return ("cycle", seen[x], k - seen[x])
        seen[x] = k
        x = algebra.mul[x][g]
        k += 1


def closure_family_count(n):
    """Independent recount of the class total for cardinality n."""
    total = 0
    for ps in _power_structures(n):
        alg = power_reduction_algebra(ps)
        m = _structure_size(ps)
        size = 1 << m
        top = size - 1
        shift = [[alg.mul[x][1 << k] for x in range(size)] for k in range(m)]
        marked = [0] + [1 << k for k in range(m)]

        def valid(members):
            by_size = sorted(members, key=lambda s: bin(s).count("1"))
            c = [0] * size
            for x in range(size):
                for s in by_size:
                    if s & x == x:
                        c[x] = s
                        break
            cm = [c[x] for x in marked]
            if len(set(cm)) != len(cm):
                return 0
            for k in range(m):
                sh = shift[k]
                if any(c[sh[x]] != c[sh[c[x]]] for x in range(size)):
                    return 0
            return 1

        for s0 in range(top):
            sups = [s for s in range(size) if s & s0 == s0 and s not in (s0, top)]
            need = n - 2
            if need < 0 or len(sups) < need:
                continue
            if need == 0:
                total += valid({s0, top})
                continue
            prefix, pset = [s0], {s0}

            def dfs(start, left):
                nonlocal total
                if left == 0:
                    total += valid(pset | {top})
                    return
                for i in range(start, len(sups) - left + 1):
                    x = sups[i]
                    if all(x & y in pset for y in prefix):
                        prefix.append(x)
                        pset.add(x)
                        dfs(i + 1, left - 1)
                        prefix.pop()
                        pset.discard(x)

            dfs(0, need)
    return total


def test_presentation_round_trip():
    for text in ("a^2=a+1", "a+1=1; a^3=a^2", "a^4=a^2; a^3+1=a^3"):
        p = parse_presentation(text)
        assert parse_presentation(render_presentation(p)) == p


def test_close_pins_the_generator_to_a_scalar():
    r1 = close("a = 1")
    assert (r1.algebra.size, r1.generator) == (2, 1)
    r0 = close("a = 0")
    assert (r0.algebra.size, r0.generator) == (2, 0)


def test_close_small_battery():
    assert close("a+1=1; a^2=0").algebra.size == 3
    assert close("a^2 = a").algebra.size == 4
    assert close("a^2 = a+1").algebra.size == 4
    assert close("a^3 = a^2").algebra.size == 8
    assert close("a^3 = 1").algebra.size == 8


def test_close_names_the_four_element_quotient():
    r = close("a^2 = a+1")
    assert r.algebra.names == ("0", "1", "a", "a+1")
    assert r.generator == 2


def test_close_rejects_infinite_quotients():
    for text, cap, size in (
        ("a^2 + a = a^2", 12, 14),
        ("a + 1 = a", 12, 13),
        ("a^4 = 0", 3, 4),
    ):
        # the search finds no power rule of size <= cap; a model proves
        # the quotient too large
        with pytest.raises(TooLarge) as err:
            close_presentation(parse_presentation(text), cap=cap)
        assert (err.value.stage, err.value.size, err.value.bound) == ("model", size, cap)
    with pytest.raises(TooLarge) as err:
        close_presentation(parse_presentation("a^3 = 0"), cap=3)
    assert (err.value.stage, err.value.size, err.value.bound) == ("closure", 8, 3)


def test_search_bound_reaches_the_highest_exponent():
    # cap 3 is below the relation's exponent 4, so the search for a
    # power rule must reach degrees beyond 2 * cap to find a = 1; in the
    # others 1 <= a gives 1 <= a <= ... <= a^e and a^e <= 1 closes the
    # chain, up to the highest exponent a polynomial may have
    cases = [("1 = a^3 + a^4", (3, 4))] + [
        (f"1 = 1 + a^{e}; a = a + 1", (3, 12)) for e in (1000, MAX_EXPONENT)
    ]
    for text, caps in cases:
        for cap in caps:
            r = close_presentation(parse_presentation(text), cap=cap)
            assert r.algebra.names == ("0", "1")
            assert r.generator == 1


def close_catalogue():
    """The queries benchmark's close catalogue, as exponent sets: every
    power rule a^m = (a sum of lower powers) with m <= 3, alone and with
    each of nine extra relations."""
    extras = [((2,), (1,)), ((3,), (1,)), ((4,), (2,)), ((0, 1), (0,)), ((1, 2), (2,)),
              ((0, 3), (3,)), ((4,), (0,)), ((0, 2), (1,)), ((3,), (0, 1))]
    out = []
    for m in (1, 2, 3):
        for mask in range(1 << m):
            rule = (frozenset((m,)), frozenset(e for e in range(m) if mask >> e & 1))
            out.append([rule])
            out += [[rule, (frozenset(l), frozenset(r))] for l, r in extras]
    return out


def test_power_rule_search_finds_the_power_structure_of_each_quotient():
    """On the close catalogue at cap 12 and on every binomial between
    0, a^0 .. a^4 at caps 2..6: wherever the quotient closes, the rule
    the search finds is the quotient's own power structure, the smallest
    rule that holds there."""
    catalogue = close_catalogue()
    assert len(catalogue) == 140
    powers = [frozenset()] + [frozenset((e,)) for e in range(5)]
    cases = [(rels, 12) for rels in catalogue] + [
        ([rel], cap) for cap in range(2, 7) for rel in combinations(powers, 2)
    ]
    found = [_saturate_power_rule(rels, cap) for rels, cap in cases]
    assert found[140:].count(None) == 14
    closed = 0
    for (rels, cap), rule in zip(cases, found):
        p = Presentation(tuple((_exp_poly(l), _exp_poly(r)) for l, r in rels))
        try:
            r = close_presentation(p, cap)
        except (TooLarge, CollapsesZeroOne):
            continue
        closed += 1
        assert rule == power_structure(r.algebra, r.generator)
    assert closed == 128 + 19


def test_close_rejects_collapse():
    with pytest.raises(CollapsesZeroOne):
        close("a = 0; a = 1")


def test_closed_algebra_is_join_generated_by_powers():
    for text in ("a^2=a+1", "a^3=a^2", "a^3=1", "a+1=1; a^2=0"):
        r = close(text)
        a = r.algebra
        powers = []
        x = a.unit
        for _ in range(a.size + 1):
            if x not in powers:
                powers.append(x)
            x = a.mul[x][r.generator]
        reach = {a.bottom}
        for s in powers:
            reach |= {a.sum[t][s] for t in reach}
        assert reach == set(range(a.size))


def test_closing_gives_the_least_mask_of_each_class():
    # rep[x] == rep[y] implies the same of x, y moved by a monomial;
    # testing each x against rep[x] covers every pair of one class
    powers = [frozenset()] + [frozenset((e,)) for e in range(5)]
    binomials = list(combinations(powers, 2))
    rel_lists = [[b] for b in binomials] + [
        list(pair) for pair in combinations(binomials, 2)
    ]
    for ps in _power_structures(5):
        shift = _shift_table(ps)
        for rels in rel_lists:
            rep = _close_in_power_algebra(ps, shift, rels)
            for x in range(len(rep)):
                assert rep[x] <= x and rep[rep[x]] == rep[x]
                for k in range(len(shift)):
                    g = 1 << k
                    assert rep[x | g] == rep[rep[x] | g]
                    assert rep[shift[k][x]] == rep[shift[k][rep[x]]]


def test_closing_agrees_with_the_congruence_closure_oracle():
    """The closure operator against algebra.congruence_closure, a
    union-find over the whole power algebra: the same classes, each
    named by its least mask, and the same verdict on every goal pair.
    A relation with an empty side puts masks other than 0 in 0's class."""
    powers = [frozenset()] + [frozenset((e,)) for e in range(5)]
    binomials = list(combinations(powers, 2))
    rel_lists = [[b] for b in binomials] + [
        list(pair) for pair in combinations(binomials, 2)
    ]
    collapsed = zero_grown = 0
    for ps in _power_structures(5):
        shift = _shift_table(ps)
        alg = power_reduction_algebra(ps)
        masks = range(alg.size)
        for rels in rel_lists:
            pairs = _relation_masks(ps, rels)
            rep = _close_in_power_algebra(ps, shift, rels)
            try:
                class_of = congruence_closure(alg, pairs).class_of
            except CollapsesZeroOne:
                collapsed += 1
                class_of = [0] * alg.size
                assert set(rep) == {0}
            least = {}
            for x in masks:
                assert rep[x] == least.setdefault(class_of[x], x)
            zero_grown += rep.count(0) > 1 and len(set(rep)) > 1
            rules = _rules(shift, pairs)
            for x, y in combinations(masks, 2):
                assert _implies(rules, (x, y)) == (class_of[x] == class_of[y])
    assert collapsed and zero_grown


def test_the_rewrite_search_runs_once_per_final_list_without_the_power_rule():
    # the step-4 close of the trial that drops the power rule is the
    # final close, so the census never searches a final list again
    calls = []
    search = monogenic._saturate_power_rule

    def counted(rels, cap):
        calls.append(cap)
        return search(rels, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monogenic, "_saturate_power_rule", counted)
        classes = [
            r for n in range(2, 7) for r in enumerate_monogenic.__wrapped__(n)
        ]
    without = [
        r
        for r in classes
        if _structure_relation(power_structure(r.algebra, r.generator))
        not in r.presentation.relations
    ]
    assert len(calls) == len(without) == 11


def test_the_census_validates_each_class_once():
    # the closed-back algebra of a final list is compared by its key,
    # with no law scan of its own
    calls = []
    validate = monogenic.validate_algebra

    def counted(*args):
        calls.append(args)
        return validate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monogenic, "validate_algebra", counted)
        classes = [
            r for n in range(2, 6) for r in enumerate_monogenic.__wrapped__(n)
        ]
    assert len(calls) == len(classes) == 2 + 3 + 7 + 14


def test_a_wrong_closed_back_table_still_fails_the_key_check():
    # the unit's product row replaced by the bottom's breaks the laws;
    # the key comparison alone must refuse it
    tables = monogenic._class_tables

    def wrong(shift, rep, ps):
        names, sum_t, mul_t, gen = tables(shift, rep, ps)
        return names, sum_t, (mul_t[0], mul_t[0], *mul_t[2:]), gen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monogenic, "_class_tables", wrong)
        with pytest.raises(AssertionError, match="does not close back"):
            enumerate_monogenic.__wrapped__(3)


def kept_closure_tables(n):
    """The (ps, shift, close) of every placement the census keeps."""
    kept = []
    assemble = monogenic._assemble

    def record(ps, shift, close, models):
        kept.append((ps, shift, close))
        return assemble(ps, shift, close, models)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monogenic, "_assemble", record)
        enumerate_monogenic.__wrapped__(n)
    return kept


def test_kept_placements_are_closure_tables_with_the_shift_law():
    for n in (2, 3, 4, 5):
        kept = kept_closure_tables(n)
        assert len(kept) == len(enumerate_monogenic(n))
        for ps, shift, close in kept:
            assert len(set(close)) == n
            for s in range(len(close)):
                c = close[s]
                assert s & c == s and close[c] == c
                for k in range(len(shift)):
                    # monotone along each added power, hence monotone
                    assert close[s | 1 << k] & c == c
                    assert shift[k][c] & ~close[shift[k][s]] == 0


def searched_placements(n):
    """(L, ps, close) for every placement the search completes in the
    lattices L of size n, with the power structures of the census."""
    tables = [(ps, _shift_table(ps)) for ps in _power_structures(n)]
    out = []
    for L in enumerate_lattices(n):
        found = []
        monogenic._search_lattice(L, tables, found)
        out += [(L, ps, close) for ps, _, close in found]
    return out


def closure_irreducibles(close):
    """The join-irreducibles of the lattice of the masks in close: the
    members above the bottom that are not the closure of the union of
    the members strictly under them."""
    members = set(close)
    out = set()
    for c in members - {close[0]}:
        under = 0
        for d in members:
            if d & c == d != c:
                under |= d
        if close[under] != c:
            out.add(c)
    return out


def test_each_placement_is_reached_once():
    """Every placement the search completes puts a power on each
    join-irreducible, and no two share a lattice, a power structure and
    the masks of the powers under each element: two such placements
    would differ by an automorphism of the lattice.

    A placement is read off its closure table alone: close[S] is the
    mask of the powers under the join of the powers in S. The powers
    join-generate L exactly when the joins give L.size distinct masks,
    and then those masks, ordered by inclusion, are a copy of L in which
    power k sits at close[1 << k]."""
    keys = []
    for n in range(2, 7):
        for L, ps, close in searched_placements(n):
            assert len(set(close)) == L.size
            irreducibles = closure_irreducibles(close)
            assert len(irreducibles) == len(_irreducible_indices(L))
            powers = {close[1 << k] for k in range(_structure_size(ps))}
            assert irreducibles <= powers
            keys.append((ps, frozenset(close), L.sum))
    assert len(set(keys)) == len(keys)


def reduced_power(ps, e):
    """The exponent that a^e reduces to under ps, or None when it dies."""
    if ps[0] == "nil":
        return e if e < ps[1] else None
    i, p = ps[1], ps[2]
    return e if e < i + p else i + (e - i) % p


def lattice_automorphisms(L):
    n = L.size
    return [
        q
        for q in permutations(range(n))
        if all(L.sum[q[x]][q[y]] == q[L.sum[x][y]] for x in range(n) for y in range(n))
    ]


def closure_table(L, g):
    """close[S], the mask of the powers under the join of the powers in
    S, for powers a^k at the lattice elements g[k]."""
    out = []
    for S in range(1 << len(g)):
        top = L.bottom
        for k, x in enumerate(g):
            if S >> k & 1:
                top = L.sum[top][x]
        out.append(sum(1 << k for k, x in enumerate(g) if L.sum[x][top] == top))
    return tuple(out)


def valid_placement(L, ps, g):
    """Whether powers a^0 .. a^(m-1) at the lattice elements g form a
    census placement: they cover the join-irreducibles, the periodic
    part is an antichain, and for every t >= 1, a power under a join of
    powers stays, times a^t, under the join of those powers times a^t
    (a power that dies is the bottom)."""
    m = len(g)

    def le(x, y):
        return L.sum[x][y] == y

    def join(powers):
        out = L.bottom
        for k in powers:
            if k is not None:
                out = L.sum[out][g[k]]
        return out

    if not set(_irreducible_indices(L)) <= set(g):
        return False
    periodic = range(ps[1], m) if ps[0] == "cycle" else ()
    if any(le(g[j], g[k]) for j in periodic for k in periodic if j != k):
        return False
    for size in range(m + 1):
        for S in combinations(range(m), size):
            top = join(S)
            under = [k for k in range(m) if le(g[k], top)]
            # past t = m every power has died, or the exponents repeat
            # with period p <= m
            for t in range(1, 2 * m + 1):
                image = join([reduced_power(ps, s + t) for s in S])
                for k in under:
                    r = reduced_power(ps, k + t)
                    if r is not None and not le(g[r], image):
                        return False
    return True


def test_search_keeps_one_placement_per_orbit_of_the_valid_ones():
    """Brute force over the injective placements into the elements above
    the bottom, for every lattice of size <= 5 and every power structure
    with fewer powers than elements: the search returns exactly one
    placement in each Aut(L)-orbit of the valid ones, read by its
    closure table, which is constant on an orbit. Each orbit is one
    class of the census."""
    for n, count in zip(range(2, 6), (2, 3, 7, 14)):
        found = {}
        for L, ps, close in searched_placements(n):
            key = (L.sum, ps, tuple(close))
            found[key] = found.get(key, 0) + 1
        want = {}
        for L in enumerate_lattices(n):
            auts = lattice_automorphisms(L)
            for ps in _power_structures(n):
                m = _structure_size(ps)
                orbits = {}
                for g in permutations(range(1, n), m):
                    if not valid_placement(L, ps, g):
                        continue
                    orbit = frozenset(tuple(q[x] for x in g) for q in auts)
                    orbits.setdefault(orbit, set()).add(closure_table(L, g))
                closes = [c for cs in orbits.values() for c in cs]
                assert all(len(cs) == 1 for cs in orbits.values())
                assert len(set(closes)) == len(closes)
                want.update({(L.sum, ps, c): 1 for c in closes})
        assert len(want) == count
        assert found == want


def test_counts_match_the_proved_range():
    assert [len(enumerate_monogenic(n)) for n in (2, 3, 4, 5)] == [2, 3, 7, 14]


def test_unmarked_counts():
    assert [unmarked_count(enumerate_monogenic(n)) for n in (2, 3, 4, 5)] == [
        1,
        3,
        7,
        14,
    ]


LISTINGS = {
    4: [
        "a^3=0; a+1=1",
        "a^3=a^2; a+1=1",
        "a^3=a^2; a+1=a",
        "a^2=0",
        "a^2=1",
        "a^2=a",
        "a+1=a^2",
    ],
    5: [
        "a^4=a^3; a+1=1",
        "a^4=0; a+1=1",
        "a^4=a^3; a+1=a",
        "a+1=a^3; a^2+1=a^3",
        "a^2+a=a^2; a+1=a^2+1",
        "a^4=a^3; a^2+1=a^2; a+1=a^3",
        "a^3=a^2; a^2+1=a^2",
        "a^3=0; a^2+1=1; a^2+a=a",
        "a^3=a^2; a^2+1=1",
        "a^3=a; a^2+1=1; a^2+a=a+1",
        "a^3=a; a^2+1=a^2; a+1=a^2+a",
        "a^3=0; a^2+1=a+1",
        "a^3=a^2; a^2+a=a; a^2+1=a+1",
        "a^3=1; a+1=a^2+a+1",
    ],
    6: [
        "a^5=a^4; a+1=1",
        "a^5=0; a+1=1",
        "a^5=a^4; a+1=a",
        "a+1=a^4; a^2+1=a^4; a^3+1=a^4",
        "a^3+a=a^3; a+1=a^3+1; a^2+1=a^3+1",
        "a^3=a^2; a+1=a^2+a+1; a^2+1=a^2+a+1",
        "a^3+1=a^3; a+1=a^4; a^2+1=a^4",
        "a^2+1=a^2; a+1=a^4",
        "a^4=a^2; a^2+1=a^2; a+1=a^3+a^2",
        "a^4=a^3; a+1=a^3",
        "a^2+1=a^3; a^2+a=a^3",
        "a^2+a=a^2; a^2+1=a^3",
        "a^3=a^2; a^2+a=a^2",
        "a^2+1=a^2; a+1=a^3",
        "a^2+1=a^2; a^2+a=a^3",
        "a^4=a^3; a^2+1=a^2; a^2+a=a^2",
        "a^3=a; a^2+1=1",
        "a^3=a; a^2+1=a^2",
        "a^3=0; a^2+a=a",
        "a^3=a^2; a^2+a=a",
        "a^4=a^3; a^2+1=1; a^2+a=a",
        "a^4=0; a^2+1=1; a^2+a=a",
        "a^4=0; a^2+a=a; a^3+1=1; a^2+1=a+1",
        "a^4=a^3; a^3+1=1; a^2+1=a+1",
        "a^3=0; a^2+1=1",
        "a^4=a^2; a^2+1=1; a^2+a=a+1",
        "a^4=a; a^3+1=1; a^2+a=a^2+a+1",
        "a^3=a; a+1=a^2+a+1; a^2+a=a^2+a+1",
        "a^4=a; a^3+1=a^3; a+1=a^3+a^2+a; a^2+1=a^3+a^2+a",
        "a^4=a^3; a^2+a=a; a^3+1=a+1",
        "a^4=0; a^3+1=a+1",
        "a^4=1; a+1=a^3+a^2+a+1; a^2+1=a^3+a^2+a+1",
    ],
}


@pytest.mark.parametrize("n", sorted(LISTINGS))
def test_listing_is_stable(n):
    rendered = [render_presentation(r.presentation) for r in enumerate_monogenic(n)]
    assert rendered == LISTINGS[n]


def census_digest(sizes):
    # names, tables, generators and presentations of every class
    census = [
        (
            r.algebra.names,
            r.algebra.sum,
            r.algebra.mul,
            r.generator,
            render_presentation(r.presentation),
        )
        for n in sizes
        for r in enumerate_monogenic(n)
    ]
    return hashlib.sha1(repr(census).encode()).hexdigest()


def test_census_output_is_pinned_through_seven():
    digest = census_digest(range(2, 8))
    assert digest == "877ed5ba6560c2b69f81d2ccfb458f831b60de98"


def test_census_output_is_pinned_at_eight():
    # the acceptance gate's criterion 2 enumerates n = 8 first, and
    # enumerate_monogenic caches it
    assert census_digest([8]) == "ebfc02a3b6b312310004770dd81adf595b929372"


def test_every_presentation_closes_back_to_its_class():
    for n in (2, 3, 4, 5):
        for r in enumerate_monogenic(n):
            again = close_presentation(r.presentation)
            assert again.algebra.size == r.algebra.size
            assert marked_isomorphic(
                again.algebra, again.generator, r.algebra, r.generator
            )


def test_power_structure_breakdown_at_four_and_five():
    def breakdown(n):
        out = {}
        for r in enumerate_monogenic(n):
            ps = power_structure(r.algebra, r.generator)
            out[ps] = out.get(ps, 0) + 1
        return out

    assert breakdown(4) == {
        ("cycle", 0, 2): 1,
        ("cycle", 1, 1): 1,
        ("cycle", 2, 1): 3,
        ("nil", 2): 1,
        ("nil", 3): 1,
    }
    assert breakdown(5) == {
        ("cycle", 0, 3): 1,
        ("cycle", 1, 2): 2,
        ("cycle", 2, 1): 4,
        ("cycle", 3, 1): 4,
        ("nil", 3): 2,
        ("nil", 4): 1,
    }


def test_formula_values():
    assert [zhu_formula(n) for n in range(2, 9)] == [2, 3, 7, 14, 24, 37, 53]
    with pytest.raises(ValueError):
        zhu_formula(1)


def test_formula_agrees_through_five_then_fails():
    for n in (2, 3, 4, 5):
        assert len(enumerate_monogenic(n)) == zhu_formula(n)
    # the conjectured quadratic undercounts from six on
    assert len(enumerate_monogenic(6)) == 32 != zhu_formula(6)


def test_brute_force_oracle_agrees():
    assert brute_force_count(2) == 2
    assert brute_force_count(3) == 3
    assert brute_force_count(4) == 7


def test_brute_force_is_capped():
    with pytest.raises(SizeTooLarge):
        brute_force_count(5)


def test_enumeration_is_capped_by_default():
    with pytest.raises(SizeTooLarge):
        enumerate_monogenic(9)


def test_closure_family_oracle_agrees_through_six():
    for n in (2, 3, 4, 5):
        assert closure_family_count(n) == len(enumerate_monogenic(n))
    assert closure_family_count(6) == len(enumerate_monogenic(6)) == 32


def test_six_element_witness_class_beyond_the_formula():
    # one of the eight extra classes at n=6
    r = close("a^2+1 = a^2; a+1 = a^3")
    assert r.algebra.size == 6
    found = [
        s
        for s in enumerate_monogenic(6)
        if marked_isomorphic(s.algebra, s.generator, r.algebra, r.generator)
    ]
    assert len(found) == 1


# ---------------------------------------------------------------------------
# the shrink loop's exact decisions


@pytest.fixture(scope="module")
def shrink_run():
    """The shrinks of sizes 2..5, recorded from an uncached enumeration.

    trials: every trial as (trial, dropped, ps, cap, verdict, key), the
    relation the trial drops, whether the shrink loop kept the trial,
    and the canonical key of the marked class being presented, whose
    size is the cap; finals: every final list as
    (relations, ps, shift, cap, models); step4: the outcome of every
    close a trial reached, None or the TooLarge stage.
    """
    run = SimpleNamespace(trials=[], finals=[], step4=[])
    state = SimpleNamespace(key=None)

    def derive(close, ps, shift, key, models):
        state.key = key
        final = _derive_presentation(close, ps, shift, key, models)
        size = len(set(close))
        run.finals.append((final.relations, ps, shift, size, models))
        return final

    def record(trial, dropped, ps, rules, cap, models):
        verdict = _trial_presents(trial, dropped, ps, rules, cap, models)
        run.trials.append((tuple(trial), dropped, ps, cap, bool(verdict), state.key))
        return verdict

    def step4(rels, cap):
        # only a trial reaches _close: a final list that keeps the power
        # rule is closed in its power algebra, and any other final list
        # reuses the close of the trial that left it
        try:
            out = _close(rels, cap)
        except TooLarge as err:
            run.step4.append(err.stage)
            raise
        run.step4.append(None)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monogenic, "_derive_presentation", derive)
        mp.setattr(monogenic, "_trial_presents", record)
        mp.setattr(monogenic, "_close", step4)
        for n in (2, 3, 4, 5):
            enumerate_monogenic.__wrapped__(n)
    return run


@pytest.fixture(scope="module")
def shrink_trials(shrink_run):
    return shrink_run.trials


def test_no_relation_of_a_final_presentation_can_go(shrink_run):
    # so one shrink pass leaves nothing for a second one
    assert shrink_run.finals
    for rels, ps, shift, cap, models in shrink_run.finals:
        rules = _relation_rules(ps, shift, rels)
        for idx, dropped in enumerate(rels):
            trial = rels[:idx] + rels[idx + 1 :]
            assert not _trial_presents(trial, dropped, ps, rules, cap, models)


def test_no_step4_close_of_a_shrink_trial_gives_up(shrink_run):
    # the one-pass argument needs exact verdicts
    assert shrink_run.step4
    assert "search" not in shrink_run.step4


def exponent_sets(rels):
    return [(_poly_exps(l), _poly_exps(r)) for l, r in rels]


def assert_model_proof_is_sound(rels, cap):
    """A model verdict means close_presentation cannot succeed.
    Returns whether a model refuted the relations."""
    try:
        _refute_by_model(rels, cap)
    except TooLarge as err:
        assert err.stage == "model" and err.size > err.bound == cap
        p = Presentation(tuple((_exp_poly(l), _exp_poly(r)) for l, r in rels))
        with pytest.raises(TooLarge):
            close_presentation(p, cap)
        return True
    return False


def test_model_proofs_hold_on_small_relation_lists():
    powers = [frozenset()] + [frozenset((e,)) for e in range(5)]
    binomials = list(combinations(powers, 2))
    for cap in range(2, 7):
        for k in (1, 2):
            for rels in combinations(binomials, k):
                assert_model_proof_is_sound(rels, cap)
    sides = [frozenset(c) for k in range(6) for c in combinations(range(5), k)]
    for rel in combinations(sides, 2):
        assert_model_proof_is_sound([rel], 2)


def test_model_proofs_hold_on_every_shrink_trial(shrink_trials):
    proved = 0
    for trial, _, ps, cap, _, _ in shrink_trials:
        if _structure_relation(ps) in trial:
            continue
        proved += assert_model_proof_is_sound(exponent_sets(trial), cap)
    assert proved > 0


def test_every_trial_kept_on_size_closes_to_its_class(shrink_trials):
    kept = [t for t in shrink_trials if t[4]]
    assert kept
    for trial, _, _, cap, _, key in kept:
        closed = close_presentation(Presentation(trial), cap)
        assert canonical_key(closed.algebra, closed.generator) == key


def test_every_shrink_verdict_is_whether_the_trial_closes_to_its_class(
    shrink_trials,
):
    # the oracle: close the whole trial, with the shrink loop's cap
    for trial, _, _, cap, verdict, _ in shrink_trials:
        try:
            size = close_presentation(Presentation(trial), cap).algebra.size
        except (TooLarge, CollapsesZeroOne):
            size = None
        assert verdict == (size == cap)


def test_tropical_point(shrink_trials):
    def point(text):
        return _tropical_point(exponent_sets(parse_presentation(text).relations))

    # highest exponents agree at a = 1, lowest at a = -1
    assert point("a + 1 = a")
    assert point("a^2 + a = a^2")
    assert point("a^2 + a = a; a^3 + a = a")
    # infinite, as its models grow without bound, but with no point
    assert not point("1 + a^3 = a + a^2")
    assert not point("a^2 = a")
    reached = [
        t
        for t in shrink_trials
        if _structure_relation(t[2]) not in t[0]
        and _tropical_point(exponent_sets(t[0]))
    ]
    assert reached
    assert not any(t[4] for t in reached)


def outcome(close):
    try:
        r = close()
    except TooLarge as err:
        return ("TooLarge", err.stage, err.size)
    except CollapsesZeroOne:
        return "CollapsesZeroOne"
    return (r.algebra.names, r.algebra.sum, r.algebra.mul, r.generator)


def assert_close_agrees_with_the_stated_rule(rels, ps, cap):
    """close_presentation, which searches for its power rule, against
    the exact closure in the power algebra of ps, a rule that one of the
    relations states: a rule that holds in the quotient gives the same
    classes and names."""
    p = Presentation(tuple(rels))
    shift = _shift_table(ps)
    rep = _close_in_power_algebra(ps, shift, exponent_sets(rels))

    def direct():
        size = len(set(rep))
        if rep[1] == 0:
            raise CollapsesZeroOne("the relations force 0 = 1")
        if size > cap:
            raise TooLarge("", stage="closure", size=size)
        return _algebra_from_classes(shift, rep, ps, p)

    assert outcome(lambda: close_presentation(p, cap)) == outcome(direct)


def test_close_agrees_with_the_closure_in_the_stated_rules_algebra(shrink_trials):
    with_rule = [t for t in shrink_trials if _structure_relation(t[2]) in t[0]]
    assert with_rule
    for trial, _, ps, cap, _, _ in with_rule:
        assert_close_agrees_with_the_stated_rule(trial, ps, cap)
    powers = [_exp_poly(())] + [_exp_poly((e,)) for e in range(5)]
    for ps in _power_structures(6):
        # as in the shrink loop, the power rule is within the cap
        for cap in range(_structure_size(ps), 7):
            for rel in combinations(powers, 2):
                assert_close_agrees_with_the_stated_rule(
                    [_structure_relation(ps), rel], ps, cap
                )
