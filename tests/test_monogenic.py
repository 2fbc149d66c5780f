"""Enumeration of one-generator algebras and its two oracle arms.

The closure-family oracle below recounts the index-n congruences with
no reference to the enumerator's lattice search: sum congruences on the
powerset of the generator's powers are exactly intersection-closed
families containing the full set (classes are keyed by their closure),
and product compatibility reduces to the single monomial shift.
"""
from itertools import combinations

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
from b1algebra.errors import CollapsesZeroOne, SizeTooLarge, TooLarge
from b1algebra.monogenic import (
    Presentation,
    _decide_trial,
    _exp_poly,
    _poly_exps,
    _power_structures,
    _refute_by_model,
    _structure_relation,
    _structure_size,
    power_reduction_algebra,
)


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
    # cap 3 is below the relation's exponent 4, so the rewrite search
    # must reach degrees beyond 2 * cap to find a = 1
    for cap in (3, 4):
        r = close_presentation(parse_presentation("1 = a^3 + a^4"), cap=cap)
        assert r.algebra.names == ("0", "1")
        assert r.generator == 1


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
def shrink_trials():
    """Every (trial, ps, cap) the presentation shrink loop decides for
    sizes 2..5, recorded from an uncached enumeration."""
    calls = []

    def record(trial, ps, cap):
        calls.append((tuple(trial), ps, cap))
        return _decide_trial(trial, ps, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monogenic, "_decide_trial", record)
        for n in (2, 3, 4, 5):
            enumerate_monogenic.__wrapped__(n)
    return calls


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
    for trial, ps, cap in shrink_trials:
        if _structure_relation(ps) in trial:
            continue
        rels = [(_poly_exps(l), _poly_exps(r)) for l, r in trial]
        proved += assert_model_proof_is_sound(rels, cap)
    assert proved > 0


def outcome(close):
    try:
        r = close()
    except TooLarge as err:
        return ("TooLarge", err.stage, err.size)
    except CollapsesZeroOne:
        return "CollapsesZeroOne"
    return canonical_key(r.algebra, r.generator)


def assert_shortcut_agrees(trial, ps, cap):
    assert outcome(lambda: _decide_trial(trial, ps, cap)) == outcome(
        lambda: close_presentation(Presentation(tuple(trial)), cap)
    )


def test_power_rule_shortcut_agrees_with_close(shrink_trials):
    with_rule = [t for t in shrink_trials if _structure_relation(t[1]) in t[0]]
    assert with_rule
    for trial, ps, cap in with_rule:
        assert_shortcut_agrees(trial, ps, cap)
    powers = [_exp_poly(())] + [_exp_poly((e,)) for e in range(5)]
    for ps in _power_structures(5):
        # as in the shrink loop, the power rule is within the cap
        for cap in range(_structure_size(ps), 7):
            for rel in combinations(powers, 2):
                assert_shortcut_agrees([_structure_relation(ps), rel], ps, cap)
