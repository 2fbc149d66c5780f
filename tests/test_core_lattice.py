"""Lattice core: validation, order round trips, Birkhoff machinery."""
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from b1algebra import (
    validate_module,
    validate_poset,
    b1_module,
    order_of,
    module_of_order,
    meet,
    is_distributive,
    is_modular,
    join_irreducibles,
    downset_lattice,
    birkhoff,
    is_projective,
    intersection_retraction,
    module_morphism,
    module_morphisms,
    embeds_in_powerset,
    enumerate_lattices,
    enumerate_posets,
    powerset_module,
)
from b1algebra.errors import (
    LawViolation,
    NotIdempotent,
    NotCommutative,
    NotAssociative,
    NoBottom,
)


# Counterexample pair: M is a 6-element modular lattice,
# N = M minus b is the pentagon.
M_NAMES = ("0", "a", "b", "c", "d", "e")
M_SUM = (
    (0, 1, 2, 3, 4, 5),
    (1, 1, 4, 5, 4, 5),
    (2, 4, 2, 3, 4, 5),
    (3, 5, 3, 3, 5, 5),
    (4, 4, 4, 5, 4, 5),
    (5, 5, 5, 5, 5, 5),
)
N_NAMES = ("0", "a", "c", "d", "e")
N_SUM = (
    (0, 1, 2, 3, 4),
    (1, 1, 4, 3, 4),
    (2, 4, 2, 4, 4),
    (3, 3, 4, 3, 4),
    (4, 4, 4, 4, 4),
)


def lattice_m():
    return validate_module(M_NAMES, M_SUM)


def pentagon():
    return validate_module(N_NAMES, N_SUM)


def chain(n):
    return validate_module(
        tuple(f"c{i}" for i in range(n)),
        tuple(tuple(max(i, j) for j in range(n)) for i in range(n)),
    )


def test_validate_module_accepts_the_scalars():
    m = b1_module()
    assert m.size == 2
    assert m.sum[1][1] == 1  # 1+1=1


def test_validate_module_rejects_non_idempotent():
    with pytest.raises(NotIdempotent) as e:
        validate_module(("0", "a"), ((0, 1), (1, 0)))
    assert e.value.witness == (1,)


def test_validate_module_rejects_non_commutative():
    with pytest.raises(NotCommutative):
        validate_module(("0", "a", "b"), ((0, 1, 2), (2, 1, 2), (2, 2, 2)))


def test_validate_module_rejects_non_associative():
    # forces (a+b)+c != a+(b+c) while keeping idempotence/commutativity
    with pytest.raises((NotAssociative, NoBottom)):
        validate_module(
            ("0", "a", "b", "c"),
            ((0, 1, 2, 3), (1, 1, 3, 1), (2, 3, 2, 3), (3, 1, 3, 3)),
        )


def test_validate_module_rejects_missing_neutral():
    # two minimal elements under one top: a semilattice with no zero
    with pytest.raises(NoBottom):
        validate_module(("a", "b", "c"), ((0, 2, 2), (2, 1, 2), (2, 2, 2)))


def test_bottom_found_wherever_it_sits():
    m = validate_module(("a", "b"), ((0, 0), (0, 1)))
    assert m.bottom == 1


def test_validate_module_rejects_duplicate_names():
    with pytest.raises(ValueError):
        validate_module(("a", "a"), ((0, 0), (0, 1)))


def test_powerset_of_two_set_is_the_diamond():
    m = powerset_module(2)
    assert m.size == 4
    le = order_of(m)
    # bottom under everything, two incomparable atoms, top above all
    assert le.leq[0] == (1, 1, 1, 1)
    assert le.leq[1][2] == 0 and le.leq[2][1] == 0
    assert le.leq[1][3] == 1 and le.leq[2][3] == 1


def test_pentagon_order_makes_a_valid_module():
    p = order_of(pentagon())
    again = module_of_order(p)
    assert again.sum == pentagon().sum


def test_order_sum_round_trip_on_m():
    m = lattice_m()
    assert module_of_order(order_of(m)).sum == m.sum


def test_module_of_order_rejects_joinless_poset():
    from b1algebra.errors import NotDecent

    # two maximal elements, no common upper bound
    leq = ((1, 1, 1), (0, 1, 0), (0, 0, 1))
    with pytest.raises(NotDecent):
        module_of_order(validate_poset(("0", "x", "y"), leq))


def test_meet_on_m_and_n_disagree():
    m, n = lattice_m(), pentagon()
    assert meet(m, 3, 4) == 2  # c and d meet at b inside M
    assert meet(n, 2, 3) == 0  # same letters meet at 0 in N


def test_meet_is_the_greatest_lower_bound():
    for mod in enumerate_lattices(5):
        le = order_of(mod).leq
        for a in range(mod.size):
            for b in range(mod.size):
                w = meet(mod, a, b)
                assert le[w][a] and le[w][b]
                for c in range(mod.size):
                    if le[c][a] and le[c][b]:
                        assert le[c][w]


def test_m_is_modular_and_distributive():
    m = lattice_m()
    assert is_modular(m) == (True, None)
    assert is_distributive(m) == (True, None)


def test_pentagon_fails_modularity_with_the_classic_witness():
    ok, w = is_modular(pentagon())
    assert not ok
    assert w == (1, 2, 3)  # (a, c, d)


def test_pentagon_fails_distributivity():
    ok, w = is_distributive(pentagon())
    assert not ok
    assert w == (3, 1, 2)  # first violating triple is (d, a, c)


def test_distributive_implies_modular_on_small_lattices():
    for mod in enumerate_lattices(6):
        if is_distributive(mod)[0]:
            assert is_modular(mod)[0]


def test_join_irreducibles_of_a_chain():
    e = join_irreducibles(chain(3))
    assert e.names == ("c1", "c2")
    assert e.leq == ((1, 1), (0, 1))


def test_join_irreducibles_of_m():
    e = join_irreducibles(lattice_m())
    # d = a+b and e = c+d are join-reducible
    assert e.names == ("a", "b", "c")


def test_downset_lattice_of_antichain_is_the_diamond():
    p = validate_poset(("x", "y"), ((1, 0), (0, 1)))
    m = downset_lattice(p)
    assert m.size == 4
    assert is_distributive(m)[0]


def test_downset_lattice_of_chain_is_a_chain():
    p = validate_poset(("x", "y"), ((1, 1), (0, 1)))
    m = downset_lattice(p)
    assert m.size == 3
    le = order_of(m).leq
    assert all(le[i][j] for i in range(3) for j in range(i, 3))


def test_birkhoff_bijective_on_m():
    m = lattice_m()
    f = birkhoff(m)
    assert f.source is m
    assert f.target.size == m.size
    assert sorted(f.map) == list(range(m.size))


def test_birkhoff_not_bijective_on_pentagon():
    f = birkhoff(pentagon())
    assert f.target.size == 6
    assert len(set(f.map)) == 5  # injective but misses one down-set


def test_birkhoff_on_two_chain():
    f = birkhoff(chain(2))
    assert f.target.size == 2
    assert f.map == (0, 1)


def test_intersection_retraction_on_free_family():
    r = intersection_retraction(2, [set(), {0}, {1}, {0, 1}])
    assert r.lands_in_family
    assert r.preserves_unions
    assert r.identity_on_family
    assert r.intersection_closed
    assert all(a == b for a, b in r.mapping)


def test_intersection_retraction_reports_landing_failure():
    fam = [set(), {0, 1}, {1, 2}, {0, 1, 2}]
    r = intersection_retraction(3, fam)
    assert not r.intersection_closed
    assert not r.lands_in_family
    assert r.landing_failure == frozenset({1})
    assert dict(r.mapping)[frozenset({1})] == frozenset({1})


def test_intersection_retraction_on_a_chain_family():
    r = intersection_retraction(2, [set(), {0}, {0, 1}])
    assert r.lands_in_family and r.preserves_unions and r.identity_on_family


def test_intersection_retraction_rejects_non_union_closed():
    with pytest.raises(ValueError):
        intersection_retraction(2, [set(), {0}, {1}])


def test_retraction_holds_whenever_family_is_intersection_closed():
    # sweep every union-closed family over a 3-set
    import itertools

    ground = frozenset({0, 1, 2})
    subsets = [frozenset(s) for r in range(4) for s in itertools.combinations(ground, r)]
    mids = [s for s in subsets if s not in (frozenset(), ground)]
    for r in range(len(mids) + 1):
        for extra in itertools.combinations(mids, r):
            fam = {frozenset(), ground, *extra}
            if any(a | b not in fam for a in fam for b in fam):
                continue
            rep = intersection_retraction(3, fam)
            if rep.intersection_closed:
                assert rep.lands_in_family
                assert rep.preserves_unions
                assert rep.identity_on_family
            else:
                assert not rep.lands_in_family or not rep.preserves_unions


def test_projective_means_distributive():
    assert is_projective(powerset_module(2))
    assert not is_projective(pentagon())
    assert is_projective(lattice_m()) == is_distributive(lattice_m())[0]


def test_lattice_counts_small():
    assert [len(enumerate_lattices(n)) for n in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]


def test_poset_counts_small():
    assert [len(enumerate_posets(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]


def test_enumerated_lattices_are_pairwise_distinct():
    mods = enumerate_lattices(5)
    keys = {m.sum for m in mods}
    assert len(keys) == len(mods)


def test_pentagon_is_the_unique_minimal_non_modular_lattice():
    for n in range(1, 5):
        assert all(is_modular(m)[0] for m in enumerate_lattices(n))
    bad = [m for m in enumerate_lattices(5) if not is_modular(m)[0]]
    assert len(bad) == 1
    assert module_morphisms(bad[0], pentagon())  # sanity: same shape exists
    assert bad[0].sum == canonical_sum(pentagon())


def canonical_sum(mod):
    """Minimal sum table over bottom-fixing relabelings."""
    import itertools

    n = mod.size
    best = None
    for perm in itertools.permutations(range(n)):
        if perm[mod.bottom] != mod.bottom:
            continue
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        tab = tuple(
            tuple(perm[mod.sum[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
        )
        if best is None or tab < best:
            best = tab
    return best


def test_downset_lattices_are_distributive():
    for p in enumerate_posets(4):
        assert is_distributive(downset_lattice(p))[0]


def test_module_morphism_law_checked():
    m = b1_module()
    assert module_morphism(m, m, (0, 1)).map == (0, 1)
    with pytest.raises(LawViolation):
        module_morphism(m, m, (1, 1))


def test_module_morphisms_count_between_chains():
    # monotone bottom-preserving maps 2-chain -> 3-chain
    assert len(module_morphisms(chain(2), chain(3))) == 3


def test_morphisms_preserve_sums_everywhere():
    src = pentagon()
    for f in module_morphisms(src, chain(3)):
        for a in range(src.size):
            for b in range(src.size):
                assert f.map[src.sum[a][b]] == f.target.sum[f.map[a]][f.map[b]]


def diamond_m3():
    return validate_module(
        ("0", "x", "y", "z", "1"),
        (
            (0, 1, 2, 3, 4),
            (1, 1, 4, 4, 4),
            (2, 4, 2, 4, 4),
            (3, 4, 4, 3, 4),
            (4, 4, 4, 4, 4),
        ),
    )


def test_union_closed_family_need_not_be_distributive():
    # {∅,{0,1},{1,2},{0,2},{0,1,2}} is union closed yet its lattice is
    # the diamond M3; being a union-closed family decides nothing
    fam = [set(), {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}]
    rep = intersection_retraction(3, fam)
    assert not rep.intersection_closed
    assert not rep.lands_in_family
    assert not is_distributive(diamond_m3())[0]


def test_powerset_sublattice_embedding_matches_distributivity():
    ok_m3, _ = embeds_in_powerset(diamond_m3())
    assert not ok_m3
    ok_n5, _ = embeds_in_powerset(pentagon())
    assert not ok_n5
    ok_m, f = embeds_in_powerset(lattice_m())
    assert ok_m
    assert len(set(f.map)) == lattice_m().size
    for n in range(1, 6):
        for mod in enumerate_lattices(n):
            assert embeds_in_powerset(mod)[0] == is_distributive(mod)[0]


def subset_loop_filters(mod):
    """The prime filters found by trying every set of non-bottom
    elements, smallest first: the reference for embeds_in_powerset."""
    n = mod.size
    mt = [[meet(mod, a, b) for b in range(n)] for a in range(n)]
    nonbottom = [x for x in range(n) if x != mod.bottom]
    filters = []
    for r in range(len(nonbottom) + 1):
        for chosen in combinations(nonbottom, r):
            inside = [x in chosen for x in range(n)]
            if all(
                inside[mod.sum[a][b]] == (inside[a] or inside[b])
                and inside[mt[a][b]] == (inside[a] and inside[b])
                for a in range(n)
                for b in range(n)
            ):
                filters.append(inside)
    return filters


def test_powerset_embedding_agrees_with_the_subset_loop():
    for n in range(1, 8):
        for mod in enumerate_lattices(n):
            filters = subset_loop_filters(mod)
            ok, f = embeds_in_powerset(mod)
            separated = len({tuple(p[m] for p in filters) for m in range(n)}) == n
            assert ok == separated
            if ok:
                assert f.target.size == 1 << len(filters)
                assert f.map == tuple(
                    sum(1 << i for i, p in enumerate(filters) if p[m])
                    for m in range(n)
                )


@st.composite
def small_lattice(draw):
    pool = enumerate_lattices(5) + enumerate_lattices(4) + enumerate_lattices(6)
    return draw(st.sampled_from(pool))


@given(small_lattice())
@settings(max_examples=60, deadline=None)
def test_round_trip_order_preserves_table(mod):
    assert module_of_order(order_of(mod)).sum == mod.sum


@given(small_lattice(), st.data())
@settings(max_examples=60, deadline=None)
def test_join_dominates_and_meet_lowers(mod, data):
    a = data.draw(st.integers(0, mod.size - 1))
    b = data.draw(st.integers(0, mod.size - 1))
    le = order_of(mod).leq
    assert le[a][mod.sum[a][b]]
    assert le[meet(mod, a, b)][a]


@given(small_lattice())
@settings(max_examples=40, deadline=None)
def test_birkhoff_map_is_monotone_and_morphism_iff_distributive(mod):
    f = birkhoff(mod)
    le = order_of(mod).leq
    tle = order_of(f.target).leq
    for a in range(mod.size):
        for b in range(mod.size):
            if le[a][b]:
                assert tle[f.map[a]][f.map[b]]
    preserves = all(
        f.map[mod.sum[a][b]] == f.target.sum[f.map[a]][f.map[b]]
        for a in range(mod.size)
        for b in range(mod.size)
    )
    assert preserves == is_distributive(mod)[0]
