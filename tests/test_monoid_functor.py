"""Commutative monoids, the subsets functor, and its adjunction."""
import hashlib
from itertools import permutations, product

import pytest

from b1algebra import (
    FinMonoid,
    algebra_morphisms,
    all_monoids,
    b1_algebra,
    cyclic_group,
    direct_product,
    extend_by_joins,
    full_faithfulness_check,
    is_group,
    is_integral_over,
    isomorphic,
    monoid_morphism,
    monoid_morphisms,
    multiplicative_monoid,
    powerset_algebra,
    powerset_algebra_map,
    restrict_to_singletons,
    submonoid,
    submonoids,
    units,
    validate_algebra,
    validate_monoid,
)
from b1algebra.canonical import canonical_tables
from b1algebra.errors import (
    NoUnit,
    NotAGroup,
    NotAssociative,
    NotCommutative,
    NotSubmonoid,
    SizeTooLarge,
)
from b1algebra import monoid_functor
from b1algebra.monoid_functor import MONOID_ENUM_LIMIT, _monoid_tables


def trivial():
    return validate_monoid(("1",), ((0,),))


def truncated():
    # 1, t, t^2 with t^3 = t^2: no power of t returns to 1
    return validate_monoid(("1", "t", "t2"), ((0, 1, 2), (1, 2, 2), (2, 2, 2)))


def idempotent_pair():
    return validate_monoid(("1", "e"), ((0, 1), (1, 1)))


def test_validate_monoid_rejects_bad_tables():
    with pytest.raises(NotCommutative):
        validate_monoid(("1", "a", "b"), ((0, 1, 2), (1, 1, 1), (2, 2, 2)))
    with pytest.raises(NotAssociative):
        validate_monoid(("1", "a", "b"), ((0, 1, 2), (1, 0, 0), (2, 0, 1)))
    with pytest.raises(NoUnit):
        validate_monoid(("a", "b"), ((1, 1), (1, 1)))


def test_cyclic_group_tables():
    mu4 = cyclic_group(4)
    assert mu4.names == ("1", "g", "g^2", "g^3")
    assert mu4.mul[1][3] == 0
    assert is_group(mu4)


def test_direct_product_of_groups():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert v4.size == 4
    assert is_group(v4)
    assert all(v4.mul[x][x] == v4.unit for x in range(4))


def test_monoid_counts_up_to_five():
    assert [len(all_monoids(n)) for n in (1, 2, 3, 4, 5)] == [1, 2, 5, 19, 78]


def _no_work(*args):
    raise AssertionError("the size cap must come first")


def test_monoid_enumeration_is_capped_before_any_search(monkeypatch):
    monkeypatch.setattr(monoid_functor, "_monoid_tables", _no_work)
    with pytest.raises(SizeTooLarge):
        all_monoids(MONOID_ENUM_LIMIT + 1)


def test_monoids_of_order_six_are_pinned():
    out = [m.mul for m in all_monoids(6)]
    digest = hashlib.sha1(repr(out).encode()).hexdigest()
    assert digest == "e6487eb4f50b119f9bed7099183624d1b07a3fdb"


def _exhaustive_monoid_forms(n):
    # every commutative table with the unit at 0, no pruning
    free = [(i, j) for i in range(1, n) for j in range(i, n)]
    forms = set()
    for values in product(range(n), repeat=len(free)):
        mul = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
        for (i, j), v in zip(free, values):
            mul[i][j] = mul[j][i] = v
        if all(
            mul[mul[a][b]][c] == mul[a][mul[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            forms.add(canonical_tables((tuple(map(tuple, mul)),), n, 1)[0])
    return sorted(forms)


def test_monoids_match_an_exhaustive_search_up_to_four():
    for n in range(1, 5):
        assert [m.mul for m in all_monoids(n)] == _exhaustive_monoid_forms(n)


def test_lex_leader_search_finds_every_class_with_few_copies():
    # A058131: commutative monoids of order n up to isomorphism
    for n, classes, most in ((4, 19, 19), (5, 78, 79), (6, 421, 436)):
        tables = list(_monoid_tables(n))
        assert len(tables) <= most
        assert len({canonical_tables((t,), n, 1) for t in tables}) == classes
        names = [str(x) for x in range(n)]
        assert all(validate_monoid(names, t).unit == 0 for t in tables)


def test_enumerated_monoids_have_pinned_units():
    for m in all_monoids(4):
        assert m.unit == 0
        validate_monoid(m.names, m.mul)


def test_units_of_groups_and_non_groups():
    assert units(cyclic_group(3)) == (0, 1, 2)
    assert units(idempotent_pair()) == (0,)
    assert not is_group(idempotent_pair())
    assert not is_group(truncated())


def test_submonoid_extraction():
    mu4 = cyclic_group(4)
    assert submonoids(mu4) == [(0,), (0, 2), (0, 1, 2, 3)]
    assert submonoid(mu4, (0, 2)).names == ("1", "g^2")
    with pytest.raises(NotSubmonoid):
        submonoid(mu4, (0, 1))  # g*g = g^2 escapes
    with pytest.raises(NotSubmonoid):
        submonoid(mu4, (2,))


def test_integrality_examples():
    mu4 = cyclic_group(4)
    assert is_integral_over(mu4, (0, 2))
    assert is_integral_over(mu4, (0,))  # group: g^4 = 1
    assert not is_integral_over(truncated(), (0,))
    assert is_integral_over(truncated(), (0, 2))  # t^2 already inside


def test_integrality_checks_its_base():
    with pytest.raises(NotSubmonoid):
        is_integral_over(cyclic_group(4), (0, 1))


def test_subsets_algebra_of_the_trivial_monoid_is_the_scalars():
    assert isomorphic(powerset_algebra(trivial()), b1_algebra())


def test_subsets_algebra_of_mu2():
    f2 = powerset_algebra(cyclic_group(2))
    assert f2.names == ("{}", "{1}", "{g}", "{1,g}")
    assert f2.size == 4
    i = f2.names.index
    assert f2.mul[i("{g}")][i("{g}")] == i("{1}")
    assert f2.mul[i("{1,g}")][i("{g}")] == i("{1,g}")
    assert f2.sum[i("{1}")][i("{g}")] == i("{1,g}")


def relabel(a, perm):
    """The monoid a with element x renamed to perm[x]."""
    inv = [0] * a.size
    for x, p in enumerate(perm):
        inv[p] = x
    return validate_monoid(
        [a.names[x] for x in inv],
        [[perm[a.mul[x][y]] for y in inv] for x in inv],
    )


def test_subsets_algebra_products_are_set_products():
    # every relabelling, so the unit and the products sit anywhere
    for n in (1, 2, 3, 4):
        for a in all_monoids(n):
            for perm in permutations(range(n)):
                b = relabel(a, perm)
                f = powerset_algebra(b)
                sets = [
                    {b.names.index(x) for x in name[1:-1].split(",") if x}
                    for name in f.names
                ]
                for i, s in enumerate(sets):
                    for j, t in enumerate(sets):
                        want = {b.mul[x][y] for x in s for y in t}
                        assert sets[f.mul[i][j]] == want
                        assert sets[f.sum[i][j]] == s | t


def test_subsets_algebra_satisfies_every_law():
    # the tables are built, not checked: the full law check is the oracle
    monoids = [direct_product(cyclic_group(2), cyclic_group(2))]
    for n in (1, 2, 3, 4):
        for a in all_monoids(n):
            monoids += [a, relabel(a, tuple(reversed(range(n))))]
    for a in monoids:
        r = powerset_algebra(a)
        assert validate_algebra(r.names, r.sum, r.mul) == r


def test_subsets_algebra_refuses_a_bad_monoid_with_a_witness():
    non_commutative = FinMonoid(
        ("1", "a", "b"), ((0, 1, 2), (1, 1, 1), (2, 2, 2)), 0
    )
    with pytest.raises(NotCommutative) as err:
        powerset_algebra(non_commutative)
    assert (err.value.witness, err.value.op) == ((1, 2), "mul")
    non_associative = FinMonoid(
        ("1", "a", "b"), ((0, 1, 2), (1, 0, 0), (2, 0, 1)), 0
    )
    with pytest.raises(NotAssociative) as err:
        powerset_algebra(non_associative)
    assert (err.value.witness, err.value.op) == ((1, 1, 2), "mul")
    # the stated unit e is not neutral: e*1 = e
    not_neutral = FinMonoid(("1", "e"), ((0, 1), (1, 1)), 1)
    with pytest.raises(NoUnit, match=r"e\*1 = e") as err:
        powerset_algebra(not_neutral)
    assert err.value.witness == (0,)
    no_neutral = FinMonoid(("a", "b"), ((1, 1), (1, 1)), 0)
    with pytest.raises(NoUnit) as err:
        powerset_algebra(no_neutral)
    assert err.value.witness == (0,)


def test_subsets_algebra_refuses_clashing_subset_names():
    # {a} and {b} join to "{a,b}", the name of the singleton of "a,b"
    c3 = cyclic_group(3)
    with pytest.raises(ValueError, match="subset names"):
        powerset_algebra(FinMonoid(("a", "b", "a,b"), c3.mul, c3.unit))


def test_subsets_algebras_are_pinned():
    # names, tables, bottom and unit for every monoid of order 1..5
    out = [
        (r.names, r.sum, r.mul, r.bottom, r.unit)
        for k in (1, 2, 3, 4, 5)
        for m in all_monoids(k)
        for r in [powerset_algebra(m)]
    ]
    digest = hashlib.sha1(repr(out).encode()).hexdigest()
    assert digest == "30e95a569a6629e76565015d69c89b731f5e2281"


def test_subsets_algebra_sizes_are_powers_of_two():
    for n in (1, 2, 3, 4):
        assert powerset_algebra(cyclic_group(n)).size == 2 ** n


def test_subsets_algebra_is_capped():
    with pytest.raises(SizeTooLarge):
        powerset_algebra(cyclic_group(6))


def test_functor_on_morphisms_takes_direct_images():
    mu4, mu2 = cyclic_group(4), cyclic_group(2)
    f = powerset_algebra_map(monoid_morphism(mu4, mu2, (0, 1, 0, 1)))
    src = f.source.names.index
    tgt = f.target.names.index
    assert f.map[src("{g}")] == tgt("{g}")
    assert f.map[src("{1,g^2}")] == tgt("{1}")
    assert f.map[src("{}")] == tgt("{}")


def test_functor_sends_constant_map_to_unit_collapse():
    f = powerset_algebra_map(monoid_morphism(cyclic_group(2), trivial(), (0, 0)))
    assert f.map == (0, 1, 1, 1)


def test_functor_preserves_identity_and_composition():
    mu2 = cyclic_group(2)
    ident = powerset_algebra_map(monoid_morphism(mu2, mu2, (0, 1)))
    assert ident.map == tuple(range(4))
    mu4 = cyclic_group(4)
    phi = monoid_morphism(mu4, mu2, (0, 1, 0, 1))
    psi = monoid_morphism(mu2, mu2, (0, 1))
    left = powerset_algebra_map(
        monoid_morphism(mu4, mu2, tuple(psi.map[x] for x in phi.map))
    )
    composed = tuple(
        powerset_algebra_map(psi).map[x] for x in powerset_algebra_map(phi).map
    )
    assert left.map == composed


def test_multiplicative_monoid_of_the_subsets_algebra():
    g = multiplicative_monoid(powerset_algebra(cyclic_group(2)))
    assert g.names == ("{}", "{1}", "{g}", "{1,g}")
    assert g.unit == 1
    assert [g.names[u] for u in units(g)] == ["{1}", "{g}"]


def test_adjunction_round_trip_on_enumerated_homs():
    algebra_pool = [b1_algebra(), powerset_algebra(cyclic_group(2))]
    for monoid in all_monoids(3):
        for e in algebra_pool:
            fm = powerset_algebra(monoid)
            homs = algebra_morphisms(fm, e)
            mhoms = monoid_morphisms(monoid, multiplicative_monoid(e))
            assert len(homs) == len(mhoms)
            for phi in homs:
                psi = restrict_to_singletons(monoid, phi)
                assert extend_by_joins(psi, e).map == phi.map
            for psi in mhoms:
                phi = extend_by_joins(psi, e)
                assert restrict_to_singletons(monoid, phi).map == psi.map


def test_adjunction_counts_on_scalar_target():
    # only one algebra map F(mu_2) -> B1 and one monoid map mu_2 -> G(B1)
    mu2 = cyclic_group(2)
    assert len(algebra_morphisms(powerset_algebra(mu2), b1_algebra())) == 1
    assert len(monoid_morphisms(mu2, multiplicative_monoid(b1_algebra()))) == 1


def test_extend_by_joins_rejects_foreign_targets():
    mu2 = cyclic_group(2)
    psi = monoid_morphism(mu2, mu2, (0, 1))
    with pytest.raises(ValueError):
        extend_by_joins(psi, b1_algebra())


def test_full_faithfulness_on_small_groups():
    mu2, mu3, mu4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    v4 = direct_product(mu2, mu2)
    cases = {
        (mu2, mu2): 2,
        (mu2, mu3): 1,
        (mu3, mu3): 3,
        (mu4, mu2): 2,
        (v4, mu2): 4,
    }
    for (a, b), k in cases.items():
        rep = full_faithfulness_check(a, b)
        assert rep.algebra_hom_count == rep.monoid_hom_count == k
        assert rep.singletons_to_singletons
        assert rep.every_hom_induced
        assert rep.fully_faithful


def test_full_faithfulness_requires_groups():
    with pytest.raises(NotAGroup):
        full_faithfulness_check(idempotent_pair(), cyclic_group(2))


def test_full_faithfulness_is_capped_before_any_work(monkeypatch):
    monkeypatch.setattr(monoid_functor, "powerset_algebra", _no_work)
    with pytest.raises(SizeTooLarge):
        full_faithfulness_check(cyclic_group(5), cyclic_group(1))


def test_faithfulness_fails_outside_groups():
    # an algebra endomorphism of F(T) sending the singleton {t} to a
    # two-element subset: not induced by any monoid endomorphism of T
    t = truncated()
    ft = powerset_algebra(t)
    g = multiplicative_monoid(ft)
    singleton = {x: ft.names.index("{" + t.names[x] + "}") for x in range(t.size)}
    psi = monoid_morphism(
        t, g, (singleton[0], ft.names.index("{1,t}"), ft.names.index("{1,t,t2}"))
    )
    phi = extend_by_joins(psi, ft)
    images = {phi.map[singleton[x]] for x in range(t.size)}
    assert ft.names.index("{1,t}") in images  # lands outside the singletons
    induced = {
        tuple(powerset_algebra_map(m).map) for m in monoid_morphisms(t, t)
    }
    assert tuple(phi.map) not in induced
