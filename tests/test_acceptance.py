"""Acceptance gate: eleven checks with pinned values and time budgets.

`pytest -v tests/test_acceptance.py` prints one pass or fail line per
criterion. Where a second route exists in the package it is checked
here too: table search for the small one-generator counts (criterion 3)
and full map enumeration for automorphism groups (criterion 4). The
census counts for sizes 6..8 are pinned; size 6 alone is re-derived,
by the closure-family count in test_monogenic.py.

Criterion 2 deserves a note. The quadratic (3n^2 - 13n + 18)/2 fits the
one-generator counts for sizes 2..5 and was a plausible guess beyond
that, predicting 24, 37, 53 for sizes 6, 7, 8. The census disagrees:
the true counts are 32, 69, 160. This suite pins the enumerated values
and requires the command line tool to report the mismatch and exit 1,
which is the documented protocol for a refuted prediction.
"""
import random
import time
from contextlib import contextmanager
from math import factorial

from conftest import battery_seed

from b1algebra import (
    algebra_morphisms,
    all_monoids,
    automorphisms,
    b1_algebra,
    battery_polys,
    birkhoff,
    brute_force_automorphisms,
    brute_force_count,
    cyclic_group,
    direct_product,
    enumerate_lattices,
    enumerate_monogenic,
    equal_mod_zero_set,
    free_extend,
    free_module,
    full_faithfulness_check,
    is_bijective,
    is_distributive,
    is_group,
    is_integral_over,
    is_modular,
    is_projective,
    maxspec,
    meet,
    module_morphisms,
    module_of_order,
    monoid_morphisms,
    multiplicative_monoid,
    one_poly,
    order_of,
    parse_poly,
    perm_to_aut,
    poly_add,
    poly_mul,
    powerset_algebra,
    render_poly,
    sampled_battery,
    submonoid,
    submonoids,
    units,
    validate_module,
    zero_poly,
    zhu_formula,
)
from b1algebra.cli import run


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    took = time.monotonic() - t0
    assert took <= seconds, f"took {took:.1f}s, budget is {seconds}s"


def test_criterion_01_one_generator_counts():
    with budget(10):
        counts = [len(enumerate_monogenic(n)) for n in (2, 3, 4, 5)]
    assert counts == [2, 3, 7, 14]
    print("criterion 1: PASS (counts 2, 3, 7, 14 for sizes 2..5)")


def test_criterion_02_quadratic_formula_comparison(capsys):
    with budget(600):
        counts = {n: len(enumerate_monogenic(n)) for n in (6, 7, 8)}
    predicted = {n: zhu_formula(n) for n in (6, 7, 8)}
    assert predicted == {6: 24, 7: 37, 8: 53}
    assert counts == {6: 32, 7: 69, 8: 160}
    assert all(counts[n] != predicted[n] for n in (6, 7, 8))
    # a refuted prediction must surface as a finding: exit code 1
    code = run(["monogenic", "6", "--formula"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("enumerated=32 formula=24")
    print(
        "criterion 2: PASS (finding: quadratic predicts 24, 37, 53;"
        " census gives 32, 69, 160; tool exits 1)"
    )


def test_criterion_03_table_search_oracle():
    with budget(60):
        for n in (2, 3, 4):
            assert brute_force_count(n) == len(enumerate_monogenic(n))
    print("criterion 3: PASS (table search matches the census for sizes 2..4)")


def test_criterion_04_free_module_automorphisms():
    with budget(60):
        for n in range(1, 6):
            auts = automorphisms(n)
            assert len(auts) == factorial(n)
            free = free_module(n)
            perms = set()
            for aut in auts:
                assert aut.map == perm_to_aut(aut.permutation).map
                atom_images = tuple(aut.map[1 << i] for i in range(n))
                assert all(bin(v).count("1") == 1 for v in atom_images)
                assert free_extend(free, free, atom_images).map == aut.map
                perms.add(aut.permutation.image)
            assert len(perms) == factorial(n)
        # completeness: nothing beyond the induced ones exists
        for n in (1, 2, 3):
            brute = {tuple(a.map) for a in brute_force_automorphisms(n)}
            assert brute == {tuple(a.map) for a in automorphisms(n)}
        for n in (1, 2, 3, 4):
            free = free_module(n)
            bijective = [
                f for f in module_morphisms(free, free) if is_bijective(f)
            ]
            assert len(bijective) == factorial(n)
    print("criterion 4: PASS (automorphism groups have order n! for n=1..5,"
          " all permutation-induced)")


def test_criterion_05_spectrum_points():
    with budget(30):
        for n in (1, 2, 3, 4):
            rep = maxspec(tuple(f"x{i}" for i in range(1, n + 1)))
            assert len(rep.points) == 2 ** n
            assert len({p.zero_set for p in rep.points}) == 2 ** n
            assert rep.pairwise_distinguished
            assert not rep.sampled
            assert all(p.agrees for p in rep.points)
    print("criterion 5: PASS (2^n verified points for n=1..4 variables)")


M_SUM = (
    (0, 1, 2, 3, 4, 5),
    (1, 1, 4, 5, 4, 5),
    (2, 4, 2, 3, 4, 5),
    (3, 5, 3, 3, 5, 5),
    (4, 4, 4, 5, 4, 5),
    (5, 5, 5, 5, 5, 5),
)
N_SUM = (
    (0, 1, 2, 3, 4),
    (1, 1, 4, 3, 4),
    (2, 4, 2, 4, 4),
    (3, 3, 4, 3, 4),
    (4, 4, 4, 4, 4),
)


def test_criterion_06_counterexample_pair():
    m = validate_module(("0", "a", "b", "c", "d", "e"), M_SUM)
    n5 = validate_module(("0", "a", "c", "d", "e"), N_SUM)
    ok, witness = is_modular(m)
    assert ok and witness is None
    ok, witness = is_modular(n5)
    assert not ok
    assert witness == (1, 2, 3)  # a <= d yet (a+c)d != a+cd: a pentagon
    assert meet(m, 3, 4) == 2  # c meet d is b
    assert meet(n5, 2, 3) == 0  # with b removed, c meet d falls to 0
    print("criterion 6: PASS (modular 6-element lattice, pentagon after"
          " removing one element, meets as pinned)")


def test_criterion_07_birkhoff_equivalence():
    with budget(120):
        checked = 0
        for size in range(1, 8):
            for mod in enumerate_lattices(size):
                distributive = is_distributive(mod)[0]
                assert is_bijective(birkhoff(mod)) == distributive
                assert is_projective(mod) == distributive
                checked += 1
        assert checked == 78
    print("criterion 7: PASS (distributive = Birkhoff-bijective = projective"
          " on all 78 lattices of size <= 7)")


def _algebra_zoo():
    seen = {}
    for size in (2, 3, 4):
        for cls in enumerate_monogenic(size):
            key = (cls.algebra.sum, cls.algebra.mul)
            seen.setdefault(key, cls.algebra)
    return [b1_algebra(), *seen.values(), powerset_algebra(cyclic_group(2))]


def test_criterion_08_functor_sizes_and_adjunction():
    for n in range(1, 6):
        assert powerset_algebra(cyclic_group(n)).size == 2 ** n
    pairs = 0
    for monoid in (m for k in (1, 2, 3) for m in all_monoids(k)):
        fm = powerset_algebra(monoid)
        for e in _algebra_zoo():
            n_alg = len(algebra_morphisms(fm, e))
            n_mon = len(monoid_morphisms(monoid, multiplicative_monoid(e)))
            assert n_alg == n_mon
            pairs += 1
    assert pairs == 104
    print("criterion 8: PASS (subset algebras have size 2^n; hom-set"
          f" cardinalities agree on {pairs} monoid/algebra pairs)")


def test_criterion_09_units_and_full_faithfulness():
    for size in range(1, 6):
        for monoid in all_monoids(size):
            fm = powerset_algebra(monoid)
            singletons = {
                fm.names.index("{" + monoid.names[u] + "}")
                for u in units(monoid)
            }
            assert set(units(multiplicative_monoid(fm))) == singletons
    groups = [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        direct_product(cyclic_group(2), cyclic_group(2)),
    ]
    for a in groups:
        for b in groups:
            rep = full_faithfulness_check(a, b)
            assert rep.algebra_hom_count == rep.monoid_hom_count
            assert rep.fully_faithful
    print("criterion 9: PASS (units are singleton units on all 105 monoids"
          " of size <= 5; fully faithful on abelian groups of order <= 4)")


def test_criterion_10_integrality_transfers_group_property():
    checked = 0
    for size in range(1, 7):
        for monoid in all_monoids(size):
            whole_is_group = is_group(monoid)
            for indices in submonoids(monoid):
                if is_integral_over(monoid, indices):
                    part = submonoid(monoid, indices)
                    assert is_group(part) == whole_is_group
                    checked += 1
    assert checked == 2618  # sweep size frozen to catch enumeration drift
    print("criterion 10: PASS (group-ness transfers across all"
          f" {checked} integral submonoid pairs, sizes <= 6)")


def _semiring_suite(seed):
    def laws(r, s, t, zero, one):
        assert poly_add(r, s) == poly_add(s, r)
        assert poly_mul(r, s) == poly_mul(s, r)
        assert poly_add(poly_add(r, s), t) == poly_add(r, poly_add(s, t))
        assert poly_mul(poly_mul(r, s), t) == poly_mul(r, poly_mul(s, t))
        assert poly_mul(r, poly_add(s, t)) == poly_add(
            poly_mul(r, s), poly_mul(r, t)
        )
        assert poly_add(r, r) == r
        assert poly_add(r, zero) == r
        assert poly_mul(r, one) == r
        assert poly_mul(r, zero) == zero

    one_var = battery_polys(("x",))
    z1, u1 = zero_poly(("x",)), one_poly(("x",))
    for r in one_var:
        for s in one_var:
            for t in one_var[:4]:
                laws(r, s, t, z1, u1)
    two = ("x", "y")
    z2, u2 = zero_poly(two), one_poly(two)
    pool = sampled_battery(two, 30000, seed)
    for i in range(10000):
        laws(pool[3 * i], pool[3 * i + 1], pool[3 * i + 2], z2, u2)


def _congruence_suite(seed):
    one_var = battery_polys(("x",))
    z1, u1 = zero_poly(("x",)), one_poly(("x",))
    for r in one_var:
        assert not equal_mod_zero_set(z1, u1, ("x",))
        for s in one_var:
            if equal_mod_zero_set(r, s, ("x",)):
                for t in one_var[:4]:
                    assert equal_mod_zero_set(
                        poly_add(r, t), poly_add(s, t), ("x",)
                    )
                    assert equal_mod_zero_set(
                        poly_mul(r, t), poly_mul(s, t), ("x",)
                    )
    two = ("x", "y")
    z2, u2 = zero_poly(two), one_poly(two)
    zero_sets = (("x",), ("y",), ("x", "y"))
    var_poly = {v: parse_poly(v, two) for v in two}
    rng = random.Random(seed)
    pool = sampled_battery(two, 30000, seed)
    hits = 0
    for i in range(10000):
        r, s, t = pool[3 * i], pool[3 * i + 1], pool[3 * i + 2]
        dropped = zero_sets[rng.randrange(3)]
        if i % 2:
            # differs from r only by monomials that the zero set kills
            s = poly_add(r, poly_mul(t, var_poly[dropped[0]]))
        if equal_mod_zero_set(r, s, dropped):
            hits += 1
            assert equal_mod_zero_set(
                poly_add(r, t), poly_add(s, t), dropped
            )
            assert equal_mod_zero_set(
                poly_mul(r, t), poly_mul(s, t), dropped
            )
        assert not equal_mod_zero_set(z2, u2, dropped)
    assert hits >= 5000


def _round_trip_suite(seed):
    def relabeled(mod, rng):
        new_of = list(range(mod.size))
        rng.shuffle(new_of)
        names = [None] * mod.size
        for old, new in enumerate(new_of):
            names[new] = mod.names[old]
        table = [[0] * mod.size for _ in range(mod.size)]
        for a in range(mod.size):
            for b in range(mod.size):
                table[new_of[a]][new_of[b]] = new_of[mod.sum[a][b]]
        return validate_module(
            tuple(names), tuple(tuple(row) for row in table)
        )

    lattices = [m for k in range(1, 7) for m in enumerate_lattices(k)]
    for mod in lattices:
        back = module_of_order(order_of(mod))
        assert back.sum == mod.sum and back.names == mod.names
    rng = random.Random(seed)
    for _ in range(5000):
        mod = relabeled(lattices[rng.randrange(len(lattices))], rng)
        back = module_of_order(order_of(mod))
        assert back.sum == mod.sum and back.names == mod.names
    for f in battery_polys(("x",)):
        assert parse_poly(render_poly(f), ("x",)) == f
    three = ("x", "y", "z")
    for f in sampled_battery(three, 5000, seed):
        assert parse_poly(render_poly(f), three) == f


def _integral_split_suite(seed):
    one_var = battery_polys(("x",))
    z1 = zero_poly(("x",))
    hits = 0
    for r in one_var:
        for s in one_var:
            if equal_mod_zero_set(poly_mul(r, s), z1, ("x",)):
                hits += 1
                assert equal_mod_zero_set(r, z1, ("x",)) or (
                    equal_mod_zero_set(s, z1, ("x",))
                )
    assert hits >= 40
    two = ("x", "y")
    z2 = zero_poly(two)
    zero_sets = (("x",), ("y",), ("x", "y"))
    rng = random.Random(seed)
    pool = sampled_battery(two, 20000, seed)
    rand_hits = 0
    for i in range(10000):
        r, s = pool[2 * i], pool[2 * i + 1]
        dropped = zero_sets[rng.randrange(3)]
        if equal_mod_zero_set(poly_mul(r, s), z2, dropped):
            rand_hits += 1
            assert equal_mod_zero_set(r, z2, dropped) or (
                equal_mod_zero_set(s, z2, dropped)
            )
    assert rand_hits >= 2000


def test_criterion_11_property_suites():
    with budget(120):
        seed = battery_seed()
        _semiring_suite(seed)
        _congruence_suite(seed + 1)
        _round_trip_suite(seed + 2)
        _integral_split_suite(seed + 3)
    print("criterion 11: PASS (semiring, congruence, round-trip and"
          " zero-divisor-split suites: batteries plus 4 x 10^4 seeded cases)")
