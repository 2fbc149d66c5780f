"""The law check behind validate_module, validate_algebra and
validate_monoid, and the map check behind module_morphism,
algebra_morphism and monoid_morphism.

Planted defects are compared against plain reference scans written
here: every law in the documented order, each over all index tuples
in lexicographic order, so the first witness is pinned independently
of how the library scans.
"""
import random
from itertools import product

import pytest

from b1algebra import (
    algebra_morphism,
    algebra_morphisms,
    all_monoids,
    b1_algebra,
    b1_module,
    cyclic_group,
    enumerate_lattices,
    enumerate_monogenic,
    module_morphism,
    module_morphisms,
    monoid_morphism,
    monoid_morphisms,
    powerset_algebra,
    validate_algebra,
    validate_module,
    validate_monoid,
)
from b1algebra.errors import (
    LawViolation,
    NoBottom,
    NotAssociative,
    NotCommutative,
    NotDistributiveLaw,
    NotIdempotent,
    NoUnit,
    ZeroEqualsOne,
    ZeroNotAbsorbing,
)

from conftest import battery_seed

# ---------------------------------------------------------------------------
# reference scans: (exception type, witness, op) of the first failure


def _law(t, op, idempotent):
    n = len(t)
    if idempotent:
        for a in range(n):
            if t[a][a] != a:
                return NotIdempotent, (a,), op
    for a, b in product(range(n), repeat=2):
        if t[a][b] != t[b][a]:
            return NotCommutative, (a, b), op
    for a, b, c in product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return NotAssociative, (a, b, c), op
    return None


def _neutral(t):
    n = len(t)
    return next((z for z in range(n) if all(t[z][x] == x for x in range(n))), None)


def module_reference(s):
    fail = _law(s, None, True)
    if fail is None and _neutral(s) is None:
        fail = NoBottom, None, None
    return fail


def algebra_reference(s, m):
    fail = module_reference(s) or _law(m, "mul", False)
    if fail:
        return fail
    n = len(s)
    zero, unit = _neutral(s), _neutral(m)
    if unit is None:
        return NoUnit, None, None
    if unit == zero:
        return ZeroEqualsOne, None, None
    for a in range(n):
        if m[zero][a] != zero:
            return ZeroNotAbsorbing, (a,), None
    for a, b, c in product(range(n), repeat=3):
        if m[a][s[b][c]] != s[m[a][b]][m[a][c]]:
            return NotDistributiveLaw, (a, b, c), None
    return None


def monoid_reference(m):
    fail = _law(m, "mul", False)
    if fail is None and _neutral(m) is None:
        fail = NoUnit, None, None
    return fail


def map_reference(f, pinned, tables):
    for x, y in pinned:
        if f[x] != y:
            return LawViolation, (x,), None
    for a, b in product(range(len(f)), repeat=2):
        for s, t, op in tables:
            if f[s[a][b]] != t[f[a]][f[b]]:
                return LawViolation, (a, b), op
    return None


def outcome(call, *args):
    try:
        call(*args)
    except Exception as e:  # the type is what is compared
        return type(e), getattr(e, "witness", None), getattr(e, "op", None)
    return None


# ---------------------------------------------------------------------------
# planted defects


def relabel(tables, perm):
    n = len(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
        for t in tables
    )


def plant(rng, table):
    """One or two entries changed to random indices, sometimes on both
    sides of the diagonal."""
    n = len(table)
    t = [list(row) for row in table]
    for _ in range(rng.choice((1, 1, 2))):
        a, b, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        t[a][b] = v
        if rng.random() < 0.5:
            t[b][a] = v
    return tuple(map(tuple, t))


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def planted_modules(rng):
    for n in range(1, 6):
        for lat in enumerate_lattices(n):
            for _ in range(12):
                (s,) = relabel((lat.sum,), shuffled(rng, n))
                yield lat.names, plant(rng, s)


def planted_algebras(rng):
    algebras = [r.algebra for n in (2, 3, 4) for r in enumerate_monogenic(n)]
    algebras.append(powerset_algebra(cyclic_group(2)))
    for alg in algebras:
        for _ in range(12):
            s, m = relabel((alg.sum, alg.mul), shuffled(rng, alg.size))
            yield alg.names, plant(rng, s), m
            yield alg.names, s, plant(rng, m)
    yield from paired_tables(rng)


def paired_tables(rng):
    """A lattice's sum with a monoid's product whose zero is sent to
    the bottom: every law but distributivity and the unit's place
    holds, so these reach the last checks."""
    for n in (3, 4):
        for lat in enumerate_lattices(n):
            for mon in all_monoids(n):
                zeros = [z for z in range(n) if set(mon.mul[z]) == {z}]
                for z in zeros:
                    perm = shuffled(rng, n)
                    perm[perm.index(lat.bottom)] = perm[z]
                    perm[z] = lat.bottom
                    (m,) = relabel((mon.mul,), perm)
                    yield (lat.names,) + relabel((lat.sum, m), shuffled(rng, n))


def planted_monoids(rng):
    for n in range(1, 5):
        for mon in all_monoids(n):
            for _ in range(8):
                (m,) = relabel((mon.mul,), shuffled(rng, n))
                yield mon.names, plant(rng, m)


@pytest.mark.parametrize(
    "validator, reference, cases",
    [
        (validate_module, module_reference, planted_modules),
        (validate_algebra, algebra_reference, planted_algebras),
        (validate_monoid, monoid_reference, planted_monoids),
    ],
    ids=["module", "algebra", "monoid"],
)
def test_validators_report_the_first_failure(validator, reference, cases):
    rng = random.Random(battery_seed())
    kinds = set()
    for args in cases(rng):
        want = reference(*args[1:])
        assert outcome(validator, *args) == want, args
        kinds.add(None if want is None else want[0])
    # the planted defects reach most of the laws
    assert len(kinds) >= 4


def planted_map(rng, f, size):
    f = list(f)
    for _ in range(rng.choice((1, 1, 2))):
        f[rng.randrange(len(f))] = rng.randrange(size)
    return tuple(f)


def module_map_cases():
    lattices = [lat for n in range(1, 5) for lat in enumerate_lattices(n)]
    for s, t in product(lattices, repeat=2):
        for h in module_morphisms(s, t)[:3]:
            yield (
                module_morphism, s, t, h.map,
                ((s.bottom, t.bottom),), ((s.sum, t.sum, "sum"),),
            )


def algebra_map_cases():
    algebras = [r.algebra for n in (2, 3, 4) for r in enumerate_monogenic(n)]
    for s, t in product(algebras, repeat=2):
        for h in algebra_morphisms(s, t)[:2]:
            yield (
                algebra_morphism, s, t, h.map,
                ((s.bottom, t.bottom), (s.unit, t.unit)),
                ((s.sum, t.sum, "sum"), (s.mul, t.mul, "mul")),
            )


def monoid_map_cases():
    monoids = [m for n in range(1, 4) for m in all_monoids(n)]
    for s, t in product(monoids, repeat=2):
        for h in monoid_morphisms(s, t)[:2]:
            yield (
                monoid_morphism, s, t, h.map,
                ((s.unit, t.unit),), ((s.mul, t.mul, "mul"),),
            )


@pytest.mark.parametrize(
    "cases",
    [module_map_cases, algebra_map_cases, monoid_map_cases],
    ids=["module", "algebra", "monoid"],
)
def test_morphism_validators_report_the_first_failure(cases):
    rng = random.Random(battery_seed())
    failed = passed = 0
    for check, s, t, f, pinned, tables in cases():
        assert outcome(check, s, t, f) is None
        for _ in range(4):
            g = planted_map(rng, f, t.size)
            want = map_reference(g, pinned, tables)
            assert outcome(check, s, t, g) == want, (s, t, g)
            failed += want is not None
            passed += want is None
    assert failed and passed


# ---------------------------------------------------------------------------
# cases the validators share since they run one routine


def two_chain_monoid():
    return validate_monoid(("1", "e"), ((0, 1), (1, 1)))


@pytest.mark.parametrize("entry", [2, -1, 5, "1", None])
@pytest.mark.parametrize(
    "check, structure",
    [
        (module_morphism, b1_module),
        (algebra_morphism, b1_algebra),
        (monoid_morphism, two_chain_monoid),
    ],
    ids=["module", "algebra", "monoid"],
)
def test_a_map_entry_that_is_no_target_index_is_a_value_error(
    check, structure, entry
):
    s = structure()
    with pytest.raises(ValueError, match="not a target index"):
        check(s, s, (0, entry))
    with pytest.raises(ValueError, match="map length"):
        check(s, s, (0,))


def test_a_pinned_element_that_moves_is_its_own_witness():
    b1 = b1_algebra()
    with pytest.raises(LawViolation) as err:
        algebra_morphism(b1, b1, (1, 1))
    assert (err.value.witness, err.value.op) == ((0,), None)
    assert "bottom" in str(err.value)
    with pytest.raises(LawViolation) as err:
        algebra_morphism(b1, b1, (0, 0))
    assert (err.value.witness, err.value.op) == ((1,), None)
    assert "unit" in str(err.value)
    mon = two_chain_monoid()
    with pytest.raises(LawViolation) as err:
        monoid_morphism(mon, mon, (1, 1))
    assert (err.value.witness, err.value.op) == ((0,), None)
    with pytest.raises(LawViolation) as err:
        module_morphism(b1_module(), b1_module(), (1, 1))
    assert (err.value.witness, err.value.op) == ((0,), None)


def test_validate_monoid_refuses_duplicate_names():
    with pytest.raises(ValueError, match="distinct"):
        validate_monoid(("1", "1"), ((0, 1), (1, 1)))


def test_a_non_index_entry_comes_before_any_law_failure():
    names = ("0", "1", "a")
    add = ((0, 1, 2), (1, 1, 1), (2, 1, 2))
    # (0,1) breaks commutativity, (2,2) is not an index
    mul = ((0, 1, 0), (0, 1, 2), (0, 2, 3))
    with pytest.raises(ValueError, match="not an index"):
        validate_algebra(names, add, mul)
    with pytest.raises(ValueError, match="not an index"):
        validate_monoid(names, mul)
    with pytest.raises(ValueError, match="not an index"):
        validate_module(names, ((0, 2, 1), (1, 1, 1), (2, 1, 9)))
    with pytest.raises(ValueError, match="expected 3"):
        validate_algebra(names, add, mul[:2])

