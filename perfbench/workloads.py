"""The benchmark workloads and the checks on their outputs.

Every workload is closed-loop with one caller: a request is sent only
after the previous one returned. A request is one call (or a short
fixed chain of calls) into the public API of `b1algebra`; only that
call is timed. The response is then checked, untimed, by a route other
than the code under test: pinned literature counts, a theorem the
answer must satisfy, or a small reference computation here.

A typed `B1Error` is a correct answer only where the input was built
to provoke it; any other exception, and any answer that fails its
check, counts as a failed operation.

census   cold enumerate_monogenic(n), n = 2..6: the paper's census.
sweep    cold lattice, poset and monoid enumeration, analysis of every
         structure found, and brute-force morphism search between
         subset algebras of small abelian groups.
queries  a seeded stream of small mixed requests, as a service built
         on the library would receive them.

census and sweep are batch jobs (`batch = True`): every repetition
starts with the enumeration caches empty, and the whole repetition is
one request, so their latency is the job's run time. A repetition
takes 15-25 s on one core of a 2-vCPU Xeon VM, so a run of the run
time in BENCHMARK.json holds one or two of them.
Their operations are still checked one by one, but their latencies are
not summarised: the steps are so unlike that a median over them falls
between clusters and moves with garbage-collection pauses.

Left out as too slow for a benchmark run many times over:
enumerate_lattices(8) (about 384 s), all_monoids(6) (about 97 s) and
maxspec over 4 variables (about 9.6 s).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import traceback
from math import factorial, gcd
from time import perf_counter

import b1algebra as B
import b1algebra.cli  # the package does not import its cli module
from b1algebra.errors import (
    B1Error,
    CollapsesZeroOne,
    NoBottom,
    NoUnit,
    NotCommutative,
    PolyParseError,
    StructureParseError,
    UnknownVariable,
)

# Caches that must be empty when a timed census or sweep repetition
# starts, so that nothing computed in set-up or in an earlier
# repetition passes for a speed-up.
COLD_CACHES = (
    ("monogenic", "enumerate_monogenic"),
    ("core_lattice", "enumerate_lattices"),
    ("core_lattice", "enumerate_posets"),
    ("monoid_functor", "all_monoids"),
)


class BenchError(Exception):
    """The benchmark itself is broken; no result may be printed."""


class Wrong(Exception):
    """A response failed its check."""


def expect(cond, message):
    if not cond:
        raise Wrong(message)


def cached_functions():
    mods = {"monogenic": B.monogenic, "core_lattice": B.core_lattice,
            "monoid_functor": B.monoid_functor}
    return [getattr(mods[m], f) for m, f in COLD_CACHES]


def clear_caches():
    for fn in cached_functions():
        fn.cache_clear()


def assert_cold():
    for fn in cached_functions():
        if fn.cache_info().currsize != 0:
            raise BenchError(f"{fn.__name__} cache is not empty before timing")


class Recorder:
    """Times requests, checks responses, counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.summaries = []

    def op(self, call, check):
        """Time call(); check(response or B1Error) returns a summary.

        Returns the response if it passed its check, else None.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.request += 1
        self.attempted += 1
        start = perf_counter()
        try:
            out = call()
        except B1Error as exc:
            out = exc
        except Exception:
            self.latencies.append(perf_counter() - start)
            self._fail(traceback.format_exc(limit=3))
            return None
        self.latencies.append(perf_counter() - start)
        return out if self.verify(lambda: check(out)) else None

    def verify(self, check):
        """Run a check untimed and untraced; a failure counts as a failed
        operation. Checks over a whole repetition add no attempt."""
        tracer = self.tracer
        if tracer is not None:
            tracer.paused = True
        try:
            self.summaries.append(check())
            return True
        except Wrong as exc:
            self._fail(f"wrong answer: {exc}")
        except Exception:
            self._fail(traceback.format_exc(limit=3))
        finally:
            if tracer is not None:
                tracer.paused = False
        return False

    def _fail(self, message):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def digest(self):
        return hashlib.sha256(repr(self.summaries).encode()).hexdigest()[:16]


def _error_of(out, kind, what):
    expect(isinstance(out, kind), f"{what}: expected {kind.__name__}, got {out!r}")
    return type(out).__name__


def _no_error(out, what):
    expect(not isinstance(out, B1Error), f"{what}: unexpected {out!r}")
    return out


# ---------------------------------------------------------------------------
# census


CENSUS_SIZES = (2, 3, 4, 5, 6)
# One-generator algebra counts: table search for n <= 4, the census
# pinned by the acceptance suite above that.
MONOGENIC_COUNTS = {2: 2, 3: 3, 4: 7, 5: 14, 6: 32}


class Census:
    """Cold enumerate_monogenic(n), smallest size first.

    The census has no input to draw: the seed changes nothing, and the
    order of sizes is fixed because each size runs against the heap
    the previous ones left behind.
    """

    batch = True

    def __init__(self, seed, workdir=None):
        pass

    def repetition(self, rec):
        for n in CENSUS_SIZES:
            rec.op(lambda n=n: B.enumerate_monogenic(n),
                   lambda out, n=n: self._check(n, out))

    @staticmethod
    def _check(n, out):
        out = _no_error(out, f"enumerate_monogenic({n})")
        expect(len(out) == MONOGENIC_COUNTS[n],
               f"size {n}: {len(out)} classes, want {MONOGENIC_COUNTS[n]}")
        keys = [B.canonical_key(r.algebra, r.generator) for r in out]
        expect(len(set(keys)) == len(keys), f"size {n}: repeated canonical keys")
        for r in out:
            expect(r.algebra.size == n, f"size {n}: class of size {r.algebra.size}")
            expect(_generates(r.algebra, r.generator),
                   f"size {n}: marked element does not generate")
        return n, len(out), hashlib.sha256(repr(sorted(keys)).encode()).hexdigest()


def _generates(alg, g):
    have = {alg.bottom, alg.unit, g}
    frontier = list(have)
    while frontier:
        x = frontier.pop()
        for y in list(have):
            for z in (alg.sum[x][y], alg.mul[x][y]):
                if z not in have:
                    have.add(z)
                    frontier.append(z)
    return len(have) == alg.size


# ---------------------------------------------------------------------------
# sweep

# OEIS A006966, A006981, A006982, A000112: lattices, modular and
# distributive lattices, posets, up to isomorphism.
LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}
MODULAR_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 4, 6: 8, 7: 16}
DISTRIBUTIVE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}
# Commutative monoids and abelian groups of order n (OEIS A058131, A000688).
MONOID_COUNTS = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}
ABELIAN_GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1}
# Abelian groups of order <= 4 by their cyclic factors.
GROUPS = ((1,), (2,), (3,), (4,), (2, 2))
FREE_AUT_SIZES = (1, 2, 3, 4, 5)
FREE_BRUTE_SIZES = (1, 2, 3)
RELABEL_SEED = 0xB1


def _group(factors):
    g = B.cyclic_group(factors[0])
    for k in factors[1:]:
        g = B.direct_product(g, B.cyclic_group(k))
    return g


def _hom_count(a, b):
    """|Hom(A, B)| for abelian groups given by cyclic factors."""
    out = 1
    for m in a:
        for n in b:
            out *= gcd(m, n)
    return out


def _relabel_tables(tables, perm):
    """The tables rebuilt so that element x becomes perm[x]."""
    n = len(perm)
    out = []
    for table in tables:
        new = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                new[perm[a]][perm[b]] = perm[table[a][b]]
        out.append(tuple(map(tuple, new)))
    return out


def _relabel_module(mod, perm):
    names = [None] * mod.size
    for old, new in enumerate(perm):
        names[new] = f"v{old}"
    (table,) = _relabel_tables((mod.sum,), perm)
    return B.FinModule(tuple(names), table, perm[mod.bottom])


def _relabel_monoid(mon, perm):
    (table,) = _relabel_tables((mon.mul,), perm)
    return B.FinMonoid(tuple(f"m{i}" for i in range(mon.size)), table, perm[mon.unit])


def _integral(mon, inside):
    """Some positive power of every element lies in `inside`."""
    for x in range(mon.size):
        p, seen = x, set()
        while p not in inside and p not in seen:
            seen.add(p)
            p = mon.mul[p][x]
        if p not in inside:
            return False
    return True


class Sweep:
    """The lattice and monoid toolkit as one batch job.

    The enumerations take no input. Every enumerated structure is
    relabelled by a fixed permutation before it is analysed; the seed
    orders the analyses and the group pairs.
    """

    batch = True

    def __init__(self, seed, workdir=None):
        fixed, rng = random.Random(RELABEL_SEED), random.Random(seed)

        def plan(counts):
            perms = {k: [fixed.sample(range(k), k) for _ in range(c)]
                     for k, c in counts.items()}
            order = {k: rng.sample(range(c), c) for k, c in counts.items()}
            return perms, order

        self.lattice_perms, self.lattice_order = plan(LATTICE_COUNTS)
        self.monoid_perms, self.monoid_order = plan(MONOID_COUNTS)
        self.pairs = [(a, b) for a in GROUPS for b in GROUPS]
        rng.shuffle(self.pairs)
        self.groups = {f: _group(f) for f in GROUPS}

    def repetition(self, rec):
        self._lattices(rec)
        self._monoids(rec)
        self._morphisms(rec)

    def _lattices(self, rec):
        lattices = {}
        for k in LATTICE_COUNTS:
            lattices[k] = rec.op(
                lambda k=k: B.enumerate_lattices(k),
                lambda out, k=k: self._count("lattices", k, out, LATTICE_COUNTS),
            )
        posets = {}
        for k in POSET_COUNTS:
            posets[k] = rec.op(
                lambda k=k: B.enumerate_posets(k),
                lambda out, k=k: self._count("posets", k, out, POSET_COUNTS),
            )
        modular = dict.fromkeys(LATTICE_COUNTS, 0)
        distributive = dict.fromkeys(LATTICE_COUNTS, 0)
        for k, mods in lattices.items():
            batch = [_relabel_module(mods[i], self.lattice_perms[k][i])
                     for i in self.lattice_order[k] if i < len(mods or ())]
            out = rec.op(
                lambda batch=batch: [self._analyse_lattice(m) for m in batch],
                lambda out: [self._check_lattice(r)
                             for r in _no_error(out, "lattice analysis")])
            if out is not None:
                distributive[k] = sum(r[0][0] for r in out)
                modular[k] = sum(r[1][0] for r in out)
        # distributive lattices of size n are the down-set lattices of
        # posets with n down-sets (Birkhoff), an independent count
        rec.verify(lambda: self._check_lattice_counts(posets, modular, distributive))

    @staticmethod
    def _count(what, k, out, counts):
        out = _no_error(out, f"{what}({k})")
        expect(len(out) == counts[k], f"{what}({k}): {len(out)}, want {counts[k]}")
        return what, k, len(out)

    @staticmethod
    def _analyse_lattice(mod):
        return (B.is_distributive(mod), B.is_modular(mod), B.birkhoff(mod),
                B.embeds_in_powerset(mod))

    @staticmethod
    def _check_lattice(out):
        (dist, _), (mod, _), f, (embeds, _) = _no_error(out, "lattice analysis")
        expect(B.is_bijective(f) == dist, "Birkhoff bijectivity != distributivity")
        expect(embeds == dist, "powerset embedding != distributivity")
        expect(mod or not dist, "distributive but not modular")
        return dist, mod

    @staticmethod
    def _check_lattice_counts(posets, modular, distributive):
        expect(modular == MODULAR_COUNTS, f"modular counts {modular}")
        expect(distributive == DISTRIBUTIVE_COUNTS, f"distributive {distributive}")
        by_downsets = dict.fromkeys(DISTRIBUTIVE_COUNTS, 0)
        for ps in list(posets.values()) + [(B.FinPoset((), ()),)]:
            for p in ps or ():
                size = B.downset_lattice(p).size
                if size in by_downsets:
                    by_downsets[size] += 1
        expect(by_downsets == distributive,
               f"poset route gives {by_downsets}, lattices give {distributive}")
        return "lattice counts", sorted(modular.items()), sorted(distributive.items())

    def _monoids(self, rec):
        groups = dict.fromkeys(MONOID_COUNTS, 0)
        for k in MONOID_COUNTS:
            mons = rec.op(
                lambda k=k: B.all_monoids(k),
                lambda out, k=k: self._count("monoids", k, out, MONOID_COUNTS),
            )
            batch = [_relabel_monoid(mons[i], self.monoid_perms[k][i])
                     for i in self.monoid_order[k] if i < len(mons or ())]
            out = rec.op(
                lambda batch=batch: [self._analyse_monoid(m) for m in batch],
                lambda out, batch=batch: [
                    self._check_monoid(m, r)
                    for m, r in zip(batch, _no_error(out, "monoid analysis"))])
            if out is not None:
                groups[k] = sum(len(r[1][0]) == m.size for m, r in zip(batch, out))
        rec.verify(lambda: self._check_groups(groups))

    @staticmethod
    def _analyse_monoid(mon):
        fm = B.powerset_algebra(mon)
        unit_pairs = (B.units(mon), B.units(B.multiplicative_monoid(fm)))
        integral = []
        for idx in B.submonoids(mon):
            if B.is_integral_over(mon, idx):
                integral.append((idx, B.is_group(B.submonoid(mon, idx))))
        return fm, unit_pairs, integral

    @staticmethod
    def _check_monoid(mon, out):
        fm, (units, fm_units), integral = _no_error(out, "monoid analysis")
        expect(fm.size == 1 << mon.size, "subset algebra has the wrong size")
        singletons = {fm.names.index("{" + mon.names[u] + "}") for u in units}
        expect(set(fm_units) == singletons, "units are not the singleton units")
        whole = len(units) == mon.size
        subs = [idx for idx in range(1 << mon.size)
                if idx >> mon.unit & 1 and _closed(mon, idx)]
        want = sorted(
            tuple(x for x in range(mon.size) if idx >> x & 1)
            for idx in subs
            if _integral(mon, {x for x in range(mon.size) if idx >> x & 1})
        )
        expect(sorted(idx for idx, _ in integral) == want,
               "integral submonoids differ from the power-orbit test")
        expect(all(g == whole for _, g in integral),
               "group property does not transfer along an integral extension")
        return mon.size, len(units), len(integral)

    @staticmethod
    def _check_groups(groups):
        expect(groups == ABELIAN_GROUP_COUNTS, f"group counts {groups}")
        return "groups", sorted(groups.items())

    def _morphisms(self, rec):
        for a, b in self.pairs:
            ga, gb = self.groups[a], self.groups[b]
            rec.op(lambda ga=ga, gb=gb: B.full_faithfulness_check(ga, gb),
                   lambda out, a=a, b=b: self._check_pair(a, b, out))
        for n in FREE_AUT_SIZES:
            rec.op(lambda n=n: B.automorphisms(n),
                   lambda out, n=n: self._check_auts(n, len(_no_error(out, "auts"))))
        for n in FREE_BRUTE_SIZES:
            rec.op(lambda n=n: self._bijective_endos(n),
                   lambda out, n=n: self._check_auts(n, _no_error(out, "endos")))

    @staticmethod
    def _check_pair(a, b, out):
        rep = _no_error(out, "full faithfulness")
        want = _hom_count(a, b)
        expect(rep.algebra_hom_count == want,
               f"{a}->{b}: {rep.algebra_hom_count} algebra homs, want {want}")
        expect(rep.monoid_hom_count == want,
               f"{a}->{b}: {rep.monoid_hom_count} group homs, want {want}")
        expect(rep.fully_faithful, f"{a}->{b}: not fully faithful")
        return a, b, want

    @staticmethod
    def _bijective_endos(n):
        free = B.free_module(n)
        return sum(B.is_bijective(f) for f in B.module_morphisms(free, free))

    @staticmethod
    def _check_auts(n, count):
        expect(count == factorial(n), f"{count} automorphisms of free({n})")
        return n, count


def _closed(mon, mask):
    elems = [x for x in range(mon.size) if mask >> x & 1]
    return all(mask >> mon.mul[x][y] & 1 for x in elems for y in elems)


# ---------------------------------------------------------------------------
# queries


def _close_catalogue():
    """Every power rule a^m = (a sum of lower powers) with m <= 3, alone
    and with each of a fixed list of extra relations.

    The rule bounds the quotient by 2^m = 8 elements, below the default
    cap, so TooLarge is never a correct answer; a collapse to 0 = 1 is
    decided by the two scalar points. The catalogue is fixed and every
    pass closes all of it: random presentations put a few slow closes
    in the top percent and moved the p99 latency by a quarter from
    seed to seed.
    """
    extras = [None, ([2], [1]), ([3], [1]), ([4], [2]), ([0, 1], [0]), ([1, 2], [2]),
              ([0, 3], [3]), ([4], [0]), ([0, 2], [1]), ([3], [0, 1])]
    out = []
    for m in (1, 2, 3):
        for mask in range(1 << m):
            rule = ([m], [e for e in range(m) if mask >> e & 1])
            out += [[rule] if extra is None else [rule, extra] for extra in extras]
    return out


CLOSE_CATALOGUE = _close_catalogue()

# Requests of each kind in one pass over the queries stream. Fixed
# counts keep the cost of a pass nearly the same for every seed; the
# seed draws the structures, relabellings and polynomials, and orders
# the stream.
#
# No real traffic exists to check this mix against; the counts follow
# a stated target, five request groups each taking about a fifth of a
# pass: closes (monogenic), cli (cli.run), structure texts
# (structure_io, algebra.validate_algebra), polynomials (polynomial)
# and algebra operations (core_lattice, algebra, monoid_functor). They
# were set from the time per call of each kind (one core of a 2-vCPU
# Xeon VM): close 3.2 ms, cli_* 2.4 ms, homs 1.1 ms, algebra_text
# 0.34 ms, birkhoff 0.33 ms, poly 0.23 ms, lattice_text 0.14 ms,
# congruence 0.06 ms, evaluate 0.03 ms. Measured shares of a pass:
# closes 21%, cli 21%, texts 18%, polynomials 20%, algebra operations
# 20%. The close catalogue is its group. About two thirds of the top
# percent are closes, the rest cli calls.
#
# Scaling each request's latency by its traced layer shares, a 2x
# slower layer moves ops_per_s by 10-18%, below the bound, but
# close_presentation moves p99 by +88%, cli.run +79% and structure_io
# p50 by +45%.
QUERY_MIX = {
    "close": len(CLOSE_CATALOGUE),
    "cli_check": 60,
    "cli_eval": 60,
    "cli_simI": 60,
    "lattice_text": 1400,
    "algebra_text": 600,
    "poly": 1800,
    "evaluate": 600,
    "birkhoff": 550,
    "congruence": 600,
    "homs": 180,
}
MALFORMED_SHARE = 4  # one structure text in four is broken on purpose
QUERY_LATTICE_SIZES = (3, 4, 5, 6)
# Presentations whose closures make up the small-algebra zoo (size <= 8).
ZOO_PRESENTATIONS = (
    "a=0", "a=1", "a^2=0", "a^2=a", "a^2=1", "a+1=1; a^2=0",
    "a+1=1; a^2=a", "a^3=0", "a^3=a", "a^3=a^2", "a^3=1",
    "a^2=a+1", "a^3=a+1", "a^3=a^2+a",
)
POLY_VARS = (("x", "y"), ("x", "y", "z"))
# Terms and exponents of the polynomials of a poly request, large enough
# that the request's time is spent in the polynomial module.
POLY_TERMS, POLY_DEGREE = 8, 3


def _poly_text(variables, monos):
    if not monos:
        return "0"
    terms = []
    for m in monos:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, m) if e]
        terms.append("*".join(factors) if factors else "1")
    return " + ".join(terms)


def _exp_text(exps):
    if not exps:
        return "0"
    return "+".join("1" if e == 0 else "a" if e == 1 else f"a^{e}"
                    for e in sorted(exps))


def _structure_text(kind, names, tables):
    rows = [f"kind {kind}", f"size {len(names)}", "names " + " ".join(names)]
    for label, table in tables:
        rows.append(label)
        rows += [" ".join(names[v] for v in row) for row in table]
    return "\n".join(rows) + "\n"


def _evaluate(alg, variables, monos, phi):
    """Reference evaluation: join of products of powers."""
    total = alg.bottom
    for m in monos:
        prod = alg.unit
        for v, e in zip(variables, m):
            for _ in range(e):
                prod = alg.mul[prod][phi[v]]
        total = alg.sum[total][prod]
    return total


def _naive_congruence(alg, pairs):
    """Reference closure: merge classes until both tables respect them."""
    cls = list(range(alg.size))

    def merge(x, y):
        cx, cy = cls[x], cls[y]
        if cx == cy:
            return False
        for i, c in enumerate(cls):
            if c == cy:
                cls[i] = cx
        return True

    for x, y in pairs:
        merge(x, y)
    changed = True
    while changed:
        changed = False
        for a in range(alg.size):
            for b in range(alg.size):
                if cls[a] != cls[b]:
                    continue
                for c in range(alg.size):
                    changed |= merge(alg.sum[a][c], alg.sum[b][c])
                    changed |= merge(alg.mul[a][c], alg.mul[b][c])
    return cls


def _same_partition(p, q):
    return len(p) == len(q) and all(
        (p[i] == p[j]) == (q[i] == q[j])
        for i in range(len(p)) for j in range(len(p))
    )


def _survives(variables, monos, zero):
    """Does a monomial avoid every variable set to zero?"""
    dead = [k for k, v in enumerate(variables) if v in zero]
    return any(all(m[k] == 0 for k in dead) for m in monos)


def _scalar(exps, x):
    """Value of a one-variable polynomial at a = x in the scalars."""
    return int(bool(exps) and (x == 1 or 0 in exps))


def _value_at(alg, g, exps):
    powers = [alg.unit]
    for _ in range(max(exps, default=0)):
        powers.append(alg.mul[powers[-1]][g])
    total = alg.bottom
    for e in exps:
        total = alg.sum[total][powers[e]]
    return total


class Queries:
    """A seeded stream of small requests through the public API, in
    the proportions of QUERY_MIX."""

    batch = False

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rng = rng
        self.workdir = workdir
        self.lattices = [m for k in QUERY_LATTICE_SIZES for m in B.enumerate_lattices(k)]
        self.monoids = [m for k in (1, 2, 3) for m in B.all_monoids(k)]
        zoo = {}
        for text in ZOO_PRESENTATIONS:
            alg = B.close_presentation(B.parse_presentation(text)).algebra
            zoo.setdefault((alg.sum, alg.mul), alg)
        zoo = list(zoo.values()) + [B.b1_algebra()] + [
            B.powerset_algebra(m) for m in self.monoids[1:4]
        ]
        self.algebras = [a for a in zoo if a.size <= 8]
        self.small_algebras = [a for a in zoo if a.size <= 4]
        self.file_count = 0
        requests = []
        for kind, count in QUERY_MIX.items():
            build = getattr(self, f"_make_{kind}")
            requests += [(kind, build(i)) for i in range(count)]
        rng.shuffle(requests)
        self.requests = requests

    def repetition(self, rec):
        for kind, payload in self.requests:
            run = getattr(self, f"_run_{kind}")
            check = getattr(self, f"_check_{kind}")
            rec.op(lambda run=run, p=payload: run(p),
                   lambda out, check=check, p=payload: check(p, out))

    # -- structure texts --------------------------------------------------

    def _names(self, n):
        tag = self.rng.choice("pqrstuvw")
        return [f"{tag}{i}" for i in range(n)]

    def _make_lattice_text(self, i):
        mod = self.rng.choice(self.lattices)
        n = mod.size
        perm = [0] + self.rng.sample(range(1, n), n - 1)
        (table,) = _relabel_tables((mod.sum,), perm)
        (written,), error = self._break(i, [table])
        names = self._names(n)
        return _structure_text("module", names, [("sum", written)]), table, error

    def _make_algebra_text(self, i):
        alg = self.rng.choice(self.algebras)
        n = alg.size
        perm = [0, 1] + [2 + j for j in self.rng.sample(range(n - 2), n - 2)]
        tables = _relabel_tables((alg.sum, alg.mul), perm)
        (sum_w, mul_w), error = self._break(i, tables)
        text = _structure_text("algebra", self._names(n), [("sum", sum_w), ("mul", mul_w)])
        return text, tables, error

    def _break(self, i, tables):
        """Every MALFORMED_SHARE-th text gets one planted defect.

        Returns the tables to write and the error type they must raise
        (None for a clean text). Defects go into the last table: the
        sum of a module, the product of an algebra.
        """
        n = len(tables[0])
        if i % MALFORMED_SHARE or n < 3:
            return tables, None
        module = len(tables) == 1
        defect = (i // MALFORMED_SHARE) % 3
        if defect == 2:
            # move the bottom (module) or the unit (algebra) off its index
            pos = 0 if module else 1
            swap = [pos + 1 if x == pos else pos if x == pos + 1 else x
                    for x in range(n)]
            return _relabel_tables(tables, swap), NoBottom if module else NoUnit
        rows = [list(r) for r in tables[-1]]
        a, b = self.rng.sample(range(1, n), 2)
        if defect == 0:
            # an off-diagonal cell that disagrees with its mirror image
            rows[a][b] = next(v for v in range(n) if v != rows[b][a])
            error = NotCommutative
        else:
            del rows[a][b]  # a row one entry short
            error = StructureParseError
        return tables[:-1] + [rows], error

    def _run_lattice_text(self, p):
        mod = B.parse_structure(p[0])
        return mod, B.parse_structure(B.render_structure(mod))

    def _check_lattice_text(self, p, out):
        _, table, error = p
        if error is not None:
            return _error_of(out, error, "lattice text")
        mod, again = _no_error(out, "lattice text")
        expect(mod.sum == table, "parsed table differs from the text")
        expect(again == mod, "render then parse is not the identity")
        return mod.size

    def _run_algebra_text(self, p):
        alg = B.parse_structure(p[0])
        return alg, B.parse_structure(B.render_structure(alg))

    def _check_algebra_text(self, p, out):
        _, (sum_t, mul_t), error = p
        if error is not None:
            return _error_of(out, error, "algebra text")
        alg, again = _no_error(out, "algebra text")
        expect(alg.sum == sum_t and alg.mul == mul_t, "parsed tables differ")
        expect(again == alg, "render then parse is not the identity")
        return alg.size

    def _make_birkhoff(self, i):
        mod = self.rng.choice(self.lattices)
        n = mod.size
        perm = [0] + self.rng.sample(range(1, n), n - 1)
        (table,) = _relabel_tables((mod.sum,), perm)
        return _structure_text("module", self._names(n), [("sum", table)])

    def _run_birkhoff(self, text):
        mod = B.parse_structure(text)
        return B.is_distributive(mod), B.birkhoff(mod)

    def _check_birkhoff(self, text, out):
        (dist, witness), f = _no_error(out, "birkhoff")
        expect(B.is_bijective(f) == dist, "Birkhoff bijectivity != distributivity")
        if not dist:
            mod = f.source
            a, b, c = witness
            meet = _meets(mod)
            expect(meet[a][mod.sum[b][c]] != mod.sum[meet[a][b]][meet[a][c]],
                   "distributivity witness does not fail")
        return dist

    # -- polynomials --------------------------------------------------------

    def _monos(self, variables, most=3, top=2):
        return sorted({
            tuple(self.rng.randint(0, top) for _ in variables)
            for _ in range(self.rng.randint(0, most))
        })

    def _make_poly(self, i):
        variables = self.rng.choice(POLY_VARS)
        r, s = (self._monos(variables, POLY_TERMS, POLY_DEGREE) for _ in "rs")
        zero = tuple(v for v in variables if self.rng.random() < 0.5)
        text_r = _poly_text(variables, r)
        error = None
        if i % 10 == 9:
            text_r, error = "w + " + text_r, UnknownVariable
        elif i % 10 == 4:
            text_r, error = "* " + text_r, PolyParseError
        return variables, text_r, _poly_text(variables, s), r, s, zero, error

    def _run_poly(self, p):
        variables, text_r, text_s, _, _, zero, _ = p
        r = B.parse_poly(text_r, variables)
        s = B.parse_poly(text_s, variables)
        prod = B.poly_mul(r, s)
        back = B.parse_poly(B.render_poly(prod), variables)
        return prod, back, B.equal_mod_zero_set(r, s, zero)

    def _check_poly(self, p, out):
        variables, _, _, r, s, zero, error = p
        if error is not None:
            return _error_of(out, error, "poly")
        prod, back, same = _no_error(out, "poly")
        want = {tuple(x + y for x, y in zip(a, b)) for a in r for b in s}
        expect(prod.monomials == want, "product is not the Minkowski sum")
        expect(back == prod, "render then parse is not the identity")
        expect(same == (_survives(variables, r, zero) == _survives(variables, s, zero)),
               "zero-set comparison is wrong")
        return len(want), same

    def _make_evaluate(self, i):
        alg = self.rng.choice(self.algebras)
        variables = ("x", "y")
        f, g = self._monos(variables), self._monos(variables)
        phi = {v: self.rng.randrange(alg.size) for v in variables}
        return alg, variables, f, g, phi

    def _run_evaluate(self, p):
        alg, variables, f, g, phi = p
        pf = B.make_poly(variables, f)
        pg = B.make_poly(variables, g)
        return (B.evaluate(pf, alg, phi), B.evaluate(pg, alg, phi),
                B.evaluate(B.poly_mul(pf, pg), alg, phi))

    def _check_evaluate(self, p, out):
        alg, variables, f, g, phi = p
        vf, vg, vfg = _no_error(out, "evaluate")
        expect(vf == _evaluate(alg, variables, f, phi), "f evaluates wrongly")
        expect(vfg == alg.mul[vf][vg], "evaluation does not respect products")
        return vf, vg, vfg

    # -- congruences and presentations --------------------------------------

    def _make_congruence(self, i):
        alg = self.rng.choice([a for a in self.algebras if a.size >= 3])
        pairs = [tuple(self.rng.sample(range(alg.size), 2))
                 for _ in range(self.rng.randint(1, 2))]
        return alg, pairs

    def _run_congruence(self, p):
        alg, pairs = p
        cong = B.congruence_closure(alg, pairs)
        return cong, B.quotient(alg, cong)

    def _check_congruence(self, p, out):
        alg, pairs = p
        ref = _naive_congruence(alg, pairs)
        if ref[alg.bottom] == ref[alg.unit]:
            return _error_of(out, CollapsesZeroOne, "congruence")
        cong, (q, proj) = _no_error(out, "congruence")
        expect(_same_partition(cong.class_of, ref), "not the least congruence")
        expect(q.size == len(set(ref)), "quotient has the wrong size")
        m = proj.map
        for a in range(alg.size):
            for b in range(alg.size):
                expect(m[alg.sum[a][b]] == q.sum[m[a]][m[b]], "projection breaks +")
                expect(m[alg.mul[a][b]] == q.mul[m[a]][m[b]], "projection breaks *")
        return q.size

    def _make_close(self, i):
        rels = CLOSE_CATALOGUE[i]
        return "; ".join(f"{_exp_text(l)}={_exp_text(r)}" for l, r in rels), rels

    def _run_close(self, p):
        return B.close_presentation(B.parse_presentation(p[0]))

    def _check_close(self, p, out):
        text, rels = p
        if not any(all(_scalar(l, x) == _scalar(r, x) for l, r in rels) for x in (0, 1)):
            return _error_of(out, CollapsesZeroOne, text)
        res = _no_error(out, text)
        alg, g = res.algebra, res.generator
        expect(alg.size <= 8, f"{text}: {alg.size} elements")
        for l, r in rels:
            expect(_value_at(alg, g, l) == _value_at(alg, g, r),
                   f"{text}: a relation fails at the generator")
        expect(_generates(alg, g), f"{text}: generator does not generate")
        return alg.size

    def _make_homs(self, i):
        return self.rng.choice(self.monoids), self.rng.choice(self.small_algebras)

    def _run_homs(self, p):
        mon, alg = p
        n_alg = len(B.algebra_morphisms(B.powerset_algebra(mon), alg))
        n_mon = len(B.monoid_morphisms(mon, B.multiplicative_monoid(alg)))
        return n_alg, n_mon

    def _check_homs(self, p, out):
        n_alg, n_mon = _no_error(out, "homs")
        expect(n_alg == n_mon, f"adjunction fails: {n_alg} vs {n_mon}")
        return n_alg

    # -- the command line tool ------------------------------------------------

    def _file(self, text):
        self.file_count += 1
        path = os.path.join(self.workdir, f"s{self.file_count}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _make_cli_check(self, i):
        text, table, error = self._make_lattice_text(i)
        dist = None
        if error is None:
            mod = B.FinModule(tuple(f"e{k}" for k in range(len(table))), table, 0)
            dist = B.is_bijective(B.birkhoff(mod))
        return ["check", self._file(text)], error, dist

    def _make_cli_eval(self, i):
        alg = self.rng.choice(self.algebras)
        names = self._names(alg.size)
        text = _structure_text("algebra", names, [("sum", alg.sum), ("mul", alg.mul)])
        variables = ("x", "y")
        f = self._monos(variables) or [(0, 0)]
        phi = {v: self.rng.randrange(alg.size) for v in variables}
        argv = ["eval", "--vars", "x,y", "--into", self._file(text), "--map",
                ",".join(f"{v}={names[phi[v]]}" for v in variables),
                _poly_text(variables, f)]
        return argv, names[_evaluate(alg, variables, f, phi)]

    def _make_cli_simI(self, i):
        variables, text_r, text_s, r, s, zero, _ = self._make_poly(0)
        argv = ["simI", "--vars", ",".join(variables), "--zero-set",
                ",".join(zero), text_r, text_s]
        return argv, _survives(variables, r, zero) == _survives(variables, s, zero)

    @staticmethod
    def _run_cli_check(p):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = B.cli.run(p[0])
        return code, buf.getvalue()

    _run_cli_eval = _run_cli_simI = _run_cli_check

    def _check_cli_check(self, p, out):
        _, error, dist = p
        code, text = _no_error(out, "cli check")
        if error is StructureParseError:
            expect(code == 2 and text.startswith("parse error:"), f"check: {text!r}")
        elif error is not None:
            expect(code == 1 and f"error: {error.__name__}" in text, f"check: {text!r}")
        else:
            expect(code == 0 and "valid: true" in text, f"check: {text!r}")
            expect(f"distributive: {str(dist).lower()}" in text, f"check: {text!r}")
        return code

    def _check_cli_eval(self, p, out):
        _, want = p
        code, text = _no_error(out, "cli eval")
        expect(code == 0 and text.strip() == want, f"eval: {text!r}, want {want}")
        return want

    def _check_cli_simI(self, p, out):
        _, same = p
        code, text = _no_error(out, "cli simI")
        expect(text.strip() == str(same).lower() and code == (0 if same else 1),
               f"simI: {text!r}")
        return same


def _meets(mod):
    n = mod.size
    leq = [[mod.sum[a][b] == b for b in range(n)] for a in range(n)]
    out = [[mod.bottom] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            out[a][b] = next(c for c in lower if all(leq[d][c] for d in lower))
    return out


def build(name, seed, workdir):
    return {"census": Census, "sweep": Sweep, "queries": Queries}[name](seed, workdir)
