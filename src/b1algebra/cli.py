"""The b1 command line tool.

One subcommand per report: structure validation, Birkhoff analysis,
automorphism groups of free modules, enumeration of one-generator
algebras, maximal spectra, polynomial evaluation and comparison, and
the subsets functor with its adjunction. Exit codes: 0 success or a
true property, 1 a false property or a count mismatch, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import FinAlgebra
from .core_lattice import (
    FinModule,
    birkhoff,
    is_bijective,
    is_distributive,
    is_modular,
    is_projective,
    join_irreducibles,
)
from .errors import B1Error, PolyParseError, StructureParseError
from .free_boolean import automorphisms
from .monogenic import (
    brute_force_count,
    enumerate_monogenic,
    render_presentation,
    unmarked_count,
    zhu_formula,
)
from .monoid_functor import (
    FinMonoid,
    monoid_morphisms,
    multiplicative_monoid,
    powerset_algebra,
)
from .polynomial import (
    MAXSPEC_LIMIT,
    equal_mod_zero_set,
    evaluate,
    maxspec,
    parse_poly,
)
from .structure_io import load_structure, render_structure


@functools.cache
def _parser():
    p = argparse.ArgumentParser(prog="b1", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a structure file")
    c.add_argument("file")

    c = sub.add_parser("birkhoff", help="irreducibles and the down-set map")
    c.add_argument("file")

    c = sub.add_parser("gl", help="automorphisms of the free module on n")
    c.add_argument("n", type=int)
    c.add_argument("--maps", action="store_true", help="print induced subset maps")

    c = sub.add_parser("monogenic", help="one-generator algebras of size n")
    c.add_argument("n", type=int)
    c.add_argument("--list", action="store_true", help="print presentations")
    c.add_argument("--oracle", action="store_true", help="compare to table search")
    c.add_argument("--formula", action="store_true", help="compare to the quadratic")

    c = sub.add_parser("maxspec", help="points of the n-variable spectrum")
    c.add_argument("n", type=int)

    c = sub.add_parser("eval", help="evaluate a polynomial in an algebra")
    c.add_argument("--vars", required=True, help="comma separated variables")
    c.add_argument("--into", required=True, help="algebra file")
    c.add_argument("--map", required=True, help="var=element assignments")
    c.add_argument("poly")

    c = sub.add_parser("simI", help="equality modulo a zero set")
    c.add_argument("--vars", required=True, help="comma separated variables")
    c.add_argument("--zero-set", required=True, help="variables sent to zero")
    c.add_argument("polyr")
    c.add_argument("polys")

    c = sub.add_parser("functor", help="the subsets algebra of a monoid")
    c.add_argument("file")

    c = sub.add_parser("adjoint", help="hom-set sizes on both sides")
    c.add_argument("monoid_file")
    c.add_argument("algebra_file")
    return p


def _split_csv(text):
    return tuple(x for x in text.split(",") if x)


def _split_assignments(text):
    """Split on commas, but not inside braced element names."""
    items, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
            continue
        depth += ch == "{"
        depth -= ch == "}"
        cur.append(ch)
    items.append("".join(cur))
    return tuple(x for x in items if x)


def _cmd_check(args):
    try:
        obj = load_structure(args.file)
    except StructureParseError as e:
        print(f"parse error: {e}")
        return 2
    except B1Error as e:
        print("valid: false")
        print(f"error: {type(e).__name__}: {e}")
        return 1
    if isinstance(obj, FinAlgebra):
        kind = "algebra"
    elif isinstance(obj, FinModule):
        kind = "module"
    elif isinstance(obj, FinMonoid):
        kind = "monoid"
    else:
        kind = "poset"
    print(f"kind: {kind}")
    print(f"size: {obj.size}")
    print("valid: true")
    if kind in ("module", "algebra"):
        mod = obj.module() if kind == "algebra" else obj
        print(f"distributive: {str(is_distributive(mod)[0]).lower()}")
        print(f"modular: {str(is_modular(mod)[0]).lower()}")
    return 0


def _cmd_birkhoff(args):
    obj = load_structure(args.file)
    if isinstance(obj, FinAlgebra):
        obj = obj.module()
    if not isinstance(obj, FinModule):
        print("input error: birkhoff needs a module or algebra file")
        return 2
    irr = join_irreducibles(obj)
    f = birkhoff(obj)
    print(f"size: {obj.size}")
    print("join_irreducibles: " + " ".join(irr.names))
    print(f"downsets: {f.target.size}")
    print(f"birkhoff_bijective: {str(is_bijective(f)).lower()}")
    print(f"distributive: {str(is_distributive(obj)[0]).lower()}")
    print(f"modular: {str(is_modular(obj)[0]).lower()}")
    print(f"projective: {str(is_projective(obj)).lower()}")
    return 0


def _cmd_gl(args):
    if args.n < 0:
        print("input error: basis size must be nonnegative")
        return 2
    auts = automorphisms(args.n)
    print(f"order: {len(auts)}")
    for i, aut in enumerate(auts):
        print(f"aut {i}: {aut.permutation.cycles()}")
        if args.maps:
            print("  map: " + " ".join(str(v) for v in aut.map))
    return 0


def _cmd_monogenic(args):
    if args.n < 2:
        print("input error: sizes start at 2")
        return 2
    results = enumerate_monogenic(args.n)
    line = f"enumerated={len(results)}"
    mismatch = False
    if args.formula:
        want = zhu_formula(args.n)
        line += f" formula={want}"
        mismatch = mismatch or want != len(results)
    print(line)
    print(f"unmarked={unmarked_count(results)}")
    if args.oracle:
        got = brute_force_count(args.n)
        print(f"oracle={got}")
        mismatch = mismatch or got != len(results)
    if args.list:
        for i, m in enumerate(results):
            print(f"{i}: {render_presentation(m.presentation)}")
    return 1 if mismatch else 0


def _cmd_maxspec(args):
    # checked here: the variable names are built before maxspec sees them
    if not 1 <= args.n <= MAXSPEC_LIMIT:
        print(f"input error: the variable count runs from 1 to {MAXSPEC_LIMIT}")
        return 2
    variables = tuple(f"x{i}" for i in range(1, args.n + 1))
    report = maxspec(variables)
    print("variables: " + " ".join(report.variables))
    print(f"points: {len(report.points)}")
    print(f"battery_size: {report.battery_size}")
    print(f"sampled: {str(report.sampled).lower()}")
    print(f"pairwise_distinguished: {str(report.pairwise_distinguished).lower()}")
    verified = all(p.agrees for p in report.points)
    print(f"all_verified: {str(verified).lower()}")
    ok = verified and report.pairwise_distinguished
    ok = ok and len(report.points) == 1 << args.n
    return 0 if ok else 1


def _cmd_eval(args):
    variables = _split_csv(args.vars)
    alg = load_structure(args.into)
    if not isinstance(alg, FinAlgebra):
        print("input error: --into needs an algebra file")
        return 2
    index = {nm: i for i, nm in enumerate(alg.names)}
    phi = {}
    for item in _split_assignments(args.map):
        if "=" not in item:
            print(f"input error: bad assignment `{item}`")
            return 2
        var, _, val = item.partition("=")
        if var not in variables:
            print(f"input error: unknown variable `{var}`")
            return 2
        if val not in index:
            print(f"input error: unknown element `{val}`")
            return 2
        phi[var] = index[val]
    missing = [v for v in variables if v not in phi]
    if missing:
        print("input error: unassigned variables " + " ".join(missing))
        return 2
    f = parse_poly(args.poly, variables)
    print(alg.names[evaluate(f, alg, phi)])
    return 0


def _cmd_simI(args):
    variables = _split_csv(args.vars)
    zero = _split_csv(args.zero_set)
    r = parse_poly(args.polyr, variables)
    s = parse_poly(args.polys, variables)
    same = equal_mod_zero_set(r, s, zero)
    print(str(same).lower())
    return 0 if same else 1


def _cmd_functor(args):
    mon = load_structure(args.file)
    if not isinstance(mon, FinMonoid):
        print("input error: functor needs a monoid file")
        return 2
    sys.stdout.write(render_structure(powerset_algebra(mon)))
    return 0


def _cmd_adjoint(args):
    mon = load_structure(args.monoid_file)
    alg = load_structure(args.algebra_file)
    if not isinstance(mon, FinMonoid) or not isinstance(alg, FinAlgebra):
        print("input error: adjoint needs a monoid file then an algebra file")
        return 2
    from .algebra import algebra_morphisms

    n_alg = len(algebra_morphisms(powerset_algebra(mon), alg))
    n_mon = len(monoid_morphisms(mon, multiplicative_monoid(alg)))
    print(f"hom_algebra: {n_alg}")
    print(f"hom_monoid: {n_mon}")
    return 0 if n_alg == n_mon else 1


_HANDLERS = {
    "check": _cmd_check,
    "birkhoff": _cmd_birkhoff,
    "gl": _cmd_gl,
    "monogenic": _cmd_monogenic,
    "maxspec": _cmd_maxspec,
    "eval": _cmd_eval,
    "simI": _cmd_simI,
    "functor": _cmd_functor,
    "adjoint": _cmd_adjoint,
}


def run(argv):
    """Parse argv (no program name) and run; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args)
    except StructureParseError as e:
        print(f"parse error: {e}")
        return 2
    except PolyParseError as e:
        print(f"parse error: {e}")
        return 2
    except FileNotFoundError as e:
        print(f"input error: {e.filename}: no such file")
        return 2
    except B1Error as e:
        print(f"input error: {type(e).__name__}: {e}")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
