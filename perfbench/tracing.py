"""Span tracing around the public functions of the b1algebra package.

The package imports names by value (`from .canonical import
canonical_tables`), so one function can be bound under several module
globals. Installing the tracer replaces every alias of every target in
every loaded `b1algebra` module with one wrapper, and `uncovered()`
reports any alias that still points at an original.

Each wrapped call is a span: an id, the id of the enclosing span, the
id of the request it serves, a name, a start and an end. Self time is
the span's duration minus the time covered by its child spans.
Generator functions get one span per resumption, so their self time is
the time spent producing items, not the time the consumer holds them.
Counters are aggregated as spans close; the span records themselves
are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "b1algebra"

# (module, function) pairs wrapped by the traced run.
TARGETS = (
    ("cli", "run"),
    ("structure_io", "parse_structure"),
    ("structure_io", "render_structure"),
    ("polynomial", "parse_poly"),
    ("polynomial", "render_poly"),
    ("polynomial", "poly_mul"),
    ("polynomial", "evaluate"),
    ("polynomial", "equal_mod_zero_set"),
    ("core_lattice", "enumerate_lattices"),
    ("core_lattice", "enumerate_posets"),
    ("core_lattice", "module_morphisms"),
    ("core_lattice", "is_distributive"),
    ("core_lattice", "is_modular"),
    ("core_lattice", "birkhoff"),
    ("core_lattice", "embeds_in_powerset"),
    ("canonical", "canonical_tables"),
    ("canonical", "table_automorphisms"),
    ("canonical", "admissible_perms"),
    ("algebra", "validate_algebra"),
    ("algebra", "algebra_morphisms"),
    ("algebra", "marked_isomorphic"),
    ("algebra", "canonical_key"),
    ("algebra", "congruence_closure"),
    ("algebra", "quotient"),
    ("monogenic", "enumerate_monogenic"),
    ("monogenic", "close_presentation"),
    ("monoid_functor", "all_monoids"),
    ("monoid_functor", "powerset_algebra"),
    ("monoid_functor", "monoid_morphisms"),
    ("monoid_functor", "full_faithfulness_check"),
    ("free_boolean", "automorphisms"),
)

MODULES = (
    "cli",
    "structure_io",
    "polynomial",
    "core_lattice",
    "canonical",
    "algebra",
    "monogenic",
    "monoid_functor",
    "free_boolean",
)


def package_modules():
    """The package and every loaded submodule, by name."""
    prefix = PACKAGE + "."
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(prefix))
    }


class Tracer:
    """Wraps TARGETS in place; aggregates calls, self time and raises.

    `stats[name]` is [calls, self_s, failed, yielded]. `extra` holds the
    counters behind the ratios: lattices kept by computing calls of
    `enumerate_lattices` and the `canonical_tables` calls made directly
    under them.
    """

    def __init__(self):
        self.stats = {f"{m}.{f}": [0, 0.0, 0, 0] for m, f in TARGETS}
        self.extra = {"lattices_kept": 0, "lattice_candidates": 0}
        self.spans = []
        self.keep_spans = True
        self.paused = False
        self.request = 0
        self._stack = []
        self._next_id = 1
        self._originals = {}  # qualified name -> original object
        self._replaced = []  # (module, attribute, original)

    # -- installation -------------------------------------------------

    def install(self):
        mods = package_modules()
        for m, f in TARGETS:
            name = f"{m}.{f}"
            orig = getattr(mods[f"{PACKAGE}.{m}"], f)
            self._originals[name] = orig
            wrapper = self._wrap(name, orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._replaced.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._replaced):
            setattr(mod, attr, orig)
        self._replaced.clear()

    def uncovered(self):
        """(module, attribute) pairs still bound to an unwrapped target."""
        originals = {id(o) for o in self._originals.values()}
        out = []
        for mod_name, mod in sorted(package_modules().items()):
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    out.append((mod_name, attr))
        return out

    def _wrap(self, name, orig):
        if inspect.isgeneratorfunction(orig):
            return self._wrap_generator(name, orig)
        tracer = self
        is_lattice_enum = name == "core_lattice.enumerate_lattices"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            misses = orig.cache_info().misses if is_lattice_enum else 0
            tracer._enter(name, call=True)
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                tracer._exit(failed=True)
                raise
            tracer._exit(failed=False)
            if is_lattice_enum and orig.cache_info().misses > misses:
                tracer.extra["lattices_kept"] += len(out)
            return out

        for attr in ("cache_info", "cache_clear"):
            if hasattr(orig, attr):
                setattr(wrapper, attr, getattr(orig, attr))
        return wrapper

    def _wrap_generator(self, name, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                yield from orig(*args, **kwargs)
                return
            it = orig(*args, **kwargs)
            first = True
            while True:
                tracer._enter(name, call=first)
                first = False
                try:
                    item = next(it)
                except StopIteration:
                    tracer._exit(failed=False)
                    return
                except BaseException:
                    tracer._exit(failed=True)
                    raise
                tracer._exit(failed=False)
                tracer.stats[name][3] += 1
                yield item

        return wrapper

    # -- spans ----------------------------------------------------------

    def _enter(self, name, call):
        if call:
            self.stats[name][0] += 1
            if (
                name == "canonical.canonical_tables"
                and self._stack
                and self._stack[-1][1] == "core_lattice.enumerate_lattices"
            ):
                self.extra["lattice_candidates"] += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, name, perf_counter(), 0.0])

    def _exit(self, failed):
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat[1] += duration - child
        if failed:
            stat[2] += 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if self.keep_spans:
            self.spans.append((span_id, parent, self.request, name, start, end))

    # -- reports ----------------------------------------------------------

    def module_self_s(self):
        out = {m: 0.0 for m in MODULES}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat[1]
        return out

    def traced_self_s(self):
        return sum(stat[1] for stat in self.stats.values())

    def metrics(self, reps):
        """Per-layer metrics, per repetition of the workload.

        Counts and times are divided by `reps`; every repetition of a
        workload makes the same calls, so counts stay whole numbers.
        A ratio whose base is 0 is reported as 0.
        """
        out = {}
        for name, (calls, self_s, failed, yielded) in self.stats.items():
            out[f"{name}.calls"] = (calls / reps, "count")
            out[f"{name}.self_s"] = (self_s / reps, "s")
            out[f"{name}.failed"] = (failed / reps, "count")
        perms = self.stats["canonical.admissible_perms"]
        out["canonical.admissible_perms.yielded"] = (perms[3] / reps, "count")
        out["canonical.perms_per_call"] = (_ratio(perms[3], perms[0]), "ratio")
        close = self.stats["monogenic.close_presentation"]
        out["monogenic.close_presentation.useful_ratio"] = (
            _ratio(close[0] - close[2], close[0]),
            "ratio",
        )
        kept = self.extra["lattices_kept"]
        cand = self.extra["lattice_candidates"]
        out["core_lattice.enumerate_lattices.candidates"] = (cand / reps, "count")
        out["core_lattice.enumerate_lattices.lattices_per_candidate"] = (
            _ratio(kept, cand),
            "ratio",
        )
        for mod, self_s in self.module_self_s().items():
            out[f"{mod}.self_s"] = (self_s / reps, "s")
        return out


def _ratio(num, base):
    return num / base if base else 0.0
