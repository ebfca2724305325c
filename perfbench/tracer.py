"""Outside-in span tracer for the veechfib benchmark.

The package is not edited.  Instead, install() rebinds the public names
that a calling module looks up at call time (for example
``veechfib.families.holonomy_basis_check``) to wrappers that record a
span: item id, name, start, end and the index of the enclosing span.
Hot arithmetic methods are only counted, never spanned.  Spans stay in
memory; summarize() turns them into per-name call counts and self time
(span duration minus the time its child spans cover).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module whose global name is rebound, attribute, span name).  One
# function may be looked up from several modules; each lookup site gets
# its own wrapper around the original, so every call passes exactly one.
SPAN_SITES = (
    ("veechfib.families", "polygon_family", "families.polygon_family"),
    ("veechfib.families", "sporadic_family", "families.sporadic_family"),
    ("veechfib.families", "chern_scatter", "families.chern_scatter"),
    ("veechfib.families", "admissible_primes", "families.admissible_primes"),
    ("veechfib.families", "weierstrass_family", "families.weierstrass_family"),
    ("veechfib.families", "closed_forms_polygon", "families.closed_forms_polygon"),
    ("veechfib.families", "closed_forms_weierstrass", "families.closed_forms_weierstrass"),
    ("veechfib.families", "real_quadratic_zeta_minus_one", "families.real_quadratic_zeta_minus_one"),
    ("veechfib.families", "build_surface", "thurston_veech.build_surface"),
    ("veechfib.families", "holonomy_basis_check", "thurston_veech.holonomy_basis_check"),
    ("veechfib.families", "staircase_parity_check", "thurston_veech.staircase_parity_check"),
    ("veechfib.families", "core_curve_span_check", "thurston_veech.core_curve_span_check"),
    ("veechfib.families", "congruence_degree", "covers.congruence_degree"),
    ("veechfib.families", "riemann_hurwitz_cover", "covers.riemann_hurwitz_cover"),
    ("veechfib.families", "cover_twisting", "covers.cover_twisting"),
    ("veechfib.families", "assemble_invariants", "invariants.assemble_invariants"),
    ("veechfib.families", "enumerate_prototypes", "prototypes.enumerate_prototypes"),
    ("veechfib.families", "element_minimal_polynomial", "exact.element_minimal_polynomial"),
    ("veechfib.families", "is_irreducible_mod_p", "exact.is_irreducible_mod_p"),
    ("veechfib.families", "is_quadratic_nonresidue", "exact.is_quadratic_nonresidue"),
    ("veechfib.covers", "is_irreducible_mod_p", "exact.is_irreducible_mod_p"),
    ("veechfib.covers", "group_closure_order", "covers.group_closure_order"),
    ("veechfib.thurston_veech", "perron_frobenius", "thurston_veech.perron_frobenius"),
    ("veechfib.thurston_veech", "charpoly", "exact.charpoly"),
    ("veechfib.thurston_veech", "rank", "exact.rank"),
    ("veechfib.thurston_veech", "in_order", "exact.in_order"),
    ("veechfib.thurston_veech", "isolate_largest_real_root", "exact.isolate_largest_real_root"),
    ("veechfib.thurston_veech", "cos_two_pi_minpoly", "exact.cos_two_pi_minpoly"),
    ("veechfib.thurston_veech", "is_irreducible_mod_p", "exact.is_irreducible_mod_p"),
    # holonomy_basis_check imports element_minimal_polynomial inside its body
    ("veechfib.exact.numberfield", "element_minimal_polynomial", "exact.element_minimal_polynomial"),
    ("veechfib.exact.numberfield", "isolate_largest_real_root", "exact.isolate_largest_real_root"),
    ("veechfib.cli", "main", "cli.main"),
    ("veechfib.cli", "polygon_family", "families.polygon_family"),
    ("veechfib.cli", "sporadic_family", "families.sporadic_family"),
    ("veechfib.cli", "weierstrass_family", "families.weierstrass_family"),
    ("veechfib.cli", "chern_scatter", "families.chern_scatter"),
    ("veechfib.cli", "admissible_primes", "families.admissible_primes"),
    ("veechfib.cli", "enumerate_prototypes", "prototypes.enumerate_prototypes"),
    ("veechfib.cli", "build_surface", "thurston_veech.build_surface"),
    ("veechfib.cli", "riemann_hurwitz_cover", "covers.riemann_hurwitz_cover"),
    ("veechfib.cli", "cover_twisting", "covers.cover_twisting"),
    ("veechfib.cli", "group_closure_order", "covers.group_closure_order"),
)

# (module, class, methods, counter name): counted, not spanned.
COUNTED_METHODS = (
    ("veechfib.exact.numberfield", "NumberFieldElement", ("__mul__", "__rmul__"), "exact.nf_mul.calls"),
    ("veechfib.exact.numberfield", "NumberFieldElement", ("inverse",), "exact.nf_inverse.calls"),
    ("veechfib.exact.finitefield", "FFElement", ("__mul__",), "exact.ff_mul.calls"),
)

# lru caches whose cache_info() counters give a hit ratio.
CACHES = (
    ("veechfib.thurston_veech", "build_surface", "thurston_veech.build_surface"),
    ("veechfib.exact.polynomials", "cos_two_pi_minpoly", "exact.cos_two_pi_minpoly"),
    ("veechfib.exact.polynomials", "cyclotomic_polynomial", "exact.cyclotomic_polynomial"),
)


def _count_len(key):
    def hook(counts, result):
        counts[key] += len(result)

    return hook


def _count_value(key):
    def hook(counts, result):
        counts[key] += result

    return hook


def _count_one(key):
    def hook(counts, result):
        counts[key] += 1

    return hook


# span name -> hook run on each returned result
RESULT_HOOKS = {
    "prototypes.enumerate_prototypes": _count_len("prototypes.enumerate_prototypes.yielded"),
    "covers.group_closure_order": _count_value("covers.group_closure_order.elements"),
    "families.weierstrass_family": _count_one("families.weierstrass_family.returned"),
}

COUNTER_NAMES = tuple(name for *_, name in COUNTED_METHODS) + (
    "prototypes.enumerate_prototypes.yielded",
    "covers.group_closure_order.elements",
    "families.weierstrass_family.returned",
)


def span_names():
    return sorted({name for _, _, name in SPAN_SITES})


def cache_objects():
    """The lru-cached functions, looked up before any rebinding."""
    return {
        name: getattr(importlib.import_module(mod), attr) for mod, attr, name in CACHES
    }


def cache_counts(caches):
    return {name: [fn.cache_info().hits, fn.cache_info().misses] for name, fn in caches.items()}


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []  # [item, name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.item = None
        self._stack = []
        self._undo = []

    def _span(self, fn, name):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        hook = RESULT_HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [tracer.item, name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod_name, attr, name in SPAN_SITES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self._span(original, name))
        for mod_name, cls_name, methods, key in COUNTED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._counter(original, key))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def summarize(spans):
    """Per span name: [calls, self seconds]."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: [0, 0.0] for name in span_names()}
    for i, (_, name, start, end, _) in enumerate(spans):
        stat = out[name]
        stat[0] += 1
        stat[1] += (end - start) - child_time[i]
    return out


def items_with_span(spans, name):
    return {item for item, span_name, *_ in spans if span_name == name}
