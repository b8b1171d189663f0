"""Per-layer spans for the perronval benchmark, recorded from outside.

``Tracer.install`` wraps the public functions of each perronval module at
every place they are looked up: the class attribute for methods (aliases
such as ``__rmul__ = __mul__`` included) and every ``perronval`` module
attribute bound to a function, so ``perronval.cli.run_reduction`` is wrapped
as well as ``perronval.reduce.run_reduction``.  ``uninstall`` puts every
original back.  Spans carry a name, start, end, parent and item id; they are
held in memory and written out by ``write``.  Scalar arithmetic and value
comparisons are only counted, because they run millions of times.
"""

from __future__ import annotations

import sys
import time
from array import array

# metric name -> (module, attribute path) of every function it covers
SPANS = {
    "poly.substitute_map": [("poly", "Polynomial.substitute_map")],
    "poly.translate_last": [("poly", "Polynomial.translate_last")],
    "poly.strict_transform": [("poly", "Polynomial.strict_transform")],
    "poly.divmod_last": [("poly", "Polynomial.divmod_last")],
    "poly.mul": [("poly", "Polynomial.__mul__")],
    "poly.evaluate_at_arc": [("poly", "Polynomial.evaluate_at_arc")],
    "poly.divisible_by": [("poly", "Polynomial.divisible_by")],
    "scalars.series_mul": [("scalars", "PuiseuxSeries.__mul__")],
    "scalars.series_inverse": [("scalars", "PuiseuxSeries.inverse")],
    "scalars.series_pow": [("scalars", "PuiseuxSeries.__pow__")],
    "perron.build_a1": [("perron", "build_a1")],
    "perron.build_a6_divide": [("perron", "build_a6_divide")],
    "perron.substitute": [("perron", "PerronTransform.substitute")],
    "perron.transform_arc": [("perron", "PerronTransform.transform_arc")],
    "perron.monomialize": [("perron", "monomialize")],
    "oracle.value": [("oracle", "ArcValuation.value"), ("oracle", "MonomialValuation.value"),
                     ("oracle", "AugmentedChain.value")],
    "oracle.best_approx": [("oracle", "ArcValuation.best_approx")],
    "oracle.arc_consistency": [("oracle", "ArcValuation.arc_consistency")],
    "oracle.residue": [("oracle", "ArcValuation.residue"), ("oracle", "MonomialValuation.residue")],
    "valgroup.member": [("valgroup", "member")],
    "valgroup.smith_normal_form": [("valgroup", "smith_normal_form")],
    "valgroup.rational_relation": [("valgroup", "rational_relation")],
    "reduce.lrm_step": [("reduce", "lrm_step")],
    "reduce.translate": [("reduce", "char0_translate"), ("reduce", "defectless_translate")],
    "reduce.case2_finish": [("reduce", "case2_finish")],
    "reduce.run_reduction": [("reduce", "run_reduction")],
    "reduce.replay_trace": [("reduce", "replay_trace")],
    "reduce.trace_document": [("reduce", "trace_document")],
    "cli.main": [("cli", "main")],
}

COUNTS = {
    "scalars.scalar_ops": [("scalars", f"Scalar.{op}") for op in
                           ("__add__", "__sub__", "__rsub__", "__mul__", "inverse")],
    "valgroup.value_compare": [("valgroup", f"Value.{op}") for op in
                               ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")],
}

# Inclusive time of a set of spans, counting only the outermost span of the
# set on any call path; used to test why each workload was chosen.
SHARES = {
    "ladder_poly": ("poly.strict_transform", "poly.substitute_map"),
    "pairs_series": ("scalars.series_mul", "scalars.series_inverse", "scalars.series_pow"),
    "valgroup_a6": ("valgroup.member", "valgroup.smith_normal_form",
                    "valgroup.rational_relation", "perron.build_a6_divide"),
}


def _resolve(obj, path):
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        self.names = list(SPANS) + list(COUNTS)
        self._index = {name: k for k, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.share_s = {name: 0.0 for name in SHARES}
        self._share_of = {self._index[s]: [name for name, group in SHARES.items() if s in group]
                          for s in SPANS}
        self._share_depth = {name: 0 for name in SHARES}
        # span records
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = []
        self._item = -1
        self._stack = [-1]
        self._child = [0.0]
        # extra per-layer quantities gathered by hooks
        self.extra = {
            "division_lambda": 0, "division_attempts": 0,
            "series_terms_max": 0,
            "value_infinite": 0, "value_divisibility_checks": 0,
            "value_queries": 0, "value_repeats": 0,
            "ladder_steps": 0,
        }
        self._seen_values = set()
        self._seen_oracles = []
        self._patched = []

    # -- items ---------------------------------------------------------------

    def begin_item(self, item_id):
        self.items.append(item_id)
        self._item = len(self.items) - 1
        self._seen_values = set()
        self._seen_oracles = []

    def end_item(self):
        self._item = -1

    # -- wrappers --------------------------------------------------------------

    def _span(self, idx, fn, hook):
        t = self
        perf = time.perf_counter
        shares = self._share_of[idx]

        def wrapper(*args, **kwargs):
            k = len(t.start)
            parent = t._stack[-1]
            t.name.append(idx)
            t.parent.append(parent)
            t.item.append(t._item)
            outer = [s for s in shares if t._share_depth[s] == 0]
            for s in shares:
                t._share_depth[s] += 1
            t._stack.append(k)
            t._child.append(0.0)
            t.end.append(0.0)
            start = perf()
            t.start.append(start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                t._stack.pop()
                child = t._child.pop()
                dur = end - start
                t.end[k] = end
                t.calls[idx] += 1
                t.self_s[idx] += dur - child
                t._child[-1] += dur
                for s in shares:
                    t._share_depth[s] -= 1
                for s in outer:
                    t.share_s[s] += dur
                if hook is not None:
                    hook(t, parent, args, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _count(self, idx, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, pv):
        """Wrap every binding of the traced functions in the perronval
        modules held by ``pv`` (a namespace of imported modules)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "perronval" or name.startswith("perronval.")]
        for group, kind in ((SPANS, "span"), (COUNTS, "count")):
            for metric, targets in group.items():
                idx = self._index[metric]
                for mod_name, path in targets:
                    owner, attr = _resolve(getattr(pv, mod_name), path)
                    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                    if kind == "span":
                        wrapped = self._span(idx, fn, _HOOKS.get(metric))
                    else:
                        wrapped = self._count(idx, fn)
                    holders = [owner] if isinstance(owner, type) else modules
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is fn:
                                self._patched.append((holder, name, fn))
                                setattr(holder, name, wrapped)

    def uninstall(self):
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched = []

    # -- results -----------------------------------------------------------------

    def metric(self, name, quantity):
        idx = self._index[name]
        return self.calls[idx] if quantity == "calls" else self.self_s[idx]

    def items_with(self, span_name):
        """Item indices in which ``span_name`` ran at least once."""
        idx = self._index[span_name]
        return {self.item[k] for k in range(len(self.name)) if self.name[k] == idx}

    def write(self, path):
        """Write the spans as tab-separated lines:
        index, name, parent index, item id, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\titem\tstart\tend\n")
            for k in range(len(self.name)):
                item = self.items[self.item[k]] if self.item[k] >= 0 else "-"
                fh.write(f"{k}\t{self.names[self.name[k]]}\t{self.parent[k]}\t{item}\t"
                         f"{self.start[k]:.9f}\t{self.end[k]:.9f}\n")


# -- hooks: per-layer quantities that need arguments or results -----------------

def _is(t, span, name):
    return span >= 0 and t.names[t.name[span]] == name


def _strict_hook(t, parent, args, result):
    if result is not None:
        t.extra["division_lambda"] += result[1]


def _divmod_hook(t, parent, args, result):
    if _is(t, parent, "poly.strict_transform"):
        t.extra["division_attempts"] += 1


def _series_hook(t, parent, args, result):
    if result is not None:
        t.extra["series_terms_max"] = max(t.extra["series_terms_max"], len(result.terms))


def _divisible_hook(t, parent, args, result):
    if _is(t, parent, "oracle.value"):
        t.extra["value_divisibility_checks"] += 1


def _value_hook(t, parent, args, result):
    oracle, g = args[0], args[1]
    t.extra["value_queries"] += 1
    key = (id(oracle), g.frame, frozenset(g.terms.items()))
    if key in t._seen_values:
        t.extra["value_repeats"] += 1
    else:
        t._seen_values.add(key)
        t._seen_oracles.append(oracle)  # keeps id(oracle) unique within the item
    if result is not None and result.kind == "infinite":
        t.extra["value_infinite"] += 1


def _best_approx_hook(t, parent, args, result):
    if result is not None:
        t.extra["ladder_steps"] += len(result.ladder)


_HOOKS = {
    "poly.strict_transform": _strict_hook,
    "poly.divmod_last": _divmod_hook,
    "scalars.series_mul": _series_hook,
    "scalars.series_inverse": _series_hook,
    "scalars.series_pow": _series_hook,
    "poly.divisible_by": _divisible_hook,
    "oracle.value": _value_hook,
    "oracle.best_approx": _best_approx_hook,
}
