"""Per-layer tracing from outside the program.

The layers are the modules of ``homq``.  ``Tracer.install`` replaces the
public functions of each module, and the public and operator methods of
its classes, with wrappers that count calls and measure self time (the
call's duration minus the time spent in wrapped calls it made).
``Tracer.restore`` puts the originals back.  Module functions that other
modules import by name (``render``, ``kernel_basis``, ...) are replaced
in every importing module as well.

Calls are aggregated, not recorded one by one: ``Scalar`` is entered
about two million times per ``qm2-pass`` run.  A call into ``scalars``
made from inside ``scalars`` is not counted, so the gcd and coercion
work a ``Scalar`` operation does internally shows up as its self time.
Predicates (``is_zero`` and friends) are not wrapped; their cost stays
with the caller.
"""

import sys
import time
from types import FunctionType
from collections import Counter, defaultdict

LAYERS = ("scalars", "ncpoly", "hombialg", "cobraid", "comodule", "linalg",
          "report")
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"}
PREDICATES = {"is_zero", "is_one", "covers", "covers_all", "is_normal_word"}

# calls whose distinct arguments are counted: the program memoises each
# of these without eviction, so distinct arguments are cache misses
DISTINCT = {
    "ncpoly.Presentation.normal_word": lambda a, k: a[:2],
    "hombialg.HomBialgebra.alpha_word": lambda a, k: a[:2],
    "hombialg.HomBialgebra.untwisted_delta_word": lambda a, k: a[:2],
    "cobraid.word_value": lambda a, k: (
        a[0].form, a[1], a[2], a[3] if len(a) > 3
        else k.get("second_slot_first", False)),
    "comodule.ComoduleAlgebra.rho_word": lambda a, k: a[:2],
    "comodule.ComoduleAlgebra.base_rho_word": lambda a, k: a[:2],
}


def _wrappable(name, obj):
    if not isinstance(obj, FunctionType):
        return False
    if name in OPERATORS:
        return True
    return not name.startswith("_") and name not in PREDICATES


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.inclusive_ns = Counter()   # double-counts recursive calls
        self.distinct = defaultdict(set)
        self.scalar = Counter()     # operand classes of Scalar arithmetic
        self._layer = None
        self._child_ns = 0
        self._undo = []

    # installing ------------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"homq.{name}"] for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, fn in list(vars(obj).items()):
                        if _wrappable(attr, fn):
                            key = f"{layer}.{obj.__name__}.{attr}"
                            self._set(obj, attr, self._wrap(key, layer, fn))
                elif _wrappable(name, obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", layer,
                                                   obj)
        # a function imported by name lives in several module namespaces
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # wrappers ----------------------------------------------------------------

    def _wrap(self, key, layer, fn):
        tracer = self
        clock = time.perf_counter_ns
        calls, self_ns, inclusive_ns = (self.calls, self.self_ns,
                                        self.inclusive_ns)
        distinct = DISTINCT.get(key)
        seen = self.distinct[key] if distinct is not None else None
        classify = None
        if layer == "scalars" and key.startswith("scalars.Scalar.__"):
            classify = self._classifier(key.rsplit(".", 1)[1])

        def wrapper(*args, **kw):
            if layer == "scalars" and tracer._layer == "scalars":
                return fn(*args, **kw)
            outer_layer, outer_child = tracer._layer, tracer._child_ns
            tracer._layer, tracer._child_ns = layer, 0
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dt = clock() - t0
                self_ns[key] += dt - tracer._child_ns
                inclusive_ns[key] += dt
                calls[key] += 1
                tracer._layer = outer_layer
                tracer._child_ns = outer_child + dt
            if distinct is not None:
                seen.add(distinct(args, kw))
            if classify is not None and result is not NotImplemented:
                classify(args, result)
            return result

        return wrapper

    def _classifier(self, op):
        counts = self.scalar
        if op in ("__mul__", "__rmul__"):
            def classify(args, result):
                a, b = args
                b_zero = (not b) if isinstance(b, int) else not b.num
                b_den = a.field._one_poly if isinstance(b, int) else b.den
                if not a.num or b_zero:
                    counts["mul.zero_operand"] += 1
                elif len(a.den) == 1 and len(b_den) == 1 and (
                        a.den != a.field._one_poly
                        or b_den != a.field._one_poly):
                    # Laurent operands that still pay for cancellation
                    counts["mul.laurent"] += 1
                if a.field.cyclotomic_order:
                    counts["cyclotomic.mul"] += 1
                counts["mul.calls"] += 1
                if len(result.den) > 1:
                    counts["nonmonomial_den"] += 1
        elif op in ("__add__", "__radd__", "__sub__", "__rsub__"):
            def classify(args, result):
                a, b = args
                if not isinstance(b, int) and a.num and b.num and (
                        a.den != a.field._one_poly
                        or b.den != a.field._one_poly):
                    counts["add.den_nontrivial"] += 1
                counts["add.calls"] += 1
                if len(result.den) > 1:
                    counts["nonmonomial_den"] += 1
        else:
            def classify(args, result):
                if getattr(result, "den", None) is not None \
                        and len(result.den) > 1:
                    counts["nonmonomial_den"] += 1
        return classify
