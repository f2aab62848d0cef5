"""The benchmark reads its per-layer counts by traced key, such as
"comodule.ComoduleAlgebra.rho_word", and reads a key that was never
traced as 0.  A renamed function would therefore zero its metric
without an error.  These tests read the keys out of perfbench/run.py
and check that each names a function the tracer wraps."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_namespace():
    """The globals of perfbench/trace.py, run from source so that no
    bytecode is written next to it; it only imports the standard
    library."""
    path = PERFBENCH / "trace.py"
    namespace = {"__name__": "perfbench_trace"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _traced_keys():
    """The keys of VERIFIERS, CALL_COUNTS and DISTINCT_COUNTS, and the
    operator keys behind comodule.operator_build_share."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    tables = {}
    operators = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name) and target.id in (
                "VERIFIERS", "CALL_COUNTS", "DISTINCT_COUNTS"):
            tables[target.id] = ast.literal_eval(node.value)
        elif (isinstance(target, ast.Subscript)
              and isinstance(target.slice, ast.Constant)
              and target.slice.value == "comodule.operator_build_share"):
            operators = [n.value for n in ast.walk(node.value)
                         if isinstance(n, ast.Constant)
                         and isinstance(n.value, str) and "." in n.value]
    assert sorted(tables) == ["CALL_COUNTS", "DISTINCT_COUNTS", "VERIFIERS"]
    assert operators == ["comodule.bvw_operator", "comodule.b_alpha_operator"]
    return sorted({*tables["VERIFIERS"], *tables["CALL_COUNTS"].values(),
                   *tables["DISTINCT_COUNTS"].values(), *operators})


TRACE = _tracer_namespace()


@pytest.mark.parametrize("key", _traced_keys())
def test_traced_key_names_a_wrapped_function(key):
    layer, *path = key.split(".")
    assert layer in TRACE["LAYERS"]
    module = obj = importlib.import_module(f"homq.{layer}")
    for attr in path:
        # the tracer looks names up in the namespace that defines them
        assert attr in vars(obj), f"{key}: no {attr} in {obj.__name__}"
        obj = vars(obj)[attr]
    assert vars(module)[path[0]].__module__ == module.__name__
    assert TRACE["_wrappable"](path[-1], obj), key


def test_tracer_classifies_scalar_operands():
    """The tracer's Scalar counts read num, den and field._one_poly of
    each operand and result; these counts pin that reading."""
    from homq.scalars import ScalarField, parse_scalar

    field = ScalarField(("t", "lambda"))
    laurent = parse_scalar("(t + 1)/t", field)
    polynomial = parse_scalar("t^2 + lambda", field)
    rational = parse_scalar("1/(t + lambda)", field)
    zero = field.zero
    tracer = TRACE["Tracer"]()
    mul, add = tracer._classifier("__mul__"), tracer._classifier("__add__")
    # mul.laurent: the first and the sixth pair; mul.zero_operand: the
    # fourth and the fifth; nonmonomial_den: the third and the last
    for a, b in [(laurent, polynomial), (polynomial, polynomial),
                 (laurent, rational), (zero, laurent), (laurent, 0),
                 (laurent, 2), (polynomial, 2), (rational, laurent)]:
        mul((a, b), a * b)
    # add.den_nontrivial: the first, the fourth and the last pair (whose
    # sum is zero); nonmonomial_den: the fourth
    for a, b in [(laurent, polynomial), (polynomial, polynomial),
                 (laurent, zero), (rational, polynomial), (laurent, 3),
                 (rational, -rational)]:
        add((a, b), a + b)
    assert dict(tracer.scalar) == {
        "mul.calls": 8, "mul.laurent": 2, "mul.zero_operand": 2,
        "add.calls": 6, "add.den_nontrivial": 3, "nonmonomial_den": 3}


def test_host_products_are_counted():
    """hombialg.product.calls reads the host products a run computes:
    the verifiers multiply words through HomBialgebra.product."""
    # the tracer wraps every layer, so each must be imported; comodule
    # imports all the others
    importlib.import_module("homq.comodule")
    from homq.hombialg import (HomBialgebra, twist_hom_bialgebra,
                               verify_hom_bialgebra)
    from homq.scalars import ScalarField
    from quantum_matrices import ALPHA, DELTA, qm2_presentation

    H = twist_hom_bialgebra(
        HomBialgebra(qm2_presentation(ScalarField(("t", "lambda"))), DELTA),
        ALPHA)
    tracer = TRACE["Tracer"]()
    tracer.install()
    try:
        verify_hom_bialgebra(H, 1)
    finally:
        tracer.restore()
    assert tracer.calls["hombialg.HomBialgebra.product"] > 0
