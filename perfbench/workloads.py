"""The four workloads and the verdict oracle behind them.

A workload is a build function, which makes every instance the verifiers
need, and a list of steps.  A step is one verifier call (or one call the
program must refuse) together with the verdict it must return:

* ``expect`` maps each check name to ``(status, location)``, where
  ``location`` holds the witness fields that name basis elements (the
  rendered ``left``/``right`` values are not compared);
* ``raises`` names the exception class of an expected refusal;
* ``source`` says where the expected verdict comes from: a tier-1 test,
  the twisting theorem, or the witness the program gave when the
  benchmark was written.

Only ``qm2-fail`` depends on the seed: it picks one corruption from each
slot of a pool whose verdicts are all recorded.  The variants in a slot
fail at the same witness after the same number of ``Scalar`` operations,
so the seed changes the inputs without changing the amount of work.
"""

import random

from perfbench import instances

TIER1 = "tier-1 test tests/{}"
TWIST_THEOREM = ("twisting theorem: twisting a cobraided bialgebra along a "
                 "morphism that keeps R invariant gives a cobraided "
                 "Hom-bialgebra")
COMODULE_THEOREM = ("twisting theorem for comodule algebras: the twisted "
                    "plane coactions are comodule Hom-algebras, and their "
                    "graded pieces give solutions of the HYBE")
RECORDED = "witness recorded when the benchmark was written"


class Step:
    __slots__ = ("label", "family", "call", "expect", "raises", "source")

    def __init__(self, label, family, call, expect=None, raises=None,
                 source=RECORDED):
        self.label = label
        self.family = family
        self.call = call
        self.expect = expect or {}
        self.raises = raises
        self.source = source


def passes(*names):
    return {name: ("pass", None) for name in names}


HOM_BIALGEBRA = ("multiplicativity", "hom_associativity", "comultiplicativity",
                 "hom_coassociativity", "product_coproduct_compatibility")
COBRAIDED = ("first_slot_product_expansion", "second_slot_product_expansion",
             "braided_commutation")
OQHYBE = ("operator_ybe_first_form", "operator_ybe_second_form")


# qm2-pass ------------------------------------------------------------------


def qm2_pass(seed):
    from homq import cobraid, hombialg

    def build():
        return {"C": instances.twisted_qm2()}

    steps = [
        Step("verify_hom_bialgebra(H, 2)", "hom_bialgebra",
             lambda x: hombialg.verify_hom_bialgebra(x["C"].H, 2),
             passes(*HOM_BIALGEBRA),
             source=TIER1.format("test_hombialg.py::"
                                 "test_twisted_instance_passes_degree_2")),
        Step("verify_cobraided(C, 2)", "cobraided",
             lambda x: cobraid.verify_cobraided(x["C"], 2),
             passes(*COBRAIDED),
             source=TIER1.format("test_cobraid.py::"
                                 "test_twisted_instance_cobraided")),
        Step("verify_oqhybe(C, 2)", "oqhybe",
             lambda x: cobraid.verify_oqhybe(x["C"], 2),
             passes(*OQHYBE),
             source=TIER1.format("test_cobraid.py::"
                                 "test_twisted_instance_oqhybe")),
        Step("check_alpha_invariance(C, 4)", "alpha_invariance",
             lambda x: cobraid.check_alpha_invariance(x["C"], 4),
             passes("alpha_invariance"),
             source=TIER1.format("test_cobraid.py::"
                                 "test_alpha_invariance_formal_lambda")
             + " (degree 2); alpha rescales b and c inversely, so R is "
             "invariant at every degree"),
    ]
    return build, steps


# qm2-fail ------------------------------------------------------------------

# Slot 1: verify_cobraided at degree 3; all three checks fail.
ALL_COBRAIDED_FAIL = {
    "braided_commutation": ("fail", {"x": "a", "y": "b"}),
    "first_slot_product_expansion": ("fail", {"x": "b", "y": "a", "z": "c"}),
    "second_slot_product_expansion": ("fail", {"x": "b", "y": "c", "z": "a"}),
}
COBRAIDED_DEGREE_3 = [(("a", "a"), value)
                      for value in ("q", "q^-1", "2", "q_half^3")]

# Slot 2: verify_oqhybe at degree 2; both forms fail at (b, b, cc).
BOTH_FORMS_FAIL = {name: ("fail", {"x": "b", "y": "b", "z": "cc"})
                   for name in OQHYBE}
OQHYBE_DEGREE_2 = [(("d", "d"), value) for value in ("q_half^-1", "q", "2")]

# Slot 3 (in every run): R(b, c) = 0 keeps a diagonal form, so only the
# commutation axiom catches it.
ONLY_COMMUTATION_FAILS = {
    "braided_commutation": ("fail", {"x": "a", "y": "c"}),
    "first_slot_product_expansion": ("pass", None),
    "second_slot_product_expansion": ("pass", None),
}

# Slot 4: generator maps that are not bialgebra morphisms.  The twist
# must refuse them; the directly built structure fails all five axioms.
NON_MORPHISMS = [{"c": {"c": 1}}, {"b": {"b": 1}}, {"a": {"a": "lambda"}},
                 {"c": {"c": "lambda"}}, {"b": {"b": "lambda^2"}}]
ALL_FIVE_FAIL = {
    "comultiplicativity": ("fail", {"x": "a"}),
    "hom_associativity": ("fail", {"x": "1", "y": "d", "z": "a"}),
    "hom_coassociativity": ("fail", {"x": "a"}),
    "multiplicativity": ("fail", {"x": "d", "y": "a"}),
    "product_coproduct_compatibility": ("fail", {"x": "1", "y": "a"}),
}


def _show(pair, value):
    return f"R({pair[0]},{pair[1]})={value}"


def qm2_fail(seed):
    from homq import cobraid, hombialg
    rng = random.Random(seed)
    pair1, value1 = rng.choice(COBRAIDED_DEGREE_3)
    pair2, value2 = rng.choice(OQHYBE_DEGREE_2)
    change = rng.choice(NON_MORPHISMS)
    bad_alpha = dict(instances.QM2_ALPHA, **change)

    def build():
        base, direct = instances.qm2_with_alpha(bad_alpha)
        return {"C1": instances.twisted_qm2(override={pair1: value1}),
                "C2": instances.twisted_qm2(override={pair2: value2}),
                "C3": instances.twisted_qm2(override={("b", "c"): 0}),
                "base": base, "direct": direct}

    steps = [
        Step(f"verify_cobraided(C[{_show(pair1, value1)}], 3)", "cobraided",
             lambda x: cobraid.verify_cobraided(x["C1"], 3),
             ALL_COBRAIDED_FAIL),
        Step(f"verify_oqhybe(C[{_show(pair2, value2)}], 2)", "oqhybe",
             lambda x: cobraid.verify_oqhybe(x["C2"], 2), BOTH_FORMS_FAIL),
        Step("verify_cobraided(C[R(b,c)=0], 2)", "cobraided",
             lambda x: cobraid.verify_cobraided(x["C3"], 2),
             ONLY_COMMUTATION_FAILS,
             source=TIER1.format("test_cobraid.py::"
                                 "test_corrupted_form_fails_commutation")
             + " (failing check); " + RECORDED),
        Step(f"twist_hom_bialgebra(M_q(2), {change})", "twist",
             lambda x: hombialg.twist_hom_bialgebra(x["base"], bad_alpha),
             raises="MorphismError",
             source=TIER1.format("test_hombialg.py::"
                                 "test_twist_rejects_non_morphism")),
        Step(f"verify_hom_bialgebra(direct {change}, 2)", "hom_bialgebra",
             lambda x: hombialg.verify_hom_bialgebra(x["direct"], 2),
             ALL_FIVE_FAIL),
    ]
    return build, steps


# planes --------------------------------------------------------------------


def planes(seed):
    from homq import comodule

    def build():
        standard, fermionic = instances.planes()
        return {"standard": standard, "fermionic": fermionic}

    def b_alpha(x):
        # the output-twisted operator reads the untwisted coaction
        V = x["standard"].piece(3, base=True)
        return comodule.verify_hybe(comodule.b_alpha_operator(V))

    def bvw(x):
        V = x["standard"].piece(3)
        return comodule.verify_hybe(comodule.bvw_operator(V))

    def mixed(x):
        U, V, W = (x["standard"].piece(d) for d in (1, 2, 3))
        return comodule.verify_mixed_hybe(U, V, W)

    comodule_checks = passes("coaction_hom_coassociativity",
                             "coaction_comultiplicativity")
    steps = []
    for kind in ("standard", "fermionic"):
        steps += [
            Step(f"verify_comodule({kind}, 5)", "comodule",
                 lambda x, k=kind: comodule.verify_comodule(x[k], 5),
                 comodule_checks, source=COMODULE_THEOREM),
            Step(f"verify_comodule_hom_algebra({kind}, 5)", "comodule",
                 lambda x, k=kind:
                     comodule.verify_comodule_hom_algebra(x[k], 5),
                 passes("coaction_multiplicativity"), source=COMODULE_THEOREM),
        ]
    hybe = passes("hybe", "alpha_commutation")
    steps += [
        Step("verify_hybe(b_alpha_operator(standard degree 3))", "hybe",
             b_alpha, hybe, source=COMODULE_THEOREM),
        Step("verify_hybe(bvw_operator(standard degree 3))", "hybe",
             bvw, hybe, source=COMODULE_THEOREM),
        Step("verify_mixed_hybe(standard degrees 1, 2, 3)", "hybe",
             mixed, passes("alpha_invariance", "mixed_hybe"),
             source=COMODULE_THEOREM),
    ]
    return build, steps


# zn13 ----------------------------------------------------------------------


def zn13(seed):
    from homq import cobraid

    def build():
        # 12^2 = 144 = 1 mod 13, so the twist keeps the form invariant
        return {"C": instances.cyclic_group(13, 12)}

    def power_twist(x):
        return cobraid.verify_cobraided(cobraid.twist_R_power(x["C"], 1), 12)

    steps = [
        Step("verify_cobraided(C, 12)", "cobraided",
             lambda x: cobraid.verify_cobraided(x["C"], 12),
             passes(*COBRAIDED), source=TWIST_THEOREM),
        Step("verify_oqhybe(C, 12)", "oqhybe",
             lambda x: cobraid.verify_oqhybe(x["C"], 12),
             passes(*OQHYBE), source=TWIST_THEOREM),
        Step("verify_cobraided(twist_R_power(C, 1), 12)", "power_twist",
             power_twist, passes(*COBRAIDED),
             source=TIER1.format("test_cobraid.py::test_power_twist_closure")
             + " (Z/5); " + TWIST_THEOREM),
    ]
    return build, steps


WORKLOADS = {"qm2-pass": qm2_pass, "qm2-fail": qm2_fail, "planes": planes,
             "zn13": zn13}


def mismatch(step, checks=None, error=None):
    """Why a step's outcome (the serialized checks of its report, or the
    exception it raised) differs from its expectation, or None."""
    if step.raises:
        if error is None:
            return f"expected {step.raises}, got a report"
        if type(error).__name__ != step.raises:
            return f"expected {step.raises}, got {type(error).__name__}"
        return None
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    got = {}
    for check in checks:
        witness = check.get("witness")
        where = None
        if check["status"] == "fail" and witness is not None:
            where = {k: v for k, v in witness.items()
                     if k not in ("left", "right")}
        got[check["name"]] = (check["status"], where)
    if got != step.expect:
        return f"expected {step.expect}, got {got}"
    return None
