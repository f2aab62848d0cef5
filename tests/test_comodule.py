import json

import pytest

from homq import comodule, hombialg
from homq.scalars import ScalarField, render
from homq.ncpoly import (NCPoly, Presentation, PresentationError,
                         TensorElement, _bump, word_key)
from homq.hombialg import (HomBialgebra, MorphismError, _product_table,
                           twist_hom_bialgebra)
from homq.cobraid import CobraidedHomBialgebra, CobraidingForm
from homq.comodule import (Comodule, ComoduleAlgebra, ComoduleError,
                           bvw_operator, b_alpha_operator,
                           plane_comodule_algebra, twist_comodule_algebra,
                           verify_comodule, verify_comodule_hom_algebra,
                           verify_hybe, verify_mixed_hybe)
from plane_closed_forms import closed_form_coaction, q_binomial
from quantum_matrices import ALPHA, DELTA, qm2_form, qm2_presentation
from reference_products import element_product, eval_R, pairwise_product


F = ScalarField(("t", "lambda", "xi"))

# the carrier map that intertwines the standard coaction with ALPHA
PLANE_ALPHA = {"x": {"x": "xi"}, "y": {"y": "xi * lambda^-1"}}


def host(twisted=True):
    """M_q(2) with its cobraiding form, twisted by ALPHA when asked."""
    P = qm2_presentation(F)
    H = HomBialgebra(P, DELTA, name="qm2")
    if twisted:
        H = twist_hom_bialgebra(H, ALPHA, name="qm2_t")
    return CobraidedHomBialgebra(H, qm2_form(P))


def plane(kind, twisted=True):
    return plane_comodule_algebra(host(twisted), kind)


def text(rep):
    return json.dumps(rep.to_json())


def corrupted_operator():
    # x (x) x gains a y (x) y image, which alpha scales differently
    B = bvw_operator(plane("standard").piece(1))
    B.entries[("x", "x")][("y", "y")] = F.one
    return B


def corrupted_rho_piece():
    # the coaction of y loses its d leg
    data = plane("standard").piece(1).to_json()
    data["rho"]["y"] = data["rho"]["y"][:1]
    return Comodule.from_json(data, host())


def refusal(alpha_h, alpha_a):
    """The report or witness twist_comodule_algebra refuses with."""
    with pytest.raises((MorphismError, ComoduleError)) as info:
        twist_comodule_algebra(plane("standard", twisted=False), alpha_h,
                               alpha_a)
    err = info.value
    if err.report is not None:
        return text(err.report)
    return json.dumps(err.witness)


def mixed_hybe_report():
    A = plane("standard")
    return verify_mixed_hybe(*(A.piece(d) for d in (1, 2, 3)))


STANDARD_RHO = {"x": {("a", "x"): 1, ("b", "y"): 1},
                "y": {("c", "x"): 1, ("d", "y"): 1}}


def mixed_plane():
    """The standard coaction of twisted M_q(2) on the plane with yx = q xy
    and yy = 0, which is not a comodule algebra: rho(y) rho(y) =
    (cd + q dc) (x) xy is not rho(yy) = 0.  The (1|1) plane needs a super
    host, which M_q(2) is not."""
    carrier = Presentation("xy", [("yx", {"xy": "q"}), ("yy", {})], F,
                           max_degree=4, name="mixed_plane")
    return ComoduleAlgebra(host(), carrier, STANDARD_RHO, PLANE_ALPHA,
                           name="mixed_plane_coaction")


# Report.to_json() text with timings off, recorded from the per-check
# loops that preceded the shared witness scan.
CASES = {
    "standard_comodule_3":
        lambda: text(verify_comodule(plane("standard"), 3)),
    "standard_hom_algebra_3":
        lambda: text(verify_comodule_hom_algebra(plane("standard"), 3)),
    "fermionic_comodule_3":
        lambda: text(verify_comodule(plane("fermionic"), 3)),
    "fermionic_hom_algebra_3":
        lambda: text(verify_comodule_hom_algebra(plane("fermionic"), 3)),
    "standard_piece_1":
        lambda: text(verify_comodule(plane("standard").piece(1))),
    "standard_piece_2":
        lambda: text(verify_comodule(plane("standard").piece(2))),
    "standard_piece_3":
        lambda: text(verify_comodule(plane("standard").piece(3))),
    "fermionic_piece_1":
        lambda: text(verify_comodule(plane("fermionic").piece(1))),
    "fermionic_piece_2":
        lambda: text(verify_comodule(plane("fermionic").piece(2))),
    "hybe_bvw_standard_2":
        lambda: text(verify_hybe(bvw_operator(plane("standard").piece(2)))),
    "hybe_b_alpha_standard_2":
        lambda: text(verify_hybe(b_alpha_operator(
            plane("standard").piece(2, base=True)))),
    "hybe_bvw_fermionic_1":
        lambda: text(verify_hybe(bvw_operator(plane("fermionic").piece(1)))),
    "mixed_hybe_1_2_3": lambda: text(mixed_hybe_report()),
    "mixed_plane_comodule_2":
        lambda: text(verify_comodule(mixed_plane(), 2)),
    "mixed_plane_hom_algebra_2":
        lambda: text(verify_comodule_hom_algebra(mixed_plane(), 2)),
    "corrupted_operator": lambda: text(verify_hybe(corrupted_operator())),
    "corrupted_rho_row": lambda: text(verify_comodule(corrupted_rho_piece())),
    "refused_host_map":
        lambda: refusal(dict(ALPHA, c={"c": 1}), PLANE_ALPHA),
    "refused_carrier_map":
        lambda: refusal(ALPHA, {"x": {"y": 1}, "y": {"y": 1}}),
    "refused_intertwining":
        lambda: refusal(ALPHA, {"x": {"x": 1}, "y": {"y": 1}}),
}


def plain_plane(kind):
    """A plane over plain M_q(2), with the identity as carrier map."""
    return plane_comodule_algebra(host(twisted=False), kind, xi=1, lam=1)


# HYBE over the plain host: every non-empty piece of degree 1 to 3 (the
# fermionic degree-3 piece is empty)
PLAIN_PIECES = {"standard": (1, 2, 3), "fermionic": (1, 2)}
for _kind, _degrees in PLAIN_PIECES.items():
    CASES[f"plain_{_kind}_comodule_3"] = \
        lambda k=_kind: text(verify_comodule(plain_plane(k), 3))
    for _d in _degrees:
        CASES[f"plain_hybe_bvw_{_kind}_{_d}"] = \
            lambda k=_kind, d=_d: text(verify_hybe(bvw_operator(
                plain_plane(k).piece(d))))
        CASES[f"plain_hybe_b_alpha_{_kind}_{_d}"] = \
            lambda k=_kind, d=_d: text(verify_hybe(b_alpha_operator(
                plain_plane(k).piece(d, base=True))))


def plain_mixed_hybe_report():
    A = plain_plane("standard")
    return verify_mixed_hybe(*(A.piece(d) for d in (1, 2, 3)))


CASES["plain_mixed_hybe_1_2_3"] = lambda: text(plain_mixed_hybe_report())


def scaled_plain_plane():
    """The standard plane over plain M_q(2) with the twisted planes'
    carrier map x -> xi x, y -> lambda^-1 xi y, which does not commute
    with the coaction when the host map is the identity."""
    return plane_comodule_algebra(host(twisted=False), "standard", xi="xi",
                                  lam="lambda")


CASES["scaled_plain_plane_comodule_3"] = \
    lambda: text(verify_comodule(scaled_plain_plane(), 3))

PINNED = {
    'corrupted_operator': (
        '{"checks": [{"name": "alpha_commutation", "status": "fail", '
        '"degree": null, "wall_time": null, "witness": {"pair": "x (x) '
        'x", "left": "(t*xi^4)*[x (x) x] + (xi^2/lambda^2)*[y (x) y]", '
        '"right": "(t*xi^4)*[x (x) x] + (xi^2)*[y (x) y]"}}, '
        '{"name": "hybe", "status": "fail", "degree": null, '
        '"wall_time": null, "witness": {"triple": "x (x) x (x) x", "left": '
        '"(t^3*xi^9)*[x (x) x (x) x] + (t^2*xi^7)*[x (x) y (x) y] + '
        '(xi^7/lambda^2)*[y (x) x (x) y] + ((t^4*lambda^2*xi^7 - '
        'lambda^2*xi^7 + xi^7)/(t^2*lambda^4))*[y (x) y (x) x]", "right": '
        '"(t^3*xi^9)*[x (x) x (x) x] + (xi^7/(t^2*lambda^4))*[x (x) y (x) '
        'y] + ((t^4*lambda^2*xi^7 + t^4*xi^7 - xi^7)/(t^4*lambda^4))*[y (x) '
        'x (x) y] + ((t^4*lambda^4*xi^7 + t^4*xi^7 - '
        'xi^7)/(t^2*lambda^4))*[y (x) y (x) x]"}}], "passed": false, '
        '"title": "Yang-Baxter operator checks on operator"}'
    ),
    'corrupted_rho_row': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": null, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "fail", "degree": null, '
        '"wall_time": null, "witness": {"element": "x", "left": "(xi^2)*[a '
        '(x) a (x) x] + (xi^2)*[a (x) b (x) y] + (xi^2)*[b (x) c (x) x] + '
        '(xi^2)*[b (x) d (x) y]", "right": "(xi^2)*[a (x) a (x) x] + '
        '(xi^2)*[a (x) b (x) y] + (xi^2)*[b (x) c (x) x]"}}], "passed": '
        'false, "title": "comodule axioms on standard_plane_coaction '
        'degree-1 piece"}'
    ),
    'fermionic_comodule_3': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": 3, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": 3, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'fermionic_plane_coaction"}'
    ),
    'fermionic_hom_algebra_3': (
        '{"checks": [{"name": "coaction_multiplicativity", "status": '
        '"pass", "degree": 3, "wall_time": null}], "passed": true, "title": '
        '"comodule algebra on fermionic_plane_coaction"}'
    ),
    'fermionic_piece_1': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": null, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": null, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'fermionic_plane_coaction degree-1 piece"}'
    ),
    'fermionic_piece_2': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": null, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": null, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'fermionic_plane_coaction degree-2 piece"}'
    ),
    'hybe_b_alpha_standard_2': (
        '{"checks": [{"name": "alpha_commutation", "status": "pass", '
        '"degree": null, "wall_time": null}, {"name": "hybe", "status": '
        '"pass", "degree": null, "wall_time": null}], "passed": true, '
        '"title": "Yang-Baxter operator checks on operator"}'
    ),
    'hybe_bvw_fermionic_1': (
        '{"checks": [{"name": "alpha_commutation", "status": "pass", '
        '"degree": null, "wall_time": null}, {"name": "hybe", "status": '
        '"pass", "degree": null, "wall_time": null}], "passed": true, '
        '"title": "Yang-Baxter operator checks on operator"}'
    ),
    'hybe_bvw_standard_2': (
        '{"checks": [{"name": "alpha_commutation", "status": "pass", '
        '"degree": null, "wall_time": null}, {"name": "hybe", "status": '
        '"pass", "degree": null, "wall_time": null}], "passed": true, '
        '"title": "Yang-Baxter operator checks on operator"}'
    ),
    'mixed_hybe_1_2_3': (
        '{"checks": [{"name": "alpha_invariance", "status": "pass", '
        '"degree": 2, "wall_time": null}, {"name": "mixed_hybe", "status": '
        '"pass", "degree": null, "wall_time": null}], "passed": true, '
        '"title": "mixed braid identity"}'
    ),
    'mixed_plane_comodule_2': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": 2, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "fail", "degree": 2, '
        '"wall_time": null, "witness": {"element": "xx", "left": '
        '"(xi^4)*[aa (x) aa (x) xx] + (t^4*xi^4 + xi^4)*[aa (x) ab (x) xy] '
        '+ (t^4*xi^4 + xi^4)*[ab (x) ac (x) xx] + (t^4*xi^4 + xi^4)*[ab (x) '
        'ad (x) xy] + (t^6*xi^4 + t^2*xi^4)*[ab (x) bc (x) xy] + (xi^4)*[bb '
        '(x) cc (x) xx] + (t^4*xi^4 + xi^4)*[bb (x) cd (x) xy]", "right": '
        '"(xi^4)*[aa (x) aa (x) xx] + (t^4*xi^4 + xi^4)*[aa (x) ab (x) xy] '
        '+ (t^4*xi^4 + xi^4)*[ab (x) ac (x) xx] + (t^4*xi^4 + xi^4)*[ab (x) '
        'ad (x) xy] + (t^6*xi^4 + t^2*xi^4)*[ab (x) bc (x) xy]"}}], '
        '"passed": false, "title": "comodule axioms on '
        'mixed_plane_coaction"}'
    ),
    'mixed_plane_hom_algebra_2': (
        '{"checks": [{"name": "coaction_multiplicativity", "status": '
        '"fail", "degree": 2, "wall_time": null, "witness": {"left_factor": '
        '"y", "right_factor": "y", "left": "0", "right": '
        '"(xi^4/lambda^4)*[cc (x) xx] + ((t^4*xi^4 + xi^4)/lambda^4)*[cd '
        '(x) xy]"}}], "passed": false, "title": "comodule algebra on '
        'mixed_plane_coaction"}'
    ),
    'refused_carrier_map': (
        '{"checks": [{"name": "relations_preserved", "status": "fail", '
        '"degree": null, "wall_time": null, "witness": {"rule": "yx", '
        '"left": "(1)*yy", "right": "(t^2)*yy"}}], "passed": false, '
        '"title": "algebra morphism on standard_plane"}'
    ),
    'refused_host_map': (
        '{"checks": [{"name": "comultiplication_preserved", "status": '
        '"fail", "degree": null, "wall_time": null, "witness": '
        '{"generator": "a", "left": "(1)*[a (x) a] + (1)*[b (x) c]", '
        '"right": "(1)*[a (x) a] + (lambda)*[b (x) c]"}}, {"name": '
        '"relations_preserved", "status": "fail", "degree": null, '
        '"wall_time": null, "witness": {"rule": "da", "left": "(1)*ad + '
        '((t^4 - 1)/t^2)*bc", "right": "(1)*ad + ((t^4*lambda - '
        'lambda)/t^2)*bc"}}], "passed": false, "title": "morphism on qm2"}'
    ),
    'refused_intertwining': (
        '{"generator": "x", "left": "(1)*[a (x) x] + (1)*[b (x) y]", '
        '"right": "(1)*[a (x) x] + (lambda)*[b (x) y]"}'
    ),
    'standard_comodule_3': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": 3, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": 3, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'standard_plane_coaction"}'
    ),
    'standard_hom_algebra_3': (
        '{"checks": [{"name": "coaction_multiplicativity", "status": '
        '"pass", "degree": 3, "wall_time": null}], "passed": true, "title": '
        '"comodule algebra on standard_plane_coaction"}'
    ),
    'standard_piece_1': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": null, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": null, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'standard_plane_coaction degree-1 piece"}'
    ),
    'standard_piece_2': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": null, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": null, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'standard_plane_coaction degree-2 piece"}'
    ),
    'standard_piece_3': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": null, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": null, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms on '
        'standard_plane_coaction degree-3 piece"}'
    ),
}


# recorded before bvw_operator and b_alpha_operator shared one builder
HYBE_PASSED = (
    '{"checks": [{"name": "alpha_commutation", "status": "pass", '
    '"degree": null, "wall_time": null}, {"name": "hybe", "status": '
    '"pass", "degree": null, "wall_time": null}], "passed": true, '
    '"title": "Yang-Baxter operator checks on operator"}'
)
PINNED.update({f"plain_hybe_{op}_{kind}_{d}": HYBE_PASSED
               for op in ("bvw", "b_alpha")
               for kind, degrees in PLAIN_PIECES.items() for d in degrees})
PINNED.update({
    'plain_fermionic_comodule_3': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": 3, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": 3, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms '
        'on fermionic_plane_coaction"}'
    ),
    'plain_mixed_hybe_1_2_3': (
        '{"checks": [{"name": "alpha_invariance", "status": "pass", '
        '"degree": 2, "wall_time": null}, {"name": "mixed_hybe", '
        '"status": "pass", "degree": null, "wall_time": null}], "passed": '
        'true, "title": "mixed braid identity"}'
    ),
    # the first pinned comultiplicativity failure, rendered by _render_legs
    'scaled_plain_plane_comodule_3': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"fail", "degree": 3, "wall_time": null, "witness": {"element": '
        '"x", "left": "(xi)*[a (x) x] + (xi/lambda)*[b (x) y]", "right": '
        '"(xi)*[a (x) x] + (xi)*[b (x) y]"}}, {"name": '
        '"coaction_hom_coassociativity", "status": "fail", "degree": 3, '
        '"wall_time": null, "witness": {"element": "x", "left": "(xi)*[a '
        '(x) a (x) x] + (xi/lambda)*[a (x) b (x) y] + (xi)*[b (x) c (x) x] '
        '+ (xi/lambda)*[b (x) d (x) y]", "right": "(1)*[a (x) a (x) x] + '
        '(1)*[a (x) b (x) y] + (1)*[b (x) c (x) x] + (1)*[b (x) d (x) '
        'y]"}}], "passed": false, "title": "comodule axioms on '
        'standard_plane_coaction"}'
    ),
    'plain_standard_comodule_3': (
        '{"checks": [{"name": "coaction_comultiplicativity", "status": '
        '"pass", "degree": 3, "wall_time": null}, {"name": '
        '"coaction_hom_coassociativity", "status": "pass", "degree": 3, '
        '"wall_time": null}], "passed": true, "title": "comodule axioms '
        'on standard_plane_coaction"}'
    ),
})


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_report(case):
    assert CASES[case]() == PINNED[case]


# verdicts ------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["standard", "fermionic"])
def test_planes_are_comodule_hom_algebras(kind):
    A = plane(kind)
    assert verify_comodule(A, 3).passed
    assert verify_comodule_hom_algebra(A, 3).passed


def test_mixed_plane_is_not_a_comodule_algebra():
    A = mixed_plane()
    bad = verify_comodule_hom_algebra(A, 2).failures()
    assert [(c.name, c.witness["left_factor"], c.witness["right_factor"])
            for c in bad] == [("coaction_multiplicativity", "y", "y")]
    bad = verify_comodule(A, 2).failures()
    assert [(c.name, c.witness["element"]) for c in bad] == \
        [("coaction_hom_coassociativity", "xx")]


@pytest.mark.parametrize("kind", ["standard", "fermionic"])
def test_plain_host_defaults_to_identity_carrier_map(kind):
    A = plane_comodule_algebra(host(twisted=False), kind)
    assert all(A.alpha_word(A.carrier.word(g)) == A.carrier.gen(g)
               for g in "xy")
    rep = verify_comodule(A, 3)
    assert rep.passed, rep.to_json()
    assert text(rep) == text(verify_comodule(plain_plane(kind), 3))
    assert verify_comodule_hom_algebra(A, 3).passed


def test_corrupted_operator_fails_both_checks():
    rep = verify_hybe(corrupted_operator())
    assert {c.name for c in rep.failures()} == {"hybe", "alpha_commutation"}


def test_hybe_refuses_mismatched_carrier_maps():
    # W has V's labels and coaction, but alpha(x) is doubled
    V = plane("standard").piece(1)
    data = V.to_json()
    data["alpha"]["x"] = [dict(e, value=f"2*({e['value']})")
                          for e in data["alpha"]["x"]]
    W = Comodule.from_json(data, V.host)
    B = bvw_operator(V, W)
    assert B.v_labels == B.w_labels and B.alpha_v != B.alpha_w
    with pytest.raises(ComoduleError, match="carrier maps"):
        verify_hybe(B)
    assert verify_hybe(bvw_operator(V, V)).passed


def test_b_alpha_twists_each_output_leg_by_its_own_carrier_map():
    # an output pair is (w, v): W's map acts on its first leg, V's on the
    # second; the two pieces have different maps, so a swap shows
    A = plane("standard")
    V, W = A.piece(1, base=True), A.piece(2, base=True)
    B = bvw_operator(V, W)
    expected = {}
    for ij, img in B.entries.items():
        out = {}
        for (k, l), c in img.items():
            for k2, c1 in W.alpha[k].items():
                for l2, c2 in V.alpha[l].items():
                    _bump(out, (k2, l2), c * c1 * c2)
        if out:
            expected[ij] = out
    assert expected != B.entries
    assert b_alpha_operator(V, W).entries == expected


def test_fermionic_degree_3_piece_is_empty():
    with pytest.raises(ComoduleError, match="empty"):
        plane("fermionic").piece(3)


@pytest.mark.parametrize("rho, alpha, message", [
    (dict(STANDARD_RHO, x={("a", "x"): 1, ("b", "y"): 1, ("1", "1"): 1}),
     None, "coaction leaves the degree-1 piece at x"),
    (STANDARD_RHO, {"x": {"x": 1, "1": 1}, "y": {"y": 1}},
     "twisting map leaves the degree-1 piece at x"),
], ids=["coaction", "twisting_map"])
def test_piece_refuses_a_map_that_leaves_its_degree(rho, alpha, message):
    A = ComoduleAlgebra(host(twisted=False),
                        comodule.plane_presentation(F, "standard"), rho,
                        alpha)
    with pytest.raises(ComoduleError, match=f"^{message}$"):
        A.piece(1)


# refusals of the braided operators -------------------------------------------


def test_mixed_hybe_refuses_a_form_that_is_not_alpha_invariant():
    # Z/5 twisted by g -> g^2 with R(g, g) = zeta: R(alpha g, alpha g) =
    # zeta^4, so the host form is not invariant
    F5 = ScalarField((), cyclotomic_order=5)
    P = Presentation("g", [("ggggg", {"1": 1})], F5, max_degree=4,
                     name="zn5")
    H = twist_hom_bialgebra(HomBialgebra(P, {"g": {("g", "g"): 1}}),
                            {"g": {"gg": 1}})
    C = CobraidedHomBialgebra(
        H, CobraidingForm(P, {("g", "g"): "zeta"}, {"g": 1}, {"g": 1}))
    U = Comodule(C, ["e"], {"e": {("g", "e"): 1}})
    with pytest.raises(ComoduleError, match="not invariant") as info:
        verify_mixed_hybe(U, U, U)
    (check,) = info.value.report.failures()
    assert check.name == "alpha_invariance"
    assert (check.witness["x"], check.witness["y"]) == ("g", "g")


@pytest.mark.parametrize("pieces, message", [
    (lambda: (plane("standard").piece(1), plane("standard").piece(1)),
     "comodules live over different hosts"),
    (lambda: (Comodule(host().H, "xy", STANDARD_RHO),) * 2,
     "host carries no cobraiding form"),
], ids=["two_hosts", "no_form"])
def test_operators_need_one_cobraided_host(pieces, message):
    V, W = pieces()
    for build in (bvw_operator, b_alpha_operator):
        with pytest.raises(ComoduleError, match=message):
            build(V, W)


def test_mixed_hybe_refuses_comodules_over_two_hosts():
    U = V = plane("standard").piece(1)
    W = plane("standard").piece(1)
    with pytest.raises(ComoduleError, match="different hosts"):
        verify_mixed_hybe(U, V, W)


def test_hybe_refuses_a_non_square_operator():
    A = plane("standard")
    with pytest.raises(ComoduleError, match="square carrier pair$"):
        verify_hybe(bvw_operator(A.piece(1), A.piece(2)))


def test_plane_builders_refuse_bad_input():
    with pytest.raises(ComoduleError, match="unknown plane kind 'bosonic'"):
        comodule.plane_presentation(F, "bosonic")
    G = HomBialgebra(Presentation("g", [], F), {"g": {("g", "g"): 1}})
    with pytest.raises(ComoduleError, match="generators a, b, c, d"):
        plane_comodule_algebra(G, "standard")


# finite-carrier tables -------------------------------------------------------


IDENTITY_ALPHA = {"x": {"x": 1}, "y": {"y": 1}}


@pytest.mark.parametrize("labels, rho, alpha, message", [
    (("x", "x"), STANDARD_RHO, None, "duplicate carrier labels"),
    ("xy", {"x": STANDARD_RHO["x"]}, None, "label 'y' missing from rho table"),
    ("xy", dict(STANDARD_RHO, z={}), None, "unknown carrier label 'z'"),
    ("xy", dict(STANDARD_RHO, y={("c", "z"): 1}), None,
     "unknown carrier label 'z'"),
    ("xy", STANDARD_RHO, {"x": {"x": 1}}, "label 'y' missing from alpha table"),
    ("xy", STANDARD_RHO, dict(IDENTITY_ALPHA, y={"z": 1}),
     "unknown carrier label 'z'"),
    ("xy", STANDARD_RHO, dict(IDENTITY_ALPHA, zz={"x": 1}),
     "unknown carrier label 'zz'"),
], ids=["duplicate_labels", "missing_rho_row", "unknown_rho_key",
        "unknown_rho_entry_label", "missing_alpha_row",
        "unknown_alpha_entry_label", "unknown_alpha_key"])
def test_comodule_refuses_malformed_tables(labels, rho, alpha, message):
    with pytest.raises(PresentationError) as info:
        Comodule(host(), labels, rho, alpha)
    assert str(info.value) == message


def test_comodule_tables_sum_entries_and_drop_zeros():
    # ba normalizes to q ab, so both host specs land on the entry (ab, x)
    M = Comodule(host(), "xy",
                 {"x": {("ab", "x"): 2, ("ba", "x"): "q^-1", ("a", "y"): 0},
                  "y": {("ab", "x"): 1, ("ba", "x"): "-q^-1"}},
                 {"x": {"x": 1, "y": 0}, "y": {}})
    assert M.rho == {"x": {(M.hom.pres.word("ab"), "x"): F.parse("3")},
                     "y": {}}
    assert M.alpha == {"x": {"x": F.one}, "y": {}}
    assert Comodule(host(), "xy", STANDARD_RHO).alpha == \
        {"x": {"x": F.one}, "y": {"y": F.one}}


@pytest.mark.parametrize("table, entry", [
    ("rho", {"host": "a", "carrier": "x", "value": "-1"}),
    ("alpha", {"carrier": "x", "value": "2"}),
], ids=["rho", "alpha"])
def test_from_json_refuses_a_repeated_entry(table, entry):
    V = plane("standard").piece(1)
    data = V.to_json()
    assert Comodule.from_json(data, V.host).to_json() == data
    data[table]["x"].append(entry)
    with pytest.raises(PresentationError, match="row 'x' repeats"):
        Comodule.from_json(data, V.host)


# twisting ------------------------------------------------------------------


def test_twist_of_plain_plane_passes():
    T = twist_comodule_algebra(plane("standard", twisted=False), ALPHA,
                               PLANE_ALPHA)
    assert T.twisted
    assert verify_comodule(T, 3).passed
    assert verify_comodule_hom_algebra(T, 3).passed


def test_twist_over_a_host_without_a_form():
    # a plain Hom-bialgebra host has no form to carry over, so the
    # twisted host is the twisted Hom-bialgebra itself
    H = HomBialgebra(qm2_presentation(F), DELTA, name="qm2")
    T = twist_comodule_algebra(plane_comodule_algebra(H, "standard"), ALPHA,
                               PLANE_ALPHA)
    assert type(T.host) is HomBialgebra and T.host.twisted
    assert verify_comodule(T, 3).passed
    assert verify_comodule_hom_algebra(T, 3).passed


def test_twist_checks_the_host_map_once(monkeypatch):
    calls = []
    original = hombialg.verify_morphism

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (hombialg, comodule):
        if hasattr(module, "verify_morphism"):
            monkeypatch.setattr(module, "verify_morphism", counting)
    twist_comodule_algebra(plane("standard", twisted=False), ALPHA,
                           PLANE_ALPHA)
    assert len(calls) == 1


def test_twist_requires_untwisted_base():
    with pytest.raises(PresentationError):
        twist_comodule_algebra(plane("standard"), ALPHA, PLANE_ALPHA)


def test_carrier_map_refusal_names_the_algebra_morphism():
    with pytest.raises(MorphismError) as info:
        twist_comodule_algebra(plane("standard", twisted=False), ALPHA,
                               {"x": {"y": 1}, "y": {"y": 1}})
    assert str(info.value) == ("algebra morphism on standard_plane: twisting "
                               "map fails relations_preserved")


def test_host_map_refusal_names_the_morphism():
    with pytest.raises(MorphismError) as info:
        twist_comodule_algebra(plane("standard", twisted=False),
                               dict(ALPHA, c={"c": 1}), PLANE_ALPHA)
    assert str(info.value) == (
        "morphism on qm2: twisting map fails relations_preserved, "
        "comultiplication_preserved")


# closed forms ----------------------------------------------------------------


ADMISSIBLE = {
    "standard": [(i, j) for i in range(4) for j in range(4) if i + j <= 3],
    "fermionic": [(0, 0), (1, 0), (0, 1), (1, 1)],
}


@pytest.mark.parametrize("kind", sorted(ADMISSIBLE))
def test_closed_form_matches_multiplicative_extension(kind):
    A = plane(kind)
    for i, j in ADMISSIBLE[kind]:
        w = A.carrier.word("x" * i + "y" * j)
        assert A.rho_word(w) == closed_form_coaction(A, kind, i, j), (i, j)


@pytest.mark.parametrize("kind", sorted(ADMISSIBLE))
def test_closed_form_over_plain_host_has_no_scaling(kind):
    A = plane(kind, twisted=False)
    for i, j in ADMISSIBLE[kind]:
        w = A.carrier.word("x" * i + "y" * j)
        assert A.rho_word(w) == closed_form_coaction(A, kind, i, j), (i, j)


def test_closed_form_rejects_inadmissible_exponents():
    A = plane("fermionic")
    with pytest.raises(ValueError):
        closed_form_coaction(A, "fermionic", 2, 0)
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        closed_form_coaction(plane("standard"), "standard", -1, 0)
    with pytest.raises(ComoduleError):
        closed_form_coaction(A, "bosonic", 1, 0)


def test_q_binomial_is_zero_outside_0_to_n():
    assert q_binomial(F, 3, -1).is_zero()
    assert q_binomial(F, 3, 4).is_zero()


def test_comodule_algebra_requires_a_shared_field():
    other = Presentation("xy", [], ScalarField(("t",)), name="plane")
    with pytest.raises(PresentationError, match="field"):
        ComoduleAlgebra(host(), other, {"x": {("a", "x"): 1},
                                        "y": {("d", "y"): 1}})


@pytest.mark.parametrize("kind", comodule.PLANE_KINDS)
@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_plane_is_twisted_exactly_when_its_host_is(kind, twisted):
    A = plane(kind, twisted)
    assert A.twisted is A.hom.twisted is twisted


def test_twisted_comodule_algebras_have_twisted_hosts():
    T = twist_comodule_algebra(plane("standard", twisted=False), ALPHA,
                               PLANE_ALPHA)
    for A in (T, mixed_plane()):
        assert A.twisted is A.hom.twisted is True


# per-slot tensors against the loops of the two-class design -----------------
#
# Before TensorElement carried one presentation per slot, host (x) carrier
# values were a separate MixedTensor class with its own product loops.  The
# bodies below are those loops and that renderer, kept verbatim; Mixed gives
# them the fields they read, and each returns its raw dict of terms.


class Mixed:
    def __init__(self, t):
        self.hpres, self.cpres = t.slots
        self.terms = t.terms


def reference_render(self):
    if not self.terms:
        return "0"
    keys = sorted(self.terms, key=lambda k: (word_key(k[0]), word_key(k[1])))
    return " + ".join(
        f"({render(self.terms[k])})*[{self.hpres.word_text(k[0])}"
        f" (x) {self.cpres.word_text(k[1])}]" for k in keys)


def reference_pair_mul_plain(self, t1, t2):
    hpres, cpres = t1.hpres, t1.cpres
    out = {}
    for (h1, c1), s1 in t1.terms.items():
        for (h2, c2), s2 in t2.terms.items():
            s = s1 * s2
            for hw, hc in hpres.normal_word(h1 + h2).items():
                shc = s * hc
                for cw, cc in cpres.normal_word(c1 + c2).items():
                    _bump(out, (hw, cw), shc * cc)
    return out


def reference_pair_product(self, t1, t2):
    hpres, cpres = t1.hpres, t1.cpres
    H = self.hom
    one = cpres.field.one
    out = {}
    for (h1, c1), s1 in t1.terms.items():
        hp1 = NCPoly(hpres, {h1: one}, _trusted=True)
        cp1 = NCPoly(cpres, {c1: one}, _trusted=True)
        for (h2, c2), s2 in t2.terms.items():
            s = s1 * s2
            hprod = element_product(H, hp1,
                                    NCPoly(hpres, {h2: one}, _trusted=True))
            cprod = element_product(self, cp1,
                                    NCPoly(cpres, {c2: one}, _trusted=True))
            for hw, hc in hprod.terms.items():
                shc = s * hc
                for cw, cc in cprod.terms.items():
                    _bump(out, (hw, cw), shc * cc)
    return out


def reference_pairwise(prod, pres, t1, t2):
    raw = {}
    for (w1, w2), c1 in t1.terms.items():
        for (v1, v2), c2 in t2.terms.items():
            c = c1 * c2
            right = prod(w2, v2)
            for lw, lc in prod(w1, v1):
                clc = c * lc
                for rw, rc in right:
                    _bump(raw, (lw, rw), clc * rc)
    return raw


def same(got, raw):
    """got has the reference terms raw and renders as the reference does."""
    assert got.terms == raw
    assert got.render() == reference_render(Mixed(got))


@pytest.mark.parametrize("kind", comodule.PLANE_KINDS)
def test_coaction_products_match_reference_loops(kind):
    A = plane(kind)
    values = [f(w) for w in A.carrier.graded_basis(3)
              for f in (A.base_rho_word, A.rho_word)]
    for t1 in values:
        same(t1, Mixed(t1).terms)
        for t2 in values:
            m1, m2 = Mixed(t1), Mixed(t2)
            same(t1 * t2, reference_pair_mul_plain(A, m1, m2))
            same(A.pair_product(t1, t2), reference_pair_product(A, m1, m2))


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_coproduct_products_match_reference_loops(twisted):
    H = host(twisted).H
    pres = H.pres
    deltas = [H.delta(NCPoly(pres, {w: pres.field.one}))
              for w in pres.graded_basis(2)]
    for t1 in deltas:
        for t2 in deltas:
            m1, m2 = Mixed(t1), Mixed(t2)
            same(t1 * t2, reference_pair_mul_plain(None, m1, m2))
            same(pairwise_product(H, t1, t2),
                 reference_pairwise(_product_table(H.product), pres,
                                    t1, t2))


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
def test_product_tables_match_the_poly_products(twisted):
    """The word-level instance product, read through a product table,
    has the terms of the NCPoly product on every pair of basis words of
    degree at most 3, for the host and for both plane carriers."""
    planes = [plane(kind, twisted) for kind in comodule.PLANE_KINDS]
    for alg, pres in [(planes[0].hom, planes[0].hom.pres)] + [
            (A, A.carrier) for A in planes]:
        prod = _product_table(alg.product)
        words = pres.graded_basis(3)
        mono = {w: NCPoly(pres, {w: pres.field.one}, _trusted=True)
                for w in words}
        for u in words:
            for v in words:
                want = element_product(alg, mono[u], mono[v]).terms
                assert len(prod(u, v)) == len(want)
                assert dict(prod(u, v)) == want


def test_tensors_over_different_slots_do_not_mix():
    standard, fermionic = plane("standard"), plane("fermionic")
    x = standard.carrier.word("x")
    t = standard.rho_word(x)
    H = standard.hom
    others = [fermionic.rho_word(x),
              H.delta(NCPoly(H.pres, {H.pres.word("a"): F.one})),
              TensorElement(t.slots[::-1], {}, _trusted=True)]
    for other in others:
        for op in (t.__add__, t.__mul__, other.__add__, other.__mul__):
            with pytest.raises(PresentationError):
                op(other if op.__self__ is t else t)
        with pytest.raises(PresentationError):
            standard.pair_product(t, other)


# an element of another presentation ----------------------------------------
#
# A word is a tuple of generator indices, so an element of another
# presentation would be read as some element of the map's own one.  Every
# public linear map refuses it instead; Q is the standard plane's
# presentation built anew, so it is foreign to the host and to the carrier.

def _form_with_a(A, first):
    a = A.hom.pres.gen("a")
    return lambda p: eval_R(A.host, p, a) if first else eval_R(A.host, a, p)


FOREIGN_MAPS = {
    "host_alpha_poly": lambda A: A.hom.alpha_poly,
    "host_untwisted_delta": lambda A: A.hom.untwisted_delta,
    "host_delta": lambda A: A.hom.delta,
    "eval_R_first_slot": lambda A: _form_with_a(A, True),
    "eval_R_second_slot": lambda A: _form_with_a(A, False),
    "carrier_alpha_poly": lambda A: A.alpha_poly,
    "base_rho": lambda A: A.base_rho,
}


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("name", sorted(FOREIGN_MAPS))
def test_linear_maps_refuse_an_element_of_another_presentation(name, twisted):
    linear_map = FOREIGN_MAPS[name](plane("standard", twisted))
    Q = Presentation("xy", [("yx", {"xy": "q"})], F)
    with pytest.raises(PresentationError, match="different presentation"):
        linear_map(Q.gen("x") + Q.gen("y"))


# The generator tables are read when a structure is built or a morphism
# is checked, and each refuses a value of another presentation there.

FOREIGN_TABLES = {
    "host_alpha": lambda H, carrier, Q: HomBialgebra(
        H.pres, DELTA, {**ALPHA, "b": Q.gen("y")}),
    "host_delta": lambda H, carrier, Q: HomBialgebra(
        H.pres, {**DELTA, "b": Q.tensor(2, {("x", "y"): 1})}),
    "host_endomorphism": lambda H, carrier, Q: hombialg.verify_morphism(
        {**ALPHA, "b": Q.gen("y")}, H),
    "carrier_alpha": lambda H, carrier, Q: ComoduleAlgebra(
        H, carrier, STANDARD_RHO, {**PLANE_ALPHA, "y": Q.gen("y")}),
    "carrier_rho": lambda H, carrier, Q: ComoduleAlgebra(
        H, carrier, {**STANDARD_RHO,
                     "y": TensorElement((H.pres, Q), {("d", "y"): 1})}),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_TABLES))
def test_generator_tables_refuse_an_element_of_another_presentation(name):
    A = plane("standard", twisted=False)
    Q = Presentation("xy", [("yx", {"xy": "q"})], F)
    with pytest.raises(PresentationError,
                       match="element of a different presentation"):
        FOREIGN_TABLES[name](A.hom, A.carrier, Q)


def test_delta_table_refuses_a_value_with_three_legs():
    P = qm2_presentation(F)
    with pytest.raises(PresentationError, match="need two legs"):
        HomBialgebra(P, {**DELTA, "b": P.tensor(3, {("a", "b", "d"): 1})})
