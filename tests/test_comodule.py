import json

import pytest

from homq import comodule, hombialg
from homq.scalars import ScalarField
from homq.ncpoly import Presentation, PresentationError
from homq.hombialg import HomBialgebra, MorphismError, twist_hom_bialgebra
from homq.cobraid import CobraidingForm, CobraidedHomBialgebra
from homq.comodule import (Comodule, ComoduleAlgebra, ComoduleError,
                           bvw_operator, b_alpha_operator,
                           closed_form_coaction, plane_comodule_algebra,
                           twist_comodule_algebra, verify_comodule,
                           verify_comodule_hom_algebra, verify_hybe,
                           verify_mixed_hybe)


F = ScalarField(("t", "lambda", "xi"))

QM2_RULES = [
    ("ba", {"ab": "q"}),
    ("ca", {"ac": "q"}),
    ("cb", {"bc": 1}),
    ("db", {"bd": "q"}),
    ("dc", {"cd": "q"}),
    ("da", {"ad": 1, "bc": "q - q^-1"}),
]

DELTA = {
    "a": {("a", "a"): 1, ("b", "c"): 1},
    "b": {("a", "b"): 1, ("b", "d"): 1},
    "c": {("c", "a"): 1, ("d", "c"): 1},
    "d": {("c", "b"): 1, ("d", "d"): 1},
}

ALPHA = {
    "a": {"a": 1},
    "b": {"b": "lambda"},
    "c": {"c": "lambda^-1"},
    "d": {"d": 1},
}

R_NONZERO = {
    ("a", "a"): "q_half",
    ("a", "d"): "q_half^-1",
    ("d", "a"): "q_half^-1",
    ("d", "d"): "q_half",
    ("b", "c"): "q_half^-1 * (q - q^-1)",
}

UNIT_ROW = {"a": 1, "b": 0, "c": 0, "d": 1}

# the carrier map that intertwines the standard coaction with ALPHA
PLANE_ALPHA = {"x": {"x": "xi"}, "y": {"y": "xi * lambda^-1"}}


def host(twisted=True):
    """M_q(2) with its cobraiding form, twisted by ALPHA when asked."""
    P = Presentation("abcd", QM2_RULES, F, max_degree=4, name="qm2")
    H = HomBialgebra(P, DELTA, name="qm2")
    if twisted:
        H = twist_hom_bialgebra(H, ALPHA, name="qm2_t")
    table = {(l, r): R_NONZERO.get((l, r), 0) for l in "abcd" for r in "abcd"}
    form = CobraidingForm(P, table, dict(UNIT_ROW), dict(UNIT_ROW))
    return CobraidedHomBialgebra(H, form)


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
                           twisted=True, name="mixed_plane_coaction")


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
        'x"}}, {"name": "hybe", "status": "fail", "degree": null, '
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


def test_fermionic_degree_3_piece_is_empty():
    with pytest.raises(ComoduleError, match="empty"):
        plane("fermionic").piece(3)


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
    with pytest.raises(ComoduleError):
        closed_form_coaction(A, "bosonic", 1, 0)


def test_comodule_algebra_requires_a_shared_field():
    other = Presentation("xy", [], ScalarField(("t",)), name="plane")
    with pytest.raises(PresentationError, match="field"):
        ComoduleAlgebra(host(), other, {"x": {("a", "x"): 1},
                                        "y": {("d", "y"): 1}})
