import json
from functools import cache

import pytest

from homq.scalars import ScalarField
from homq.ncpoly import (Presentation, PresentationError, NCPoly, TensorElement,
                         _bump)
from homq.report import Report, _at, _scan
from homq.hombialg import (HomBialgebra, MorphismError, twist_hom_bialgebra,
                           verify_morphism, verify_hom_bialgebra,
                           _product_table)
from quantum_matrices import ALPHA, DELTA, qm2_presentation
from reference_products import element_product, pairwise_product


F = ScalarField(("t", "lambda"))


def plain():
    return HomBialgebra(qm2_presentation(F), DELTA, name="qm2")


def twisted():
    return twist_hom_bialgebra(plain(), ALPHA, name="qm2_t")


def det_poly(P):
    return P.poly({"ad": 1, "bc": "-q^-1"})


# frozen coproduct and twisting-map values ------------------------------------


def test_delta_of_a():
    H = plain()
    P = H.pres
    assert H.delta(P.gen("a")) == P.tensor(2, {("a", "a"): 1, ("b", "c"): 1})


def test_delta_of_product_is_matrix_square():
    # Delta(ab) expands through the compatibility rule
    H = plain()
    P = H.pres
    got = H.delta(P.gen("a") * P.gen("b"))
    want = pairwise_product(H, H.delta(P.gen("a")), H.delta(P.gen("b")))
    assert got == want


def test_determinant_is_group_like():
    H = plain()
    P = H.pres
    det = det_poly(P)
    want = {}
    for w1, c1 in det.terms.items():
        for w2, c2 in det.terms.items():
            want[(w1, w2)] = c1 * c2
    assert H.delta(det).terms == want


def test_alpha_scales_generators():
    H = twisted()
    P = H.pres
    assert H.alpha_poly(P.gen("b")) == P.poly({"b": "lambda"})
    assert H.alpha_poly(P.gen("c")) == P.poly({"c": "lambda^-1"})
    assert H.alpha_poly(P.gen("a")) == P.gen("a")


def test_alpha_fixes_determinant():
    H = twisted()
    P = H.pres
    det = det_poly(P)
    assert H.alpha_poly(det) == det


def test_twisted_delta_of_b():
    # matrix form: each b leg picks up one lambda
    H = twisted()
    P = H.pres
    got = H.delta(P.gen("b"))
    assert got == P.tensor(2, {("a", "b"): "lambda", ("b", "d"): "lambda"})


def test_twisted_delta_group_like_image():
    # group-likes stay group-like after the twist, with alpha-scaled legs
    H = twisted()
    P = H.pres
    det = det_poly(P)
    img = H.alpha_poly(det)
    want = {}
    for w1, c1 in img.terms.items():
        for w2, c2 in img.terms.items():
            want[(w1, w2)] = c1 * c2
    assert H.delta(det).terms == want


def test_twisted_product():
    H = twisted()
    P = H.pres
    # mu_alpha(b, c) = alpha(bc) = bc (lambda cancels)
    assert element_product(H, P.gen("b"), P.gen("c")) == P.poly({"bc": 1})
    # mu_alpha(b, b) = alpha(b^2) = lambda^2 b^2
    assert element_product(H, P.gen("b"), P.gen("b")) == \
        P.poly({"bb": "lambda^2"})


# morphism checks ----------------------------------------------------------------


def test_alpha_is_morphism():
    rep = verify_morphism(ALPHA, plain())
    assert rep.passed


def test_scaling_group_morphism():
    # a -> a scaled consistently with the relation da = ad + (q - q^-1)bc
    # requires the b and c scalings to cancel; breaking that must fail
    bad = dict(ALPHA)
    bad["c"] = {"c": 1}
    rep = verify_morphism(bad, plain())
    assert not rep.passed
    names = [c.name for c in rep.failures()]
    assert "relations_preserved" in names


def test_broken_delta_compat_detected():
    # swapping the b and c coproducts preserves the relations (the scalings
    # are untouched) but breaks the coproduct compatibility
    P = qm2_presentation(F)
    H = HomBialgebra(P, DELTA)
    endo = {"a": {"a": 1}, "b": {"c": 1}, "c": {"b": 1}, "d": {"d": 1}}
    rep = verify_morphism(endo, H)
    assert not rep.passed


def test_twist_rejects_non_morphism():
    bad = dict(ALPHA)
    bad["c"] = {"c": 1}
    with pytest.raises(MorphismError):
        twist_hom_bialgebra(plain(), bad)


def test_twist_requires_untwisted_base():
    H = twisted()
    with pytest.raises(Exception):
        twist_hom_bialgebra(H, ALPHA)


# axiom suite -------------------------------------------------------------------


def test_plain_instance_passes_degree_2():
    rep = verify_hom_bialgebra(plain(), 2)
    assert rep.passed, rep.to_json()


def test_twisted_instance_passes_degree_2():
    rep = verify_hom_bialgebra(twisted(), 2)
    assert rep.passed, rep.to_json()


def test_identity_twist_equals_plain_verification():
    P = qm2_presentation(F)
    H = HomBialgebra(P, DELTA)
    ident = {g: {g: 1} for g in "abcd"}
    T = twist_hom_bialgebra(H, ident)
    r1 = verify_hom_bialgebra(H, 2)
    r2 = verify_hom_bialgebra(T, 2)
    assert [(c.name, c.status) for c in r1._sorted()] == \
        [(c.name, c.status) for c in r2._sorted()]


def test_zero_tensor_maps_to_the_zero_of_the_image_slots():
    H = twisted()
    P = H.pres
    out = P.tensor(2, {}).map_slots([H._alpha_slot, H.delta_word])
    assert out.slots == (P, P, P) and out.terms == {}


def test_nonidentity_alpha_without_twist_breaks_hom_associativity():
    # plain product with a nontrivial twisting map violates the twisted
    # associativity shape: alpha(b)(1*1) != (b*1)alpha(1)
    P = qm2_presentation(F)
    H = HomBialgebra(P, DELTA, ALPHA, twisted=False)
    rep = verify_hom_bialgebra(H, 1)
    failed = {c.name for c in rep.failures()}
    assert "hom_associativity" in failed


def test_untwisted_coproduct_with_twisted_product_fails_coassociativity():
    # emulate a structure whose coproduct was left untwisted: compose the
    # coproduct table with the inverse scaling so delta(alpha(x)) = delta(x)
    P = qm2_presentation(F)
    delta_table = {
        "a": {("a", "a"): 1, ("b", "c"): 1},
        "b": {("a", "b"): "lambda^-1", ("b", "d"): "lambda^-1"},
        "c": {("c", "a"): "lambda", ("d", "c"): "lambda"},
        "d": {("c", "b"): 1, ("d", "d"): 1},
    }
    H = HomBialgebra(P, delta_table, ALPHA, twisted=True)
    rep = verify_hom_bialgebra(H, 1)
    failed = {c.name for c in rep.failures()}
    assert "hom_coassociativity" in failed


# serialization ---------------------------------------------------------------


def test_json_round_trip():
    H = twisted()
    data = H.to_json()
    back = HomBialgebra.from_json(data, F, name="qm2_t")
    assert back.to_json() == data
    P = back.pres
    assert back.delta(P.gen("b")) == P.tensor(
        2, {("a", "b"): "lambda", ("b", "d"): "lambda"})


@pytest.mark.parametrize("table", ["delta", "alpha"])
def test_json_refuses_a_repeated_entry(table):
    data = twisted().to_json()
    row = data[table]["b"]
    row.append(dict(row[0], coef="5"))
    with pytest.raises(PresentationError, match=f"{table} of 'b' repeats"):
        HomBialgebra.from_json(data, F)


def test_delta_table_refuses_two_keys_for_one_generator():
    table = {**DELTA, ("a",): {("a", "a"): 5}}
    with pytest.raises(PresentationError,
                       match=r"delta table key \('a',\) repeats generator a"):
        HomBialgebra(qm2_presentation(F), table)


def test_report_shape():
    rep = verify_hom_bialgebra(plain(), 1)
    data = rep.to_json()
    assert data["passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    assert {"multiplicativity", "hom_associativity", "comultiplicativity",
            "hom_coassociativity", "product_coproduct_compatibility"} == \
        set(names)
    assert all(c["wall_time"] is None for c in data["checks"])
    timed_data = rep.to_json(timings=True)
    assert all(isinstance(c["wall_time"], float) for c in timed_data["checks"])


# pinned failure reports ----------------------------------------------


def non_morphism_twist():
    # alpha that rescales b but not c, built directly as a twisted structure
    bad = dict(ALPHA, c={"c": 1})
    return HomBialgebra(qm2_presentation(F), DELTA, bad, twisted=True)


SWAP_BC = {"a": {"a": 1}, "b": {"c": 1}, "c": {"b": 1}, "d": {"d": 1}}


def text(rep):
    return json.dumps(rep.to_json())


# Report.to_json() text with timings off, recorded from the per-check
# loops that preceded the shared witness scan.
CASES = {
    "non_morphism_twist_2":
        lambda: text(verify_hom_bialgebra(non_morphism_twist(), 2)),
    "morphism_breaks_relations":
        lambda: text(verify_morphism(dict(ALPHA, c={"c": 1}), plain())),
    "morphism_breaks_coproduct":
        lambda: text(verify_morphism(SWAP_BC, plain())),
}

PINNED = {
    'morphism_breaks_coproduct': (
        '{"checks": [{"name": "comultiplication_preserved", "status": '
        '"fail", "degree": null, "wall_time": null, "witness": '
        '{"generator": "a", "left": "(1)*[a (x) a] + (1)*[b (x) c]", '
        '"right": "(1)*[a (x) a] + (1)*[c (x) b]"}}, {"name": '
        '"relations_preserved", "status": "pass", "degree": null, '
        '"wall_time": null}], "passed": false, "title": "morphism on qm2"}'
    ),
    'morphism_breaks_relations': (
        '{"checks": [{"name": "comultiplication_preserved", "status": '
        '"fail", "degree": null, "wall_time": null, "witness": '
        '{"generator": "a", "left": "(1)*[a (x) a] + (1)*[b (x) c]", '
        '"right": "(1)*[a (x) a] + (lambda)*[b (x) c]"}}, {"name": '
        '"relations_preserved", "status": "fail", "degree": null, '
        '"wall_time": null, "witness": {"rule": "da", "left": "(1)*ad + '
        '((t^4 - 1)/t^2)*bc", "right": "(1)*ad + ((t^4*lambda - '
        'lambda)/t^2)*bc"}}], "passed": false, "title": "morphism on qm2"}'
    ),
    'non_morphism_twist_2': (
        '{"checks": [{"name": "comultiplicativity", "status": "fail", '
        '"degree": 2, "wall_time": null, "witness": {"x": "a", "left": '
        '"(1)*[a (x) a] + (1)*[b (x) c]", "right": "(1)*[a (x) a] + '
        '(lambda)*[b (x) c]"}}, {"name": "hom_associativity", "status": '
        '"fail", "degree": 2, "wall_time": null, "witness": {"x": "1", "y": '
        '"d", "z": "a", "left": "(1)*ad + ((t^4*lambda^2 - '
        'lambda^2)/t^2)*bc", "right": "(1)*ad + ((t^4*lambda - '
        'lambda)/t^2)*bc"}}, {"name": "hom_coassociativity", "status": '
        '"fail", "degree": 2, "wall_time": null, "witness": {"x": "a", '
        '"left": "(1)*[a (x) a (x) a] + (1)*[a (x) b (x) c] + (lambda)*[b '
        '(x) c (x) a] + (lambda)*[b (x) d (x) c]", "right": "(1)*[a (x) a '
        '(x) a] + (lambda)*[a (x) b (x) c] + (1)*[b (x) c (x) a] + '
        '(lambda)*[b (x) d (x) c]"}}, {"name": "multiplicativity", '
        '"status": "fail", "degree": 2, "wall_time": null, "witness": {"x": '
        '"d", "y": "a", "left": "(1)*ad + ((t^4*lambda^2 - '
        'lambda^2)/t^2)*bc", "right": "(1)*ad + ((t^4*lambda - '
        'lambda)/t^2)*bc"}}, {"name": "product_coproduct_compatibility", '
        '"status": "fail", "degree": 2, "wall_time": null, "witness": {"x": '
        '"1", "y": "a", "left": "(1)*[a (x) a] + (1)*[b (x) c]", "right": '
        '"(1)*[a (x) a] + (lambda)*[b (x) c]"}}], "passed": false, "title": '
        '"hom-bialgebra axioms on qm2"}'
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_report(case):
    assert CASES[case]() == PINNED[case]


def test_non_morphism_twist_fails_every_axiom():
    rep = verify_hom_bialgebra(non_morphism_twist(), 2)
    located = {c.name: {k: v for k, v in c.witness.items()
                        if k not in ("left", "right")}
               for c in rep.failures()}
    assert located == {
        "multiplicativity": {"x": "d", "y": "a"},
        "hom_associativity": {"x": "1", "y": "d", "z": "a"},
        "comultiplicativity": {"x": "a"},
        "hom_coassociativity": {"x": "a"},
        "product_coproduct_compatibility": {"x": "1", "y": "a"},
    }


# the table contractions against the loops they replaced ---------------------


# generator maps that are not bialgebra morphisms (the qm2-fail pool of
# perfbench/workloads.py), each built directly as a twisted structure
NON_MORPHISMS = [{"c": {"c": 1}}, {"b": {"b": 1}}, {"a": {"a": "lambda"}},
                 {"c": {"c": "lambda"}}, {"b": {"b": "lambda^2"}}]


def direct_twist(change):
    return lambda: HomBialgebra(qm2_presentation(F), DELTA,
                                dict(ALPHA, **change), twisted=True)


# the fixtures of the two failing-axiom tests above


def untwisted_with_alpha():
    return HomBialgebra(qm2_presentation(F), DELTA, ALPHA, twisted=False)


def untwisted_coproduct():
    delta_table = {
        "a": {("a", "a"): 1, ("b", "c"): 1},
        "b": {("a", "b"): "lambda^-1", ("b", "d"): "lambda^-1"},
        "c": {("c", "a"): "lambda", ("d", "c"): "lambda"},
        "d": {("c", "b"): 1, ("d", "d"): 1},
    }
    return HomBialgebra(qm2_presentation(F), delta_table, ALPHA, twisted=True)


def twisted_z5():
    P = Presentation("g", [("ggggg", {"1": 1})],
                     ScalarField((), cyclotomic_order=5), max_degree=4)
    base = HomBialgebra(P, {"g": {("g", "g"): 1}}, name="zn5")
    return twist_hom_bialgebra(base, {"g": {"gg": 1}})


REFERENCE_CASES = (
    [("plain", plain, 2), ("twisted", twisted, 2)]
    + [(f"direct{change}", direct_twist(change), degree)
       for change in NON_MORPHISMS for degree in (2, 3)]
    + [("alpha_without_twist", untwisted_with_alpha, 1),
       ("untwisted_coproduct", untwisted_coproduct, 1),
       ("z5_twisted", twisted_z5, 4)])


@pytest.mark.parametrize(
    "build, degree",
    [pytest.param(b, d, id=f"{name}-{d}") for name, b, d in REFERENCE_CASES])
def test_contractions_match_reference_loops(build, degree):
    got = text(verify_hom_bialgebra(build(), degree))
    assert got == text(reference_verify_hom_bialgebra(build(), degree))


def test_pairwise_product_matches_reference():
    for H in (plain(), twisted(), untwisted_coproduct()):
        words = H.pres.graded_basis(2)
        deltas = [H.delta(NCPoly(H.pres, {w: H.pres.field.one}))
                  for w in words]
        for t1 in deltas:
            for t2 in deltas:
                assert pairwise_product(H, t1, t2) == \
                    reference_pairwise_product(H, t1, t2)


def test_product_table_shares_equal_coefficients():
    H = twisted()
    prod = _product_table(H.product)
    words = H.pres.graded_basis(2)
    seen = {}
    for u in words:
        for v in words:
            assert prod(u, v) is prod(u, v)
            for w, c in prod(u, v):
                assert seen.setdefault(c, c) is c
    assert len(seen) > 1


def test_product_table_is_call_local():
    H = twisted()
    attrs, pres_attrs = set(vars(H)), set(vars(H.pres))
    first = text(verify_hom_bialgebra(H, 2))
    assert text(verify_hom_bialgebra(H, 2)) == first
    assert set(vars(H)) == attrs
    assert set(vars(H.pres)) == pres_attrs


def reference_pairwise_product(H, t1, t2):
    """Slotwise product of two arity-2 tensors using the instance product."""
    pres = H.pres
    total = pres.unit_tensor(2, 0)
    for (w1, w2), c1 in t1.terms.items():
        p1 = NCPoly(pres, {w1: pres.field.one}, _trusted=True)
        p2 = NCPoly(pres, {w2: pres.field.one}, _trusted=True)
        for (v1, v2), c2 in t2.terms.items():
            c = c1 * c2
            left = element_product(H, p1, NCPoly(pres, {v1: pres.field.one},
                                                 _trusted=True))
            right = element_product(H, p2, NCPoly(pres, {v2: pres.field.one},
                                                  _trusted=True))
            raw = {}
            for lw, lc in left.terms.items():
                for rw, rc in right.terms.items():
                    _bump(raw, (lw, rw), c * lc * rc)
            total = total + TensorElement((pres, pres), raw, _trusted=True)
    return total


def reference_verify_hom_bialgebra(H, degree):
    """verify_hom_bialgebra with every product check expanded through
    element_product for every basis tuple (the pairwise product being
    reference_pairwise_product)."""
    pres = H.pres
    rep = Report(f"hom-bialgebra axioms on {H.name or 'instance'}")
    basis = pres.graded_basis(degree)
    one = pres.field.one
    mono = [NCPoly(pres, {w: one}, _trusted=True) for w in basis]
    at = _at([pres.word_text(w) for w in basis], "xyz")
    idx = range(len(basis))
    alpha_of = [H.alpha_poly(p) for p in mono]

    @cache
    def prod(i, j):
        return element_product(H, mono[i], mono[j])

    @cache
    def delta_of(i):
        return H.delta(mono[i])

    def hom_coassociativity(i):
        D = delta_of(i)
        return (D.map_slots([H._alpha_slot, H.delta_word]),
                D.map_slots([H.delta_word, H._alpha_slot]))

    _scan(rep, "multiplicativity", [idx] * 2,
          lambda i, j: (H.alpha_poly(prod(i, j)),
                        element_product(H, alpha_of[i], alpha_of[j])),
          at, degree)
    _scan(rep, "hom_associativity", [idx] * 3,
          lambda i, j, k: (element_product(H, alpha_of[i], prod(j, k)),
                           element_product(H, prod(i, j), alpha_of[k])),
          at, degree)
    _scan(rep, "comultiplicativity", [idx],
          lambda i: (H.delta(alpha_of[i]), H.alpha_tensor(delta_of(i))),
          at, degree)
    _scan(rep, "hom_coassociativity", [idx], hom_coassociativity, at, degree)
    _scan(rep, "product_coproduct_compatibility", [idx] * 2,
          lambda i, j: (H.delta(prod(i, j)),
                        reference_pairwise_product(H, delta_of(i),
                                                   delta_of(j))),
          at, degree)
    return rep
