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
from homq.cobraid import CobraidedHomBialgebra, verify_cobraided, verify_oqhybe
from homq.comodule import (bvw_operator, plane_comodule_algebra,
                           verify_comodule, verify_hybe)
from quantum_matrices import ALPHA, DELTA, qm2_form, qm2_presentation
from reference_products import (element_product, element_slot, map_slots,
                                pairwise_product, per_case)


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
    out = map_slots(P.tensor(2, {}), [alpha_slot(H), delta_slot(H)])
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
    # every check is timed by its scan, and the time is left out by default
    H = twisted()
    C = CobraidedHomBialgebra(H, qm2_form(H.pres))
    A = plane_comodule_algebra(C, "standard", xi=1)
    for report in (rep, verify_cobraided(C, 1), verify_oqhybe(C, 1),
                   verify_comodule(A, 2),
                   verify_hybe(bvw_operator(A.piece(1)))):
        assert report.checks
        assert all(c["wall_time"] is None for c in report.to_json()["checks"])
        assert all(isinstance(c["wall_time"], float)
                   for c in report.to_json(timings=True)["checks"])


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


def shifted_line():
    # alpha(x) = x + 1 on the free algebra on x: every alpha image of a
    # word of positive length has more than one term, and the twist by
    # this algebra map is Hom-associative but not comultiplicative
    P = Presentation("x", [], F, max_degree=4)
    return HomBialgebra(P, {"x": {("x", "1"): 1, ("1", "x"): 1}},
                        {"x": {"x": 1, "1": 1}}, twisted=True)


def sweedler(x_image):
    """Sweedler's four-dimensional Hopf algebra on g < x, twisted directly
    along g -> g, x -> x_image.  In Delta(x) Delta(x) the terms -gx (x) x
    and gx (x) x cancel, so every accumulator must drop a zero entry."""
    def build():
        P = Presentation("gx", [("gg", {"1": 1}), ("xx", {}),
                                ("xg", {"gx": -1})], F, max_degree=3)
        return HomBialgebra(P, {"g": {("g", "g"): 1},
                                "x": {("x", "1"): 1, ("g", "x"): 1}},
                            {"g": {"g": 1}, "x": x_image}, twisted=True)
    return build


# x -> lambda x is a bialgebra morphism; x -> gx keeps the relations but
# not the coproduct; x -> x + g keeps neither
SWEEDLER_TWISTS = {"lambda_x": {"x": "lambda"}, "gx": {"gx": 1},
                   "x_plus_g": {"x": 1, "g": 1}}


REFERENCE_CASES = (
    [("plain", plain, 2), ("twisted", twisted, 2)]
    + [(f"direct{change}", direct_twist(change), degree)
       for change in NON_MORPHISMS for degree in (2, 3)]
    + [(f"sweedler_{name}", sweedler(image), degree)
       for name, image in SWEEDLER_TWISTS.items() for degree in (2, 3)]
    + [("alpha_without_twist", untwisted_with_alpha, 1),
       ("untwisted_coproduct", untwisted_coproduct, 1),
       ("z5_twisted", twisted_z5, 4),
       ("shifted_line", shifted_line, 4),
       ("direct{'b': 0}", direct_twist({"b": {}}), 2)])


@pytest.mark.parametrize(
    "build, degree",
    [pytest.param(b, d, id=f"{name}-{d}") for name, b, d in REFERENCE_CASES])
def test_contractions_match_reference_loops(build, degree):
    got = text(verify_hom_bialgebra(build(), degree))
    assert got == text(reference_verify_hom_bialgebra(build(), degree))


@pytest.mark.parametrize("name, failing", [
    ("lambda_x", set()),
    ("gx", {"comultiplicativity", "hom_coassociativity",
            "product_coproduct_compatibility"}),
    ("x_plus_g", {"multiplicativity", "hom_associativity",
                  "comultiplicativity", "hom_coassociativity",
                  "product_coproduct_compatibility"})])
def test_sweedler_twists_fail_the_expected_axioms(name, failing):
    for degree in (2, 3):
        rep = verify_hom_bialgebra(sweedler(SWEEDLER_TWISTS[name])(), degree)
        assert {c.name for c in rep.failures()} == failing
        assert len(rep.checks) == 5


def test_negative_degree_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_hom_bialgebra(twisted(), -1)


def test_pairwise_product_matches_reference():
    for H in (plain(), twisted(), untwisted_coproduct()):
        words = H.pres.graded_basis(2)
        deltas = [H.delta(NCPoly(H.pres, {w: H.pres.field.one}))
                  for w in words]
        for t1 in deltas:
            for t2 in deltas:
                assert pairwise_product(H, t1, t2) == \
                    reference_pairwise_product(H, t1, t2)


def test_repr_gives_the_name_and_the_reading():
    assert repr(plain()) == "<HomBialgebra qm2 (plain)>"
    assert repr(twisted()) == "<HomBialgebra qm2_t (twisted)>"
    assert repr(HomBialgebra(Presentation("x", [], F), {"x": {("x", "x"): 1}})
                ) == "<HomBialgebra instance (plain)>"


def test_product_table_memoises_each_pair():
    H = twisted()
    prod = _product_table(H.product)
    words = H.pres.graded_basis(2)
    for u in words:
        for v in words:
            assert prod(u, v) is prod(u, v)


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
    total = pres.tensor(2, {})
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


def alpha_slot(H):
    """The twisting map of H as a word map to one-slot TensorElements,
    through the element map H.alpha_poly."""
    return lambda w: element_slot(H.alpha_poly(H.pres.poly({w: 1})))


def delta_slot(H):
    """The coproduct of H as a word map to TensorElements, through the
    element map H.delta."""
    return lambda w: H.delta(H.pres.poly({w: 1}))


def table_delta(H, p):
    """The coproduct table of H extended to the element p in the element
    arithmetic: each word of p goes to the product of the tensors of its
    generators, left to right."""
    pres = H.pres
    gens = [TensorElement((pres, pres), t, _trusted=True)
            for t in H.delta_gen]
    total = pres.tensor(2, {})
    for w, c in p.terms.items():
        acc = pres.tensor(2, {("1", "1"): 1})
        for g in w:
            acc = acc * gens[g]
        total = total + acc.scale(c)
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

    alpha, delta = alpha_slot(H), delta_slot(H)

    def hom_coassociativity(i):
        D = delta_of(i)
        return (map_slots(D, [alpha, delta]), map_slots(D, [delta, alpha]))

    _scan(rep, "multiplicativity", [idx] * 2,
          per_case(lambda i, j: (H.alpha_poly(prod(i, j)),
                                 element_product(H, alpha_of[i], alpha_of[j])),
                   idx),
          at, degree, NCPoly.render)
    _scan(rep, "hom_associativity", [idx] * 3,
          per_case(lambda i, j, k: (
              element_product(H, alpha_of[i], prod(j, k)),
              element_product(H, prod(i, j), alpha_of[k])), idx),
          at, degree, NCPoly.render)
    _scan(rep, "comultiplicativity", [idx],
          per_case(lambda i: (H.delta(alpha_of[i]),
                              map_slots(delta_of(i), [alpha, alpha])), idx),
          at, degree, TensorElement.render)
    _scan(rep, "hom_coassociativity", [idx],
          per_case(hom_coassociativity, idx), at, degree,
          TensorElement.render)
    _scan(rep, "product_coproduct_compatibility", [idx] * 2,
          per_case(lambda i, j: (H.delta(prod(i, j)),
                                 reference_pairwise_product(H, delta_of(i),
                                                            delta_of(j))),
                   idx),
          at, degree, TensorElement.render)
    return rep


def reference_verify_morphism(endo, H):
    """verify_morphism with each side built from element-level maps: a
    word goes to the product of its generator images, a rule to the
    image of each of its sides, and the coproduct check compares
    Delta(f x) with map_slots of Delta(x) through f on both legs."""
    pres = H.pres
    rep = Report(f"morphism on {H.name or 'instance'}")
    images = [pres.poly(endo[g]) for g in pres.generators]

    def image(w):
        out = pres.unit(1)
        for g in w:
            out = out * images[g]
        return out

    def image_slot(w):
        return element_slot(image(w))

    _scan(rep, "relations_preserved", [pres.rules],
          per_case(lambda rule: (
              image(rule[0]),
              sum((image(w).scale(c) for w, c in rule[1].items()),
                  pres.unit(0))), pres.rules),
          lambda rule: {"rule": pres.word_text(rule[0])},
          render=NCPoly.render)
    gens = range(len(images))
    _scan(rep, "comultiplication_preserved", [gens],
          per_case(lambda i: (
              table_delta(H, images[i]),
              map_slots(table_delta(H, pres.poly({(i,): 1})),
                        [image_slot, image_slot])), gens),
          lambda i: {"generator": pres.generators[i]},
          render=TensorElement.render)
    return rep


IDENTITY = {g: {g: 1} for g in "abcd"}
# (endomorphism table, bialgebra builder, whether it is a morphism)
MORPHISM_CASES = (
    [("alpha", ALPHA, plain, True), ("identity", IDENTITY, plain, True),
     ("swap_bc", SWAP_BC, plain, False)]
    + [(f"non_morphism{change}", dict(ALPHA, **change), plain, False)
       for change in NON_MORPHISMS]
    + [(f"sweedler_{name}", dict(g={"g": 1}, x=image), sweedler(image),
        name == "lambda_x")
       for name, image in SWEEDLER_TWISTS.items()])


@pytest.mark.parametrize(
    "endo, build, passes",
    [pytest.param(e, b, p, id=name) for name, e, b, p in MORPHISM_CASES])
def test_morphism_contraction_matches_reference_loop(endo, build, passes):
    rep = verify_morphism(endo, build())
    assert rep.passed is passes
    assert text(rep) == text(reference_verify_morphism(endo, build()))
