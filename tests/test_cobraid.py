import json
from itertools import count

import pytest

from homq.scalars import _PRODUCTS_SIZE, ScalarField, render
from homq.ncpoly import NCPoly, Presentation, PresentationError
from homq.hombialg import (HomBialgebra, twist_hom_bialgebra,
                           verify_hom_bialgebra)
from homq.report import Report, timed
from homq.cobraid import (CobraidingForm, CobraidedHomBialgebra,
                          CobraidingError, InjectivityError, word_value,
                          verify_cobraided, verify_oqhybe,
                          check_alpha_invariance, twist_R_power,
                          alpha_kernel_witness, covered_basis)
from quantum_matrices import (ALPHA, DELTA, R_NONZERO, UNIT_ROW,
                              qm2_form, qm2_presentation)
from reference_products import element_product, eval_R


F = ScalarField(("t", "lambda"))


def plain_instance(**kw):
    P = qm2_presentation(F)
    return CobraidedHomBialgebra(HomBialgebra(P, DELTA, name="qm2"),
                                 qm2_form(P, **kw))


def twisted_instance(field=F, **kw):
    P = qm2_presentation(field)
    H = twist_hom_bialgebra(HomBialgebra(P, DELTA, name="qm2"), ALPHA)
    return CobraidedHomBialgebra(H, qm2_form(P, **kw))


# frozen values ---------------------------------------------------------------


def test_generator_values():
    C = plain_instance()
    P = C.H.pres
    assert eval_R(C, P.gen("a"), P.gen("a")) == F.parse("q_half")
    assert eval_R(C, P.gen("b"), P.gen("c")) == \
        F.parse("q_half^-1 * (q - q^-1)")
    assert eval_R(C, P.gen("a"), P.gen("b")).is_zero()


def test_unit_values():
    C = plain_instance()
    P = C.H.pres
    one = P.unit(1)
    assert eval_R(C, one, P.gen("d")) == F.one
    assert eval_R(C, P.gen("c"), one).is_zero()
    assert eval_R(C, one, one) == F.one


def test_one_recursion_step():
    # R(ab, a) sums R(a, a1)R(b, a2) over the two legs of the coproduct
    # of a, and both summands die on a zero factor
    C = plain_instance()
    assert word_value(C, C.H.pres.word("ab"), C.H.pres.word("a")).is_zero()


def test_pairing_against_group_like():
    # the quantum determinant pairs like the unit: R(det, g) hits 1 on
    # the diagonal generators and 0 off the diagonal (hand computation)
    C = plain_instance()
    P = C.H.pres
    det = P.poly({"ad": 1, "bc": "-q^-1"})
    assert eval_R(C, det, P.gen("a")) == F.one
    assert eval_R(C, det, P.gen("b")).is_zero()
    assert eval_R(C, det, P.gen("d")) == F.one


def test_bilinearity():
    C = plain_instance()
    P = C.H.pres
    u = P.poly({"a": 2, "b": "q"})
    got = eval_R(C, u, P.gen("c"))
    want = (F.from_int(2) * eval_R(C, P.gen("a"), P.gen("c"))
            + F.parse("q") * eval_R(C, P.gen("b"), P.gen("c")))
    assert got == want


# well-definedness on the quotient ---------------------------------------------


def test_relation_compatibility():
    # the recursive extension must not see the difference between a rule's
    # two sides, in either slot
    C = plain_instance()
    P = C.H.pres
    basis = P.graded_basis(3)
    for lw, rp in P.rules:
        for z in basis:
            left = word_value(C, lw, z)
            right = F.zero
            for v, c in rp.items():
                right = right + c * word_value(C, v, z)
            assert left == right, (P.word_text(lw), P.word_text(z))
            left = word_value(C, z, lw)
            right = F.zero
            for v, c in rp.items():
                right = right + c * word_value(C, z, v)
            assert left == right, (P.word_text(z), P.word_text(lw))


def test_recursion_order_coherence():
    C = plain_instance()
    P = C.H.pres
    basis = P.graded_basis(3)
    for m in basis:
        for n in basis:
            assert word_value(C, m, n) == reference_eval(C, m, n, True, {})


# axiom suites -----------------------------------------------------------------


def test_plain_instance_cobraided():
    rep = verify_cobraided(plain_instance(), 2)
    assert rep.passed, rep.to_json()


def test_twisted_instance_cobraided():
    rep = verify_cobraided(twisted_instance(), 2)
    assert rep.passed, rep.to_json()


def test_twisted_instance_oqhybe():
    rep = verify_oqhybe(twisted_instance(), 2)
    assert rep.passed, rep.to_json()


def test_twisted_instance_oqhybe_degree_3():
    # every cobraided Hom-bialgebra solves both identities, at any degree
    rep = verify_oqhybe(twisted_instance(), 3)
    assert rep.passed, rep.to_json()


def test_corrupted_form_fails_commutation():
    C = plain_instance(override={("b", "c"): 0})
    rep = verify_cobraided(C, 2)
    failed = {c.name for c in rep.failures()}
    assert "braided_commutation" in failed
    bad = [c for c in rep.failures() if c.name == "braided_commutation"][0]
    assert bad.witness is not None


def test_corrupted_form_still_satisfies_scalar_ybe():
    # zeroing the off-diagonal value leaves a diagonal bicharacter-type
    # form; the scalar Yang-Baxter identities hold for it on their own,
    # so the corruption is caught only by the commutation axiom above
    C = plain_instance(override={("b", "c"): 0})
    rep = verify_oqhybe(C, 2)
    assert rep.passed


def test_alpha_invariance_formal_lambda():
    rep = check_alpha_invariance(twisted_instance(), 2)
    assert rep.passed, rep.to_json()


# configuration errors --------------------------------------------------------


def test_uncovered_pair_raises():
    C = plain_instance(drop=("d", "d"))
    P = C.H.pres
    with pytest.raises(CobraidingError, match=r"\(d, d\)"):
        eval_R(C, P.gen("d"), P.gen("d"))


def test_form_memo_is_per_host():
    # one form on two hosts whose coproducts of g differ: R(g, gh) goes
    # through the coproduct of g, so a value cached for one host is
    # wrong for the other
    FT = ScalarField(("t",))
    P = Presentation("gh", [], FT, max_degree=3)
    form = CobraidingForm(
        P, {("g", "g"): 1, ("g", "h"): "t", ("h", "g"): 2, ("h", "h"): 1},
        {"g": 1, "h": 1}, {"g": 1, "h": 1})
    hosts = [CobraidedHomBialgebra(
        HomBialgebra(P, {"g": {legs: 1}, "h": {("h", "h"): 1}}), form)
        for legs in (("g", "g"), ("g", "h"))]
    g, gh = P.gen("g"), P.poly({"gh": 1})
    assert eval_R(hosts[0], g, gh) == FT.parse("t")
    assert eval_R(hosts[1], g, gh) == FT.parse("2*t")


def test_gen_table_outside_units_rejected():
    P = qm2_presentation(F)
    units = {"a": 1, "b": 0, "c": 0}
    with pytest.raises(PresentationError, match="d"):
        CobraidingForm(P, {("d", "d"): 1}, units, dict(units))


@pytest.mark.parametrize("pair", [("d", "d"), ("a", "d"), ("d", "a")])
def test_gen_table_outside_units_message(pair):
    P = qm2_presentation(F)
    units = {"a": 1, "b": 0, "c": 0}
    with pytest.raises(PresentationError) as exc:
        CobraidingForm(P, {("a", "a"): 1, pair: 1}, units, dict(units))
    assert str(exc.value) == \
        "gen_table mentions d but the unit tables do not cover it"


def test_one_sided_unit_column_is_accepted_and_uncovered():
    # b has a value against the unit in the first slot only
    P = qm2_presentation(F)
    form = CobraidingForm(P, {("a", "a"): 1}, {"a": 1, "b": 0}, {"a": 1})
    assert form.covered == {P.word("a")[0]}
    assert not form.total


def _qm2_tables():
    return {"gen_table": {(l, r): R_NONZERO.get((l, r), 0)
                          for l in "abcd" for r in "abcd"},
            "unit_left": dict(UNIT_ROW), "unit_right": dict(UNIT_ROW)}


@pytest.mark.parametrize("table", ["gen_table", "unit_left", "unit_right"])
def test_one_missing_entry_makes_the_form_partial(table):
    P = qm2_presentation(F)
    tables = _qm2_tables()
    assert CobraidingForm(P, **tables).total
    if table == "gen_table":
        del tables["gen_table"]["b", "c"]
    else:
        # without d's unit value the form refuses the pairs mentioning d
        del tables[table]["d"]
        with pytest.raises(PresentationError, match="mentions d"):
            CobraidingForm(P, **tables)
        tables["gen_table"] = {k: v for k, v in tables["gen_table"].items()
                               if "d" not in k}
    form = CobraidingForm(P, **tables)
    assert not form.total
    assert len(form.covered) == (4 if table == "gen_table" else 3)


@pytest.mark.parametrize("extra, units, message", [
    ({((0,), (0,)): 7}, {}, r"gen_table key \(\(0,\), \(0,\)\) repeats"),
    ({}, {(0,): 3}, r"unit_left key \(0,\) repeats"),
])
def test_form_refuses_two_keys_for_one_entry(extra, units, message):
    P = qm2_presentation(F)
    table = {(l, r): R_NONZERO.get((l, r), 0) for l in "abcd" for r in "abcd"}
    with pytest.raises(PresentationError, match=message):
        CobraidingForm(P, {**table, **extra}, {**UNIT_ROW, **units},
                       dict(UNIT_ROW))


def test_form_over_another_field_refused():
    P_t = qm2_presentation(ScalarField(("t",)))
    H = HomBialgebra(qm2_presentation(F), DELTA, name="qm2")
    with pytest.raises(PresentationError, match="different scalar fields"):
        CobraidedHomBialgebra(H, qm2_form(P_t))


def test_form_over_another_presentation_refused():
    # the free algebra on a, b, c, d carries the same coproduct
    H = HomBialgebra(Presentation("abcd", [], F), DELTA, name="free")
    with pytest.raises(PresentationError, match="underlying presentation"):
        CobraidedHomBialgebra(H, qm2_form(qm2_presentation(F)))


@pytest.mark.parametrize("table, units", [
    ({("ab", "a"): 1}, {}),
    ({}, {"1": 1}),
], ids=["gen_table", "unit_left"])
def test_form_key_that_is_not_a_generator_refused(table, units):
    P = qm2_presentation(F)
    with pytest.raises(PresentationError, match="is not a generator"):
        CobraidingForm(P, table, {**UNIT_ROW, **units}, dict(UNIT_ROW))


# serialization ---------------------------------------------------------------


def test_form_json_round_trip():
    C = plain_instance()
    data = C.form.to_json()
    back = CobraidingForm.from_json(data, C.H.pres)
    assert back.to_json() == data
    assert back.table == C.form.table
    assert back.table[(), ()] == F.one


def test_unit_unit_is_the_value_on_the_unit_pair():
    P = qm2_presentation(F)
    form = CobraidingForm(P, _qm2_tables()["gen_table"], dict(UNIT_ROW),
                          dict(UNIT_ROW), unit_unit="q")
    C = CobraidedHomBialgebra(HomBialgebra(P, DELTA, name="qm2"), form)
    assert eval_R(C, P.unit(1), P.unit(1)) == F.parse("q")
    data = form.to_json()
    assert data["unit_unit"] == "t^2"
    assert CobraidingForm.from_json(data, P).to_json() == data


QM2_FORM_JSON = (
    '{"gen_table": ['
    '{"left": "a", "right": "a", "value": "t"}, '
    '{"left": "a", "right": "b", "value": "0"}, '
    '{"left": "a", "right": "c", "value": "0"}, '
    '{"left": "a", "right": "d", "value": "1/t"}, '
    '{"left": "b", "right": "a", "value": "0"}, '
    '{"left": "b", "right": "b", "value": "0"}, '
    '{"left": "b", "right": "c", "value": "(t^4 - 1)/t^3"}, '
    '{"left": "b", "right": "d", "value": "0"}, '
    '{"left": "c", "right": "a", "value": "0"}, '
    '{"left": "c", "right": "b", "value": "0"}, '
    '{"left": "c", "right": "c", "value": "0"}, '
    '{"left": "c", "right": "d", "value": "0"}, '
    '{"left": "d", "right": "a", "value": "1/t"}, '
    '{"left": "d", "right": "b", "value": "0"}, '
    '{"left": "d", "right": "c", "value": "0"}, '
    '{"left": "d", "right": "d", "value": "t"}], '
    '"unit_left": {"a": "1", "b": "0", "c": "0", "d": "1"}, '
    '"unit_right": {"a": "1", "b": "0", "c": "0", "d": "1"}, '
    '"unit_unit": "1"}')

Z5_FORM_JSON = (
    '{"gen_table": [{"left": "g", "right": "g", "value": "zeta"}], '
    '"unit_left": {"g": "1"}, "unit_right": {"g": "1"}, "unit_unit": "1"}')


@pytest.mark.parametrize("build, text", [
    pytest.param(lambda: plain_instance().form, QM2_FORM_JSON, id="qm2"),
    pytest.param(lambda: zn_instance().form, Z5_FORM_JSON, id="z5"),
])
def test_form_json_text(build, text):
    assert json.dumps(build().to_json()) == text


def test_form_json_refuses_a_repeated_pair():
    C = plain_instance()
    data = C.form.to_json()
    data["gen_table"].append(dict(data["gen_table"][0], value="5"))
    with pytest.raises(PresentationError, match="gen_table repeats"):
        CobraidingForm.from_json(data, C.H.pres)


def test_instance_json_contains_form():
    C = twisted_instance()
    data = C.to_json()
    assert data["alpha_power"] == 0
    assert {"gen_table", "unit_left", "unit_right"} <= set(data["cobraiding"])


# group bialgebras -------------------------------------------------------------


F5 = ScalarField((), cyclotomic_order=5)


def zn_pres():
    return Presentation("g", [("ggggg", {"1": 1})], F5, max_degree=4,
                        name="zn5")


def zn_instance(k=2):
    P = zn_pres()
    base = HomBialgebra(P, {"g": {("g", "g"): 1}}, name="zn5")
    H = twist_hom_bialgebra(base, {"g": {"g" * k: 1}})
    form = CobraidingForm(P, {("g", "g"): "zeta"}, {"g": 1}, {"g": 1})
    return CobraidedHomBialgebra(H, form)


def test_cyclic_group_bicharacter():
    C = zn_instance()
    P = C.H.pres
    zeta = F5.zeta()
    for i in range(5):
        for j in range(5):
            got = word_value(C, P.word("g" * i if i else "1"),
                             P.word("g" * j if j else "1"))
            assert got == zeta ** (i * j)


def test_bicharacter_product_law():
    C = zn_instance()
    P = C.H.pres
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                uv = P.word("g" * (i + j))
                w = P.word("g" * k)
                assert word_value(C, uv, w) == \
                    word_value(C, P.word("g" * i), w) * \
                    word_value(C, P.word("g" * j), w)


def test_cyclic_group_twisted_cobraided():
    rep = verify_cobraided(zn_instance(), 4)
    assert rep.passed, rep.to_json()


def test_power_twist_values():
    # k = 2: one extra twist squares both arguments, so the exponent
    # picks up a factor k^2 = 4; two twists give k^4 = 16 = 1 mod 5
    C = zn_instance()
    g = C.H.pres.word("g")
    zeta = F5.zeta()
    C1 = twist_R_power(C, 1)
    assert C1.word_pair_value(g, g) == zeta ** 4
    C2 = twist_R_power(C1, 1)
    assert C2.alpha_power == 2
    assert C2.word_pair_value(g, g) == zeta


def test_power_twist_closure():
    C1 = twist_R_power(zn_instance(), 1)
    assert verify_cobraided(C1, 3).passed
    assert verify_oqhybe(C1, 2).passed


# reports do not depend on the history of the scalar product table ------------


def z13_instance(field):
    """Z/13 twisted by g -> g^12, with R(g, g) = zeta_13."""
    P = Presentation("g", [("g" * 13, {"1": 1})], field, max_degree=12,
                     name="z13")
    H = twist_hom_bialgebra(HomBialgebra(P, {"g": {("g", "g"): 1}}),
                            {"g": {"g" * 12: 1}})
    form = CobraidingForm(P, {("g", "g"): "zeta"}, {"g": 1}, {"g": 1})
    return CobraidedHomBialgebra(H, form)


def _reports(instances, degree, churn):
    """The report texts of verify_cobraided, verify_oqhybe,
    check_alpha_invariance and verify_hom_bialgebra on each instance.
    churn() runs before each verifier and before every 257th form value
    read through word_pair_value."""
    out = []
    for C in instances:
        value, calls = C.word_pair_value, count(1)

        def word_pair_value(m, n, value=value, calls=calls):
            if next(calls) % 257 == 0:
                churn()
            return value(m, n)

        C.word_pair_value = word_pair_value
        for verify in (verify_cobraided, verify_oqhybe,
                       check_alpha_invariance):
            churn()
            out.append(json.dumps(verify(C, degree).to_json(),
                                  sort_keys=True))
        churn()
        out.append(json.dumps(verify_hom_bialgebra(C.H, min(degree, 3))
                              .to_json(), sort_keys=True))
    return out


@pytest.mark.parametrize("field,make,degree,witnesses", [
    (ScalarField(("t", "lambda")),
     lambda f: [twisted_instance(f),
                twisted_instance(f, override={("a", "a"): "q"})], 2, True),
    (ScalarField((), cyclotomic_order=13),
     lambda f: [z13_instance(f), twist_R_power(z13_instance(f), 1)], 12,
     False),
], ids=["twisted_qm2", "z13"])
def test_reports_do_not_depend_on_the_product_table(field, make, degree,
                                                    witnesses):
    products, fresh = field._products, count(10 ** 6)
    emptied = []

    def unrelated_products():
        # as many new one-term products as the table holds, so it is
        # emptied at least once and left holding none of the instance's
        size = len(products)
        for _ in range(_PRODUCTS_SIZE):
            field.from_int(next(fresh)) * field.from_int(3)
            emptied.append(len(products) < size)
            size = len(products)

    products.clear()
    cold = _reports(make(field), degree, lambda: None)
    assert products
    warm = _reports(make(field), degree, lambda: None)
    churned = _reports(make(field), degree, unrelated_products)
    assert any(emptied)
    assert warm == cold and churned == cold
    # the corrupted form's reports render failing values as witnesses
    assert any('"fail"' in text for text in cold) == witnesses


def test_alpha_zero_image_multiplies_by_identity():
    # alpha_value multiplies by the coefficient of an alpha^0 image, which
    # is the field's one, so each such product returns its other operand
    for C in (twisted_instance(), zn_instance()):
        one = C.H.pres.field.one
        for w in C.H.pres.basis_level(2):
            ((u, c),) = C._alpha_terms(0, w)
            assert u == w and c is one
            for _, cv in C._alpha_terms(1, w):
                assert c * cv is cv and cv * c is cv


def test_power_twist_zero_is_identity():
    C = zn_instance()
    assert twist_R_power(C, 0) is C


def test_power_twist_refuses_a_negative_power():
    with pytest.raises(ValueError, match="nonnegative"):
        twist_R_power(zn_instance(), -1)


@pytest.mark.parametrize("build", [plain_instance, zn_instance],
                         ids=["identity", "injective"])
def test_no_injectivity_witness_when_alpha_is_injective(build):
    assert alpha_kernel_witness(build().H) is None


def test_alpha_invariance_mod_square():
    # R twisted through alpha_k is alpha-invariant exactly when k^2 = 1
    # mod n; k = 2 fails, k = 4 passes
    rep = check_alpha_invariance(zn_instance(k=2), 3)
    assert not rep.passed
    rep = check_alpha_invariance(zn_instance(k=4), 3)
    assert rep.passed, rep.to_json()


def test_kernel_search_stops_at_the_first_empty_piece():
    # in Z/3 every word of length 3 or more reduces to a shorter one, so
    # the search ends at degree 3, below max_degree
    F3 = ScalarField((), cyclotomic_order=3)
    P = Presentation("g", [("ggg", {"1": 1})], F3, max_degree=5, name="z3")
    assert P.basis_level(3) == []
    H = twist_hom_bialgebra(HomBialgebra(P, {"g": {("g", "g"): 1}}),
                            {"g": {"gg": 1}})
    C = CobraidedHomBialgebra(H, CobraidingForm(P, {("g", "g"): "zeta"},
                                                {"g": 1}, {"g": 1}))
    assert alpha_kernel_witness(H) is None
    assert verify_cobraided(twist_R_power(C, 1), 2).passed


def test_injectivity_witness():
    FQ = ScalarField(("t",))
    P = Presentation("x", [("xx", {})], FQ, max_degree=4)
    H = HomBialgebra(P, {"x": {("x", "x"): 1}}, {"x": {"1": 0}}, twisted=True)
    form = CobraidingForm(P, {("x", "x"): 1}, {"x": 0}, {"x": 0})
    C = CobraidedHomBialgebra(H, form)
    assert alpha_kernel_witness(H) == {"degree": 1, "element": "(1)*x"}
    with pytest.raises(InjectivityError):
        twist_R_power(C, 1)


def test_injectivity_witness_is_the_first_kernel_vector():
    # alpha(x) = alpha(y) = x kills y - x; the witness is that vector,
    # not the sum of the kernel basis
    P = Presentation("xy", [], ScalarField(("t",)), max_degree=3)
    H = HomBialgebra(P, {"x": {("x", "x"): 1}, "y": {("y", "y"): 1}},
                     {"x": {"x": 1}, "y": {"x": 1}}, twisted=True)
    assert alpha_kernel_witness(H) == {"degree": 1,
                                       "element": "(-1)*x + (1)*y"}


# the integers as a group -------------------------------------------------------


def test_integer_group_power_twist():
    FQ = ScalarField(("t",))
    P = Presentation(("u", "v"), [("uv", {"1": 1}), ("vu", {"1": 1})], FQ,
                     max_degree=4, name="zq")
    base = HomBialgebra(P, {"u": {("u", "u"): 1}, "v": {("v", "v"): 1}})
    H = twist_hom_bialgebra(base, {"u": {"uuu": 1}, "v": {"vvv": 1}})
    form = CobraidingForm(
        P, {("u", "u"): "q", ("u", "v"): "q^-1",
            ("v", "u"): "q^-1", ("v", "v"): "q"},
        {"u": 1, "v": 1}, {"u": 1, "v": 1})
    C = CobraidedHomBialgebra(H, form)
    q = FQ.parse("q")
    assert eval_R(C, P.poly({"uu": 1}), P.gen("v")) == q ** -2
    C1 = twist_R_power(C, 1)
    assert C1.word_pair_value(P.word("u"), P.word("u")) == q ** 9
    assert verify_cobraided(C1, 3).passed


# the form on alpha images against repeated alpha_poly -------------------------


def reference_alpha_value(C, m, n, i, j):
    """R(alpha^(p+i) m, alpha^(p+j) n), p = C.alpha_power: the bilinear
    sum of word_value over the two images, each built by alpha_poly."""
    H = C.H
    pres = H.pres
    u = NCPoly(pres, {m: pres.field.one}, _trusted=True)
    v = NCPoly(pres, {n: pres.field.one}, _trusted=True)
    for _ in range(C.alpha_power + i):
        u = H.alpha_poly(u)
    for _ in range(C.alpha_power + j):
        v = H.alpha_poly(v)
    total = pres.field.zero
    for wm, cm in u.terms.items():
        for wn, cn in v.terms.items():
            total = total + cm * cn * word_value(C, wm, wn)
    return total


@pytest.mark.parametrize("power", [0, 1])
@pytest.mark.parametrize("build", [twisted_instance, zn_instance],
                         ids=["twisted_qm2", "z5k2"])
def test_alpha_value_matches_repeated_alpha_poly(build, power):
    C = twist_R_power(build(), power)
    assert C.alpha_power == power
    words = covered_basis(C, 2)
    for i in range(3):
        for j in range(3):
            for m in words:
                for n in words:
                    assert C.alpha_value(m, n, i, j) == \
                        reference_alpha_value(C, m, n, i, j), (m, n, i, j)


# the sparse form recursion against the dense one ------------------------------


def reference_eval(C, m, n, second_first, memo):
    """The form recursion that evaluates and multiplies every factor of
    every term, zeros included: the dense reference for cobraid._eval."""
    key = (m, n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    H = C.H
    field = H.pres.field
    if len(m) <= 1 and len(n) <= 1:
        val = C.form.table.get(key)
        if val is None:
            text = H.pres.word_text
            raise CobraidingError(
                f"no configured value for the pair ({text(m)}, {text(n)})")
    elif not m:
        val = (reference_eval(C, (), n[1:], second_first, memo)
               * reference_eval(C, (), n[:1], second_first, memo))
    elif not n:
        val = (reference_eval(C, m[:1], (), second_first, memo)
               * reference_eval(C, m[1:], (), second_first, memo))
    elif len(m) == 1 or (second_first and len(n) > 1):
        # comultiply the first slot against the second slot's leading
        # generator: R(x, hz) = sum R(x1, z) R(x2, h)
        h, z = n[0], n[1:]
        val = field.zero
        for (w1, w2), c in H.untwisted_delta_word(m).terms.items():
            val = val + c * (reference_eval(C, w1, z, second_first, memo)
                             * reference_eval(C, w2, (h,), second_first, memo))
    else:
        # peel the first slot's leading generator, comultiply the
        # second slot: R(g m', n) = sum R(g, n1) R(m', n2)
        g, rest = m[0], m[1:]
        val = field.zero
        for (w1, w2), c in H.untwisted_delta_word(n).terms.items():
            val = val + c * (reference_eval(C, (g,), w1, second_first, memo)
                             * reference_eval(C, rest, w2, second_first, memo))
    memo[key] = val
    return val


def reference_word_pair_value(C, m, n, memo):
    """C.word_pair_value through reference_eval, power twist included."""
    H = C.H
    pres = H.pres
    u = NCPoly(pres, {m: pres.field.one}, _trusted=True)
    v = NCPoly(pres, {n: pres.field.one}, _trusted=True)
    for _ in range(C.alpha_power):
        u = H.alpha_poly(u)
        v = H.alpha_poly(v)
    total = pres.field.zero
    for wm, cm in u.terms.items():
        for wn, cn in v.terms.items():
            total = total + (cm * cn) * reference_eval(C, wm, wn, False, memo)
    return total


SPARSE_CASES = {
    "plain_qm2": plain_instance,
    "twisted_qm2": twisted_instance,
    "z5k2": zn_instance,
    "z5k2_power_1": lambda: twist_R_power(zn_instance(), 1),
    "twisted_qm2_power_1": lambda: twist_R_power(twisted_instance(), 1),
}


@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_sparse_recursion_matches_dense_reference(name):
    C = SPARSE_CASES[name]()
    assert C.form.total
    basis = covered_basis(C, 3)
    for second_first in (False, True):
        memo = {}
        for m in basis:
            for n in basis:
                assert word_value(C, m, n) == \
                    reference_eval(C, m, n, second_first, memo)
    if C.alpha_power:
        memo = {}
        for m in basis:
            for n in basis:
                assert C.word_pair_value(m, n) == \
                    reference_word_pair_value(C, m, n, memo)


def _refusals(C, evaluate, degree=2):
    """The word pairs of degree <= degree on which evaluate raises
    CobraidingError, with the message; one fresh instance per pair."""
    words = C().H.pres.graded_basis(degree)
    out = {}
    for m in words:
        for n in words:
            try:
                evaluate(C(), m, n)
            except CobraidingError as exc:
                out[m, n] = str(exc)
    return out


PARTIAL_FORMS = {
    "dd_dropped": (lambda: plain_instance(drop=("d", "d")), 84),
    "d_uncovered": (lambda: _uncovered_d_instance(), 184),
}


def _uncovered_d_instance():
    P = qm2_presentation(F)
    units = {"a": 1, "b": 0, "c": 0}
    table = {(l, r): R_NONZERO.get((l, r), 0) for l in "abc" for r in "abc"}
    return CobraidedHomBialgebra(HomBialgebra(P, DELTA, name="qm2"),
                                 CobraidingForm(P, table, units, dict(units)))


@pytest.mark.parametrize("name", sorted(PARTIAL_FORMS))
@pytest.mark.parametrize("second_first", [False])
def test_partial_form_raises_where_the_dense_recursion_raises(name,
                                                              second_first):
    # word_value refuses where the dense recursion in its own order does
    build, count = PARTIAL_FORMS[name]
    assert not build().form.total
    got = _refusals(build, word_value)
    want = _refusals(build, lambda C, m, n: reference_eval(C, m, n,
                                                           second_first, {}))
    assert got == want
    assert len(got) == count


# the first pair each verifier reads and finds missing, by degree 1, 2, 3
PARTIAL_REFUSALS = {
    ("d_uncovered", "cobraided"): ["(1, d)", "(a, d)", "(a, d)"],
    ("d_uncovered", "oqhybe"): ["(1, d)"] * 3,
    ("dd_dropped", "cobraided"): ["(d, d)"] * 3,
    ("dd_dropped", "oqhybe"): ["(d, d)"] * 3,
}


@pytest.mark.parametrize("name, verifier", sorted(PARTIAL_REFUSALS))
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_verifiers_refuse_a_partial_form(name, verifier, degree):
    run = {"cobraided": verify_cobraided, "oqhybe": verify_oqhybe}[verifier]
    pair = PARTIAL_REFUSALS[name, verifier][degree - 1]
    with pytest.raises(CobraidingError) as exc:
        run(PARTIAL_FORMS[name][0](), degree)
    assert str(exc.value) == f"no configured value for the pair {pair}"


# Sweedler's H_4: forms that split the two product expansions -----------------


FH4 = ScalarField(("s", "lambda"))


def h4_instance(twisted, override=None):
    """Sweedler's H_4 on g < x, with gg = 1, xx = 0 and xg = -gx, g
    group-like and Delta x = x (x) 1 + g (x) x; twisted by x -> lambda x
    when asked.  The form is r(g, g) = -1, r(g, x) = r(x, g) = 0 and
    r(x, x) = s, with the entries of override replacing values."""
    P = Presentation("gx", [("gg", {"1": 1}), ("xx", {}), ("xg", {"gx": -1})],
                     FH4, name="h4")
    H = HomBialgebra(P, {"g": {("g", "g"): 1},
                         "x": {("x", "1"): 1, ("g", "x"): 1}}, name="h4")
    if twisted:
        H = twist_hom_bialgebra(H, {"g": {"g": 1}, "x": {"x": "lambda"}},
                                name="h4_t")
    table = {("g", "g"): -1, ("g", "x"): 0, ("x", "g"): 0, ("x", "x"): "s"}
    table.update(override or {})
    units = {"g": 1, "x": 0}
    return CobraidedHomBialgebra(H, CobraidingForm(P, table, dict(units),
                                                   dict(units)))


FIRST, SECOND, COMMUTATION = ("first_slot_product_expansion",
                              "second_slot_product_expansion",
                              "braided_commutation")
FORMS = ("operator_ybe_first_form", "operator_ybe_second_form")

# each form and the checks it fails at degree 2.  r(g, x) = 1 and
# r(x, g) = 1 are mirror images: each fails one expansion only, so an
# expansion transposed in the wrong direction swaps their verdicts
H4_FORMS = {
    "true": ({}, set()),
    "gx=1": ({("g", "x"): 1}, {SECOND, COMMUTATION, *FORMS}),
    "xg=1": ({("x", "g"): 1}, {FIRST, COMMUTATION, *FORMS}),
    "gg=1": ({("g", "g"): 1}, {FIRST, SECOND, COMMUTATION}),
}


def _h4(twisted, name):
    return lambda: h4_instance(twisted, H4_FORMS[name][0])


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("name", sorted(H4_FORMS))
def test_h4_form_verdicts(name, twisted):
    C = _h4(twisted, name)()
    assert verify_hom_bialgebra(C.H, 3).passed
    failed = {c.name for verify in (verify_cobraided, verify_oqhybe)
              for c in verify(C, 2).failures()}
    assert failed == H4_FORMS[name][1]


# the contractions against the loops they replaced ----------------------------


def _power_twisted_zn(k):
    return lambda: twist_R_power(zn_instance(k), 1)


def _corrupted(pair, value):
    return lambda: twisted_instance(override={pair: value})


def _z13(power):
    return lambda: twist_R_power(
        z13_instance(ScalarField((), cyclotomic_order=13)), power)


REFERENCE_CASES = [
    ("qm2", twisted_instance, "oqhybe", 1),
    ("qm2", twisted_instance, "cobraided", 2),
    ("dd=q_half^-1", _corrupted(("d", "d"), "q_half^-1"), "oqhybe", 2),
    ("dd=q", _corrupted(("d", "d"), "q"), "oqhybe", 2),
    ("dd=2", _corrupted(("d", "d"), "2"), "oqhybe", 2),
    ("aa=q", _corrupted(("a", "a"), "q"), "cobraided", 3),
    ("aa=q^-1", _corrupted(("a", "a"), "q^-1"), "cobraided", 3),
    ("aa=2", _corrupted(("a", "a"), "2"), "cobraided", 3),
    ("aa=q_half^3", _corrupted(("a", "a"), "q_half^3"), "cobraided", 3),
    ("bc=0", _corrupted(("b", "c"), 0), "cobraided", 2),
    ("plain_qm2", plain_instance, "cobraided", 2),
    ("plain_qm2", plain_instance, "oqhybe", 2),
    ("z5k4", _power_twisted_zn(4), "cobraided", 3),
    ("z5k4", _power_twisted_zn(4), "oqhybe", 2),
    ("z5k2", _power_twisted_zn(2), "cobraided", 3),
    ("z5k2", _power_twisted_zn(2), "oqhybe", 2),
    ("z13", _z13(0), "cobraided", 12),
    ("z13", _z13(0), "oqhybe", 12),
    ("z13_power_1", _z13(1), "cobraided", 12),
    ("z13_power_1", _z13(1), "oqhybe", 12),
] + [(f"h4_{'twisted' if twisted else 'plain'}_{name}", _h4(twisted, name),
      verifier, 2)
     for twisted in (False, True) for name in sorted(H4_FORMS)
     for verifier in ("cobraided", "oqhybe")]


@pytest.mark.parametrize(
    "build, verifier, degree",
    [pytest.param(b, v, d, id=f"{name}-{v}-{d}")
     for name, b, v, d in REFERENCE_CASES])
def test_contractions_match_reference_loops(build, verifier, degree):
    new, old = {"oqhybe": (verify_oqhybe, reference_verify_oqhybe),
                "cobraided": (verify_cobraided,
                              reference_verify_cobraided)}[verifier]
    got = json.dumps(new(build(), degree).to_json())
    assert got == json.dumps(old(build(), degree).to_json())


def reference_verify_cobraided(C, degree):
    """verify_cobraided as basis-triple loops that expand every sum for
    every triple."""
    H = C.H
    pres = H.pres
    rep = Report(f"cobraided axioms on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    one = pres.field.one
    mono = [NCPoly(pres, {w: one}, _trusted=True) for w in basis]
    names = [pres.word_text(w) for w in basis]
    n = len(basis)

    alpha_of = [H.alpha_poly(p) for p in mono]
    delta_of = [list(H.delta(p).terms.items()) for p in mono]
    prod = {}

    def get_prod(i, j):
        p = prod.get((i, j))
        if p is None:
            p = prod[(i, j)] = element_product(H, mono[i], mono[j])
        return p

    with timed() as tm:
        witness = None
        for k in range(n):
            az = alpha_of[k]
            dz = delta_of[k]
            for i in range(n):
                ax = alpha_of[i]
                for j in range(n):
                    left = eval_R(C, get_prod(i, j), az)
                    right = pres.field.zero
                    for (z1, z2), c in dz:
                        right = right + c * (eval_R(C, ax, {z1: 1})
                                             * eval_R(C, alpha_of[j], {z2: 1}))
                    if left != right:
                        witness = {"x": names[i], "y": names[j], "z": names[k],
                                   "left": render(left), "right": render(right)}
                        break
                if witness:
                    break
            if witness:
                break
    rep.add("first_slot_product_expansion", "fail" if witness else "pass",
            witness=witness, degree=degree, wall_time=tm.seconds)

    with timed() as tm:
        witness = None
        for i in range(n):
            ax = alpha_of[i]
            dx = delta_of[i]
            for j in range(n):
                ay = alpha_of[j]
                for k in range(n):
                    left = eval_R(C, ax, get_prod(j, k))
                    right = pres.field.zero
                    for (x1, x2), c in dx:
                        right = right + c * (eval_R(C, {x1: 1}, alpha_of[k])
                                             * eval_R(C, {x2: 1}, ay))
                    if left != right:
                        witness = {"x": names[i], "y": names[j], "z": names[k],
                                   "left": render(left), "right": render(right)}
                        break
                if witness:
                    break
            if witness:
                break
    rep.add("second_slot_product_expansion", "fail" if witness else "pass",
            witness=witness, degree=degree, wall_time=tm.seconds)

    with timed() as tm:
        witness = None
        pw = {}

        def wprod(u, v):
            p = pw.get((u, v))
            if p is None:
                pu = NCPoly(pres, {u: one}, _trusted=True)
                pv = NCPoly(pres, {v: one}, _trusted=True)
                p = pw[(u, v)] = element_product(H, pu, pv)
            return p

        for i in range(n):
            dx = delta_of[i]
            for j in range(n):
                dy = delta_of[j]
                left = pres.zero_poly()
                right = pres.zero_poly()
                for (x1, x2), cx in dx:
                    for (y1, y2), cy in dy:
                        c = cx * cy
                        lc = c * C.word_pair_value(x2, y2)
                        if not lc.is_zero():
                            left = left + wprod(y1, x1).scale(lc)
                        rc = c * C.word_pair_value(x1, y1)
                        if not rc.is_zero():
                            right = right + wprod(x2, y2).scale(rc)
                if left != right:
                    witness = {"x": names[i], "y": names[j],
                               "left": left.render(), "right": right.render()}
                    break
            if witness:
                break
    rep.add("braided_commutation", "fail" if witness else "pass",
            witness=witness, degree=degree, wall_time=tm.seconds)
    return rep


def reference_verify_oqhybe(C, degree):
    """verify_oqhybe as basis-triple loops that expand the full
    |Delta x| |Delta y| |Delta z| sum for every triple."""
    H = C.H
    pres = H.pres
    field = pres.field
    rep = Report(f"operator Yang-Baxter identities on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    one = field.one
    mono = [NCPoly(pres, {w: one}, _trusted=True) for w in basis]
    names = [pres.word_text(w) for w in basis]
    n = len(basis)
    delta_of = [list(H.delta(p).terms.items()) for p in mono]

    ra = {}

    def r_plain_alpha(m, w):
        # R(m, alpha(w)) for monomial words
        v = ra.get((m, w))
        if v is None:
            v = ra[(m, w)] = eval_R(C, {m: 1}, H.alpha_word(w))
        return v

    la = {}

    def r_alpha_plain(w, m):
        # R(alpha(w), m)
        v = la.get((w, m))
        if v is None:
            v = la[(w, m)] = eval_R(C, H.alpha_word(w), {m: 1})
        return v

    with timed() as tm:
        witness = None
        for i in range(n):
            dx = delta_of[i]
            for j in range(n):
                dy = delta_of[j]
                for k in range(n):
                    dz = delta_of[k]
                    left = field.zero
                    right = field.zero
                    for (x1, x2), cx in dx:
                        for (y1, y2), cy in dy:
                            cxy = cx * cy
                            for (z1, z2), cz in dz:
                                c = cxy * cz
                                left = left + c * (
                                    r_plain_alpha(x1, y1)
                                    * r_plain_alpha(x2, z1)
                                    * C.word_pair_value(y2, z2))
                                right = right + c * (
                                    C.word_pair_value(y1, z1)
                                    * r_plain_alpha(x1, z2)
                                    * r_plain_alpha(x2, y2))
                    if left != right:
                        witness = {"x": names[i], "y": names[j], "z": names[k],
                                   "left": render(left), "right": render(right)}
                        break
                if witness:
                    break
            if witness:
                break
    rep.add("operator_ybe_first_form", "fail" if witness else "pass",
            witness=witness, degree=degree, wall_time=tm.seconds)

    with timed() as tm:
        witness = None
        for i in range(n):
            dx = delta_of[i]
            for j in range(n):
                dy = delta_of[j]
                for k in range(n):
                    dz = delta_of[k]
                    left = field.zero
                    right = field.zero
                    for (x1, x2), cx in dx:
                        for (y1, y2), cy in dy:
                            cxy = cx * cy
                            for (z1, z2), cz in dz:
                                c = cxy * cz
                                left = left + c * (
                                    C.word_pair_value(x1, y1)
                                    * r_alpha_plain(x2, z1)
                                    * r_alpha_plain(y2, z2))
                                right = right + c * (
                                    r_alpha_plain(y1, z1)
                                    * r_alpha_plain(x1, z2)
                                    * C.word_pair_value(x2, y2))
                    if left != right:
                        witness = {"x": names[i], "y": names[j], "z": names[k],
                                   "left": render(left), "right": render(right)}
                        break
                if witness:
                    break
            if witness:
                break
    rep.add("operator_ybe_second_form", "fail" if witness else "pass",
            witness=witness, degree=degree, wall_time=tm.seconds)
    return rep
