import json
from functools import cache, reduce
from itertools import count, product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from homq import cobraid
from homq.scalars import _PRODUCTS_SIZE, ScalarField, parse_scalar, render
from homq.ncpoly import NCPoly, Presentation, PresentationError, _bump, _expand
from homq.hombialg import (HomBialgebra, _combine, twist_hom_bialgebra,
                           verify_hom_bialgebra)
from homq.report import Report
from homq.cobraid import (CobraidingForm, CobraidedHomBialgebra,
                          CobraidingError, InjectivityError, word_value,
                          verify_cobraided, verify_oqhybe,
                          check_alpha_invariance, twist_R_power,
                          alpha_kernel_witness, _dot, _fold)
from quantum_matrices import (ALPHA, DELTA, R_NONZERO, UNIT_ROW,
                              qm2_form, qm2_presentation)
from reference_products import element_product, eval_R
from scalar_counts import count_trivial_operations


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
    assert eval_R(C, P.gen("a"), P.gen("a")) == parse_scalar("q_half", F)
    assert eval_R(C, P.gen("b"), P.gen("c")) == \
        parse_scalar("q_half^-1 * (q - q^-1)", F)
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
            + parse_scalar("q", F) * eval_R(C, P.gen("b"), P.gen("c")))
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
    # the form is refused when it is built, not when the pair is read
    with pytest.raises(CobraidingError) as exc:
        plain_instance(drop=("d", "d"))
    assert str(exc.value) == "no configured value for the pair (d, d)"


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
    assert eval_R(hosts[0], g, gh) == parse_scalar("t", FT)
    assert eval_R(hosts[1], g, gh) == parse_scalar("2*t", FT)
    # two forms on one bialgebra: the word values and the recursion's
    # folds of the true form must not leak into the host of R(a, a) = 2,
    # compared with a host on a bialgebra of its own
    P = qm2_presentation(F)
    H, H2 = (twist_hom_bialgebra(HomBialgebra(P, DELTA, name="qm2"), ALPHA)
             for _ in range(2))
    bad = qm2_form(P, override={("a", "a"): 2})
    first, second = (CobraidedHomBialgebra(H, form)
                     for form in (qm2_form(P), bad))
    basis = P.graded_basis(3)
    for m in basis:
        for n in basis:
            word_value(first, m, n)
    assert first._fold_cache
    fresh = CobraidedHomBialgebra(H2, bad)
    for m in basis:
        for n in basis:
            assert word_value(second, m, n) == word_value(fresh, m, n), (m, n)
    assert word_value(second, (0, 0), (0,)) != word_value(first, (0, 0), (0,))


def test_power_twist_shares_the_memos_of_its_base():
    # word values, recursion folds and alpha^k images depend only on the
    # bialgebra and the form; the pair values depend on the power
    C = zn_instance()
    C1 = twist_R_power(C, 1)
    C2 = twist_R_power(C1, 1)
    for D in (C1, C2):
        assert D._word_cache is C._word_cache
        assert D._fold_cache is C._fold_cache
        assert D._alpha_cache is C._alpha_cache
    assert len({id(D._value_cache) for D in (C, C1, C2)}) == 3


def test_gen_table_outside_units_rejected():
    P = qm2_presentation(F)
    units = {"a": 1, "b": 0, "c": 0}
    with pytest.raises(CobraidingError, match=r"\(1, d\)"):
        CobraidingForm(P, {("d", "d"): 1}, units, dict(units))


@pytest.mark.parametrize("pair", [("d", "d"), ("a", "d"), ("d", "a")])
def test_gen_table_outside_units_message(pair):
    # the pairs are scanned left word outer, each in the order 1, a, ...,
    # d: the unit row lacks d before any generator pair is reached
    P = qm2_presentation(F)
    units = {"a": 1, "b": 0, "c": 0}
    with pytest.raises(CobraidingError) as exc:
        CobraidingForm(P, {("a", "a"): 1, pair: 1}, units, dict(units))
    assert str(exc.value) == "no configured value for the pair (1, d)"


def test_one_sided_unit_column_is_refused():
    # b has a value against the unit in the first slot only, and c none
    P = qm2_presentation(F)
    with pytest.raises(CobraidingError) as exc:
        CobraidingForm(P, {("a", "a"): 1}, {"a": 1, "b": 0}, {"a": 1})
    assert str(exc.value) == "no configured value for the pair (1, c)"


def _qm2_tables():
    return {"gen_table": {(l, r): R_NONZERO.get((l, r), 0)
                          for l in "abcd" for r in "abcd"},
            "unit_left": dict(UNIT_ROW), "unit_right": dict(UNIT_ROW)}


# each table of M_q(2)'s form, the entry deleted from it and the pair
# refused without it
MISSING_ENTRIES = {"gen_table": (("b", "c"), "(b, c)"),
                   "unit_left": ("d", "(1, d)"),
                   "unit_right": ("d", "(d, 1)")}


@pytest.mark.parametrize("table", sorted(MISSING_ENTRIES))
def test_one_missing_entry_is_refused(table):
    # by the constructor, and by from_json on a serialized form read back
    # from outside
    P = qm2_presentation(F)
    tables = _qm2_tables()
    data = json.loads(json.dumps(CobraidingForm(P, **tables).to_json()))
    entry, pair = MISSING_ENTRIES[table]
    del tables[table][entry]
    if table == "gen_table":
        data[table] = [row for row in data[table]
                       if (row["left"], row["right"]) != entry]
    else:
        del data[table][entry]
    for build in (lambda: CobraidingForm(P, **tables),
                  lambda: CobraidingForm.from_json(data, P)):
        with pytest.raises(CobraidingError) as exc:
            build()
        assert str(exc.value) == f"no configured value for the pair {pair}"


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


@pytest.mark.parametrize("key", [("a", "b", "b"), ("a",), "aab"],
                         ids=["three_slots", "one_slot", "three_letters"])
def test_form_refuses_a_gen_table_key_without_two_slots(key):
    P = qm2_presentation(F)
    table = {**_qm2_tables()["gen_table"], key: 1}
    with pytest.raises(PresentationError) as exc:
        CobraidingForm(P, table, dict(UNIT_ROW), dict(UNIT_ROW))
    assert str(exc.value) == (f"gen_table key {key!r}: expected 2 slots, "
                              f"got {len(key)}")


def test_form_reads_a_two_letter_gen_table_key_as_two_slots():
    P = qm2_presentation(F)
    tables = _qm2_tables()
    letters = {l + r: c for (l, r), c in tables["gen_table"].items()}
    assert CobraidingForm(P, letters, dict(UNIT_ROW), dict(UNIT_ROW)).table \
        == CobraidingForm(P, **tables).table


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
    assert eval_R(C, P.unit(1), P.unit(1)) == parse_scalar("q", F)
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


def test_repr_gives_the_name_and_the_power():
    C1 = twist_R_power(zn_instance(), 1)
    assert repr(zn_instance()) == "<CobraidedHomBialgebra zn5_twisted>"
    assert repr(C1) == "<CobraidedHomBialgebra zn5_twisted, power 1>"
    assert repr(twist_R_power(C1, 1)) == \
        "<CobraidedHomBialgebra zn5_twisted, power 2>"


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
    # the coefficient of an alpha^0 image is the field's one, so
    # alpha_value makes no product by it, and one would return its other
    # operand
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


@pytest.mark.parametrize("power", [-1, 1.5, "1"])
def test_instance_refuses_a_power_that_is_not_a_nonnegative_int(power):
    C = zn_instance()
    with pytest.raises(ValueError) as exc:
        CobraidedHomBialgebra(C.H, C.form, alpha_power=power)
    assert str(exc.value) == \
        f"alpha_power must be a nonnegative int, got {power!r}"


def test_power_twist_refuses_a_power_that_is_not_an_int():
    with pytest.raises(ValueError, match="got 1.5$"):
        twist_R_power(zn_instance(), 1.5)


@pytest.mark.parametrize("power", [-1, 1.5, "1"])
def test_power_twist_refuses_a_bad_power_before_the_kernel_search(
        monkeypatch, power):
    def search(H):
        raise AssertionError("the kernel search ran")

    C = zn_instance()
    monkeypatch.setattr(cobraid, "alpha_kernel_witness", search)
    with pytest.raises(ValueError) as exc:
        twist_R_power(C, power)
    assert str(exc.value) == \
        f"alpha_power must be a nonnegative int, got {power!r}"


@pytest.mark.parametrize("verify, degree", [(verify_oqhybe, -3),
                                             (check_alpha_invariance, -2)])
def test_negative_degree_is_refused(verify, degree):
    with pytest.raises(ValueError, match="nonnegative"):
        verify(twisted_instance(), degree)


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


def test_kernel_search_builds_each_level_once(monkeypatch):
    # Z/13 at max degree 12 has 12 nonempty levels past the unit, and one
    # walk builds each of them once
    P = Presentation.__dict__["_next_level"]
    calls = []

    def counted(self, level):
        calls.append(len(level))
        return P(self, level)

    H = z13_instance(ScalarField((), cyclotomic_order=13)).H
    monkeypatch.setattr(Presentation, "_next_level", counted)
    assert alpha_kernel_witness(H) is None
    assert calls == [1] * 12


def test_kernel_search_refuses_a_negative_max_degree():
    P = Presentation("g", [("ggg", {"1": 1})], F5, max_degree=-1)
    H = HomBialgebra(P, {"g": {("g", "g"): 1}})
    with pytest.raises(ValueError, match="nonnegative"):
        alpha_kernel_witness(H)


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
    q = parse_scalar("q", FQ)
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
    words = C.H.pres.graded_basis(2)
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
        val = C.form.table[key]
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
        for (w1, w2), c in H.untwisted_delta_word(m).items():
            val = val + c * (reference_eval(C, w1, z, second_first, memo)
                             * reference_eval(C, w2, (h,), second_first, memo))
    else:
        # peel the first slot's leading generator, comultiply the
        # second slot: R(g m', n) = sum R(g, n1) R(m', n2)
        g, rest = m[0], m[1:]
        val = field.zero
        for (w1, w2), c in H.untwisted_delta_word(n).items():
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


# tables that are not cobraiding forms, each with whether the two rule
# orders of the recursion give different values on it at degree 3.  The
# qm2-fail pool and H_4's mirror forms keep the orders equal; an
# off-diagonal entry of M_q(2) or r(g, g) = 2 on H_4 splits them, so the
# sparse recursion must follow the dense one's order there
CORRUPTED_CASES = {
    "qm2_aa=2": (lambda: twisted_instance(override={("a", "a"): "2"}), False),
    "qm2_dd=q": (lambda: twisted_instance(override={("d", "d"): "q"}), False),
    "qm2_bc=0": (lambda: twisted_instance(override={("b", "c"): 0}), False),
    "h4_gx=1": (lambda: h4_instance(False, {("g", "x"): 1}), False),
    "h4_xg=1": (lambda: h4_instance(False, {("x", "g"): 1}), False),
    "qm2_ab=1": (lambda: twisted_instance(override={("a", "b"): 1}), True),
    "qm2_ca=1": (lambda: twisted_instance(override={("c", "a"): 1}), True),
    "h4_gg=2": (lambda: h4_instance(False, {("g", "g"): 2}), True),
}


@pytest.mark.parametrize("name",
                         sorted(SPARSE_CASES) + sorted(CORRUPTED_CASES))
def test_sparse_recursion_matches_dense_reference(name):
    build, splits = CORRUPTED_CASES.get(name, (SPARSE_CASES.get(name), False))
    C = build()
    basis = C.H.pres.graded_basis(3)
    for second_first in (False, True):
        memo = {}
        wrong = [(m, n) for m in basis for n in basis
                 if word_value(C, m, n)
                 != reference_eval(C, m, n, second_first, memo)]
        assert bool(wrong) == (second_first and splits), wrong[:3]
    if C.alpha_power:
        memo = {}
        for m in basis:
            for n in basis:
                assert C.word_pair_value(m, n) == \
                    reference_word_pair_value(C, m, n, memo)


# two partial tables on M_q(2) and the first pair each lacks
PARTIAL_FORMS = {
    "dd_dropped": (lambda: plain_instance(drop=("d", "d")), "(d, d)"),
    "d_uncovered": (lambda: _uncovered_d_instance(), "(1, d)"),
}


def _uncovered_d_instance():
    P = qm2_presentation(F)
    units = {"a": 1, "b": 0, "c": 0}
    table = {(l, r): R_NONZERO.get((l, r), 0) for l in "abc" for r in "abc"}
    return CobraidedHomBialgebra(HomBialgebra(P, DELTA, name="qm2"),
                                 CobraidingForm(P, table, units, dict(units)))


@pytest.mark.parametrize("name, verifier",
                         [(name, verifier) for name in sorted(PARTIAL_FORMS)
                          for verifier in ("cobraided", "oqhybe")])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_verifiers_refuse_a_partial_form(name, verifier, degree):
    # the form is refused when it is built, before the verifier runs, at
    # the same pair whatever the verifier and the degree
    run = {"cobraided": verify_cobraided, "oqhybe": verify_oqhybe}[verifier]
    build, pair = PARTIAL_FORMS[name]
    with pytest.raises(CobraidingError) as exc:
        run(build(), degree)
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
    basis = pres.graded_basis(degree)
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
            witness=witness, degree=degree)

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
            witness=witness, degree=degree)

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
            left = pres.unit(0)
            right = pres.unit(0)
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
            witness=witness, degree=degree)
    return rep


def reference_verify_oqhybe(C, degree):
    """verify_oqhybe as basis-triple loops that expand the full
    |Delta x| |Delta y| |Delta z| sum for every triple."""
    H = C.H
    pres = H.pres
    field = pres.field
    rep = Report(f"operator Yang-Baxter identities on {C.name or 'instance'}")
    basis = pres.graded_basis(degree)
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
            witness=witness, degree=degree)

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
            witness=witness, degree=degree)
    return rep


def _per_case_report(title, degree, basis, names, checks):
    """A Report of plain per-case loops: each check is (name, letters,
    sides, show), its cases the tuples of basis words in lexicographic
    order, the first letter outermost, and sides(*case) gives both sides
    of one case; the first case whose sides differ is the witness, its
    sides rendered by show."""
    rep = Report(title)
    for name, letters, sides, show in checks:
        witness = None
        for case in product(basis, repeat=len(letters)):
            left, right = sides(*case)
            if left != right:
                witness = {s: names[w] for s, w in sorted(zip(letters, case))}
                witness.update(left=show(left), right=show(right))
                break
        rep.add(name, "fail" if witness else "pass", witness=witness,
                degree=degree)
    return rep


def _axiom_readers(C, degree):
    """The basis, its names, the coproduct legs of a word, the instance
    product of two words as an NCPoly, and R(alpha^i m, alpha^j n) on
    words, each read once."""
    H = C.H
    pres = H.pres
    basis = pres.graded_basis(degree)
    one = pres.field.one
    delta = cache(lambda w: list(H.delta_word(w).items()))
    times = cache(lambda u, v: element_product(
        H, NCPoly(pres, {u: one}, _trusted=True),
        NCPoly(pres, {v: one}, _trusted=True)))
    r_alpha = cache(C.alpha_value)
    return basis, {w: pres.word_text(w) for w in basis}, delta, times, r_alpha


def axiom_verify_cobraided(C, degree):
    """verify_cobraided read case by case off its docstring's axiom
    texts, with the instance form R(a, b) = C.word_pair_value(a, b) and
    R(alpha^i a, alpha^j b) = C.alpha_value(a, b, i, j)."""
    basis, names, delta, times, R_a = _axiom_readers(C, degree)
    R = C.word_pair_value
    zero = C.H.pres.field.zero

    def first_expansion(z, x, y):
        # R(xy, alpha z) = sum R(alpha x, z1) R(alpha y, z2)
        return (sum((c * R_a(w, z, 0, 1)
                     for w, c in times(x, y).terms.items()), zero),
                sum((c * R_a(x, z1, 1, 0) * R_a(y, z2, 1, 0)
                     for (z1, z2), c in delta(z)), zero))

    def second_expansion(x, y, z):
        # R(alpha x, yz) = sum R(x1, alpha z) R(x2, alpha y)
        return (sum((c * R_a(x, w, 1, 0)
                     for w, c in times(y, z).terms.items()), zero),
                sum((c * R_a(x1, z, 0, 1) * R_a(x2, y, 0, 1)
                     for (x1, x2), c in delta(x)), zero))

    def commutation(x, y):
        # sum y1 x1 R(x2, y2) = sum R(x1, y1) x2 y2
        pres = C.H.pres
        left = right = pres.unit(0)
        for (x1, x2), cx in delta(x):
            for (y1, y2), cy in delta(y):
                left = left + times(y1, x1).scale(cx * cy * R(x2, y2))
                right = right + times(x2, y2).scale(cx * cy * R(x1, y1))
        return left, right

    return _per_case_report(
        f"cobraided axioms on {C.name or 'instance'}", degree, basis, names,
        [("first_slot_product_expansion", "zxy", first_expansion, render),
         ("second_slot_product_expansion", "xyz", second_expansion, render),
         ("braided_commutation", "xy", commutation, NCPoly.render)])


def axiom_verify_oqhybe(C, degree):
    """verify_oqhybe read case by case off its docstring's axiom texts; a
    term is dropped once one factor is zero."""
    basis, names, delta, _, R_a = _axiom_readers(C, degree)
    R = C.word_pair_value
    zero = C.H.pres.field.zero

    def form(f, g, h):
        # sum f(x1, y1) g(x2, z1) h(y2, z2) = sum h(y1, z1) g(x1, z2) f(x2, y2)
        def sides(x, y, z):
            left = right = zero
            for (x1, x2), cx in delta(x):
                for (y1, y2), cy in delta(y):
                    u, v = f(x1, y1), f(x2, y2)
                    for (z1, z2), cz in delta(z):
                        c = cx * cy * cz
                        if u and (a := g(x2, z1)):
                            left = left + c * u * a * h(y2, z2)
                        if v and (b := g(x1, z2)):
                            right = right + c * h(y1, z1) * b * v
            return left, right
        return sides

    def alpha_first(a, b):
        return R_a(a, b, 1, 0)

    def alpha_second(a, b):
        return R_a(a, b, 0, 1)

    return _per_case_report(
        f"operator Yang-Baxter identities on {C.name or 'instance'}", degree,
        basis, names,
        # R(x1, alpha y1) R(x2, alpha z1) R(y2, z2)
        [("operator_ybe_first_form", "xyz",
          form(alpha_second, alpha_second, R), render),
         # R(x1, y1) R(alpha x2, z1) R(alpha y2, z2)
         ("operator_ybe_second_form", "xyz",
          form(R, alpha_first, alpha_first), render)])


# the corrupted forms of the benchmark's qm2-fail pool
QM2_FAIL_FORMS = ([(("a", "a"), v) for v in ("q", "q^-1", "2", "q_half^3")]
                  + [(("d", "d"), v) for v in ("q_half^-1", "q", "2")]
                  + [(("b", "c"), 0)])
AXIOM_CASES = ([("qm2", twisted_instance, 2), ("z13", _z13(0), 12)]
               + [(f"{l}{r}={v}", _corrupted((l, r), v), 2)
                  for (l, r), v in QM2_FAIL_FORMS])


@pytest.mark.parametrize("verifier, oracle", [
    (verify_cobraided, axiom_verify_cobraided),
    (verify_oqhybe, axiom_verify_oqhybe)], ids=["cobraided", "oqhybe"])
@pytest.mark.parametrize("build, degree", [
    pytest.param(b, d, id=name) for name, b, d in AXIOM_CASES])
def test_row_verifiers_match_the_axiom_texts(build, degree, verifier,
                                             oracle):
    assert verifier(build(), degree).to_json() == \
        oracle(build(), degree).to_json()


# no trivial Scalar arithmetic in the contractions ---------------------------


@pytest.mark.parametrize("build, degree", [
    pytest.param(twisted_instance, 2, id="twisted_qm2"),
    pytest.param(_z13(0), 12, id="z13")])
def test_verifiers_add_no_zero_and_multiply_by_no_one(build, degree,
                                                      monkeypatch):
    # from a cold instance, so the form recursion and the word images
    # are counted too
    C = build()
    counts = count_trivial_operations(monkeypatch)
    reports = [verify(C, degree) for verify in
               (verify_cobraided, verify_oqhybe, check_alpha_invariance)]
    monkeypatch.undo()
    assert counts["mul"] > 1000
    assert counts["add trivial"] == counts["mul trivial"] == 0
    assert reports[0].to_json() == \
        axiom_verify_cobraided(build(), degree).to_json()
    assert reports[1].to_json() == \
        axiom_verify_oqhybe(build(), degree).to_json()
    assert reports[2].passed


def test_twisted_qm2_verifiers_hash_no_scalar(monkeypatch):
    # the product tables store coefficients as they come, and no other
    # memo of a verifier is keyed by a Scalar
    C = twisted_instance()
    counts = count_trivial_operations(monkeypatch)
    reports = [verify_hom_bialgebra(C.H, 2), verify_cobraided(C, 2),
               verify_oqhybe(C, 2)]
    monkeypatch.undo()
    assert counts["mul"] > 1000 and counts["hash"] == 0
    assert all(rep.passed for rep in reports)


def test_z13_verifiers_compare_no_scalar_by_value(monkeypatch):
    # equal one-term products are one object, so every row comparison of
    # _scan (list ==) and _unzip (dict ==) succeeds by identity
    C = _z13(0)()
    counts = count_trivial_operations(monkeypatch)
    reports = [verify_cobraided(C, 12), verify_oqhybe(C, 12)]
    monkeypatch.undo()
    assert counts["mul"] > 1000 and counts["eq"] == 0
    assert reports[0].to_json() == \
        axiom_verify_cobraided(_z13(0)(), 12).to_json()
    assert reports[1].to_json() == \
        axiom_verify_oqhybe(_z13(0)(), 12).to_json()


# the contraction helpers against multiplying and adding every term; the
# values include the zero and one of F and equal values of a second field
# object equal to F, whose zero and one are not F's objects
F_EQUAL = ScalarField(("t", "lambda"))
VALUE_TEXTS = ("0", "1", "-1", "t", "2*t/lambda", "t/(t + lambda)",
               "t - lambda")
VALUES = [parse_scalar(text, field) for field in (F, F_EQUAL)
          for text in VALUE_TEXTS]
value = st.sampled_from(VALUES)
key = st.integers(0, 3)


def _naive_sum(terms):
    """The dict key -> sum of the values of terms, zero sums dropped."""
    out = {}
    for k, v in terms:
        out[k] = out.get(k, F.zero) + v
    return {k: v for k, v in out.items() if v}


def test_value_pool_holds_both_fields_zero_and_one():
    assert VALUES[0] is F.zero and VALUES[1] is F.one
    assert F_EQUAL == F and F_EQUAL is not F
    assert VALUES[len(VALUE_TEXTS)] is F_EQUAL.zero is not F.zero
    assert VALUES[len(VALUE_TEXTS) + 1] is F_EQUAL.one is not F.one


@settings(max_examples=300, deadline=None)
@given(legs=st.lists(st.tuples(st.tuples(key, key), value), max_size=6),
       reads=st.lists(value, min_size=16, max_size=16), a=key, b=key)
def test_fold_and_dot_match_every_term(legs, reads, a, b):
    def read(x, leg):
        return reads[4 * x + leg]

    fold = _fold(legs, read, a, F)
    assert [(l2, u) for l2, u in fold if u] == [
        (l2, u) for (l1, l2), c in legs if (u := c * read(a, l1))]
    assert _dot(fold, read, b, F) == sum(
        (c * read(a, l1) * read(b, l2) for (l1, l2), c in legs), F.zero)
    pairs = [(l1, c) for (l1, _), c in legs]
    assert _dot(pairs, read, b, F) == sum(
        (c * read(b, l1) for l1, c in pairs), F.zero)


@settings(max_examples=300, deadline=None)
@given(c=value,
       slots=st.lists(st.lists(st.tuples(key, value), max_size=3),
                      max_size=3))
def test_expand_matches_every_term(c, slots):
    terms = _expand(c, slots)
    every = [(tuple(k for k, _ in legs), reduce(mul, (v for _, v in legs), c))
             for legs in product(*slots)]
    assert terms == every
    acc = {}
    for k, v in terms:
        _bump(acc, k, v)
    assert acc == _naive_sum(every)
    assert all(acc.values())


@settings(max_examples=300, deadline=None)
@given(table=st.dictionaries(st.tuples(key, key),
                             st.lists(st.tuples(key, value), max_size=3)),
       terms=st.lists(st.tuples(key, key, value, value), max_size=6))
def test_combine_matches_every_term(table, terms):
    def prod(u, v):
        return tuple(table.get((u, v), ()))

    raw = _combine(prod, terms, F.one)
    assert raw == _naive_sum((w, a * b * cw) for u, v, a, b in terms
                             for w, cw in prod(u, v))
    assert all(raw.values())
