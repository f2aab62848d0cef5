import heapq
import operator
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from homq.scalars import ScalarField, parse_scalar
from homq.ncpoly import (Presentation, PresentationError, NCPoly,
                         TensorElement, _bump, _linear, generator_table,
                         word_key, word_map)
from homq.cobraid import (CobraidedHomBialgebra, CobraidingForm,
                          check_alpha_invariance, verify_cobraided,
                          verify_oqhybe)
from homq.comodule import (ComoduleAlgebra, plane_comodule_algebra,
                           verify_comodule, verify_comodule_hom_algebra)
from homq.hombialg import HomBialgebra, verify_hom_bialgebra, verify_morphism
from quantum_matrices import (DELTA, QM2_RULES, R_NONZERO, UNIT_ROW,
                              qm2_presentation)
from reference_products import map_slots


F = ScalarField(("t",))


def plane_standard():
    return Presentation("xy", [("yx", {"xy": "q"})], F, name="plane")


def plane_fermionic():
    rules = [("xx", {}), ("yy", {}), ("yx", {"xy": "-q^-1"})]
    return Presentation("xy", rules, F, name="fplane")


# frozen rewriting facts -------------------------------------------------------


def test_single_swap():
    P = qm2_presentation(F)
    p = P.poly({"ba": 1})
    assert p == P.poly({"ab": "q"})


def test_diagonal_swap_makes_two_terms():
    P = qm2_presentation(F)
    assert P.poly({"da": 1}) == P.poly({"ad": 1, "bc": "q - q^-1"})


def test_plane_double_swap():
    P = plane_standard()
    p = P.poly({"yxx": 1})
    assert p == P.poly({"xxy": "q^2"})


def test_multiply_already_normal():
    P = plane_standard()
    assert P.gen("x") * P.gen("y") == P.poly({"xy": 1})


def test_multiply_fermionic_swap():
    P = plane_fermionic()
    assert P.gen("y") * P.gen("x") == P.poly({"xy": "-q^-1"})


def test_nilpotent_square_is_zero():
    P = plane_fermionic()
    assert (P.gen("x") * P.gen("x")).is_zero()


def test_longer_word_mixed():
    # dcb: dc -> q cd, then cdb -> q c bd -> q^2 bcd
    P = qm2_presentation(F)
    assert P.poly({"dcb": 1}) == P.poly({"bcd": "q^2"})


def test_da_squared_expands():
    # (da)(da) against the independently expanded product of normal forms
    P = qm2_presentation(F)
    da = P.poly({"da": 1})
    direct = P.poly({"dada": 1})
    assert da * da == direct


# rule validation ---------------------------------------------------------------


def test_rule_must_decrease_order():
    with pytest.raises(PresentationError):
        Presentation("ab", [("ab", {"ba": 1})], F)


def test_rule_rhs_same_word_rejected():
    with pytest.raises(PresentationError):
        Presentation("ab", [("ba", {"ba": 2})], F)


def test_unknown_generator_rejected():
    P = plane_standard()
    with pytest.raises(PresentationError):
        P.poly({"xz": 1})


def test_duplicate_generators_rejected():
    with pytest.raises(PresentationError):
        Presentation("aa", [], F)


def test_longer_rhs_rejected():
    with pytest.raises(PresentationError):
        Presentation("ab", [("ba", {"aba": 1})], F)


@pytest.mark.parametrize("build, message", [
    (lambda: Presentation(["a", ""], [], F), "bad generator name ''"),
    (lambda: Presentation(["a*b"], [], F), r"bad generator name 'a\*b'"),
    (lambda: Presentation(["1"], [], F), "bad generator name '1'"),
    (lambda: Presentation("ab", [("1", {})], F), "empty rule left side"),
    (lambda: plane_standard().word((0, 2)), "generator index 2 out of range"),
    (lambda: Presentation("ab", [], F).word(["a", "z"]),
     "unknown generator 'z'$"),
    (lambda: plane_standard().poly({"x": ScalarField(("s",)).one}),
     "coefficient from a different field"),
    (lambda: plane_standard().poly({"x": 0.5}), "bad coefficient 0.5"),
    (lambda: plane_standard().gen("x") + plane_standard().gen("x"),
     "operands from different presentations"),
], ids=["empty_name", "star_name", "unit_name", "empty_lhs", "index_range",
        "unknown_name", "foreign_coefficient", "float_coefficient",
        "two_presentations"])
def test_presentation_refuses_bad_input(build, message):
    with pytest.raises(PresentationError, match=message):
        build()


# graded bases -----------------------------------------------------------------


def test_fermionic_basis_degree_2():
    P = plane_fermionic()
    words = [P.word_text(w) for w in P.graded_basis(2)]
    assert words == ["1", "x", "y", "xy"]


def test_standard_plane_basis_degree_2():
    P = plane_standard()
    words = [P.word_text(w) for w in P.graded_basis(2)]
    assert words == ["1", "x", "y", "xx", "xy", "yy"]


def test_qm2_basis_counts():
    # words a^i b^j c^k d^l: count of monomials of degree n in 4 commuting
    # variables, C(n+3,3)
    P = qm2_presentation(F)
    basis = P.graded_basis(3)
    by_deg = {}
    for w in basis:
        by_deg[len(w)] = by_deg.get(len(w), 0) + 1
    assert by_deg == {0: 1, 1: 4, 2: 10, 3: 20}
    assert all(P.normal_word(w) == {w: F.one} for w in basis)


def test_basis_is_graded_lex_sorted():
    P = qm2_presentation(F)
    basis = P.graded_basis(3)
    assert basis == sorted(basis, key=word_key)


# confluence -------------------------------------------------------------------


def test_qm2_confluent_at_4():
    res = qm2_presentation(F).check_local_confluence(4)
    assert res.passed
    assert res.checked > 0


def test_fermionic_confluent_at_4():
    assert plane_fermionic().check_local_confluence(4).passed


def contradictory():
    return Presentation("ab", [("ba", {"ab": 1}), ("ba", {"ab": 2})], F)


def test_contradictory_rules_fail():
    res = contradictory().check_local_confluence(4)
    assert not res.passed
    assert any(f["word"] == "ba" for f in res.failures)


def test_confluence_result_json_and_repr():
    # the shape in which a report of the certificate will print it
    res = contradictory().check_local_confluence(4)
    assert res.to_json() == {
        "degree": 4, "overlaps_checked": 2, "passed": False,
        "failures": [
            {"rule_pair": [0, 1], "word": "ba", "first": "(1)*ab",
             "second": "(2)*ab"},
            {"rule_pair": [1, 0], "word": "ba", "first": "(2)*ab",
             "second": "(1)*ab"}]}
    assert repr(res) == "<ConfluenceResult degree=4 checked=2 FAIL(2)>"
    res = plane_standard().check_local_confluence(3)
    assert res.to_json() == {"degree": 3, "overlaps_checked": 0,
                             "passed": True, "failures": []}
    assert repr(res) == "<ConfluenceResult degree=3 checked=0 pass>"


def special_rules(da_coef):
    # determinant-one quantum 2x2 with generator order b < c < a < d; the
    # consistent system needs da -> 1 + q*bc
    return [
        ("ab", {"ba": "q^-1"}),
        ("ac", {"ca": "q^-1"}),
        ("cb", {"bc": 1}),
        ("db", {"bd": "q"}),
        ("dc", {"cd": "q"}),
        ("ad", {"1": 1, "bc": "q^-1"}),
        ("da", {"1": 1, "bc": da_coef}),
    ]


def test_special_system_confluent_at_4():
    P = Presentation("bcad", special_rules("q"), F)
    assert P.check_local_confluence(4).passed


def naive_glq2():
    # M_q(2) plus a central D with bcD -> q*adD - q: not confluent, so the
    # regression fixture of a confluence certificate
    rules = (QM2_RULES + [("D" + g, {g + "D": 1}) for g in "abcd"]
             + [("bcD", {"adD": "q", "1": "-q"})])
    return Presentation("abcdD", rules, F, name="naive_glq2")


def test_naive_glq2_ambiguities():
    P = naive_glq2()
    res = P.check_local_confluence(3)
    assert res.passed and res.checked == 10
    res = P.check_local_confluence(4)
    assert res.checked == 17
    assert [(f["word"], f["rule_pair"]) for f in res.failures] == [
        ("cbcD", [2, 10]), ("dbcD", [3, 10]),
        ("bcDc", [10, 8]), ("bcDd", [10, 9])]


def _refusal_cases():
    """Every verifier call on a presentation that fails the certificate:
    M_q(2)'s coproduct on naive_glq2 with D grouplike and a total form,
    the standard plane over it, and M_q(2) coacting on a carrier whose
    two rules rewrite yx two ways."""
    P = naive_glq2()
    H = HomBialgebra(P, dict(DELTA, D={("D", "D"): 1}))
    units = dict(UNIT_ROW, D=1)
    C = CobraidedHomBialgebra(H, CobraidingForm(
        P, {(l, r): R_NONZERO.get((l, r), 0) for l in P.generators
            for r in P.generators}, units, units))
    M = plane_comodule_algebra(C, "standard")
    Q = qm2_presentation(F)
    host = HomBialgebra(Q, DELTA)
    carrier = Presentation("xy", [("yx", {"xy": 1}), ("yx", {"xy": 2})], F,
                           name="contradictory")
    N = ComoduleAlgebra(host, carrier, {"x": {("a", "x"): 1},
                                        "y": {("d", "y"): 1}})
    host_refusal = "naive_glq2 is not confluent: the ambiguity cbcD"
    carrier_refusal = "contradictory is not confluent: the ambiguity yx"
    return {
        "verify_hom_bialgebra": (lambda: verify_hom_bialgebra(H, 2),
                                 host_refusal),
        "verify_morphism": (lambda: verify_morphism(
            {g: {g: 1} for g in P.generators}, H), host_refusal),
        "verify_cobraided": (lambda: verify_cobraided(C, 2), host_refusal),
        "verify_oqhybe": (lambda: verify_oqhybe(C, 2), host_refusal),
        "check_alpha_invariance": (lambda: check_alpha_invariance(C, 2),
                                   host_refusal),
        "verify_comodule_host": (lambda: verify_comodule(M, 2),
                                 host_refusal),
        "verify_comodule_piece_host": (lambda: verify_comodule(M.piece(1)),
                                       host_refusal),
        "verify_comodule_hom_algebra_host": (
            lambda: verify_comodule_hom_algebra(M, 2), host_refusal),
        "verify_comodule_carrier": (lambda: verify_comodule(N, 2),
                                    carrier_refusal),
        "verify_comodule_hom_algebra_carrier": (
            lambda: verify_comodule_hom_algebra(N, 2), carrier_refusal),
        "piece_carrier": (lambda: N.piece(1), carrier_refusal),
    }


@pytest.mark.parametrize("case", _refusal_cases())
def test_non_confluent_presentation_is_refused(case):
    # on a non-confluent presentation no verdict means anything: unrefused,
    # the degree-2 sweep of verify_hom_bialgebra on naive_glq2 reported
    # hom_associativity and product_coproduct_compatibility failures
    call, message = _refusal_cases()[case]
    with pytest.raises(PresentationError) as err:
        call()
    assert str(err.value).startswith(message)


def test_non_confluent_refusal_names_the_first_ambiguity():
    P = naive_glq2()
    H = HomBialgebra(P, dict(DELTA, D={("D", "D"): 1}))
    for _ in range(2):             # the certificate computed, then kept
        with pytest.raises(PresentationError) as err:
            verify_hom_bialgebra(H, 1)
        assert str(err.value) == (
            "naive_glq2 is not confluent: the ambiguity cbcD of rules 2 "
            "and 10 has the normal forms (1)*bccD and (-t^2)*c + "
            "(t^4)*acdD")
    assert P._certificate.degree == 5
    assert [f["word"] for f in P._certificate.failures] == [
        "cbcD", "dbcD", "bcDc", "bcDd"]


def test_wrong_inverse_scale_detected():
    # the overlap word ada resolves two ways that disagree when the da
    # rule carries q^-1 instead of q
    P = Presentation("bcad", special_rules("q^-1"), F)
    res = P.check_local_confluence(4)
    assert not res.passed
    assert any(f["word"] in ("ada", "dad") for f in res.failures)


# normal forms by prefix extension --------------------------------------------
#
# normal_word extends the longest memoised prefix of a word one generator at
# a time and reduces only words x + g with x normal.  On a confluent
# presentation that must give what reducing the whole word gives, whatever
# was asked before.  Each fixture is certified confluent first, with
# Bergman's diamond lemma at degree 2*max_lhs - 1.


def z5_presentation():
    return Presentation("g", [("ggggg", {"1": 1})],
                        ScalarField((), cyclotomic_order=5))


NORMAL_FORM_FIXTURES = {
    "qm2": lambda: qm2_presentation(F),
    "standard_plane": plane_standard,
    "fermionic_plane": plane_fermionic,
    "z5": z5_presentation,
    "special": lambda: Presentation("bcad", special_rules("q"), F),
}


def reference_reduce(P, w):
    """The reference for Presentation._reduce: a heap pops the graded-lex
    largest pending word first, and every word is scanned from position
    0."""

    def _heap_key(w):
        # min-heap entry that pops the graded-lex LARGEST word first
        return (-len(w), tuple(-x for x in w), w)

    out = {}
    pending = {w: P.field.one}
    heap = [_heap_key(w)]
    while heap:
        u = heapq.heappop(heap)[2]
        c = pending.pop(u, None)
        if c is None or c.is_zero():
            continue
        if u != w:
            sub = P._nf_cache.get(u)
            if sub is not None:
                for v, sc in sub.items():
                    _bump(out, v, c * sc)
                continue
        m = P._find_match(u)
        if m is None:
            _bump(out, u, c)
            continue
        i, lw, rp = m
        pre, post = u[:i], u[i + len(lw):]
        for rw, rc in rp.items():
            v = pre + rw + post
            nc = c * rc
            acc = pending.get(v)
            if acc is None:
                if not nc.is_zero():
                    pending[v] = nc
                    heapq.heappush(heap, _heap_key(v))
            else:
                acc = acc + nc
                if acc.is_zero():
                    del pending[v]
                else:
                    pending[v] = acc
    return out


# every fixture above, and two that are not confluent
ALL_FIXTURES = dict(NORMAL_FORM_FIXTURES, naive_glq2=naive_glq2,
                    contradictory=contradictory)


def certified(make):
    P = make()
    max_lhs = max(len(lw) for lw, _ in P.rules)
    assert P.check_local_confluence(2 * max_lhs - 1).passed
    return P


def words_up_to(P, length):
    level, out = [()], [()]
    for _ in range(length):
        level = [w + (g,) for w in level for g in range(len(P.generators))]
        out.extend(level)
    return out


@pytest.mark.parametrize("make", NORMAL_FORM_FIXTURES.values(),
                         ids=NORMAL_FORM_FIXTURES.keys())
def test_normal_word_equals_whole_word_reduction(make):
    words = words_up_to(certified(make), 5)
    # the whole word reduced at once, on a presentation that has reduced
    # nothing before
    want = {w: reference_reduce(make(), w) for w in words}
    shuffled = list(words)
    random.Random(17).shuffle(shuffled)
    for order in (words, words[::-1], shuffled):
        P = make()
        assert {w: P.normal_word(w) for w in order} == want


@pytest.mark.parametrize("make", ALL_FIXTURES.values(),
                         ids=ALL_FIXTURES.keys())
def test_reduce_equals_reference_reduce(make):
    # the rewrite order is the reference's, so even a non-confluent
    # presentation must give the same dicts; _reduce memoises nothing, so
    # every word meets a presentation that has reduced nothing before
    P, Q = make(), make()
    for w in words_up_to(P, 5):
        assert P._reduce(w) == reference_reduce(Q, w)
    assert len(P._nf_cache) == len(Q._nf_cache) == 1


def history_dependent():
    # not confluent: baa rewrites to t*b by the first rule and to aaa
    # through the second, and bba rewrites to baa
    return Presentation("ab", [("baa", {"b": "t"}), ("ba", {"aa": 1})], F)


def test_normal_word_does_not_depend_on_what_was_asked_before():
    assert not history_dependent().check_local_confluence(5).passed
    P = history_dependent()
    b, aaa = P.word("b"), P.word("aaa")
    assert P.normal_word(P.word("bba")) == {b: parse_scalar("t", F)}
    # reducing bba passes through the pending word baa, whose normal
    # form, once known, must not stand in for further rewriting
    P = history_dependent()
    assert P.normal_word(P.word("baa")) == {aaa: F.one}
    assert P.normal_word(P.word("bba")) == {b: parse_scalar("t", F)}


def test_reduce_drops_a_pending_word_whose_coefficient_cancels():
    # bb -> -ab - ba, then ba -> -ab + b cancels the pending ab
    P = Presentation("ab", [("bb", {"ab": -1, "ba": -1}),
                            ("ba", {"ab": -1, "b": 1})], F)
    assert P.normal_word((1, 1)) == {(1,): F.from_int(-1)}


def assert_order_free(make, words):
    """normal_word of each word in three query orders equals its value on
    a presentation that has reduced nothing before."""
    want = {w: make().normal_word(w) for w in words}
    shuffled = list(words)
    random.Random(29).shuffle(shuffled)
    for order in (words, words[::-1], shuffled):
        P = make()
        assert {w: P.normal_word(w) for w in order} == want


HISTORY_FIXTURES = dict(ALL_FIXTURES, history_dependent=history_dependent)


@pytest.mark.parametrize("make", HISTORY_FIXTURES.values(),
                         ids=HISTORY_FIXTURES.keys())
def test_normal_word_does_not_depend_on_the_query_order(make):
    # confluent or not: a non-confluent presentation has no meaningful
    # normal form, but each word still gets one answer
    assert_order_free(make, words_up_to(make(), 4 if make is naive_glq2
                                        else 5))


@st.composite
def small_rules(draw):
    """1-4 rules over 2-3 generators, left sides of length 2-3, each right
    side up to two graded-lex smaller words."""
    gens = "abc"[:draw(st.integers(2, 3))]
    words = ["".join(w) for n in range(4) for w in product(gens, repeat=n)]
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = draw(st.sampled_from([w for w in words if len(w) >= 2]))
        smaller = [w for w in words if (len(w), w) < (len(lhs), lhs)]
        rhs = draw(st.lists(st.sampled_from(smaller), max_size=2,
                            unique=True))
        rules.append((lhs, {w: draw(st.sampled_from(["1", "-1", "2", "t"]))
                            for w in rhs}))
    return gens, rules


@settings(max_examples=100, deadline=None)
@given(small_rules())
# a presentation whose answers depended on the query order
@example(("ab", [("aab", {}), ("aa", {"": "1"}), ("aa", {}),
                 ("ba", {"ab": "1"})]))
def test_small_presentations_answer_in_any_query_order(gens_rules):
    gens, rules = gens_rules

    def make():
        return Presentation(gens, rules, F)

    assert_order_free(make, words_up_to(make(), 5))


@pytest.mark.parametrize("make", ALL_FIXTURES.values(),
                         ids=ALL_FIXTURES.keys())
def test_basis_levels_are_the_normal_words(make):
    P = make()
    words = words_up_to(P, 5)
    for d in range(6):
        assert P.basis_level(d) == sorted(
            (w for w in words
             if len(w) == d and P.normal_word(w) == {w: P.field.one}),
            key=word_key)


@pytest.mark.parametrize("degree", [-1, -3])
def test_basis_functions_refuse_a_negative_degree(degree):
    P = next(iter(ALL_FIXTURES.values()))()
    for basis in (P.basis_level, P.graded_basis):
        with pytest.raises(ValueError, match="nonnegative"):
            basis(degree)


def test_normal_word_scans_each_word_from_the_last_rewrite(monkeypatch):
    # a rewrite at i can only leave a match from i - max_lhs + 1 on, so
    # walking x left across y^1500 visits O(n) positions, not O(n^2)
    visits = 0
    find_match = Presentation._find_match

    def counting(self, u, start=0):
        nonlocal visits
        m = find_match(self, u, start)
        visits += (len(u) if m is None else m[0] + 1) - max(start, 0)
        return m

    monkeypatch.setattr(Presentation, "_find_match", counting)
    P = plane_standard()
    x, y = P.word("x"), P.word("y")
    assert P.normal_word(y * 1500 + x) == {x + y * 1500: P.coef("q^1500")}
    assert visits <= 10 * 1501


def test_standard_plane_closed_form():
    # y^n x^m = q^(nm) x^m y^n
    P = certified(plane_standard)
    x, y = P.word("x"), P.word("y")
    for n in range(7):
        for m in range(7):
            assert P.normal_word(y * n + x * m) == {
                x * m + y * n: P.coef(f"q^{n * m}")}


def test_normal_word_of_a_long_word():
    # longer than the default recursion limit
    P = plane_standard()
    x, y = P.word("x"), P.word("y")
    assert P.normal_word(y * 1500 + x) == {x + y * 1500: P.coef("q^1500")}


# invariants --------------------------------------------------------------------


def test_associativity_on_basis_words():
    P = qm2_presentation(F)
    basis = [NCPoly(P, {w: F.one}, _trusted=True) for w in P.graded_basis(2)]
    for u in basis:
        for v in basis:
            uv = u * v
            for w in basis:
                assert (uv) * w == u * (v * w)


def test_associativity_fermionic_degree_3():
    P = plane_fermionic()
    basis = [NCPoly(P, {w: F.one}, _trusted=True) for w in P.graded_basis(3)]
    for u in basis:
        for v in basis:
            uv = u * v
            for w in basis:
                assert (uv) * w == u * (v * w)


def rnd_poly(P, rng, max_terms=4, max_len=4):
    raw = {}
    gens = len(P.generators)
    for _ in range(rng.randrange(max_terms + 1)):
        w = tuple(rng.randrange(gens) for _ in range(rng.randrange(max_len + 1)))
        raw[w] = F.from_int(rng.randint(-4, 4))
    return NCPoly(P, raw)


def test_normal_form_idempotent_500():
    rng = random.Random(23)
    for P in (qm2_presentation(F), plane_fermionic()):
        for _ in range(250):
            p = rnd_poly(P, rng)
            again = NCPoly(P, p.terms)
            assert again == p
            assert all(P.normal_word(w) == {w: F.one} for w in p.terms)


def test_unit_laws():
    P = qm2_presentation(F)
    rng = random.Random(5)
    one = P.unit(1)
    for _ in range(20):
        p = rnd_poly(P, rng)
        assert one * p == p
        assert p * one == p
    assert P.poly({"1": 1}) == one
    assert one * one == one


def test_distributive_and_scale():
    P = qm2_presentation(F)
    rng = random.Random(9)
    for _ in range(30):
        p, q, r = (rnd_poly(P, rng) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
        assert p.scale(2) == p + p


def test_poly_int_and_scalar_operands_act_as_units():
    P = qm2_presentation(F)
    p = P.poly({"ab": 1, "d": "q"})
    q = parse_scalar("q", F)
    for c, s in ((2, F.from_int(2)), (q, q)):
        u = P.unit(s)
        assert p + c == p + u
        assert c + p == u + p
        assert p - c == p - u
        assert c - p == u - p
        assert p * c == p.scale(s)
        assert c * p == p.scale(s)
    assert P.unit(2) == 2
    assert 2 == P.unit(2)
    assert P.unit(q) == q
    assert q == P.unit(q)
    assert p != 2 and p != q
    assert P.unit(0) == 0
    for zero in (P.unit(0), p.scale(0), p * 0, 0 * p):
        assert zero.terms == {}
    # any other operand is refused
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, 0.5)
        with pytest.raises(TypeError):
            op(0.5, p)
    assert p != 0.5


def test_poly_powers():
    P = qm2_presentation(F)
    p = P.poly({"a": 1, "bc": "q"})
    assert p ** 0 == P.unit(1)
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    for bad in (-1, 2.0):
        with pytest.raises(TypeError):
            p ** bad


# tensor elements ---------------------------------------------------------------


def test_reprs_and_comparisons_with_other_types():
    P = plane_standard()
    assert repr(P) == "<Presentation plane: 2 generators, 1 rules>"
    assert repr(Presentation("x", [], F)) == \
        "<Presentation presentation: 1 generators, 0 rules>"
    t = P.tensor(2, {("x", "y"): "q"})
    assert repr(P.poly({"yx": 1})) == "NCPoly((t^2)*xy)"
    assert repr(t) == "TensorElement((t^2)*[x (x) y])"
    assert t.__eq__(P.gen("x")) is NotImplemented
    assert t != P.gen("x") and t != 2


def test_tensor_slots_are_normalized():
    P = qm2_presentation(F)
    t = P.tensor(2, {("ba", "1"): 1})
    assert t == P.tensor(2, {("ab", "1"): "q"})


def test_tensor_componentwise_product():
    P = qm2_presentation(F)
    t1 = P.tensor(2, {("b", "c"): 1})
    t2 = P.tensor(2, {("a", "a"): 1})
    assert t1 * t2 == P.tensor(2, {("ab", "ac"): "q^2"})


def test_tensor_drops_a_zero_coefficient():
    P = plane_standard()
    assert P.tensor(2, {("x", "y"): 0}).terms == {}


def test_tensor_arity_mismatch():
    P = plane_standard()
    with pytest.raises(PresentationError):
        P.tensor(2, {("x",): 1})


def test_map_slots_identity_and_split():
    P = plane_standard()

    def ident(w):
        return TensorElement((P,), {(w,): 1})

    def dbl(w):
        return TensorElement((P, P), {(w, w): 1})

    t = P.tensor(2, {("x", "y"): "q", ("1", "xy"): 1})
    assert map_slots(t, [ident, ident]) == t
    out = map_slots(t, [ident, dbl])
    assert len(out.slots) == 3
    assert out == P.tensor(3, {("x", "y", "y"): "q", ("1", "xy", "xy"): 1})


def test_tensor_render_orders_each_slot_graded_lex():
    P = plane_standard()
    t = P.tensor(2, {("xy", "1"): 1, ("y", "x"): 2, ("x", "xx"): 3})
    assert t.render() == "(3)*[x (x) xx] + (2)*[y (x) x] + (1)*[xy (x) 1]"


def test_tensor_slots_keep_their_presentations():
    P, Q = plane_standard(), qm2_presentation(F)
    t = map_slots(
        TensorElement((P, Q), {("x", "da"): 1}),
        [lambda w: TensorElement((P,), {(w,): 1}),
         lambda w: TensorElement((Q, Q), {(w, "b"): "q"})])
    assert t.slots == (P, Q, Q)
    assert t.render() == ("(t^2)*[x (x) ad (x) b] + "
                          "(t^4 - 1)*[x (x) bc (x) b]")
    with pytest.raises(PresentationError):
        t + Q.tensor(3, {})


def test_tensor_times_scalar_from_either_side():
    P = qm2_presentation(F)
    t = P.tensor(2, {("b", "c"): 1, ("da", "1"): "q"})
    q = parse_scalar("q", F)
    scaled = P.tensor(2, {("b", "c"): "q", ("da", "1"): "q^2"})
    assert t * q == scaled
    assert q * t == scaled
    assert t * 3 == 3 * t == t + t + t
    assert (t * 0).is_zero() and (F.zero * t).is_zero()
    for bad in (lambda: t * 0.5, lambda: 0.5 * t, lambda: t + 1):
        with pytest.raises(TypeError):
            bad()


def test_word_map_multiplicative():
    P = qm2_presentation(F)
    images = {P.word(g)[0]: P.poly({g: 2 if g == "a" else 1}).terms
              for g in "abcd"}
    image = word_map(P, images)

    assert image(P.word("ab")) == P.poly({"ab": 2}).terms
    img = _linear(P.poly({"da": 1}).terms.items(), image)
    assert img == P.poly({"ad": 2, "bc": "q - q^-1"}).terms


def reference_linear(terms, image, zero):
    """The sum of image(w).scale(c) in the element arithmetic."""
    total = zero
    for w, c in terms:
        total = total + image(w).scale(c)
    return total


def test_linear_matches_the_sum_of_scaled_images():
    P = qm2_presentation(F)
    images = [P.poly(t).terms for t in ({"da": 1}, {"ab": 2, "c": "q"},
                                        {"d": 1})]
    image_terms = word_map(P, images)

    def poly_image(w):
        return NCPoly(P, image_terms(w), _trusted=True)

    def tensor_image(w):
        return P.tensor(2, {(w, w): 1, (w, "1"): "q"})

    one, minus = F.one, F.from_int(-1)
    a, b, c = P.word("a"), P.word("b"), P.word("c")
    # a's image cancels after the third pair and comes back with the
    # fifth; b's cancels for good with the last
    terms = [(a, one), (b, one), (a, minus), (c, parse_scalar("t", F)),
             (a, F.from_int(3)), (b, minus)]
    for image, zero in ((poly_image, P.unit(0)),
                        (tensor_image, P.tensor(2, {}))):
        got = _linear(terms, lambda w: image(w).terms)
        want = reference_linear(terms, image, zero)
        assert type(got) is dict and got and got == want.terms


def test_linear_of_no_terms_is_the_zero_of_its_slots():
    """_linear of no terms is an empty dict, and each element map that it
    builds gives the zero of its own slots."""
    P, Q = qm2_presentation(F), plane_standard()
    got = _linear([], None)
    assert type(got) is dict and not got
    H = HomBialgebra(P, DELTA)
    got = H.alpha_poly(P.unit(0))
    assert type(got) is NCPoly and got.pres is P and got.is_zero()
    got = H.delta(P.unit(0))
    assert type(got) is TensorElement and got.slots == (P, P)
    assert got.is_zero()
    A = plane_comodule_algebra(H, "standard")
    zero = TensorElement((P, A.carrier), {})
    got = A.pair_product(zero, zero)
    assert type(got) is TensorElement and got.slots == (P, A.carrier)
    assert got.is_zero()


# serialization -----------------------------------------------------------------


def test_presentation_json_round_trip():
    P = qm2_presentation(F)
    data = P.to_json()
    Q = Presentation.from_json(data, F, name="qm2")
    assert Q.to_json() == data
    assert Q.poly({"da": 1}).to_json() == P.poly({"da": 1}).to_json()


def test_presentation_json_refuses_a_repeated_rhs_mono():
    data = qm2_presentation(F).to_json()
    rule = next(r for r in data["rules"] if r["lhs"] == "da")
    rule["rhs"].append(dict(rule["rhs"][0], coef="7"))
    with pytest.raises(PresentationError, match="rule 'da' repeats 'ad'"):
        Presentation.from_json(data, F)


def test_poly_json_round_trip():
    P = qm2_presentation(F)
    p = P.poly({"da": 1, "bc": "q^-1"})
    back = NCPoly.from_json(p.to_json(), P)
    assert back == p


def test_multichar_names_use_separator():
    G = ScalarField(("t",))
    P = Presentation(("K", "Kp"), [(("Kp", "K"), {"1": 1})], G)
    w = P.word("K*Kp")
    assert P.word_text(w) == "K*Kp"
    assert P.poly({"Kp*K": 1}) == P.unit(1)


def test_render_stable():
    P = qm2_presentation(F)
    p = P.poly({"da": 1})
    # scalar rendering is canonical in t with q = t^2
    assert p.render() == "(1)*ad + ((t^4 - 1)/t^2)*bc"


def test_poly_json_cancelling_terms():
    P = plane_standard()
    data = [{"mono": "yx", "coef": "1"}, {"mono": "yx", "coef": "-1"},
            {"mono": "x", "coef": "2"}]
    assert NCPoly.from_json(data, P) == P.poly({"x": 2})


# generator tables ---------------------------------------------------------------


def test_generator_table_dict_and_list_agree():
    P = plane_standard()
    by_name = generator_table(P, {"y": {"x": 1}, "x": {"y": "q"}}, "map")
    by_order = generator_table(P, [{"y": "q"}, P.gen("x")], "map")
    assert by_name == by_order == [P.poly({"y": "q"}).terms, P.gen("x").terms]
    assert all(type(img) is dict for img in by_name + by_order)


@pytest.mark.parametrize("table, message", [
    ({"xy": {"x": 1}, "y": {"y": 1}}, "map key 'xy' is not a generator"),
    ({"x": {"x": 1}}, "generator y missing from map"),
    ([{"x": 1}], "map has wrong length"),
    ({"x": {"x": 1}, (0,): {"x": 5}, "y": {"y": 1}},
     r"map key \(0,\) repeats generator x"),
])
def test_generator_table_rejects(table, message):
    with pytest.raises(PresentationError, match=message):
        generator_table(plane_standard(), table, "map")
