import operator
import os
import pathlib
import random
import subprocess
import sys
import time
import tokenize
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from homq import ratfunc, scalars
from homq.cobraid import CobraidedHomBialgebra, verify_cobraided
from homq.comodule import plane_comodule_algebra, verify_comodule
from homq.hombialg import HomBialgebra, twist_hom_bialgebra
from homq.scalars import (
    Scalar,
    ScalarError,
    ScalarField,
    ScalarSyntaxError,
    ScalarZeroDivision,
    UndeclaredVariable,
    ZetaUnavailable,
    _CycNumBase,
    _Parser,
    _PRODUCTS_SIZE,
    _cyc_class,
    _p_add,
    _p_mul,
    _uinv_mod,
    parse_scalar,
    render,
)
from homq.ratfunc import _cancel, _is_const, _p_div_exact, _p_gcd
from quantum_matrices import ALPHA, DELTA, qm2_form, qm2_presentation


F_T = ScalarField(("t",))
F_TL = ScalarField(("t", "lambda"))
F_Z5 = ScalarField((), cyclotomic_order=5)
F_QP = ScalarField(("q", "p"))


def _exponents(field, P):
    """The polynomial dict P with each packed key unpacked into its
    exponent tuple.  The tests read keys through it and build them with
    field._pack."""
    return {field._unpack(e): c for e, c in P.items()}


def rnd_poly_scalar(field, rng, max_terms=3, max_exp=3, coef_bound=5):
    """Random polynomial scalar, possibly zero."""
    acc = field.from_int(0)
    for _ in range(rng.randrange(max_terms + 1)):
        c = field.from_int(rng.randint(-coef_bound, coef_bound))
        if field.cyclotomic_order:
            c = c * field.zeta() ** rng.randrange(field.cyclotomic_order)
        term = c
        for name in field.variables:
            term = term * field.var(name) ** rng.randrange(max_exp + 1)
        acc = acc + term
    return acc


def rnd_scalar(field, rng):
    num = rnd_poly_scalar(field, rng)
    den = field.from_int(0)
    while den.is_zero():
        den = rnd_poly_scalar(field, rng)
    return num / den


# ---------------------------------------------------------------------------
# frozen parse and canonical-form examples


def test_laurent_difference_canonical():
    s = parse_scalar("t^2 - t^-2", F_T)
    assert render(s) == "(t^4 - 1)/t^2"


def test_cancel_linear_factor():
    s = parse_scalar("(t^2 - 1)/(t - 1)", F_T)
    assert render(s) == "t + 1"
    assert s == parse_scalar("t + 1", F_T)


def test_a_gcd_past_the_dense_limit_is_refused():
    # each sum takes a gcd whose dense Euclid would pass (_DENSE_MAX + 1)^2
    # coefficient operations: a dense pair of degree _DENSE_MAX + 1, and a
    # binomial that would take one list slot per degree, 2^60 of them; both
    # are refused before a list is allocated
    d = ratfunc._DENSE_MAX + 1
    for a, b in ((f"1/(t^{d} + t + 1)", f"1/(t^{d} + 2)"),
                 (f"1/(t^{2 ** 60} + 1)", "1/(t + 1)")):
        a, b = parse_scalar(a, F_T), parse_scalar(b, F_T)
        tracemalloc.start()
        try:
            with pytest.raises(ScalarError, match="past the dense limit"):
                a + b
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def test_content_normalization():
    assert render(parse_scalar("(2*t)/4", F_T)) == "t/2"


def test_q_sugar():
    assert parse_scalar("q", F_T) == parse_scalar("t^2", F_T)
    assert parse_scalar("q_half", F_T) == parse_scalar("t", F_T)
    assert render(parse_scalar("q^-1", F_T)) == "1/t^2"
    assert parse_scalar("q - q^-1", F_TL) == parse_scalar("(t^4 - 1)/t^2", F_TL)


def test_q_is_a_real_variable_when_declared():
    s = parse_scalar("q*p - 1", F_QP)
    assert render(s) == "q*p - 1"


def test_zeta_reduction():
    assert parse_scalar("zeta^6", F_Z5) == parse_scalar("zeta", F_Z5)
    assert parse_scalar("1 + zeta + zeta^2 + zeta^3 + zeta^4", F_Z5).is_zero()
    f8 = ScalarField((), cyclotomic_order=8)
    assert parse_scalar("zeta^4 + 1", f8).is_zero()
    assert (parse_scalar("zeta^2", f8) ** 2) == f8.from_int(-1)


def test_zeta_inverse_exact():
    s = parse_scalar("1/(zeta - zeta^4)", F_Z5)
    assert (s * parse_scalar("zeta - zeta^4", F_Z5)) == F_Z5.one


@pytest.mark.parametrize("n", range(1, 17))
def test_cyclotomic_inverse_needs_no_second_reduction(n):
    # the Bezout coefficient of the inverse already has degree below
    # deg Phi_n, so inverse reduces it once
    cls = _cyc_class(n)
    rng = random.Random(n)
    for _ in range(20):
        x = cls([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(cls.DEG)])
        if not x:
            continue
        assert len(_uinv_mod(x.v, cls.PHI)) < len(cls.PHI)
        assert x * x.inverse() == cls.ONE


def test_negative_exponent_groups():
    s = parse_scalar("(t + 1)^-2", F_T)
    assert s * parse_scalar("(t+1)^2", F_T) == F_T.one


F_Z3T = ScalarField(("t",), cyclotomic_order=3)
F_Z1T = ScalarField(("t",), cyclotomic_order=1)
F_Z2T = ScalarField(("t",), cyclotomic_order=2)
F_Z5T = ScalarField(("t",), cyclotomic_order=5)


@pytest.mark.parametrize("text, field, want", [
    # a rational coefficient, without and with a monomial
    ("-3/4", F_T, "-3/4"),
    ("3*t^2/4", F_T, "3*t^2/4"),
    ("-t/4", F_T, "-t/4"),
    # one signed zeta part over a denominator
    ("-zeta*t/2", F_Z3T, "-zeta*t/2"),
    ("zeta/2", F_Z3T, "zeta/2"),
    # several zeta parts: a part with a numerator of 1 drops its "1*",
    # as a whole coefficient does
    ("(1 + zeta)*t/2", F_Z3T, "(1/2 + zeta/2)*t"),
    ("2 - zeta^3/3", F_Z5, "(2 - zeta^3/3)"),
    ("-zeta^2 + 3*zeta^3/2", F_Z5, "(-zeta^2 + 3*zeta^3/2)"),
])
def test_render_term_shapes(text, field, want):
    assert render(parse_scalar(text, field)) == want


@pytest.mark.parametrize("field, zeta", [(F_Z1T, 1), (F_Z2T, -1)])
def test_cyclotomic_orders_one_and_two(field, zeta):
    z = field.zeta()
    assert z == field.from_int(zeta)
    assert render(z) == str(zeta)
    s = parse_scalar("(zeta*t - 3)/(t + 2*zeta)", field)
    assert s * s.inverse() == field.one
    assert (s / s) == field.one
    assert render(parse_scalar("1/(3*zeta)", field)) == f"{zeta}/3"
    assert render(s) == {1: "(t - 3)/(t + 2)",
                         -1: "(-t - 3)/(t - 2)"}[zeta]


# errors ---------------------------------------------------------------------


def test_syntax_error_position():
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar("t^(-1)", F_T)
    assert err.value.position == 2
    for text in ("t t", "(t"):
        with pytest.raises(ScalarSyntaxError) as err:
            parse_scalar(text, F_T)
        assert err.value.position == 2
    # a digit that int() does not read, such as a superscript two
    for text, position in (("t^\u00b2", 2), ("\u00b2", 0)):
        with pytest.raises(ScalarSyntaxError) as err:
            parse_scalar(text, F_T)
        assert err.value.position == position
        assert str(err.value).startswith("unexpected character '\u00b2'")
    # an atom that is missing: the parser's fall-through refusal
    for text, message, position in ((")", "unexpected ')'", 0),
                                    ("t +", "unexpected end of input", 3),
                                    ("2*", "unexpected end of input", 2),
                                    ("", "unexpected end of input", 0)):
        with pytest.raises(ScalarSyntaxError) as err:
            parse_scalar(text, F_T)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"


def reference_tokenize(text):
    """The reference for _Parser._tokenize: a loop over the characters."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append((ch, ch, i))
            i += 1
            continue
        raise ScalarSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


def _tokens_or_refusal(tokenize, text):
    try:
        return tokenize(text)
    except ScalarSyntaxError as err:
        return str(err), err.position


# ASCII digits, names and operators, with a superscript two, an Arabic-Indic
# three, a line separator, a no-break space, a fullwidth t, a Roman twelve,
# accented and Greek letters, a zero-width space, and two stray symbols
_TOKEN_ALPHABET = ("09tq_x+-*/^() \t\n\u00b2\u0663\u2028\u00a0\uff54"
                   "\u216b\u00e9\u03bb\u200b$.")


@settings(max_examples=500, deadline=None)
@given(st.text(_TOKEN_ALPHABET, max_size=12))
@example("t + 1 \u00a0\u2028")
@example("2\u00b2t ")
def test_tokenize_matches_reference_tokenize(text):
    assert (_tokens_or_refusal(_Parser._tokenize, text)
            == _tokens_or_refusal(reference_tokenize, text))


def test_unexpected_character():
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("t # 1", F_T)


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable) as err:
        parse_scalar("t * y", F_T)
    assert err.value.name == "y"
    assert err.value.position == 4
    with pytest.raises(UndeclaredVariable) as err:
        F_T.var("y")
    assert err.value.name == "y"
    assert err.value.position is None


def test_zeta_unavailable():
    with pytest.raises(ZetaUnavailable):
        parse_scalar("zeta + 1", F_T)
    with pytest.raises(ZetaUnavailable):
        F_T.zeta()


def test_division_by_zero_scalar():
    with pytest.raises(ScalarZeroDivision):
        parse_scalar("1/0", F_T)
    with pytest.raises(ScalarZeroDivision):
        parse_scalar("1/(t - t)", F_T)
    with pytest.raises(ScalarZeroDivision):
        F_T.one / F_T.zero
    with pytest.raises(ScalarZeroDivision):
        F_T.zero.inverse()
    with pytest.raises(ScalarZeroDivision):
        parse_scalar("(t - t)^-1", F_T)


def test_zero_below_the_scalar_layer():
    # Scalar.inverse refuses zero before these layers see it
    with pytest.raises(ScalarZeroDivision):
        _cyc_class(5).ZERO.inverse()
    with pytest.raises(ScalarZeroDivision):
        F_T._coprime_make(dict(F_T._one_poly), {})
    assert F_T._coprime_make({}, parse_scalar("t + 1", F_T).num) is F_T.zero


def test_operands_of_other_types_are_not_implemented():
    zeta = _cyc_class(5).ZETA
    assert repr(zeta) == "cyc5('0', '1', '0', '0')"
    for other in (1, _cyc_class(3).ZETA, F_Z5.zeta()):
        assert zeta.__eq__(other) is NotImplemented and zeta != other
    t = F_T.var("t")
    for n in (2.0, Fraction(1, 2)):
        assert t.__pow__(n) is NotImplemented
        with pytest.raises(TypeError):
            t ** n


def test_field_declaration_errors():
    with pytest.raises(ValueError):
        ScalarField(("zeta",))
    with pytest.raises(ValueError):
        ScalarField(("x", "x"))
    with pytest.raises(ValueError):
        ScalarField(("t", "q"))
    with pytest.raises(ValueError, match="cyclotomic_order"):
        ScalarField(cyclotomic_order=0)


@pytest.mark.parametrize("name, accepted", [
    ("x", True), ("_t1", True), ("X_2y", True), ("lambda", True),
    ("if", True),
    ("", False), ("2bad", False), ("x\n", False), ("\u00e9", False),
    ("a b", False), ("x-y", False), (5, False), (b"t", False),
    (None, False), (("t",), False)])
def test_variable_names(name, accepted):
    """A variable name is an ASCII identifier, a keyword included; any
    other value, a non-string too, is refused with the module's
    ValueError."""
    if accepted:
        assert ScalarField(("t", name)).variables == ("t", name)
    else:
        with pytest.raises(ValueError, match="bad variable name"):
            ScalarField(("t", name))


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ScalarError):
        F_T.one + F_TL.one


def test_scalars_of_two_fields_are_unequal():
    # equality compares, it does not refuse: the same value over another
    # field is a different scalar
    assert (ScalarField(("t",)).one == ScalarField(("u",)).one) is False


# round trips and idempotence -------------------------------------------------


ROUND_TRIP_CORPUS = [
    ("t^2 - t^-2", F_T),
    ("(t^2-1)/(t-1)", F_T),
    ("1 - q^-2", F_T),
    ("-t^3/2 + 7", F_T),
    ("lambda^-1 * t + 3/4", F_TL),
    ("(t + lambda)^2 / (t - lambda)", F_TL),
    ("zeta^3 - 2*zeta + 1/2", F_Z5),
    ("(1 + zeta)/(1 - zeta)", F_Z5),
    ("q^2*p^-3 - p*q", F_QP),
    ("0", F_T),
    ("-0", F_T),
]


@pytest.mark.parametrize("text,field", ROUND_TRIP_CORPUS)
def test_parse_render_round_trip(text, field):
    s = parse_scalar(text, field)
    assert parse_scalar(render(s), field) == s


def test_round_trip_random():
    rng = random.Random(7)
    for field in (F_T, F_TL, F_Z5, F_QP):
        for _ in range(60):
            s = rnd_scalar(field, rng)
            assert parse_scalar(render(s), field) == s


def test_canonicalize_idempotent_200():
    rng = random.Random(11)
    for _ in range(200):
        s = rnd_scalar(F_TL, rng)
        # canonical forms are stable under arithmetic detours
        assert (s + F_TL.one) - F_TL.one == s


# field axioms ----------------------------------------------------------------


def test_field_axioms_200_random_triples():
    rng = random.Random(3)
    fields = [F_TL, F_Z5]
    for i in range(200):
        field = fields[i % 2]
        a, b, c = (rnd_scalar(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        if not a.is_zero():
            assert a * a.inverse() == field.one
        assert a - a == field.zero


# an int operand is read as the scalar it names, on either side
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
@pytest.mark.parametrize("field", [F_TL, F_Z3T], ids=["Q(t,lambda)",
                                                       "Q(zeta_3)(t)"])
def test_int_operand_acts_as_its_scalar(op, field):
    a = parse_scalar("(t + 1)/(t - 2)", field)
    three = field.from_int(3)
    assert op(a, 3) == op(a, three)
    assert op(3, a) == op(three, a)
    assert op(a, -3) == op(a, -three)


def test_int_equality_and_foreign_operands():
    a = parse_scalar("(t + 1)/(t - 2)", F_TL)
    assert F_TL.from_int(3) == 3
    assert 3 == F_TL.from_int(3)
    assert F_TL.zero == 0
    assert a != 3 and not a == 3
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, 0.5)
        with pytest.raises(TypeError):
            op(0.5, a)


@st.composite
def _scalars(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 9)))
    return rnd_scalar(F_T, rng)


@settings(max_examples=60, deadline=None)
@given(_scalars(), _scalars())
def test_hypothesis_ring_properties(a, b):
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
       st.integers(min_value=1, max_value=10 ** 6))
def test_equal_rational_constants_hash_equal(n, d):
    # Python requires a == b to imply hash(a) == hash(b)
    for field in (F_T, F_TL, F_Z5, F_Z5T):
        k = field.from_int(n)
        assert k == n and hash(k) == hash(n)
        assert n in {k} and k in {n} and ((k + field.one) - 1) in {n}
        q = parse_scalar(f"{n}/{d}", field)
        assert hash(q) == hash(Fraction(n, d))
        assert hash(q * d) == hash(n)


def test_keys_equal_modulo_the_hash_prime_hash_apart():
    # an int hashes modulo 2^61 - 1, where 2^64 is 8, so the packed keys
    # of lambda and t^8 hash alike; their exponent tuples do not
    for a, b in (("lambda", "t^8"), ("t*lambda^2", "t^9*lambda"),
                 ("3/lambda", "3*t^-8"), ("t + lambda", "t + t^8")):
        x, y = parse_scalar(a, F_TL), parse_scalar(b, F_TL)
        assert x != y and hash(x) != hash(y)
    apart, z5 = ScalarField(("t", "lambda")), ScalarField((), 5)
    for text in ("2", "1/2", "t^8*lambda/3", "(t + lambda)/(t - 1)"):
        x, y = parse_scalar(text, F_TL), parse_scalar(text, apart)
        assert x == y and hash(x) == hash(y)
    assert hash(parse_scalar("1/2", F_TL)) == hash(Fraction(1, 2))
    for text in ("3/2", "zeta^2 + 1"):
        x, y = parse_scalar(text, F_Z5), parse_scalar(text, z5)
        assert x == y and hash(x) == hash(y)
    assert hash(F_Z5.from_int(3) / 2) == hash(Fraction(3, 2))


# independent oracle ----------------------------------------------------------


def _to_sympy(field, poly_dict, syms):
    total = sympy.Integer(0)
    for e, c in _exponents(field, poly_dict).items():
        term = sympy.Rational(int(c.numerator), int(c.denominator))
        for s, k in zip(syms, e):
            term *= s ** k
        total += term
    return sympy.expand(total)


def test_exact_division_refuses_a_non_divisor():
    def num(text):
        return parse_scalar(text, F_TL).num
    assert _p_div_exact(num("t^2 + 1"), num("t + 1"), F_TL) is None
    assert _p_div_exact(num("t + lambda"), num("t^2"), F_TL) is None
    assert _p_div_exact(num("t^2 - lambda^2"), num("t + lambda"), F_TL) == \
        num("t - lambda")


def test_gcd_reduction_against_sympy():
    rng = random.Random(19)
    t, lam = sympy.symbols("t lam")
    syms = (t, lam)
    for _ in range(40):
        a = rnd_poly_scalar(F_TL, rng)
        b = rnd_poly_scalar(F_TL, rng)
        c = rnd_poly_scalar(F_TL, rng)
        if b.is_zero() or c.is_zero():
            continue
        mine = (a * c) / (b * c)
        a_s, b_s, c_s = (_to_sympy(F_TL, x.num, syms) for x in (a, b, c))
        num_s = _to_sympy(F_TL, mine.num, syms)
        den_s = _to_sympy(F_TL, mine.den, syms)
        # cross multiplication: mine equals (a c)/(b c) exactly
        assert sympy.expand(num_s * b_s * c_s - den_s * a_s * c_s) == 0
        # coprime: no nonconstant common divisor survives
        g = sympy.gcd(sympy.Poly(num_s, t, lam), sympy.Poly(den_s, t, lam))
        assert g.total_degree() == 0


@pytest.mark.parametrize("text", ["(t + 1)/(t^300 + 1)", "1/(t^300+1) + 1",
                                  "1/(t^257 + 1) + 1/(t + 1)"])
def test_a_sparse_gcd_past_the_dense_degree_matches_sympy(text):
    # each gcd has a degree above _DENSE_MAX in t, and a cheap Euclid
    t = sympy.Symbol("t")
    want = sympy.cancel(sympy.sympify(text.replace("^", "**"),
                                      locals={"t": t}))
    num_s, den_s = sympy.fraction(want)
    s = parse_scalar(text, F_T)
    mine_num = _to_sympy(F_T, s.num, (t,))
    mine_den = _to_sympy(F_T, s.den, (t,))
    assert sympy.expand(mine_num * den_s - mine_den * num_s) == 0
    assert sympy.degree(mine_den, t) == sympy.degree(den_s, t)


def test_bivariate_gcd_keeps_its_coefficients_small():
    # gcd(num a, num b) is 1.  A Euclid over Q(t) whose remainders are
    # not made monic took about 47 s of CPU on this pair (2-vCPU VM):
    # the scalar factor of each remainder swells from step to step.
    a = parse_scalar("(-t^4*lambda^5 - 6*t^3 + 5*lambda^3)/(t*lambda^2)",
                     F_TL)
    b = parse_scalar("(3*t^3*lambda^6 - 3*t^4*lambda^2/7 + 4*lambda^2"
                     " - 4*t)/(t*lambda^3)", F_TL)
    start = time.process_time()
    q = a / b
    assert time.process_time() - start < 10
    assert render(q) == ("(-t^4*lambda^6/3 - 2*t^3*lambda + 5*lambda^4/3)/"
                         "(t^3*lambda^6 - t^4*lambda^2/7 + 4*lambda^2/3"
                         " - 4*t/3)")
    assert q * b == a


def test_power_and_hash_consistency():
    s = parse_scalar("(t + 1)/t", F_T)
    assert s ** 3 == s * s * s
    assert s ** -2 == (s * s).inverse()
    assert s ** 0 == F_T.one
    d = {s: 1, s * s: 2}
    assert d[parse_scalar("(t+1)^2/t^2", F_T)] == 2


# fast paths against the general arithmetic -----------------------------------
#
# reference_add and reference_mul are Scalar.__add__ and Scalar.__mul__ as
# they were before the monomial-denominator and operand-one fast paths:
# every product cross-cancels through _cancel and every sum over a
# nontrivial denominator takes a gcd.


def reference_add(self, other):
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    f = self.field
    if not self.num:
        return other
    if not other.num:
        return self
    one_poly = f._one_poly
    n1, d1, n2, d2 = self.num, self.den, other.num, other.den
    if d1 == d2:
        num = _p_add(n1, n2)
        if not num:
            return f.zero
        if d1 == one_poly:
            return Scalar(f, num, d1)
        h = _p_gcd(num, d1, f)
        if _is_const(h, f):
            return f._coprime_make(num, dict(d1))
        return f._coprime_make(_p_div_exact(num, h, f),
                               _p_div_exact(d1, h, f))
    if d1 == one_poly:
        # denominator is d2; the sum stays coprime to it
        return f._coprime_make(_p_add(_p_mul(n1, d2, f), n2), dict(d2))
    if d2 == one_poly:
        return f._coprime_make(_p_add(n1, _p_mul(n2, d1, f)), dict(d1))
    g = _p_gcd(d1, d2, f)
    if _is_const(g, f):
        num = _p_add(_p_mul(n1, d2, f), _p_mul(n2, d1, f))
        if not num:
            return f.zero
        return f._coprime_make(num, _p_mul(d1, d2, f))
    e1 = _p_div_exact(d1, g, f)
    e2 = _p_div_exact(d2, g, f)
    num = _p_add(_p_mul(n1, e2, f), _p_mul(n2, e1, f))
    if not num:
        return f.zero
    # common factors of the sum with the denominator sit inside g
    h = _p_gcd(num, g, f)
    if not _is_const(h, f):
        num = _p_div_exact(num, h, f)
        g = _p_div_exact(g, h, f)
    return f._coprime_make(num, _p_mul(_p_mul(g, e1, f), e2, f))


def reference_mul(self, other):
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    f = self.field
    if not self.num or not other.num:
        return f.zero
    one_poly = f._one_poly
    n1, d1, n2, d2 = self.num, self.den, other.num, other.den
    if d1 == one_poly and d2 == one_poly:
        return Scalar(f, _p_mul(n1, n2, f), one_poly)
    # cross-cancel so the product of the reduced parts is coprime
    if d2 != one_poly:
        n1, d2 = _cancel(n1, d2, f)
    if d1 != one_poly:
        n2, d1 = _cancel(n2, d1, f)
    return f._coprime_make(_p_mul(n1, n2, f), _p_mul(d1, d2, f))


# reference_truediv is Scalar.__truediv__ as it was before division became
# a multiplication by the inverse: it cancels numerators against each other
# and denominators against each other, then cross-multiplies.


def reference_truediv(self, other):
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    if not other.num:
        raise ScalarZeroDivision()
    f = self.field
    if not self.num:
        return f.zero
    one_poly = f._one_poly
    n1, d1, n2, d2 = self.num, self.den, other.num, other.den
    if n1 != one_poly or n2 != one_poly:
        n1, n2 = _cancel(n1, n2, f)
    if d1 != one_poly or d2 != one_poly:
        d1, d2 = _cancel(d1, d2, f)
    return f._coprime_make(_p_mul(n1, d2, f), _p_mul(d1, n2, f))


F_Z13 = ScalarField((), cyclotomic_order=13)

_INT_COEF = st.integers(min_value=-6, max_value=6)
_RATIONAL_COEF = st.one_of(
    _INT_COEF, st.fractions(min_value=-6, max_value=6, max_denominator=7))
# the same values with each integral Fraction drawn as its int
_TIDY_RATIONAL_COEF = _RATIONAL_COEF.map(
    lambda q: q.numerator if q.denominator == 1 else q)


def _coef(field, draw, values):
    """A coefficient of the field: rational, or a vector over zeta."""
    if not field.cyclotomic_order:
        return draw(values)
    deg = field._cyc.DEG
    return field._cyc(tuple(draw(st.lists(values, min_size=deg,
                                          max_size=deg))))


@st.composite
def laurent(draw, field, values=_INT_COEF, sizes=st.integers(0, 4)):
    """A Laurent polynomial of at most `sizes` terms, built directly in
    canonical form: the common negative powers become a monic monomial
    denominator."""
    exps = st.tuples(*[st.integers(min_value=-3, max_value=3)
                       for _ in field.variables])
    terms = {}
    for _ in range(draw(sizes)):
        c = _coef(field, draw, values)
        if c:
            terms[draw(exps)] = c
    if not terms:
        return field.zero
    low = [min(0, min(e[i] for e in terms)) for i in range(field.nvars)]
    num = {field._pack([k - m for k, m in zip(e, low)]): c
           for e, c in terms.items()}
    den = field._pack([-m for m in low])
    return Scalar(field, num, field._mono(den))


@st.composite
def rational(draw, field):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 9)))
    return rnd_scalar(field, rng)


def _coefficients(s):
    for c in (*s.num.values(), *s.den.values()):
        yield from (c.v if isinstance(c, _CycNumBase) else (c,))


def _check_against_reference(a, b):
    for op, ref in ((operator.mul, reference_mul),
                    (operator.add, reference_add),
                    (operator.truediv, reference_truediv)):
        if op is operator.truediv and not b:
            for div in (op, ref):
                with pytest.raises(ScalarZeroDivision):
                    div(a, b)
            continue
        got, want = op(a, b), ref(a, b)
        assert got.num == want.num and got.den == want.den
        assert render(got) == render(want)
        assert all(isinstance(c, (int, Fraction))
                   for c in _coefficients(got))


@settings(max_examples=150, deadline=None)
@given(laurent(F_TL, _RATIONAL_COEF), laurent(F_TL, _RATIONAL_COEF))
def test_laurent_arithmetic_matches_reference(a, b):
    _check_against_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(laurent(F_Z3T), laurent(F_Z3T))
def test_cyclotomic_laurent_arithmetic_matches_reference(a, b):
    _check_against_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational(F_TL), laurent(F_TL)),
       st.one_of(rational(F_TL), laurent(F_TL)))
def test_rational_arithmetic_matches_reference(a, b):
    _check_against_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational(F_Z3T), laurent(F_Z3T)),
       st.one_of(rational(F_Z3T), laurent(F_Z3T)))
def test_cyclotomic_rational_arithmetic_matches_reference(a, b):
    _check_against_reference(a, b)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational(F_Z13), laurent(F_Z13, _RATIONAL_COEF)),
       st.one_of(rational(F_Z13), laurent(F_Z13, _RATIONAL_COEF)))
def test_zeta_13_arithmetic_matches_reference(a, b):
    _check_against_reference(a, b)


def _gcd_pair(field):
    # the denominators are not monomials, so both go through a gcd and
    # the monic scaling of the denominator by 1/2
    return (parse_scalar("3/(2*t+4)", field),
            parse_scalar("(t^2-1)/(2*t-2)", field))


def _swap_coefficients(s, swap):
    """s built from its pair with swap applied to every rational
    coefficient, inside the tuples of Q(zeta_n) coefficients too."""
    def coef(c):
        if isinstance(c, _CycNumBase):
            return type(c)(map(swap, c.v))
        return swap(c)
    return Scalar(s.field, *({e: coef(c) for e, c in P.items()}
                             for P in (s.num, s.den)))


def _halves(field, text):
    """Two Laurent values with Fraction coefficients whose sum and whose
    product with 2 have integral coefficients."""
    return parse_scalar(text, field), parse_scalar(text, field)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F_TL, F_Z13, F_Z3T]).flatmap(
    lambda f: st.tuples(laurent(f, _TIDY_RATIONAL_COEF),
                        laurent(f, _TIDY_RATIONAL_COEF))))
@example(_gcd_pair(F_TL))
@example(_gcd_pair(F_Z3T))
@example(_halves(F_TL, "t/2 + lambda^-1/2"))
@example(_halves(F_Z3T, "zeta*t/2"))
@example(_halves(F_Z13, "(1 + zeta)/2"))
@example((parse_scalar("3*t/2", F_TL), parse_scalar("2/3", F_TL)))
@example((parse_scalar("(t/2 + 1)/lambda", F_TL), F_TL.from_int(2)))
def test_integral_fractions_and_ints_are_one_value(pair):
    """A coefficient stays whatever arithmetic returns, so an integral
    one may be an int or a Fraction; the two must be one value."""
    a, b = pair
    field = a.field
    one_term = [field.from_int(2), field.from_int(3).inverse(),
                field.var(field.variables[0]) if field.variables
                else field.zeta()]
    for s in (a, b, a * b, a + b, a - b, -a, a * 2, a ** 2,
              *((a / b, b.inverse()) if b else ())):
        as_int = _swap_coefficients(
            s, lambda q: q.numerator if q.denominator == 1 else q)
        for x in (as_int, _swap_coefficients(as_int, Fraction)):
            assert x == s and s == x
            assert hash(x) == hash(s)
            assert render(x) == render(s)
            for u in one_term:
                for _ in range(2):     # the product table cold, then warm
                    assert x * u == s * u and u * x == u * s


@pytest.mark.parametrize("a,b", [
    # different monomial denominators whose sum shares a factor t with both
    ("(1 + t)/(t*lambda)", "(t - lambda)/(t*lambda^2)"),
    ("1/t", "(t - 1)/t"),
    ("1/t", "-1/t"),
    ("t/lambda", "lambda/t"),
    ("(t + lambda)/t^2", "t^3/lambda"),
    ("1", "(t + lambda)/t"),
])
def test_monomial_cancellation_matches_reference(a, b):
    _check_against_reference(parse_scalar(a, F_TL), parse_scalar(b, F_TL))


@settings(max_examples=100, deadline=None)
@given(laurent(F_TL, _RATIONAL_COEF),
       rational(F_TL).filter(lambda s: len(s.den) > 1))
@example(parse_scalar("t^2 + t", F_TL), parse_scalar("1/(t^3 + t^2)", F_TL))
@example(parse_scalar("1/t", F_TL), parse_scalar("t/(t + 1)", F_TL))
def test_laurent_and_nonmonomial_operands_match_reference(a, b):
    # one operand of each form, in both orders; the first example leaves
    # a monomial denominator, the second a Laurent numerator to cancel
    _check_against_reference(a, b)
    _check_against_reference(b, a)


@pytest.mark.parametrize("text,other", [
    ("(t^2 + t)/t^3", "1/t + 1/t^2"),
    ("t * t^-1", "1"),
    ("(t^2 + t)/(t + 1)", "t"),
    ("(3*t^2/lambda)^-1", "lambda/(3*t^2)"),
    ("((t + lambda)/t)^-1", "t/(t + lambda)"),
])
def test_one_value_by_different_paths_has_one_form(text, other):
    apart = ScalarField(("t", "lambda"))  # equal to F_TL, built apart
    for field in (F_TL, apart):
        a, b = parse_scalar(text, field), parse_scalar(other, field)
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert render(a) == render(b)
        assert (a.laurent, a.num, a.den) == (b.laurent, b.num, b.den)
    assert parse_scalar(text, F_TL) == parse_scalar(other, apart)


def test_laurent_form_and_its_pair():
    s = parse_scalar("(t^2 + 2*lambda)/(t^3*lambda)", F_TL)
    assert _exponents(F_TL, s.laurent) == {(-1, -1): 1, (-3, 0): 2}
    assert _exponents(F_TL, s.num) == {(2, 0): 1, (0, 1): 2}
    assert _exponents(F_TL, s.den) == {(3, 1): 1}
    assert parse_scalar("1/(t + 1)", F_TL).laurent is None
    assert F_TL.zero.laurent == {} and not F_TL.zero
    assert Scalar(F_TL, s.num, s.den) == s


def test_exponents_have_no_range_limit():
    t = F_TL.var("t")
    big, small = t ** (2 ** 40), t ** -(2 ** 40)
    assert _exponents(F_TL, big.laurent) == {(2 ** 40, 0): 1}
    assert big * small == 1 and small * big == F_TL.one
    assert big.inverse() == small
    assert render(small) == f"1/t^{2 ** 40}"


_LOW, _HIGH = -2 ** 61, 2 ** 61      # the exponent range is [_LOW, _HIGH)
# exponents inside the range, at both of its ends, and just outside it
_EXPONENT = st.one_of(st.integers(_LOW, _HIGH - 1),
                      st.sampled_from([_LOW - 1, _LOW, -1, 0, 1, _HIGH - 1,
                                       _HIGH]))
_FIELDS = [ScalarField([f"x{i}" for i in range(n)]) for n in range(5)]


def _in_range(e):
    return all(_LOW <= k < _HIGH for k in e)


def _terms(n):
    return st.dictionaries(st.tuples(*[_EXPONENT] * n),
                           st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=3)


def _tuple_mul(A, B):
    """The product of two dicts keyed by exponent tuples."""
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_terms(n), _terms(n))))
def test_packed_keys_round_trip_and_add(pair):
    A, B = pair
    field = _FIELDS[len(next(iter(A)))]
    for e in (*A, *B):
        if not _in_range(e):
            with pytest.raises(ScalarError, match="exponent out of range"):
                field._pack(e)
            return
        assert field._unpack(field._pack(e)) == e
    packed = [{field._pack(e): c for e, c in P.items()} for P in (A, B)]
    want = _tuple_mul(A, B)
    if all(map(_in_range, want)):
        assert _exponents(field, _p_mul(*packed, field)) == want
    else:
        with pytest.raises(ScalarError, match="exponent out of range"):
            _p_mul(*packed, field)
    e, c = next(iter(A.items()))
    x = Scalar(field, {field._pack(e): c}, field._one_poly)
    if _in_range(tuple(-k for k in e)):
        assert _exponents(field, x.inverse().laurent) == {
            tuple(-k for k in e): Fraction(1, c)}
    else:
        with pytest.raises(ScalarError, match="exponent out of range"):
            x.inverse()


def test_exponents_out_of_range_are_refused():
    with pytest.raises(ScalarError, match="exponent out of range"):
        parse_scalar(f"t^{_HIGH}", F_TL)
    x = F_TL.var("t") ** (2 ** 40)
    for _ in range(20):
        x = x * x
    assert _exponents(F_TL, x.laurent) == {(2 ** 60, 0): 1}
    with pytest.raises(ScalarError, match="exponent out of range"):
        x * x
    low = parse_scalar(f"t^{_LOW}", F_TL)
    assert _exponents(F_TL, low.laurent) == {(_LOW, 0): 1}
    with pytest.raises(ScalarError, match="exponent out of range"):
        low.inverse()


@pytest.mark.parametrize("text, want", [
    # exponent -2^61: the denominator t^(2^61) has no packed key
    (f"t^{_LOW}", f"1/t^{_HIGH}"),
    # exponent span 2^61: the numerator t^(2^61) has no packed key
    (f"t^{2 ** 60} + t^-{2 ** 60}", f"(t^{_HIGH} + 1)/t^{2 ** 60}"),
])
def test_a_value_whose_pair_leaves_the_key_range_renders(text, want):
    s = parse_scalar(text, F_T)
    assert render(s) == want and repr(s) == f"Scalar({want})"
    assert s == parse_scalar(text, F_T) and s - s == 0
    with pytest.raises(ScalarError, match="exponent out of range"):
        s.num
    # arithmetic that needs the pair still refuses it
    with pytest.raises(ScalarError, match="exponent out of range"):
        s / (F_T.var("t") + 1)


# the exponent bound ----------------------------------------------------------
#
# A Laurent product skips the guard below a bound sum of 2^61.  The
# exponents here sit near +-2^60, where bound sums cross 2^61, and the
# coefficients include Fractions whose products and sums are integral.

_NEAR = st.one_of(st.integers(-2, 2),
                  st.integers(-3, 3).map(lambda k: 2 ** 60 + k),
                  st.integers(-3, 3).map(lambda k: -2 ** 60 + k))
_HALVES = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 2),
                           Fraction(3, 2), Fraction(2, 3), Fraction(1, 3)])


def _monomial(field, e, c):
    """c * x^e, built from keys: positive exponents above, negative below."""
    return Scalar(field, {field._pack([max(k, 0) for k in e]): c},
                  field._mono(field._pack([max(-k, 0) for k in e])))


@st.composite
def _near_values(draw, field=F_TL):
    """A Laurent value and its terms keyed by exponent tuples."""
    terms = draw(st.dictionaries(st.tuples(*[_NEAR] * field.nvars), _HALVES,
                                 min_size=1, max_size=3))
    value = field.zero
    for e, c in terms.items():
        value = value + _monomial(field, e, c)
    return value, terms


def _outcome(op, *args):
    try:
        return op(*args)
    except ScalarError as exc:
        return str(exc)


def _tuple_pow(A, n):
    """A ** n over exponent tuples; None when it is not Laurent."""
    if n < 0:
        if len(A) > 1:
            return None
        ((e, c),) = A.items()
        A, n = {tuple(-k for k in e): 1 / Fraction(c)}, -n
    out = {(0,) * len(next(iter(A))): 1}
    for _ in range(n):
        out = _tuple_mul(out, A)
    return out


def _tuple_add(A, B):
    out = dict(A)
    for e, c in B.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _check_laurent_result(got, exact):
    """got against its exact terms (None: not a Laurent value), and the
    invariant of bound on a Laurent result."""
    if exact is not None:
        if not all(map(_in_range, exact)):
            assert got == "exponent out of range"
            return
        assert isinstance(got, Scalar)
        assert _exponents(got.field, got.laurent) == exact
    if isinstance(got, str) or got.laurent is None:
        return
    assert got.bound >= max((abs(k) for e in _exponents(got.field,
                                                         got.laurent)
                             for k in e), default=0)


def reference_pow(a, n):
    out = a.field.one
    for _ in range(abs(n)):
        out = reference_mul(out, a)
    return out if n >= 0 else reference_truediv(a.field.one, out)


def reference_sub(a, b):
    return reference_add(a, reference_mul(b, -1))


def _sum_needs_a_large_gcd(A, B):
    """Whether reference_add of the values with terms A and B takes a gcd
    of large degree: both have a denominator, and an exponent is large."""
    exps = [[k for e in T for k in e] for T in (A, B)]
    return max(map(min, exps)) < 0 and max(
        abs(k) for k in exps[0] + exps[1]) >= 2 ** 10


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_near_values(), _near_values(), st.integers(-2, 3))
@example((parse_scalar(f"t^{2 ** 60}", F_TL), {(2 ** 60, 0): 1}),
         (parse_scalar(f"t^{2 ** 60}/2", F_TL),
          {(2 ** 60, 0): Fraction(1, 2)}), 2)
@example((parse_scalar(f"t^{2 ** 60 - 1}/2", F_TL),
          {(2 ** 60 - 1, 0): Fraction(1, 2)}),
         (parse_scalar(f"2*t^{2 ** 60}", F_TL), {(2 ** 60, 0): 2}), -1)
def test_laurent_fast_paths_match_the_guarded_reference(x, y, n):
    """Each Laurent *, +, -, neg, ** and / gives the value, or the refusal
    text, of the always guarded reference, and its exact terms
    on exponent tuples.  The reference reads each operand's (num, den)
    pair, which may need a key out of range where the value has none;
    where it refuses for that reason, the exact terms decide.  A sum of
    two values with denominators is checked against the exact terms
    alone when an exponent is large: reference_add takes a gcd of the
    denominators, dense and of degree near 2^60 here."""
    (a, A), (b, B) = x, y
    p = _outcome(operator.mul, a, b)
    sums = not _sum_needs_a_large_gcd(A, B)
    cases = [
        (operator.mul, reference_mul, (a, b), _tuple_mul(A, B)),
        (operator.add, sums and reference_add, (a, b), _tuple_add(A, B)),
        (operator.sub, sums and reference_sub, (a, b),
         _tuple_add(A, {e: -c for e, c in B.items()})),
        (operator.neg, lambda u: reference_mul(u, -1), (a,),
         {e: -c for e, c in A.items()}),
        (operator.pow, reference_pow, (a, n), _tuple_pow(A, n)),
    ]
    if len(B) == 1:
        # by a polynomial, both sides would take a gcd of degree near 2^60
        cases.append((operator.truediv, reference_truediv, (a, b),
                      _tuple_mul(A, _tuple_pow(B, -1))))
    if isinstance(p, Scalar):
        # a product's bound is the sum of its operands', so it may be loose
        P = _tuple_mul(A, B)
        cases += [(operator.mul, reference_mul, (p, a), _tuple_mul(P, A)),
                  (operator.add, not _sum_needs_a_large_gcd(P, B)
                   and reference_add, (p, b), _tuple_add(P, B)),
                  (operator.pow, reference_pow, (p, n), _tuple_pow(P, n))]
    for op, ref, args, exact in cases:
        got = _outcome(op, *args)
        want = _outcome(ref, *args) if ref else None
        _check_laurent_result(got, exact)
        if isinstance(want, Scalar):
            assert got == want and render(got) == render(want)
            assert (got.laurent, got._view()) == (want.laurent, want._view())
        elif want is not None and got != want:
            # the reference refused an operand's pair, not the result
            assert want == "exponent out of range" and exact is not None


def _scan_callers(monkeypatch):
    """Count the calls of the guard by calling function."""
    callers = []

    def counted(*args, _fn=scalars._checked):
        callers.append(("_checked", sys._getframe(1).f_code.co_name))
        return _fn(*args)
    monkeypatch.setattr(scalars, "_checked", counted)
    return callers


def test_laurent_arithmetic_of_the_verifiers_scans_no_result(monkeypatch):
    field = ScalarField(("t", "lambda", "xi"))
    P = qm2_presentation(field)
    C = CobraidedHomBialgebra(
        twist_hom_bialgebra(HomBialgebra(P, DELTA), ALPHA), qm2_form(P))
    M = plane_comodule_algebra(C, "standard")
    callers = _scan_callers(monkeypatch)
    assert verify_comodule(M, 3).passed and verify_cobraided(C, 1).passed
    # a Laurent product scans in _p_mul
    assert ("_checked", "_p_mul") not in callers
    # a bound sum of 2^61 runs the guard again, which refuses t^(2^61)
    x = (F_TL.var("t") ** 2 ** 40) ** 2 ** 20
    assert x.bound == 2 ** 60 and ("_checked", "_p_mul") not in callers
    with pytest.raises(ScalarError, match="exponent out of range"):
        x * x
    assert callers[-1] == ("_checked", "_p_mul")


def test_a_result_equal_to_one_is_the_field_one():
    t, one = F_TL.var("t"), F_TL.one
    assert t * t ** -1 is one
    assert (t + 1) / (t + 1) is one
    assert (-one) * (-one) is one
    assert F_Z5.zeta() ** 5 is F_Z5.one


def test_a_result_equal_to_zero_is_the_field_zero():
    x, zero = parse_scalar("t/lambda + 2", F_TL), F_TL.zero
    for s in (x - x, x + (-x), 0 * x, x * 0, F_TL.from_int(0),
              parse_scalar("t - t", F_TL), parse_scalar("t - lambda", F_TL)
              + parse_scalar("lambda - t", F_TL)):
        assert s is zero
    y = parse_scalar("t/(t + lambda)", F_TL)   # a (num, den) value
    assert y.laurent is None
    assert y - y is zero and y + parse_scalar("-t/(t + lambda)", F_TL) is zero
    zeta = F_Z5.zeta()
    assert sum((zeta ** k for k in range(1, 5)), F_Z5.one) is F_Z5.zero
    assert scalars._laurent(F_TL, {}, 0) is zero


def test_one_operand_returns_the_other():
    # the one-term values are also product table operands
    for text, field in (("(t + lambda)/t^2", F_TL), ("3*t/lambda", F_TL),
                        ("(t + 1)/(t - lambda)", F_TL),
                        ("zeta^3/t^2", F_Z5T), ("zeta^3 - 2", F_Z13),
                        ("zeta^2/3 + 1", F_Z5)):
        s = parse_scalar(text, field)
        assert field.from_int(1) is field.one
        for _ in range(2):         # the product table cold, then warm
            assert field.one * s is s and s * field.one is s
            assert s * field.from_int(1) is s and 1 * s is s
            s * s


def test_division_makes_a_fraction_never_a_float():
    third = F_TL.from_int(3).inverse()
    assert _exponents(F_TL, third.num) == {(0, 0): Fraction(1, 3)}
    assert type(_exponents(F_TL, third.num)[(0, 0)]) is Fraction
    z = F_Z13.from_int(3).inverse()
    assert all(type(c) is not float for c in _coefficients(z))
    assert z * F_Z13.from_int(3) == F_Z13.one
    assert render(parse_scalar("(2*t + 2)/(4*t)", F_T)) == "(t/2 + 1/2)/t"


# the product table of one-term values ----------------------------------------


def _one_term(field):
    return laurent(field, _RATIONAL_COEF, st.just(1)).filter(bool)


def _apart(s):
    """s over a field equal to its own but built separately."""
    f = s.field
    return Scalar(ScalarField(f.variables, f.cyclotomic_order),
                  dict(s.num), dict(s.den))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F_TL, F_Z5T, F_Z13]).flatmap(
    lambda f: st.tuples(_one_term(f), _one_term(f))))
@example((parse_scalar("3*t/lambda", F_TL), parse_scalar("t^-1/2", F_TL)))
@example((parse_scalar("zeta^3", F_Z13), parse_scalar("zeta^11", F_Z13)))
def test_one_term_products_match_reference_cold_and_warm(pair):
    # from an empty registry and operands with no id, so no registry is
    # emptied while the example runs and forgets the content of a
    a, b = (Scalar(s.field, dict(s.num), dict(s.den)) for s in pair)
    a.field._ids.clear()
    want = reference_mul(a, b)
    a2, b2 = _apart(a), _apart(b)
    for x, y in ((a, b), (a2, b2), (a, b2), (a2, b)):
        x.field._products.clear()
        cold = x * y
        # warm: the same operands, then equal operands built again
        again = Scalar(x.field, dict(x.num), dict(x.den))
        for got in (cold, x * y, again * y, x * _apart(y)):
            assert got == want and hash(got) == hash(want)
            assert render(got) == render(want)
            assert (got.laurent, got.num, got.den) == \
                (want.laurent, want.num, want.den)
        if x != 1 and y != 1:
            # a table product belongs to the left operand's field
            assert cold.field is x.field
            assert x * y is cold
            assert x.field._products[x._k, y._k] is cold
            # operands interned by content: the stored object again
            assert again._k == x._k and again * y is cold
    # the sum with the field's zero is the other operand
    zero = a.field.zero
    assert zero + a is a and a + zero is a
    # with the table and the registry emptied, interned operands compute
    # their product again, then read it from the table
    a.field._products.clear()
    a.field._ids.clear()
    for got in (a * b, a * b):
        assert got == want and render(got) == render(want)
    # an int operand is coerced, on either side
    assert 3 * a == reference_mul(a, 3) and a * 3 == 3 * a
    assert zero + 3 == a.field.from_int(3) and 3 + zero == zero + 3


def _rebuilt(s):
    """s built again in its own field, as _apart builds it in another."""
    return Scalar(s.field, dict(s.num), dict(s.den))


@pytest.mark.parametrize("texts, field", [
    (("3*t/lambda", "t^-1/2"), F_TL), (("zeta^3", "zeta^4/3"), F_Z13)])
def test_equal_operands_reach_one_table_entry(texts, field, monkeypatch):
    calls = []

    def counted(A, B, field, *checked):
        calls.append(1)
        return _p_mul(A, B, field, *checked)

    a, b = (parse_scalar(text, field) for text in texts)
    field._products.clear()
    monkeypatch.setattr(scalars, "_p_mul", counted)
    p = a * b
    assert len(calls) == 1
    a2, b2 = _rebuilt(a), _rebuilt(b)
    assert a2 is not a and b2 is not b
    assert a2 * b2 is p and a * b2 is p and len(calls) == 1
    assert (a2._k, b2._k) == (a._k, b._k)


def test_equal_one_term_products_are_one_object():
    field = ScalarField(("t", "lambda"))
    t, lam = field.var("t"), field.var("lambda")
    assert (t * lam) * t is (t ** 2) * lam
    # the registry keeps the first value seen with a content, here an
    # operand, and every later product with that content is that value
    z13 = ScalarField((), cyclotomic_order=13)
    zeta = z13.zeta()
    x = zeta ** 7
    assert x * zeta == zeta ** 8
    assert zeta ** 3 * zeta ** 4 is x and zeta * zeta ** 6 is x
    assert zeta ** 6 * x is z13.one


_LAURENT_IMPORTS = """
import sys
import homq.comodule
from homq.cobraid import (CobraidedHomBialgebra, CobraidingForm,
                          verify_cobraided)
from homq.hombialg import HomBialgebra, twist_hom_bialgebra
from homq.ncpoly import Presentation
from homq.scalars import ScalarField, parse_scalar, render

def loaded():
    return [m for m in ("fractions", "homq.ratfunc") if m in sys.modules]

F5 = ScalarField((), cyclotomic_order=5)
P = Presentation("g", [("ggggg", {"1": 1})], F5, max_degree=4)
H = twist_hom_bialgebra(HomBialgebra(P, {"g": {("g", "g"): 1}}),
                        {"g": {"gg": 1}})
C = CobraidedHomBialgebra(
    H, CobraidingForm(P, {("g", "g"): "zeta"}, {"g": 1}, {"g": 1}))
assert verify_cobraided(C, 4).passed
print(loaded())
F = ScalarField(("t",))
print(render(parse_scalar("1/(t + 1)", F)), loaded())
print(render(parse_scalar("t/3", F)), loaded())
"""


def test_the_laurent_path_loads_neither_ratfunc_nor_fractions():
    # a fresh interpreter, since this one has loaded both
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(scalars.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _LAURENT_IMPORTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "[]",
        "1/(t + 1) ['homq.ratfunc']",
        "t/3 ['fractions', 'homq.ratfunc']"]


def test_the_package_import_loads_no_future_module():
    # a fresh interpreter without site, whose start-up loads no
    # __future__, so only the package could load it
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(scalars.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, homq.comodule; print('__future__' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_an_id_is_never_reused():
    field = ScalarField(("t", "lambda"))
    t, lam = field.var("t"), field.var("lambda")
    assert _exponents(field, (t * lam).laurent) == {(1, 1): 1}
    old = {t._k, lam._k}
    i = 1
    while True:
        # a new value each time, until one empties the registry and is
        # the first value of the emptied registry to get an id
        i += 1
        x = t ** i
        assert _exponents(field, (x * lam).laurent) == {(i, 1): 1}
        if len(field._ids) == 1:
            break
    fresh = [x, field.var("t"), field.var("lambda"),
             parse_scalar("2*t^3", field), parse_scalar("lambda^-2/7", field)]
    for u in [t, lam] + fresh:
        for v in [t, lam] + fresh:
            assert u * v == reference_mul(u, v)
    ids = [s._k for s in fresh]
    assert len(set(ids)) == len(ids) and not old & set(ids)


@pytest.mark.parametrize("texts, variables, order", [
    (("3*t/lambda", "t^-1/2", "lambda^2", "-t"), ("t", "lambda"), None),
    (("zeta^3", "2*zeta", "zeta^4/3", "-1"), (), 5)])
def test_products_across_equal_fields(texts, variables, order):
    field, twin = (ScalarField(variables, order) for _ in range(2))
    assert twin == field and twin is not field
    # the twin's values in the other order, so that ids counted per field
    # would name different values in the two
    values = [parse_scalar(text, field) for text in texts]
    values += [parse_scalar(text, twin) for text in reversed(texts)]
    for _ in range(2):             # the product tables cold, then warm
        for x in values:
            for y in values:
                p = x * y
                assert p == reference_mul(x, y) and p.field is x.field
                assert render(p) == render(reference_mul(x, y))


def test_trivial_operands_across_equal_fields():
    # a sum with zero or a product with one gives a value of the left
    # operand's field, as every other mixed sum and product does, so that
    # identity tests against that field's zero and one see it
    F, G = (ScalarField(("t",)) for _ in range(2))
    x = G.var("t")
    assert (F.zero + x).field is F and (F.one * x).field is F
    for y in (x, parse_scalar("3*t^-2", G), parse_scalar("1/(t + 1)", G)):
        for got, want, field in ((F.zero + y, y, F), (F.one * y, y, F),
                                 (y + F.zero, y, G), (y * F.one, y, G),
                                 (F.zero - y, -y, F)):
            assert got == want and got.field is field
    assert F.zero + G.one is F.one and F.one * G.zero is F.zero
    assert F.one * G.one is F.one and F.zero + G.zero is F.zero
    # a one-term value keeps its id, which names its content in F too
    t = F.var("t")
    p = t * x
    assert F._products[t._k, x._k] is p and t * x is p


def _token_count(path):
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as f:
        return sum(tok.type not in skip
                   for tok in tokenize.tokenize(f.readline))


def test_scalars_module_stays_below_the_parser_token_doubling():
    """The compile of scalars.py is the peak memory of a process that
    only multiplies cyclotomic values (the zn13 benchmark workload).  The
    parser grows its token array by doubling, so a module of 8,192 tokens
    or more raises that peak, and peak_rss_mb with it, by about 0.5 MB."""
    assert _token_count(scalars.__file__) < 8192


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(scalars.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_module_stays_below_the_parser_token_doubling(path):
    """The compile of the largest module of homq is the peak memory of
    importing the package, so no module may reach the 8,192 tokens at
    which the parser doubles its token array (see the test above); it
    would raise setup_s and peak_rss_mb of every workload."""
    assert _token_count(path) < 8192


def test_product_table_never_grows_past_its_size():
    field = ScalarField(("t", "lambda"))
    t, lam = field.var("t"), field.var("lambda")
    powers = [t ** i for i in range(2, 2 * _PRODUCTS_SIZE + 9)]
    sizes = []
    for i, a in enumerate(powers, 2):
        assert _exponents(field, (a * lam).laurent) == {(i, 1): 1}
        sizes.append(len(field._products))
    assert max(sizes) == _PRODUCTS_SIZE
    assert sizes.count(1) == 3       # filled from empty, then emptied twice


def test_a_memoised_product_is_not_changed_by_arithmetic_on_it():
    a, b = parse_scalar("3*t/lambda", F_TL), parse_scalar("t^2/5", F_TL)
    F_TL._products.clear()
    p = a * b
    before = (*(_exponents(F_TL, d) for d in (p.laurent, p.num, p.den)),
              render(p), hash(p))
    others = [parse_scalar(u, F_TL) for u in
              ("3*t^3/(5*lambda)", "t + lambda", "1/(t + 1)", "-7", "t/2")]
    for c in others:
        for r in (p + c, c + p, p - c, c - p, p * c, c * p, p / c, c / p):
            r + r
            r * r
    for r in (-p, p ** 3, p ** -2, p.inverse(), p * p, p + p, p - p):
        r + r
        r * r
    assert a * b is p
    after = (*(_exponents(F_TL, d) for d in (p.laurent, p.num, p.den)),
             render(p), hash(p))
    assert after == before == (
        {(3, -1): Fraction(3, 5)}, {(3, 0): Fraction(3, 5)}, {(0, 1): 1},
        "3*t^3/5/lambda", hash(reference_mul(a, b)))
