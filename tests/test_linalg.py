from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from homq.linalg import kernel_basis, rref
from homq.scalars import ScalarField, parse_scalar


FQ = ScalarField(())
FT = ScalarField(("t",))
T = sympy.Symbol("t")


def to_sympy(s):
    """A scalar of Q or Q(t) as a sympy expression."""
    syms = [sympy.Symbol(v) for v in s.field.variables]

    def poly(p):
        total = sympy.Integer(0)
        for exps, c in p.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, e in zip(syms, s.field._unpack(exps)):
                term *= sym ** e
            total += term
        return total

    return poly(s.num) / poly(s.den)


def scalar(field, q):
    q = Fraction(q)
    return field.from_int(q.numerator) / field.from_int(q.denominator)


def mat_vec(rows, v, field):
    return [sum((a * b for a, b in zip(row, v)), field.zero) for row in rows]


# entries lean on 0 and small integers so that rank deficiency is common
ENTRY = st.one_of(st.integers(-2, 2),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))
MATRIX = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=4))


@settings(max_examples=120, deadline=None)
@given(MATRIX)
def test_rref_matches_sympy(entries):
    rows = [[scalar(FQ, q) for q in row] for row in entries]
    red, pivots = rref(rows)
    want, want_pivots = sympy.Matrix(entries).rref()
    assert tuple(pivots) == want_pivots
    assert [[to_sympy(c) for c in row] for row in red] == \
        want.tolist()[:len(pivots)]


@settings(max_examples=120, deadline=None)
@given(MATRIX)
def test_kernel_basis_spans_the_kernel(entries):
    ncols = len(entries[0])
    rows = [[scalar(FQ, q) for q in row] for row in entries]
    basis = kernel_basis(rows, ncols, FQ)
    assert len(basis) == ncols - sympy.Matrix(entries).rank()
    for v in basis:
        assert all(c.is_zero() for c in mat_vec(rows, v, FQ))


def test_rational_function_matrix():
    # the third row is the sum of the first two and the second is not a
    # multiple of the first: rank 2, so a kernel of dimension 2
    text = [["t", "1", "t^2", "0"],
            ["1", "t^-1", "t + 1", "t"],
            ["t + 1", "1 + t^-1", "t^2 + t + 1", "t"]]
    rows = [[parse_scalar(c, FT) for c in row] for row in text]
    red, pivots = rref(rows)
    want, want_pivots = sympy.Matrix(
        [[sympy.sympify(c.replace("^", "**"), locals={"t": T}) for c in row]
         for row in text]).rref(simplify=True)
    assert tuple(pivots) == want_pivots == (0, 2)
    for got_row, want_row in zip(red, want.tolist()):
        for got, w in zip(got_row, want_row):
            assert sympy.simplify(to_sympy(got) - w) == 0
    basis = kernel_basis(rows, 4, FT)
    assert len(basis) == 2
    for v in basis:
        assert all(c.is_zero() for c in mat_vec(rows, v, FT))
