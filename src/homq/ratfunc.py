"""Arithmetic of rational functions whose denominator is not a monomial.

A ``Scalar`` (see ``homq.scalars``) whose reduced denominator is a
monomial is a Laurent dict.  Any other value is a coprime (numerator,
denominator) pair of polynomial dicts, keyed by packed exponent vectors
as every dict of ``scalars`` is, the denominator monic under graded lex
with the declared variable order.  This module is the arithmetic that
meets such a pair: ``add``, ``mul`` and ``inverse``, which read a Laurent
operand as its pair and return the canonical value through
``ScalarField._coprime_make``.  ``scalars`` imports it only inside the
branches that need it, so a process whose values all have monomial
denominators never loads it.

A sum over two denominators divides out their gcd, and then the gcd of
the sum with what is left; a product cross-cancels each numerator
against the other operand's denominator, so the product of the reduced
parts is coprime; an inverse swaps the pair.  Every gcd is ``_p_gcd``, a
multivariate gcd whose primitive part comes from the dense monic Euclid
``_ugcd`` on the one dense conversion ``to_scalar_coeffs``, over the
field of the other variables that ``_subfield_for`` caches; it refuses a
pair whose dense Euclid would pass the bound ``_DENSE_MAX`` before it
allocates.  ``_cancel`` takes the gcd with a monomial as the common
monomial factor (``scalars._split``).  Every product here runs the
exponent guard of ``scalars._checked``, and ``_p_div_exact`` tests each
quotient key for exponents in [0, 2^61) with one AND.
"""

from functools import lru_cache, reduce
from operator import or_ as _or

from .scalars import (_BIAS, _MASK, Scalar, ScalarError, ScalarField,
                      _p_add, _p_lead, _p_mul, _recip, _split, _udivmod)


def add(x, y):
    """x + y of two nonzero values, one of them a (num, den) pair."""
    f = x.field
    (n1, d1), (n2, d2) = x._view(), y._view()
    g = _p_gcd(d1, d2, f)
    e1 = _p_div_exact(d1, g, f)
    e2 = _p_div_exact(d2, g, f)
    num = _p_add(_p_mul(n1, e2, f), _p_mul(n2, e1, f))
    if not num:
        return f.zero
    # common factors of the sum with the denominator sit inside g
    h = g if _is_const(g, f) else _p_gcd(num, g, f)
    if not _is_const(h, f):
        num = _p_div_exact(num, h, f)
        g = _p_div_exact(g, h, f)
    return f._coprime_make(num, _p_mul(_p_mul(g, e1, f), e2, f))


def mul(x, y):
    """x * y of two nonzero values, one of them a (num, den) pair."""
    f = x.field
    # cross-cancel so the product of the reduced parts is coprime
    (n1, d1), (n2, d2) = x._view(), y._view()
    one = f._one_poly
    if d2 != one:
        n1, d2 = _cancel(n1, d2, f)
    if d1 != one:
        n2, d1 = _cancel(n2, d1, f)
    return f._coprime_make(_p_mul(n1, n2, f), _p_mul(d1, d2, f))


def inverse(x):
    """1/x of a nonzero value that is not one term: its pair swapped."""
    num, den = x._view()
    return x.field._coprime_make(dict(den), dict(num))


def _ugcd(a, b):
    """Monic gcd of dense a and b (b may be empty).  Each remainder is made
    monic before it divides, or its scalar factor swells with every step."""
    while b:
        inv = _recip(b[-1])
        b = [c * inv for c in b]
        a, b = b, _udivmod(a, b)[1]
    inv = _recip(a[-1])
    return [c * inv for c in a]


def _p_div_exact(A, B, field):
    """Quotient A / B, or None when B does not divide A exactly."""
    z = field._zero_exp
    out = {}
    R = dict(A)
    eB = _p_lead(B, field)
    cinv = _recip(B[eB])
    while R:
        eR = _p_lead(R, field)
        d = eR - eB
        # every exponent of x^d lies in [0, 2^61): each field has bit 61
        # (a bit of z) and no guard bit
        if d + z & (field._g | z) != z:
            return None
        q = R[eR] * cinv
        out[d + z] = q
        for e2, c2 in B.items():
            e = d + e2
            p = q * c2
            s = R.get(e)
            if s is None:
                R[e] = -p
            else:
                s = s - p
                if s:
                    R[e] = s
                else:
                    del R[e]
    return out


# The bound on the dense Euclid of _p_gcd.  On main-variable degrees d_A
# and d_B it does about (d_A + 1)(d_B + 1) coefficient operations, and a
# gcd is refused, before any list is allocated, when that product passes
# (_DENSE_MAX + 1)^2.  Over Q, two generic polynomials of degree 256 take
# about 4 s (2-vCPU x86-64 host), and the cost grows faster than the
# product; a sparse pair such as t + 1 and t^300 + 1 costs little, and
# t^(2^60) + 1 would need one list slot per degree.
_DENSE_MAX = 256


@lru_cache(maxsize=None)
def _subfield_for(names, order):
    return ScalarField(names, order)


def _p_gcd(A, B, field):
    """gcd of two nonzero polynomial dicts, up to a nonzero constant.

    The last variable in use is the main one.  The content in it is a
    gcd in the other variables, and the primitive part comes from a dense
    monic Euclid over their fraction field (Q, or Q(zeta_n), when there
    are none), which keeps intermediate coefficient growth in check.  A
    pair whose main-variable degrees pass the bound above is refused.
    """
    # the fields of the exponents that are not zero in some key
    moved = reduce(_or, (e ^ field._zero_exp for e in (*A, *B)))
    used = [i for i in range(field.nvars) if moved >> 64 * i & _MASK]
    if not used:
        return dict(field._one_poly)
    m = used[-1]
    da, db = (max((e >> 64 * m & _MASK) - _BIAS for e in P) for P in (A, B))
    if (da + 1) * (db + 1) > (_DENSE_MAX + 1) ** 2:
        raise ScalarError(f"a gcd of degrees {da} and {db} is past the "
                          f"dense limit {_DENSE_MAX}")
    others = tuple(used[:-1])
    sub = _subfield_for(tuple(field.variables[i] for i in others),
                        field.cyclotomic_order)

    def content(P):
        groups = {}
        for e, c in P.items():
            k = (e >> 64 * m & _MASK) - _BIAS
            groups.setdefault(k, {})[e - (k << 64 * m)] = c
        g = {}
        for part in groups.values():
            g = part if not g else _p_gcd(g, part, field)
            if _is_const(g, field):
                break
        return g

    cont_g = _p_gcd(content(A), content(B), field)

    def to_scalar_coeffs(P, top):
        groups = {}
        for e, c in P.items():
            e = field._unpack(e)
            groups.setdefault(e[m], {})[sub._pack([e[i] for i in others])] = c
        out = [sub.zero] * (top + 1)
        for d, poly in groups.items():
            out[d] = Scalar(sub, poly, sub._one_poly)
        return out

    h = _ugcd(to_scalar_coeffs(A, da), to_scalar_coeffs(B, db))

    # clear denominators and take the primitive part in the main variable
    den_prod = dict(sub._one_poly)
    for c in h:
        if c.num:
            den_prod = _p_mul(den_prod, c.den, sub)
    cont = {}
    numerators = []
    for c in h:
        if c.num:
            n = _p_mul(c.num, _p_div_exact(den_prod, c.den, sub), sub)
            cont = n if not cont else _p_gcd(cont, n, sub)
        else:
            n = {}
        numerators.append(n)
    if not _is_const(cont, sub):
        numerators = [_p_div_exact(n, cont, sub) if n else n
                      for n in numerators]
    flat = {}
    for d, n in enumerate(numerators):
        for sub_e, c in n.items():
            e = [0] * field.nvars
            for i, k in zip(others, sub._unpack(sub_e)):
                e[i] = k
            e[m] = d
            flat[field._pack(e)] = c
    return _p_mul(cont_g, flat, field)


def _is_const(g, field):
    return len(g) == 1 and field._zero_exp in g


def _cancel(P, Q, field):
    """Divide gcd(P, Q) out of both; inputs nonzero, dicts not mutated."""
    if len(Q) == 1:
        # gcd with a monomial is the common monomial factor
        ((d, c),) = Q.items()
        P, e = _split(P, d, field)
        return P, (Q if e == d else {e: c})
    if len(P) == 1:
        Q, P = _cancel(Q, P, field)
        return P, Q
    g = _p_gcd(P, Q, field)
    if _is_const(g, field):
        return P, Q
    return _p_div_exact(P, g, field), _p_div_exact(Q, g, field)
