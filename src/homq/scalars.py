"""Exact scalar arithmetic.

Every coefficient in this package is a scalar drawn from a field

    Q(zeta_n)(x_1, ..., x_k)

of multivariate rational functions over a cyclotomic extension of the
rationals.  No floats anywhere: a rational coefficient is a Python
``int`` until a division makes it a ``fractions.Fraction``, and every
division goes through ``_recip``.  An integral ``Fraction`` is stored
as its ``int``.  One dense ``_udivmod`` does every polynomial division
with remainder.

Every scalar has exactly one form, so equality is plain structural
equality, which is what every verifier in the package relies on.  A
value whose reduced denominator is a monomial (a Laurent polynomial, the
common case) is one dict {signed exponent tuple: coefficient}; between
two of them ``*`` and ``+`` are a product and a sum with no cancellation.
Any other value is a coprime (numerator, denominator) pair, the
denominator monic under graded lex with the declared variable order,
and arithmetic that meets one goes through a multivariate gcd.

The parser accepts integer literals, declared variable names, ``zeta``
(when the field has a cyclotomic order), the sugar ``q`` for ``t^2`` and
``q_half`` for ``t`` (only when a variable ``t`` is declared and no
variable ``q`` shadows it), the operators ``+ - * / ^`` and parentheses.
Exponents are integer literals, possibly negative; ``q^(-1)`` is a
syntax error while ``q^-1`` is fine.
"""

from __future__ import annotations

import re
from fractions import Fraction as _Q
from functools import lru_cache
from operator import add as _add, sub as _sub

class ScalarError(Exception):
    """Base for everything raised by this module."""


class ScalarSyntaxError(ScalarError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariable(ScalarError):
    def __init__(self, name, position=None):
        at = "" if position is None else f" (at position {position})"
        super().__init__(f"undeclared variable {name!r}{at}")
        self.name = name
        self.position = position


class ZetaUnavailable(ScalarError):
    def __init__(self, position=None):
        at = "" if position is None else f" (at position {position})"
        super().__init__(f"zeta used in a field without cyclotomic_order{at}")
        self.position = position


class ScalarZeroDivision(ScalarError):
    def __init__(self, message="division by the zero scalar"):
        super().__init__(message)


class PoleError(ScalarError):
    def __init__(self, assignment):
        pretty = ", ".join(f"{k} -> {v}" for k, v in assignment.items())
        super().__init__(f"denominator vanishes under {{{pretty}}}")
        self.assignment = dict(assignment)


# ---------------------------------------------------------------------------
# univariate helpers over Q, dense lists low degree first


def _recip(c):
    """Exact 1/c of a nonzero coefficient.

    A rational becomes a _Q (an int of +-1 stays an int), so no division
    can produce a float; a cyclotomic number or a Scalar, its inverse.
    """
    if isinstance(c, int):
        return c if c == 1 or c == -1 else _Q(1, c)
    if isinstance(c, _Q):
        return 1 / c
    return c.inverse()


def _tidy(c):
    """c, an int if it is an integral Fraction."""
    if type(c) is _Q and c.denominator == 1:
        return c.numerator
    return c


def _utrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _udivmod(a, b):
    """Quotient and remainder of dense a by b, any coefficient type.  Zero
    leading terms cost nothing, and the cancelled top term is skipped."""
    a = list(a)
    db = len(b) - 1
    inv = _recip(b[-1])
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        if c:
            c = q[i] = c * inv
            for j in range(db):
                a[i + j] -= c * b[j]
    return q, _utrim(a[:db])


def _ugcd(a, b):
    """Monic gcd of dense a and b (b may be empty).  Each remainder is made
    monic before it divides, or its scalar factor swells with every step."""
    while b:
        inv = _recip(b[-1])
        b = [c * inv for c in b]
        a, b = b, _udivmod(a, b)[1]
    inv = _recip(a[-1])
    return [c * inv for c in a]


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(n):
    """Dense coefficient list of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, r = _udivmod(poly, list(_cyclotomic_coeffs(d)))
            assert not r
            poly = q
    return tuple(poly)


def _uinv_mod(a, m):
    """Inverse of a modulo m over Q; a nonzero, m irreducible."""
    old_r, r = list(a), list(m)
    old_s, s = [1], []
    while r:
        q, rem = _udivmod(old_r, r)
        old_r, r = r, rem
        new_s = list(old_s)
        # new_s -= q * s
        need = len(q) + len(s) - 1 if q and s else 0
        while len(new_s) < need:
            new_s.append(0)
        for i, qi in enumerate(q):
            if not qi:
                continue
            for j, sj in enumerate(s):
                new_s[i + j] -= qi * sj
        old_s, s = s, _utrim(new_s)
    # old_r is the gcd, a nonzero constant here
    g = _recip(old_r[0])
    return _udivmod([c * g for c in old_s], m)[1]


# ---------------------------------------------------------------------------
# cyclotomic coefficient numbers


class _CycNumBase:
    """Element of Q(zeta_n), stored as a coefficient tuple of length phi(n).

    Subclasses are generated per order and carry the reduction rows for
    zeta^phi .. zeta^(2 phi - 2) as class data, so multiplication is a
    convolution plus table folds.  An integral Fraction entry is stored
    as its int.
    """

    __slots__ = ("v",)
    ORDER = None
    DEG = None
    RED = ()
    PHI = ()

    def __init__(self, v):
        v = tuple(v)
        self.v = tuple(map(_tidy, v)) if _Q in map(type, v) else v

    def __bool__(self):
        return any(self.v)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __add__(self, other):
        return type(self)(map(_add, self.v, other.v))

    def __sub__(self, other):
        return type(self)(map(_sub, self.v, other.v))

    def __neg__(self):
        return type(self)(tuple(-a for a in self.v))

    def __mul__(self, other):
        deg = self.DEG
        if deg == 1:
            return type(self)((self.v[0] * other.v[0],))
        out = [0] * (2 * deg - 1)
        for i, a in enumerate(self.v):
            if not a:
                continue
            for j, b in enumerate(other.v):
                if b:
                    out[i + j] += a * b
        for i in range(2 * deg - 2, deg - 1, -1):
            c = out[i]
            if c:
                for j, rj in enumerate(self.RED[i - deg]):
                    if rj:
                        out[j] += c * rj
        return type(self)(out[:deg])

    def inverse(self):
        if not any(self.v):
            raise ScalarZeroDivision()
        dense = _utrim(list(self.v))
        inv = _uinv_mod(dense, list(self.PHI))
        inv = list(inv) + [0] * (self.DEG - len(inv))
        return type(self)(inv[: self.DEG])

    def __repr__(self):  # debugging aid only
        return f"cyc{self.ORDER}{tuple(str(c) for c in self.v)}"


@lru_cache(maxsize=None)
def _cyc_class(n):
    phi = _cyclotomic_coeffs(n)
    deg = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(deg - 2):
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            cur = [a + top * b for a, b in zip(cur, rows[0])]
        rows.append(tuple(cur))

    cls = type(f"_Cyc{n}", (_CycNumBase,), {"__slots__": ()})
    cls.ORDER = n
    cls.DEG = deg
    cls.RED = tuple(rows)
    cls.PHI = phi
    cls.ZERO = cls((0,) * deg)
    cls.ONE = cls((1,) + (0,) * (deg - 1))
    if deg > 1:
        cls.ZETA = cls((0, 1) + (0,) * (deg - 2))
    elif n == 1:
        cls.ZETA = cls.ONE
    else:  # n == 2
        cls.ZETA = cls((-1,))
    return cls


# ---------------------------------------------------------------------------
# sparse polynomial dicts {exponent tuple: coefficient}


def _grlex(e):
    return (sum(e), e)


def _p_add(A, B):
    out = dict(A)
    for e, c in B.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _p_neg(A):
    return {e: -c for e, c in A.items()}


def _p_mul(A, B):
    if len(B) == 1:
        A, B = B, A
    if len(A) == 1:
        ((ea, ca),) = A.items()
        return {tuple(map(_add, ea, eb)): ca * cb for eb, cb in B.items()}
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(map(_add, ea, eb))
            p = ca * cb
            s = out.get(e)
            if s is None:
                out[e] = p
            else:
                s = s + p
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _p_scale(A, c):
    return {e: v * c for e, v in A.items()}


def _p_tidy(A):
    """A with every integral Fraction coefficient an int."""
    if _Q in map(type, A.values()):
        return {e: _tidy(c) for e, c in A.items()}
    return A


def _split(P, d):
    """P and x^d over their common monomial factor (the latter as its
    exponent); with d zero, the (num, den) pair of a Laurent dict P."""
    s = d
    for e in P:
        s = tuple(map(min, s, e))
    if not any(s):
        return P, d
    return ({tuple(map(_sub, e, s)): c for e, c in P.items()},
            tuple(map(_sub, d, s)))


def _p_pow(A, n):
    out = None
    base = A
    while n:
        if n & 1:
            out = base if out is None else _p_mul(out, base)
        n >>= 1
        if n:
            base = _p_mul(base, base)
    return out


def _p_lead(A):
    return max(A, key=_grlex)


def _p_div_exact(A, B):
    """Quotient A / B, or None when B does not divide A exactly."""
    out = {}
    R = dict(A)
    eB = _p_lead(B)
    cinv = _recip(B[eB])
    while R:
        eR = _p_lead(R)
        d = tuple(x - y for x, y in zip(eR, eB))
        if any(x < 0 for x in d):
            return None
        q = R[eR] * cinv
        out[d] = q
        for e2, c2 in B.items():
            e = tuple(x + y for x, y in zip(d, e2))
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


def _gcd_uni(A, B, i, field):
    """Monic Euclid in the single variable i over the coefficient field."""
    zero = field._cyc.ZERO if field._cyc else 0

    def todense(P):
        d = max(e[i] for e in P)
        out = [zero] * (d + 1)
        for e, c in P.items():
            out[e[i]] = c
        return out

    base = field._zero_exp
    out = {}
    for k, c in enumerate(_ugcd(todense(A), todense(B))):
        if c:
            out[base[:i] + (k,) + base[i + 1 :]] = c
    return out


@lru_cache(maxsize=None)
def _subfield_for(names, order):
    return ScalarField(names, order)


def _p_gcd(A, B, field):
    """gcd of two nonzero polynomial dicts, up to a nonzero constant.

    Univariate inputs run a dense monic Euclid directly; multivariate
    inputs recurse through the fraction field of the remaining variables,
    which keeps intermediate coefficient growth in check.
    """
    used = [i for i in range(field.nvars)
            if any(e[i] for e in A) or any(e[i] for e in B)]
    if not used:
        return dict(field._one_poly)
    if len(used) == 1:
        return _gcd_uni(A, B, used[0], field)

    m = used[-1]
    others = tuple(used[:-1])
    sub = _subfield_for(tuple(field.variables[i] for i in others),
                        field.cyclotomic_order)

    def content(P):
        groups = {}
        for e, c in P.items():
            key = e[m]
            sub_e = e[:m] + (0,) + e[m + 1 :]
            groups.setdefault(key, {})[sub_e] = c
        g = {}
        for part in groups.values():
            g = part if not g else _p_gcd(g, part, field)
            if len(g) == 1 and not any(_p_lead(g)):
                break
        return g

    cont_g = _p_gcd(content(A), content(B), field)

    def to_scalar_coeffs(P):
        groups = {}
        top = 0
        for e, c in P.items():
            d = e[m]
            top = max(top, d)
            sub_e = tuple(e[i] for i in others)
            groups.setdefault(d, {})[sub_e] = c
        out = [sub.zero] * (top + 1)
        for d, poly in groups.items():
            out[d] = Scalar(sub, poly, sub._one_poly)
        return out

    h = _ugcd(to_scalar_coeffs(A), to_scalar_coeffs(B))

    # clear denominators and take the primitive part in the main variable
    den_prod = dict(sub._one_poly)
    for c in h:
        if c.num:
            den_prod = _p_mul(den_prod, c.den)
    cont = {}
    numerators = []
    for c in h:
        if c.num:
            n = _p_mul(c.num, _p_div_exact(den_prod, c.den))
            cont = n if not cont else _p_gcd(cont, n, sub)
        else:
            n = {}
        numerators.append(n)
    if len(cont) > 1 or any(_p_lead(cont)):
        numerators = [_p_div_exact(n, cont) if n else n for n in numerators]
    flat = {}
    base = field._zero_exp
    for d, n in enumerate(numerators):
        for sub_e, c in n.items():
            e = list(base)
            for pos, i in enumerate(others):
                e[i] = sub_e[pos]
            e[m] = d
            flat[tuple(e)] = c
    return _p_mul(cont_g, flat)


def _is_const(g):
    return len(g) == 1 and not any(_p_lead(g))


def _cancel(P, Q, field):
    """Divide gcd(P, Q) out of both; inputs nonzero, dicts not mutated."""
    if len(Q) == 1:
        # gcd with a monomial is the common monomial factor
        ((d, c),) = Q.items()
        P, e = _split(P, d)
        return P, (Q if e is d else {e: c})
    if len(P) == 1:
        Q, P = _cancel(Q, P, field)
        return P, Q
    g = _p_gcd(P, Q, field)
    if _is_const(g):
        return P, Q
    return _p_div_exact(P, g), _p_div_exact(Q, g)


# ---------------------------------------------------------------------------
# fields and scalars

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"zeta"}


class ScalarField:
    """A rational function field with a declared variable order.

    The variable order matters: it fixes the graded lex order used to pick
    the monic leading term of denominators, hence the canonical form.
    """

    __slots__ = ("variables", "cyclotomic_order", "nvars", "_cyc", "_var_index",
                 "_zero_exp", "_one_poly", "zero", "one", "_hash")

    def __init__(self, variables=(), cyclotomic_order=None):
        variables = tuple(variables)
        seen = set()
        for name in variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
            if name in _RESERVED:
                raise ValueError(f"variable name {name!r} is reserved")
            if name in seen:
                raise ValueError(f"duplicate variable {name!r}")
            seen.add(name)
        if "t" in seen and ("q" in seen or "q_half" in seen):
            raise ValueError("q and q_half are sugar when t is declared; "
                             "they cannot be declared alongside t")
        if cyclotomic_order is not None and cyclotomic_order < 1:
            raise ValueError("cyclotomic_order must be a positive integer")
        self.variables = variables
        self.cyclotomic_order = cyclotomic_order
        self.nvars = len(variables)
        self._cyc = _cyc_class(cyclotomic_order) if cyclotomic_order else None
        self._var_index = {n: i for i, n in enumerate(variables)}
        self._zero_exp = (0,) * self.nvars
        self._one_poly = {self._zero_exp: self._coef_one()}
        self.zero = Scalar(self, {}, self._one_poly)
        self.one = Scalar(self, dict(self._one_poly), self._one_poly)
        self._hash = hash((variables, cyclotomic_order))

    def __eq__(self, other):
        return (isinstance(other, ScalarField)
                and self.variables == other.variables
                and self.cyclotomic_order == other.cyclotomic_order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        base = f"Q(zeta_{self.cyclotomic_order})" if self.cyclotomic_order else "Q"
        return f"ScalarField({base}({', '.join(self.variables)}))"

    # coefficient helpers -------------------------------------------------

    def _coef_one(self):
        return self._cyc.ONE if self._cyc else 1

    def _coef_from_int(self, v):
        if self._cyc:
            deg = self._cyc.DEG
            return self._cyc((v,) + (0,) * (deg - 1))
        return v

    # constructors ---------------------------------------------------------

    def from_int(self, v):
        if v == 0:
            return self.zero
        return Scalar(self, {self._zero_exp: self._coef_from_int(v)},
                      self._one_poly)

    def var(self, name):
        i = self._var_index.get(name)
        if i is None:
            raise UndeclaredVariable(name)
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Scalar(self, {e: self._coef_one()}, self._one_poly)

    def zeta(self):
        if not self._cyc:
            raise ZetaUnavailable()
        return Scalar(self, {self._zero_exp: self._cyc.ZETA}, self._one_poly)

    def parse(self, text):
        return parse_scalar(text, self)

    def _mono(self, e):
        """The monic monomial x^e as a denominator dict."""
        return {e: self._coef_one()} if any(e) else self._one_poly

    def _coprime_make(self, num, den):
        """Construct from an already coprime pair, normalizing the unit."""
        if not den:
            raise ScalarZeroDivision()
        if not num:
            return self.zero
        one = self._coef_one()
        lc = den[_p_lead(den)]
        if lc != one:
            inv = _recip(lc)
            num = _p_scale(num, inv)
            den = _p_scale(den, inv)
        return Scalar(self, num, den)


def _laurent(field, terms):
    """The Scalar whose Laurent dict is terms (nonzero coefficients)."""
    s = object.__new__(Scalar)
    s.field = field
    s.laurent = _p_tidy(terms)
    s._pair = None
    s._h = None
    return s


class Scalar:
    """Canonical rational function, built by a ScalarField or from a
    canonical (num, den) pair.  ``laurent`` is its Laurent dict, or None
    when its reduced denominator is not a monomial; ``num`` and ``den``
    read either form as the canonical pair."""

    __slots__ = ("field", "laurent", "_pair", "_h")

    def __init__(self, field, num, den):
        num, den = _p_tidy(num), _p_tidy(den)
        self.field, self._pair, self._h = field, (num, den), None
        self.laurent = None
        if len(den) == 1:
            (d,) = den
            self.laurent = {tuple(map(_sub, e, d)): c for e, c in num.items()}

    def _view(self):
        """The canonical (num, den) pair, computed once."""
        if self._pair is None:
            num, d = _split(self.laurent, self.field._zero_exp)
            self._pair = (num, self.field._mono(d))
        return self._pair

    num = property(lambda self: self._view()[0])
    den = property(lambda self: self._view()[1])

    # predicates -----------------------------------------------------------

    def is_zero(self):
        return self.laurent == {}

    def __bool__(self):
        return self.laurent != {}

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is self.field or other.field == self.field:
                return other
            raise ScalarError("scalars from different fields")
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        f = self.field
        a, b = self.laurent, other.laurent
        if a == {}:
            return other
        if b == {}:
            return self
        if a is not None and b is not None:
            num = _p_add(a, b)
            return _laurent(f, num) if num else f.zero
        (n1, d1), (n2, d2) = self._view(), other._view()
        g = _p_gcd(d1, d2, f)
        e1 = _p_div_exact(d1, g)
        e2 = _p_div_exact(d2, g)
        num = _p_add(_p_mul(n1, e2), _p_mul(n2, e1))
        if not num:
            return f.zero
        # common factors of the sum with the denominator sit inside g
        h = g if _is_const(g) else _p_gcd(num, g, f)
        if not _is_const(h):
            num = _p_div_exact(num, h)
            g = _p_div_exact(g, h)
        return f._coprime_make(num, _p_mul(_p_mul(g, e1), e2))

    __radd__ = __add__

    def __neg__(self):
        a = self.laurent
        if a is None:
            num, den = self._pair
            return Scalar(self.field, _p_neg(num), den)
        return _laurent(self.field, _p_neg(a)) if a else self

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        f = self.field
        a, b = self.laurent, other.laurent
        if a is not None and b is not None:
            if not a or not b:
                return f.zero
            one = f._one_poly
            if a == one:
                return other
            if b == one:
                return self
            return _laurent(f, _p_mul(a, b))
        if a == {} or b == {}:
            return f.zero
        # cross-cancel so the product of the reduced parts is coprime
        (n1, d1), (n2, d2) = self._view(), other._view()
        one = f._one_poly
        if d2 != one:
            n1, d2 = _cancel(n1, d2, f)
        if d1 != one:
            n2, d1 = _cancel(n2, d1, f)
        return f._coprime_make(_p_mul(n1, n2), _p_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        a = self.laurent
        if a == {}:
            raise ScalarZeroDivision()
        if a is not None and len(a) == 1:
            ((e, c),) = a.items()
            return _laurent(self.field, {tuple(-k for k in e): _recip(c)})
        num, den = self._view()
        return self.field._coprime_make(dict(den), dict(num))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        f = self.field
        if n == 0:
            return f.one
        base = self if n > 0 else self.inverse()
        n = abs(n)
        if n == 1 or not base:
            return base
        a = base.laurent
        if a is not None:
            return _laurent(f, _p_pow(a, n))
        # powers of a coprime pair stay coprime; the monic unit is preserved
        num, den = base._pair
        return Scalar(f, _p_pow(num, n), _p_pow(den, n))

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, int):
                return NotImplemented
            other = self.field.from_int(other)
        if other.field is not self.field and other.field != self.field:
            return False
        return self.laurent == other.laurent and (
            self.laurent is not None or self._pair == other._pair)

    def __hash__(self):
        if self._h is None:
            # equal values have one form, so equal Laurent dicts or numerators
            a = self.laurent
            self._h = hash(frozenset(
                (self._pair[0] if a is None else a).items()))
        return self._h

    def __repr__(self):
        return f"Scalar({render(self)})"

    def render(self):
        return render(self)

    def specialize(self, assignment, target_field=None):
        return specialize(self, assignment, target_field)


# ---------------------------------------------------------------------------
# parsing


class _Parser:
    def __init__(self, text, field):
        self.text = text
        self.field = field
        self.tokens = self._tokenize(text)
        self.i = 0

    @staticmethod
    def _tokenize(text):
        out = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
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

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        value = self._expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ScalarSyntaxError(f"unexpected {text!r}", pos)
        return value

    def _expr(self):
        value = self._term()
        while True:
            kind, _, _ = self._peek()
            if kind == "+":
                self._next()
                value = value + self._term()
            elif kind == "-":
                self._next()
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._factor()
        while True:
            kind, _, pos = self._peek()
            if kind == "*":
                self._next()
                value = value * self._factor()
            elif kind == "/":
                self._next()
                rhs = self._factor()
                if rhs.is_zero():
                    raise ScalarZeroDivision(
                        f"division by the zero scalar (at position {pos})")
                value = value / rhs
            else:
                return value

    def _factor(self):
        kind, _, _ = self._peek()
        if kind == "-":
            self._next()
            return -self._factor()
        return self._power()

    def _power(self):
        base = self._atom()
        kind, _, _ = self._peek()
        if kind != "^":
            return base
        self._next()
        sign = 1
        kind, text, pos = self._peek()
        if kind == "-":
            self._next()
            sign = -1
            kind, text, pos = self._peek()
        if kind != "int":
            raise ScalarSyntaxError("expected an integer exponent", pos)
        self._next()
        n = sign * int(text)
        if n < 0 and base.is_zero():
            raise ScalarZeroDivision(
                f"division by the zero scalar (at position {pos})")
        return base ** n

    def _atom(self):
        kind, text, pos = self._next()
        field = self.field
        if kind == "int":
            return field.from_int(int(text))
        if kind == "(":
            value = self._expr()
            kind, text, pos = self._next()
            if kind != ")":
                raise ScalarSyntaxError("expected ')'", pos)
            return value
        if kind == "name":
            if text == "zeta":
                if field.cyclotomic_order is None:
                    raise ZetaUnavailable(pos)
                return field.zeta()
            if text in field._var_index:
                return field.var(text)
            if text == "q" and "t" in field._var_index:
                return field.var("t") ** 2
            if text == "q_half" and "t" in field._var_index:
                return field.var("t")
            raise UndeclaredVariable(text, pos)
        raise ScalarSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_scalar(text, field):
    return _Parser(text, field).parse()


def canonicalize(s):
    """Scalars are canonical by construction; exposed for contract symmetry."""
    return s


# ---------------------------------------------------------------------------
# rendering


def _render_coef_rational(q):
    # returns (sign, numerator string, denominator string or None)
    neg = q < 0
    if neg:
        q = -q
    num = q.numerator
    den = q.denominator
    return neg, str(num), (None if den == 1 else str(den))


def _render_cyc_parts(c):
    parts = []
    for j, a in enumerate(c.v):
        if not a:
            continue
        if j == 0:
            mono = None
        elif j == 1:
            mono = "zeta"
        else:
            mono = f"zeta^{j}"
        parts.append((a, mono))
    return parts


def _term_string(coef, mono):
    """Render one term; returns (is_negative, body)."""
    parts = (_render_cyc_parts(coef) if isinstance(coef, _CycNumBase)
             else [(coef, None)])
    if len(parts) > 1:
        inner = []
        for a, zmono in parts:
            neg, ns, ds = _render_coef_rational(a)
            if zmono is None:
                body = ns if ds is None else f"{ns}/{ds}"
            else:
                body = zmono if (ns == "1" and ds is None) else (
                    f"{ns}*{zmono}" if ds is None else f"{ns}*{zmono}/{ds}")
            if not inner:
                inner.append(("-" if neg else "") + body)
            else:
                inner.append(("- " if neg else "+ ") + body)
        coef_str = "(" + " ".join(inner) + ")"
        body = coef_str if not mono else f"{coef_str}*{mono}"
        return False, body
    a, zmono = parts[0]
    neg, ns, ds = _render_coef_rational(a)
    factors = []
    if zmono:
        factors.append(zmono)
    if mono:
        factors.append(mono)
    if not factors:
        body = ns
    else:
        if ns != "1":
            factors.insert(0, ns)
        body = "*".join(factors)
    if ds is not None:
        body = f"{body}/{ds}"
    return neg, body


def _mono_string(field, e):
    parts = []
    for name, k in zip(field.variables, e):
        if k == 0:
            continue
        parts.append(name if k == 1 else f"{name}^{k}")
    return "*".join(parts)


def _render_poly(field, P):
    if not P:
        return "0"
    terms = sorted(P.items(), key=lambda item: _grlex(item[0]), reverse=True)
    out = []
    for e, c in terms:
        neg, body = _term_string(c, _mono_string(field, e))
        if not out:
            out.append(("-" + body) if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def render(s):
    field = s.field
    num_s = _render_poly(field, s.num)
    if s.den == field._one_poly:
        return num_s
    den_s = _render_poly(field, s.den)
    if len(s.num) > 1 or num_s.startswith("-"):
        num_s = f"({num_s})"
    if len(s.den) > 1 or "*" in den_s:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


# ---------------------------------------------------------------------------
# specialization


def specialize(s, assignment, target_field=None):
    """Evaluate under a variable assignment.

    Values may be Scalars of the target field, strings parsed there, or
    ints.  Source variables missing from the assignment must exist in the
    target field and map to themselves.  Vanishing denominators raise
    PoleError naming the assignment.
    """
    field = s.field
    target = target_field if target_field is not None else field
    if field.cyclotomic_order is not None:
        tn = target.cyclotomic_order
        if tn is None or tn % field.cyclotomic_order != 0:
            raise ScalarError(
                "target field cannot host the source cyclotomic order")

    values = []
    for name in field.variables:
        if name in assignment:
            v = assignment[name]
            if isinstance(v, str):
                v = parse_scalar(v, target)
            elif isinstance(v, int):
                v = target.from_int(v)
            elif isinstance(v, Scalar):
                if v.field != target:
                    raise ScalarError(f"assignment for {name!r} lives in the wrong field")
            else:
                raise ScalarError(f"cannot interpret assignment for {name!r}")
        else:
            if name not in target._var_index:
                raise UndeclaredVariable(name)
            v = target.var(name)
        values.append(v)

    def map_coef(c):
        if isinstance(c, _CycNumBase):
            n = c.ORDER
            step = target.cyclotomic_order // n
            z = target.zeta() ** step
            acc = target.zero
            zp = target.one
            for j, a in enumerate(c.v):
                if a:
                    acc = acc + zp * _q_to_scalar(target, a)
                zp = zp * z
            return acc
        return _q_to_scalar(target, c)

    def eval_poly(P):
        acc = target.zero
        for e, c in P.items():
            term = map_coef(c)
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            acc = acc + term
        return acc

    num_v = eval_poly(s.num)
    den_v = eval_poly(s.den)
    if den_v.is_zero():
        raise PoleError(assignment)
    return num_v / den_v


def _q_to_scalar(field, q):
    return field.from_int(q.numerator) / q.denominator
