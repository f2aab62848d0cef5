"""Exact scalar arithmetic.

Every coefficient in this package is a scalar drawn from a field

    Q(zeta_n)(x_1, ..., x_k)

of multivariate rational functions over a cyclotomic extension of the
rationals.  No floats anywhere: a rational coefficient is a Python
``int`` until a division makes it a ``fractions.Fraction``, and every
division goes through ``_recip``, which alone loads ``fractions``.
Coefficients compare by value (``Fraction(2) == 2``, and the two hash
alike), so a coefficient stays whatever arithmetic returns.  One dense
``_udivmod`` does every polynomial division with remainder, the
reduction of every Q(zeta_n) value modulo the cyclotomic polynomial
included.

Every scalar has exactly one form, so equality is plain structural
equality on coefficient values, which is what every verifier in the
package relies on.  A value whose reduced denominator is a monomial (a
Laurent polynomial, the common case) is one dict {exponent key:
coefficient}; between two of them ``*`` and ``+`` are a product and a
sum with no cancellation.  Any other value is a coprime (numerator,
denominator) pair, whose arithmetic is ``homq.ratfunc``: this module
imports it only in the branches that meet such a pair.

Every polynomial dict, Laurent, numerator or denominator, is keyed by
packed exponent vectors: a key is one non-negative
int whose 64-bit field i (bits 64i to 64i + 63) holds e_i + 2^61, so an
exponent is valid when -2^61 <= e_i < 2^61.  With z the field's zero key
``_zero_exp``, which is also the key of the unit, a product of monomials
is the key ea + eb - z and an inverse is 2z - e, one int operation
each.  Bits 62 and 63 of every field are the guard, the mask ``_g``: no
valid key sets one, and an exponent that leaves the range sets one in
its own field, by overflow or by the borrow of an underflow.  A key that
fails that one AND (``_checked``) raises ScalarError("exponent out of
range"), so no exponent wraps.  The exact guard runs on every key of
``_split`` (but the one ``render`` makes, below), ``Scalar.__init__``, a
monomial ``Scalar.inverse`` and every product of ``ratfunc``.  A
Laurent product or power runs it only when the operands' exponent bounds
(see ``Scalar``) sum to 2^61 or more: below that, every exponent of the
result has |e_i| < 2^61, so every field of every key it can emit holds a
value in (0, 2^62), no borrow or carry crosses a field, and no key can
fail.  ``ScalarField._pack`` and ``_unpack`` convert
between keys and exponent tuples, and ``_pack`` refuses an exponent out
of range the same way.  Only code that reads one variable at a time
unpacks: graded lex order, rendering, ``_split``, the exponent bound of
a value built from keys and the gcd path.  ``render`` splits a Laurent
value unchecked: every exponent of its (num, den) pair lies in [0,
2^62), which a field holds exactly, so a value whose pair has no valid
key (an exponent -2^61, or a span of 2^61 or more) renders; ``num`` and
``den`` refuse it, and so does arithmetic that needs its pair.

A verifier multiplies values from a small set over and over (the roots
of unity of a bicharacter, the monomials q^a*lambda^b of a twisted form),
so each ScalarField keeps one product table.  A one-term Laurent value
(every value of Q(zeta_n), which has no variables) gets a small int id,
its ``_k``, the first time it is a product operand.  The field's registry
interns such values: it maps a content, the exponent key and the
coefficient (a Q(zeta_n) one as its tuple ``v``), to the first value
seen with it, whose ``_k`` is drawn from one process-wide counter, and a
later value of that content takes the same id.  So no id ever names two
contents, even after a registry is emptied or in another field equal to
this one.  A product of two such values is looked up by its pair of
ids; a miss computes it as before, then stores and returns the
registry's value of its content (or the field's ``one``).  So equal
one-term products are one object while the registry holds them, and a
comparison of lists or dicts of them (the rows of ``report._scan`` and
``_unzip``) succeeds by identity, with no ``__eq__`` call.
``Scalar.__mul__`` looks the pair up first, before any coercion, when
both operands already carry an id and share one field object; a product
with the field's ``one`` is the other operand, found by identity before
any dict is compared.  ``Scalar.__add__`` returns the other operand,
coerced, when one operand is zero, so ``zero + x is x``.  A value of
another, equal field is first re-homed into the left operand's field,
keeping its id, so that no result belongs to another field.  The table
and the registry are each emptied when they hold _PRODUCTS_SIZE
entries.  A stored product is equal to the value a miss would compute,
and no operation changes a Scalar's value, so no result's value depends
on what the table or the registry held.

Every result of arithmetic (and ``from_int``) equal to 0 or 1 is the
field's ``zero`` or ``one`` object, so the contractions of the other
modules test both by identity and make no call for them: a value that
``is zero`` is skipped, a product reads ``v if k is one else k * v``
(and the mirror test), and a sum starts at ``zero`` and takes its first
term by ``acc = t if acc is zero else acc + t``.  These tests only skip
work.  A field equal to another is not the same object, and neither
are its zero and one, so every test that decides a value (``is_zero``,
``__bool__``, ``ncpoly._bump``'s drop of a zero entry) compares values.

The parser accepts integer literals, declared variable names, ``zeta``
(when the field has a cyclotomic order), the sugar ``q`` for ``t^2`` and
``q_half`` for ``t`` (only when a variable ``t`` is declared and no
variable ``q`` shadows it), the operators ``+ - * / ^`` and parentheses.
Exponents are integer literals, possibly negative; ``q^(-1)`` is a
syntax error while ``q^-1`` is fine.
"""

import re
from functools import lru_cache, reduce
from itertools import count
from operator import add as _add, or_ as _or, sub as _sub

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


# ---------------------------------------------------------------------------
# univariate helpers over Q, dense lists low degree first


def _recip(c):
    """Exact 1/c of a nonzero coefficient.

    An int of +-1 stays an int, any other int becomes a
    ``fractions.Fraction``, so no division can produce a float; a
    Fraction gives its reciprocal, a cyclotomic number or a Scalar its
    inverse.  ``fractions`` is imported here, on the first division by an
    int other than +-1, so a process that never makes a Fraction never
    loads it.
    """
    if isinstance(c, int):
        if c == 1 or c == -1:
            return c
        from fractions import Fraction
        return Fraction(1, c)
    return c.inverse() if isinstance(c, (_CycNumBase, Scalar)) else 1 / c


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
        new_s = old_s + [0] * (len(q) + len(s))   # old_s - q * s
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s):
                    new_s[i + j] -= qi * sj
        old_s, s = s, _utrim(new_s)
    # old_r is the gcd, a nonzero constant, and deg old_s < deg m
    g = _recip(old_r[0])
    return [c * g for c in old_s]


# ---------------------------------------------------------------------------
# cyclotomic coefficient numbers


class _CycNumBase:
    """Element of Q(zeta_n), stored as a coefficient tuple of length phi(n).

    Subclasses are generated per order and carry PHI, the n-th cyclotomic
    polynomial, as class data.  Every product, inverse and constant is
    built by ``_mod_phi``, the remainder by PHI that ``_udivmod``
    computes, so a product is a convolution and one division; sums and
    negatives need no reduction.
    """

    __slots__ = ("v",)
    ORDER = None
    DEG = None
    PHI = ()

    def __init__(self, v):
        self.v = tuple(v)

    @classmethod
    def _mod_phi(cls, dense):
        """The element whose coefficients are dense (any length) mod PHI."""
        r = _udivmod(dense, cls.PHI)[1]
        return cls(r + [0] * (cls.DEG - len(r)))

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
        out = [0] * (2 * self.DEG - 1)
        for i, a in enumerate(self.v):
            if not a:
                continue
            for j, b in enumerate(other.v):
                if b:
                    out[i + j] += a * b
        return self._mod_phi(out)

    def inverse(self):
        if not any(self.v):
            raise ScalarZeroDivision()
        return self._mod_phi(_uinv_mod(self.v, self.PHI))

    def __repr__(self):  # debugging aid only
        return f"cyc{self.ORDER}{tuple(str(c) for c in self.v)}"


@lru_cache(maxsize=None)
def _cyc_class(n):
    cls = type(f"_Cyc{n}", (_CycNumBase,), {"__slots__": ()})
    cls.ORDER = n
    cls.PHI = _cyclotomic_coeffs(n)
    cls.DEG = len(cls.PHI) - 1
    cls.ZERO = cls._mod_phi([])
    cls.ONE = cls._mod_phi([1])
    cls.ZETA = cls._mod_phi([0, 1])
    return cls


# ---------------------------------------------------------------------------
# sparse polynomial dicts {exponent key: coefficient}; the module
# docstring gives the key layout, its range and its guard

_BIAS = 1 << 61
_MASK = (1 << 64) - 1
_RANGE = range(-_BIAS, _BIAS)


def _checked(P, g):
    """P (keys, or a dict of them), refused if a key has a guard bit of g."""
    if reduce(_or, P, 0) & g:
        raise ScalarError("exponent out of range")
    return P


def _grlex(e, field):
    e = field._unpack(e)
    return sum(e), e


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


def _p_mul(A, B, field, checked=True):
    """A * B; its keys pass the guard unless checked is false, which a
    caller may pass only when no exponent of the product can leave the
    range.  One loop serves every size, and an empty operand gives the
    empty product, so Scalar.__mul__ tests no Laurent zero."""
    z = field._zero_exp
    out = {}
    for ea, ca in A.items():
        ea -= z
        for eb, cb in B.items():
            e = ea + eb
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
    return _checked(out, field._g) if checked else out


def _p_scale(A, c):
    return {e: v * c for e, v in A.items()}


def _split(P, d, field, checked=True):
    """P and x^d over their common monomial factor (the latter as its
    key); with d the zero key, the (num, den) pair of a Laurent dict P.
    Unless checked is false, a key out of the range is refused.  The pair
    of a Laurent dict is exact without the check: every exponent of it
    lies in [0, 2^62), so each field holds less than 2^63 and no carry
    crosses a field, and _unpack reads it back."""
    s = field._unpack(d)
    for e in P:
        s = tuple(map(min, s, field._unpack(e)))
    off = field._zero_exp - field._pack(s)
    if not off:
        return P, d
    d += off
    P = {e + off: c for e, c in P.items()}
    if checked:
        _checked([d, *P], field._g)
    return P, d


def _p_pow(A, n, field, checked=True):
    out = None
    base = A
    while n:
        if n & 1:
            out = base if out is None else _p_mul(out, base, field, checked)
        n >>= 1
        if n:
            base = _p_mul(base, base, field, checked)
    return out


def _p_lead(A, field):
    return max(A, key=lambda e: _grlex(e, field))


# ---------------------------------------------------------------------------
# fields and scalars

_RESERVED = {"zeta"}
# entries of a field's product table, or of its id registry, before it
# is emptied
_PRODUCTS_SIZE = 1024
# the ids of one-term values, shared by every field; 0 is never an id
_IDS = count(1)


class ScalarField:
    """A rational function field with a declared variable order.

    The variable order matters: it fixes the graded lex order used to pick
    the monic leading term of denominators, hence the canonical form.
    """

    __slots__ = ("variables", "cyclotomic_order", "nvars", "_cyc", "_var_index",
                 "_zero_exp", "_g", "_one_poly", "zero", "one", "_hash",
                 "_products", "_ids")

    def __init__(self, variables=(), cyclotomic_order=None):
        variables = tuple(variables)
        seen = set()
        for name in variables:
            if not (isinstance(name, str) and name.isascii()
                    and name.isidentifier()):
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
        self._zero_exp = sum(_BIAS << 64 * i for i in range(self.nvars))
        self._g = 6 * self._zero_exp   # bits 62 and 63 of every field
        self._one_poly = {self._zero_exp: self._coef_one()}
        self.zero = Scalar(self, {}, self._one_poly)
        self.one = Scalar(self, dict(self._one_poly), self._one_poly)
        self._hash = hash((variables, cyclotomic_order))
        self._products = {}
        self._ids = {}

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
        return self._cyc._mod_phi([v]) if self._cyc else v

    # constructors ---------------------------------------------------------

    def from_int(self, v):
        if v == 0:
            return self.zero
        if v == 1:
            return self.one
        return _laurent(self, {self._zero_exp: self._coef_from_int(v)}, 0)

    def var(self, name):
        i = self._var_index.get(name)
        if i is None:
            raise UndeclaredVariable(name)
        return _laurent(self, {self._zero_exp + (1 << 64 * i):
                               self._coef_one()}, 1)

    def zeta(self):
        if not self._cyc:
            raise ZetaUnavailable()
        return _laurent(self, {self._zero_exp: self._cyc.ZETA}, 0)

    # exponent keys ---------------------------------------------------------

    def _pack(self, e):
        """The key of the exponent vector e."""
        if not all(k in _RANGE for k in e):
            raise ScalarError("exponent out of range")
        return self._zero_exp + sum(k << 64 * i for i, k in enumerate(e))

    def _unpack(self, e):
        """The exponent vector of the key e."""
        return tuple((e >> 64 * i & _MASK) - _BIAS for i in range(self.nvars))

    def _mono(self, e):
        """The monic monomial x^e, e a key, as a denominator dict."""
        return self._one_poly if e == self._zero_exp else {e: self._coef_one()}

    def _coprime_make(self, num, den):
        """Construct from an already coprime pair, normalizing the unit."""
        if not den:
            raise ScalarZeroDivision()
        if not num:
            return self.zero
        lc = den[_p_lead(den, self)]
        if lc != self._coef_one():
            inv = _recip(lc)
            num = _p_scale(num, inv)
            den = _p_scale(den, inv)
        if num == den == self._one_poly:
            return self.one
        return Scalar(self, num, den)


def _laurent(field, terms, bound):
    """The Scalar whose Laurent dict is terms (nonzero coefficients), with
    ``bound`` bound; the field's zero or one when that is 0 or 1."""
    if not terms:
        return field.zero
    if terms == field._one_poly:
        return field.one
    s = object.__new__(Scalar)
    s.field = field
    s.laurent = terms
    s.bound = bound
    s._pair = s._k = None
    return s


class Scalar:
    """Canonical rational function, built by a ScalarField or from a
    canonical (num, den) pair.  ``laurent`` is its Laurent dict, or None
    when its reduced denominator is not a monomial; ``num`` and ``den``
    read either form as the canonical pair.  Every dict is keyed by
    packed exponent vectors (see the module docstring): field i of a key
    is bits 64i to 64i + 63 and holds e_i + 2^61, with -2^61 <= e_i <
    2^61, a key with a bit 62 or 63 set in any field is refused, and
    ``num`` and ``den`` of a Laurent value unpack its keys once, in
    ``_split``.  A value equal to 0 or 1 that arithmetic produces is the
    field's ``zero`` or ``one``.  ``_k`` is the id of a one-term Laurent
    value once it has been a product operand or the registry's value of
    a product (see ``_interned``).

    A Laurent value also carries ``bound``, an upper bound on every |e_i|
    of its terms, which arithmetic derives from its operands without
    reading their terms (None on a (num, den) value): exact when the
    value is built from keys, the sum of the operands' bounds for a
    product (n times the base's for a power), the larger one for a sum,
    the operand's for a negative or an inverse.  A product whose bound
    is below 2^61 skips the guard.  The hash is not cached, since no
    verifier hashes a Scalar."""

    __slots__ = ("field", "laurent", "bound", "_pair", "_k")

    def __init__(self, field, num, den):
        self.field, self._pair = field, (num, den)
        self.laurent = self.bound = self._k = None
        if len(den) == 1:
            (d,) = den
            off = field._zero_exp - d
            self.laurent = _checked({e + off: c for e, c in num.items()},
                                    field._g)
            self.bound = max((abs(k) for e in self.laurent
                              for k in field._unpack(e)), default=0)

    def _view(self):
        """The canonical (num, den) pair, computed once."""
        if self._pair is None:
            f = self.field
            num, d = _split(self.laurent, f._zero_exp, f)
            self._pair = (num, f._mono(d))
        return self._pair

    def _id(self):
        """Give a one-term Laurent value the id of its content."""
        k = self._k = self._interned()._k
        return k

    def _interned(self):
        """The value the field's registry holds for this one-term Laurent
        value's content: the first one registered with it, or this value,
        given a new id, when there is none."""
        ((e, c),) = self.laurent.items()
        ids = self.field._ids
        key = (e, c.v if isinstance(c, _CycNumBase) else c)
        s = ids.get(key)
        if s is None:
            if len(ids) >= _PRODUCTS_SIZE:
                ids.clear()
            s = ids[key] = self
            self._k = next(_IDS)
        return s

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
            f = self.field
            if other.field is f:
                return other
            if other.field == f:
                # re-homed, so that identity tests against f.zero and
                # f.one see it; an id names its content in every field
                a = other.laurent
                if a is None:
                    return Scalar(f, *other._pair)
                s = _laurent(f, a, other.bound)
                if len(a) == 1 and s is not f.one:
                    s._k = other._k or other._id()
                return s
            raise ScalarError("scalars from different fields")
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        f = self.field
        if type(other) is not Scalar or other.field is not f:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.laurent, other.laurent
        if a == {}:
            return other
        if b == {}:
            return self
        if a is not None and b is not None:
            return _laurent(f, _p_add(a, b), max(self.bound, other.bound))
        from .ratfunc import add
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        a = self.laurent
        if a is None:
            num, den = self._pair
            return Scalar(self.field, _p_neg(num), den)
        return _laurent(self.field, _p_neg(a), self.bound) if a else self

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
        f = self.field
        if (self._k and type(other) is Scalar and other._k
                and other.field is f):
            p = f._products.get((self._k, other._k))
            if p is not None:
                return p
        if type(other) is not Scalar or other.field is not f:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self is f.one:
            return other
        if other is f.one:
            return self
        a, b = self.laurent, other.laurent
        if a is not None and b is not None:
            key = None
            if len(a) == 1 == len(b):
                products = f._products
                key = (self._k or self._id(), other._k or other._id())
                p = products.get(key)
                if p is not None:
                    return p
                if len(products) >= _PRODUCTS_SIZE:
                    products.clear()
            bound = self.bound + other.bound
            p = _laurent(f, _p_mul(a, b, f, bound >= _BIAS), bound)
            if key:
                if p is not f.one:
                    p = p._interned()
                products[key] = p
            return p
        if a == {} or b == {}:
            return f.zero
        from .ratfunc import mul
        return mul(self, other)

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
            f = self.field
            return _laurent(f, _checked({2 * f._zero_exp - e: _recip(c)},
                                        f._g), self.bound)
        from .ratfunc import inverse
        return inverse(self)

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
            bound = base.bound * n
            return _laurent(f, _p_pow(a, n, f, bound >= _BIAS), bound)
        # powers of a coprime pair stay coprime; the monic unit is preserved
        num, den = base._pair
        return Scalar(f, _p_pow(num, n, f), _p_pow(den, n, f))

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
        # equal values have one form, so equal Laurent dicts or
        # numerators; a rational constant hashes as that rational, since
        # it equals the int it may be.  Any other value hashes through
        # its exponent tuples: a packed key hashes modulo 2^61 - 1, where
        # the keys of lambda and t^8 in Q(t, lambda) agree.
        a = self.laurent
        c = 0 if a == {} else None
        if a is not None and len(a) == 1:
            c = a.get(self.field._zero_exp)
        if isinstance(c, _CycNumBase):
            c = None if any(c.v[1:]) else c.v[0]
        if c is not None:
            return hash(c)
        unpack = self.field._unpack
        return hash(frozenset((unpack(e), v) for e, v in (
            self._pair[0] if a is None else a).items()))

    def __repr__(self):
        return f"Scalar({render(self)})"


# ---------------------------------------------------------------------------
# parsing


# \d is str.isdecimal, \w is str.isalnum or "_", and \s is str.isspace.
# Every character but trailing whitespace lies in a match; with "." for
# \S, backtracking would match trailing whitespace as a token.
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(\S))")


class _Parser:
    def __init__(self, text, field):
        self.text = text
        self.field = field
        self.tokens = self._tokenize(text)
        self.i = 0

    @staticmethod
    def _tokenize(text):
        out = []
        for m in _TOKEN.finditer(text):
            kind = m.lastindex
            tok = m.group(kind)
            pos = m.start(kind)
            if kind == 1:
                out.append(("int", tok, pos))
            elif kind == 2 and (tok[0].isalpha() or tok[0] == "_"):
                out.append(("name", tok, pos))
            elif kind == 3 and tok in "+-*/^()":
                out.append((tok, tok, pos))
            else:
                raise ScalarSyntaxError(f"unexpected character {tok[0]!r}", pos)
        out.append(("end", "", len(text)))
        return out

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

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
    parser = _Parser(text, field)
    value = parser._expr()
    kind, text, pos = parser._peek()
    if kind != "end":
        raise ScalarSyntaxError(f"unexpected {text!r}", pos)
    return value


# ---------------------------------------------------------------------------
# rendering


def _render_coef_rational(q):
    """(is_negative, numerator string, denominator string or None)."""
    d = q.denominator
    return q < 0, str(abs(q.numerator)), (None if d == 1 else str(d))


def _render_cyc_parts(c):
    return [(a, None if j == 0 else "zeta" if j == 1 else f"zeta^{j}")
            for j, a in enumerate(c.v) if a]


def _signed_sum(terms):
    """Nonempty (is_negative, body) pairs as one sum, "-x + y - z"."""
    s = " ".join(("- " if neg else "+ ") + body for neg, body in terms)
    return s[2:] if s[0] == "+" else "-" + s[2:]


def _rational_term(a, factors):
    """Render the rational a times the nonempty strings of factors, with
    no "1*"; returns (is_negative, body)."""
    neg, ns, ds = _render_coef_rational(a)
    factors = [f for f in factors if f]
    body = "*".join(factors if factors and ns == "1" else [ns, *factors])
    return neg, body if ds is None else f"{body}/{ds}"


def _term_string(coef, mono):
    """Render one term; returns (is_negative, body)."""
    parts = (_render_cyc_parts(coef) if isinstance(coef, _CycNumBase)
             else [(coef, None)])
    if len(parts) > 1:
        body = f"({_signed_sum(_rational_term(a, [z]) for a, z in parts)})"
        return False, f"{body}*{mono}" if mono else body
    a, zmono = parts[0]
    return _rational_term(a, [zmono, mono])


def _mono_string(field, e):
    return "*".join(name if k == 1 else f"{name}^{k}"
                    for name, k in zip(field.variables, field._unpack(e)) if k)


def _render_poly(field, P):
    if not P:
        return "0"
    terms = sorted(P.items(), key=lambda item: _grlex(item[0], field),
                   reverse=True)
    return _signed_sum(_term_string(c, _mono_string(field, e))
                       for e, c in terms)


def render(s):
    """s as its canonical pair, "num/den" or "num".  A Laurent value's
    pair is split unchecked (see _split), so it renders even when its pair
    has an exponent out of the key range."""
    field = s.field
    if s._pair:
        num, den = s._pair
    else:
        num, d = _split(s.laurent, field._zero_exp, field, False)
        den = field._mono(d)
    num_s = _render_poly(field, num)
    if den == field._one_poly:
        return num_s
    den_s = _render_poly(field, den)
    if len(num) > 1 or num_s.startswith("-"):
        num_s = f"({num_s})"
    if len(den) > 1 or "*" in den_s:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
