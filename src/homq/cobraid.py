"""The cobraiding bilinear form on a presented Hom-bialgebra.

The form R is stored as one table with a value on every pair of words
of length at most one (generator pairs and the unit columns), and is
extended to all words by one recursion, word_value: peel a generator
off one slot and comultiply the other.  Every reading of R on images
of the structure map, R(alpha^i x, alpha^j y), is one
CobraidedHomBialgebra.alpha_value.  On top sit the cobraided axiom
suite, the two scalar Yang-Baxter identities it implies, the
alpha-invariance check, and the power twist.  The second cobraided
product expansion is the first one for the transposed form
R^t(a, b) = R(b, a) over the co-opposite coproduct.

The instance holds the memos that outlive a call: word_value's, the
recursion's folds of a coproduct against a generator, the alpha^k word
images and the power-twisted pair values; a power twist shares all but
the last with its base.  The verifiers hold theirs for one call:
R(alpha a, w), R(w, alpha a) and products.  Each verifier sweeps its
cases by rows (see report._scan), so the folds of its contractions,
which depend only on the outer cases of a row, are locals of the row.
"""

from functools import cache, partial

from .hombialg import _combine, _product_table
from .linalg import kernel_basis
from .ncpoly import (PresentationError, _bump, _key_slots, _linear,
                     _render_raw, json_row)
from .report import Report, _at, _scan, _unzip
from .scalars import render


class CobraidingError(Exception):
    """Raised when a form table lacks the value of a pair of words of
    length at most one."""


class InjectivityError(Exception):
    """Raised when a power twist is requested for a non-injective
    structure map; carries the kernel witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "structure map has a nontrivial kernel: "
            f"{witness['element']} (degree {witness['degree']})")


class CobraidingForm:
    """Bilinear form data on pairs of words of length at most one.

    table holds the generator pairs of gen_table, the unit columns
    ((), (j,)) of unit_left and ((i,), ()) of unit_right, and ((), ())
    from unit_unit.  The tables must give a value, zeros included, on
    every pair of words of length at most one: a missing pair is a
    configuration error, not an implicit zero, and the first one, with
    the left word outer and each word in the order 1, g_0, g_1, ..., is
    refused with CobraidingError.  So the form has a value on every pair
    of words.
    """

    def __init__(self, pres, gen_table, unit_left, unit_right, unit_unit=1):
        self.pres = pres

        def gen_word(spec):
            w = pres.word(spec)
            if len(w) != 1:
                raise PresentationError(f"{spec!r} is not a generator")
            return w

        def gen_pair(spec):
            l, r = _key_slots(spec, 2, "gen_table")
            return gen_word(l), gen_word(r)

        self.table = table = {}
        for what, rows, key in (
                ("gen_table", gen_table, gen_pair),
                ("unit_left", unit_left, lambda spec: ((), gen_word(spec))),
                ("unit_right", unit_right, lambda spec: (gen_word(spec), ()))):
            for spec, val in rows.items():
                k = key(spec)
                if k in table:
                    raise PresentationError(
                        f"{what} key {spec!r} repeats an earlier key")
                table[k] = pres.coef(val)
        table[(), ()] = pres.coef(unit_unit)
        words = [()] + [(i,) for i in range(len(pres.generators))]
        for m in words:
            for n in words:
                if (m, n) not in table:
                    text = pres.word_text
                    raise CobraidingError("no configured value for the pair "
                                          f"({text(m)}, {text(n)})")

    def to_json(self):
        gens = self.pres.generators
        items = sorted(self.table.items())
        return {"gen_table": [{"left": gens[m[0]], "right": gens[n[0]],
                               "value": render(v)}
                              for (m, n), v in items if m and n],
                "unit_left": {gens[n[0]]: render(v)
                              for (m, n), v in items if n and not m},
                "unit_right": {gens[m[0]]: render(v)
                               for (m, n), v in items if m and not n},
                "unit_unit": render(self.table[(), ()])}

    @classmethod
    def from_json(cls, data, pres):
        gen_table = json_row("gen_table", data["gen_table"],
                             lambda row: (row["left"], row["right"]), "value")
        return cls(pres, gen_table, dict(data["unit_left"]),
                   dict(data["unit_right"]),
                   unit_unit=data.get("unit_unit", 1))


class CobraidedHomBialgebra:
    """A Hom-bialgebra together with a cobraiding form.

    The form table is always the untwisted one, R; alpha_power p is the
    number of times the structure map is applied to both slots first, so
    the instance form is R(alpha^p x, alpha^p y).  Its four memos go
    through this host's maps: word_value's, seeded with a copy of the
    table; the recursion's folds, keyed (g, n); alpha^k(w) for k >= 1;
    and the pair values when p > 0.
    """

    def __init__(self, H, form, alpha_power=0, name=""):
        if form.pres.field != H.pres.field:
            raise PresentationError("form and bialgebra have different "
                                    "scalar fields")
        if form.pres is not H.pres and form.pres.to_json() != H.pres.to_json():
            raise PresentationError("form and bialgebra disagree on the "
                                    "underlying presentation")
        if type(alpha_power) is not int or alpha_power < 0:
            raise ValueError("alpha_power must be a nonnegative int, got "
                             f"{alpha_power!r}")
        self.H = H
        self.form = form
        self.alpha_power = alpha_power
        self.name = name or H.name
        self._value_cache = {}
        self._word_cache = dict(form.table)
        self._fold_cache = {}
        self._alpha_cache = {}

    def word_pair_value(self, m, n):
        """Instance form on two monomial words (power twist applied)."""
        if not self.alpha_power:
            return word_value(self, m, n)
        hit = self._value_cache.get((m, n))
        if hit is None:
            hit = self._value_cache[m, n] = self.alpha_value(m, n, 0, 0)
        return hit

    def alpha_value(self, m, n, i, j):
        """R(alpha^(p+i) m, alpha^(p+j) n) for words m and n, R the stored
        form and p the alpha_power: the sum of cu (sum of cv R(u, v))
        over the terms of the two memoised images, each sum a _dot and
        each value read through word_value.  The sum is not memoised."""
        p, f = self.alpha_power, self.H.pres.field
        read = partial(word_value, self)
        return _dot(self._alpha_terms(p + i, m),
                    lambda vs, u: _dot(vs, read, u, f),
                    self._alpha_terms(p + j, n), f)

    def _alpha_terms(self, k, w):
        """The terms of alpha^k(w) as a tuple of (word, coefficient)
        pairs, each image built from the one before; alpha^0(w) is w."""
        H = self.H
        if not k:
            return ((w, H.pres.field.one),)
        hit = self._alpha_cache.get((k, w))
        if hit is None:
            hit = self._alpha_cache[k, w] = tuple(_linear(
                self._alpha_terms(k - 1, w), H.alpha_word).items())
        return hit

    def to_json(self):
        out = self.H.to_json()
        out["cobraiding"] = self.form.to_json()
        out["alpha_power"] = self.alpha_power
        return out

    def __repr__(self):
        extra = f", power {self.alpha_power}" if self.alpha_power else ""
        return f"<CobraidedHomBialgebra {self.name or 'instance'}{extra}>"


def word_value(C, m, n):
    """Stored (untwisted) form on two monomial words.

    The host's memo starts as a copy of the form's table, so a pair of
    words of length at most one is a hit.  Any other pair is a sum over
    a coproduct, the unit's being 1 (x) 1: the recursion peels the
    leading generator off a longer first slot and comultiplies the
    second, else comultiplies the first slot against the second slot's
    leading generator.  A term is dropped once one factor is zero,
    without evaluating the other.  The peel reads the host's fold of Delta
    n against R(g, .) (see _fold), built once per (g, n), so the legs
    with R(g, n1) = 0 are dropped once and not for every word g m'.
    """
    return _eval(C, m, n)


def _eval(C, m, n):
    memo = C._word_cache
    key = (m, n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    H = C.H
    field = H.pres.field
    if len(m) <= 1:
        # comultiply the first slot against the second slot's leading
        # generator: R(x, hz) = sum R(x1, z) R(x2, h)
        def read(a, w):
            return _eval(C, w, a)
        fold = _fold(H.untwisted_delta_word(m).items(), read, n[1:], field)
        b = n[:1]
    else:
        # peel the first slot's leading generator, comultiply the
        # second slot: R(g m', n) = sum R(g, n1) R(m', n2)
        g, b = m[:1], m[1:]
        read = partial(_eval, C)
        fold = C._fold_cache.get((g, n))
        if fold is None:
            fold = C._fold_cache[g, n] = _fold(
                H.untwisted_delta_word(n).items(), read, g, field)
    val = memo[key] = _dot(fold, read, b, field)
    return val


def _fold(legs, read, a, field):
    """The legs (l2, c read(a, l1)) of the legs ((l1, l2), c) whose
    value read(a, l1) is not the field's zero, in order: the coproduct
    side of the verifiers' contractions and both steps of the form
    recursion.  No product has the field's one as an operand."""
    zero, one = field.zero, field.one
    return [(l2, v if c is one else c if v is one else c * v)
            for (l1, l2), c in legs if (v := read(a, l1)) is not zero]


def _dot(fold, read, b, field):
    """The sum of u read(b, l2) over the legs (l2, u) of a _fold, or of
    any (key, coefficient) pairs.  A value that is the field's zero is
    dropped, no product has the field's one as an operand, and the sum
    takes its first term without adding it to zero (see scalars)."""
    zero, one = field.zero, field.one
    out = zero
    for l2, u in fold:
        if (v := read(b, l2)) is not zero:
            t = v if u is one else u if v is one else u * v
            out = t if out is zero else out + t
    return out


def verify_cobraided(C, degree):
    """Check the three cobraided axioms on all basis monomials of
    degree <= degree, with the instance's own product xy, coproduct
    x1 (x) x2 and structure map alpha:

    first_slot_product_expansion
        R(xy, alpha z) = sum R(alpha x, z1) R(alpha y, z2)
    second_slot_product_expansion
        R(alpha x, yz) = sum R(x1, alpha z) R(x2, alpha y)
    braided_commutation
        sum y1 x1 R(x2, y2) = sum R(x1, y1) x2 y2

    The second expansion is the first for the transposed form R^t(a, b)
    = R(b, a) over the co-opposite coproduct, so one contraction checks
    both: sides(a, b, c) compares outer(a, bc) with the sum of inner(b,
    a1) inner(c, a2), outer and inner being the call's memos of R(w,
    alpha a) and R(alpha a, w), keyed (a, w).  The first expansion runs
    it over Delta, scanned (z, x, y); the second swaps the two memos and
    runs over Delta^cop, scanned (x, y, z), and so reads every product
    and value in the order of its axiom.  Products of words come from
    one table filled on first use.  A row fixes (a, b) and computes the
    sides of every c: its coproduct side folds (a, b) once into the legs
    (a2, c inner(b, a1)) of Delta a (see _fold), and each side of a case
    is one _dot.  A row of braided commutation fixes x.  A term whose
    value is the field's zero is dropped before it is multiplied, and no
    product has the field's one as an operand (see scalars).
    """
    H = C.H
    pres = H.pres._certified()
    field = pres.field
    zero, one = field.zero, field.one
    rep = Report(f"cobraided axioms on {C.name or 'instance'}")
    basis = pres.graded_basis(degree)
    names = {w: pres.word_text(w) for w in basis}
    delta_of = {w: list(H.delta_word(w).items()) for w in basis}
    cop_of = {w: [((l2, l1), c) for (l1, l2), c in legs]
              for w, legs in delta_of.items()}
    # R(alpha a, w) and R(w, alpha a)
    alpha_left = cache(lambda a, w: C.alpha_value(a, w, 1, 0))
    alpha_right = cache(lambda a, w: C.alpha_value(w, a, 0, 1))

    word_prod = _product_table(H.product)

    def expansion(outer, inner, delta):
        def sides(a, b):
            fold = _fold(delta[a], inner, b, field)
            return ([_dot(word_prod(b, c), outer, a, field) for c in basis],
                    [_dot(fold, inner, c, field) for c in basis])
        return sides

    def commutation(x, y):
        left, right = [], []
        for (x1, x2), cx in delta_of[x]:
            for (y1, y2), cy in delta_of[y]:
                r_left = C.word_pair_value(x2, y2)
                r_right = C.word_pair_value(x1, y1)
                if r_left is not zero or r_right is not zero:
                    c = cy if cx is one else cx if cy is one else cx * cy
                    if r_left is not zero:
                        left.append((y1, x1, c, r_left))
                    if r_right is not zero:
                        right.append((x2, y2, c, r_right))
        return _combine(word_prod, left, one), _combine(word_prod, right, one)

    _scan(rep, "first_slot_product_expansion", [basis] * 3,
          expansion(alpha_right, alpha_left, delta_of), _at(names, "zxy"),
          degree)
    _scan(rep, "second_slot_product_expansion", [basis] * 3,
          expansion(alpha_left, alpha_right, cop_of), _at(names, "xyz"),
          degree)
    _scan(rep, "braided_commutation", [basis] * 2,
          lambda x: _unzip(commutation(x, y) for y in basis),
          _at(names, "xy"), degree, partial(_render_raw, pres))
    return rep


def verify_oqhybe(C, degree):
    """Check the two scalar Hom-Yang-Baxter identities implied by the
    cobraided axioms on all basis-monomial triples (x, y, z),
    with coproduct x1 (x) x2 and structure map alpha:

    operator_ybe_first_form
        sum R(x1, alpha y1) R(x2, alpha z1) R(y2, z2)
            = sum R(y1, z1) R(x1, alpha z2) R(x2, alpha y2)
    operator_ybe_second_form
        sum R(x1, y1) R(alpha x2, z1) R(alpha y2, z2)
            = sum R(alpha y1, z1) R(alpha x1, z2) R(x2, y2)

    Both read sum f(x1, y1) g(x2, z1) h(y2, z2) = sum h(y1, z1) g(x1, z2)
    f(x2, y2), and each side is a partial contraction.  A row fixes the
    pair (x, y) and builds its fold U_xy once: it contracts the legs of x
    and y that f takes, (x1, y1) on the left and (x2, y2) on the right,
    and holds its non-zero entries by the other two legs.  For z, V_z
    contracts the coproduct of z with the two other factors at those
    legs; the factor on z1 is folded per (z, leg) on first use (see
    _fold), so V_z costs one product per leg z2.  Each triple of the row
    is the sparse dot product of U_xy with V_z, which, as _dot, drops the
    field's zero and multiplies by no one.
    """
    H = C.H
    pres = H.pres._certified()
    field = pres.field
    zero, one = field.zero, field.one
    rep = Report(f"operator Yang-Baxter identities on {C.name or 'instance'}")
    basis = pres.graded_basis(degree)
    names = [pres.word_text(w) for w in basis]
    idx = range(len(basis))
    delta_of = [list(H.delta_word(w).items()) for w in basis]
    R = C.word_pair_value
    alpha_first = cache(lambda x, w: C.alpha_value(x, w, 1, 0))
    alpha_second = cache(lambda w, z: C.alpha_value(w, z, 0, 1))
    z1_fold = cache(lambda k, g, a: _fold(delta_of[k], g, a, field))

    def ybe_form(f, g, h):
        def sides(i, j):
            left, right = {}, {}
            for (x1, x2), cx in delta_of[i]:
                for (y1, y2), cy in delta_of[j]:
                    c = cy if cx is one else cx if cy is one else cx * cy
                    if (u := f(x1, y1)) is not zero:
                        _bump(left, (x2, y2),
                              u if c is one else c if u is one else c * u)
                    if (u := f(x2, y2)) is not zero:
                        _bump(right, (x1, y1),
                              u if c is one else c if u is one else c * u)
            lefts, rights = [], []
            for k in idx:
                lhs = rhs = zero
                for (a, b), u in left.items():
                    if (v := _dot(z1_fold(k, g, a), h, b, field)) is not zero:
                        t = v if u is one else u if v is one else u * v
                        lhs = t if lhs is zero else lhs + t
                for (a, b), u in right.items():
                    if (v := _dot(z1_fold(k, h, b), g, a, field)) is not zero:
                        t = v if u is one else u if v is one else u * v
                        rhs = t if rhs is zero else rhs + t
                lefts.append(lhs)
                rights.append(rhs)
            return lefts, rights
        return sides

    _scan(rep, "operator_ybe_first_form", [idx] * 3,
          ybe_form(alpha_second, alpha_second, R), _at(names, "xyz"), degree)
    _scan(rep, "operator_ybe_second_form", [idx] * 3,
          ybe_form(R, alpha_first, alpha_first), _at(names, "xyz"), degree)
    return rep


def check_alpha_invariance(C, degree):
    """Check that applying the structure map to both slots leaves the
    instance form unchanged on basis monomials."""
    pres = C.H.pres._certified()
    rep = Report(f"alpha invariance on {C.name or 'instance'}")
    basis = pres.graded_basis(degree)
    _scan(rep, "alpha_invariance", [basis] * 2,
          lambda x: ([C.alpha_value(x, y, 1, 1) for y in basis],
                     [C.word_pair_value(x, y) for y in basis]),
          _at({w: pres.word_text(w) for w in basis}, "xy"), degree)
    return rep


def alpha_kernel_witness(H):
    """Search the graded pieces up to the presentation's max degree for
    a nonzero element killed by the structure map: the first kernel
    vector of the lowest degree that has one.  Returns None when every
    piece has trivial kernel.  The pieces come from one walk of the
    levels, which stops at the first empty one; a negative max degree
    raises ValueError."""
    pres = H.pres
    field = pres.field
    for d, words in enumerate(pres._levels(pres.max_degree)):
        if not words:
            break
        if not d:
            continue   # the unit, which the structure map fixes
        images = [H.alpha_word(w) for w in words]
        support = sorted({m for p in images for m in p},
                         key=lambda w: (len(w), w))
        row_of = {m: r for r, m in enumerate(support)}
        rows = [[field.zero] * len(words) for _ in support]
        for col, p in enumerate(images):
            for m, c in p.items():
                rows[row_of[m]][col] = c
        kernel = kernel_basis(rows, len(words), field)
        if kernel:
            return {"degree": d, "element": _render_raw(pres, {
                w: c for c, w in zip(kernel[0], words) if not c.is_zero()})}
    return None


def twist_R_power(C, n):
    """Compose the instance form with n extra iterates of the structure
    map in both slots.  Requires the structure map to be injective on
    every graded piece up to the presentation's max degree."""
    if type(n) is not int or n < 0:
        raise ValueError("alpha_power must be a nonnegative int, got "
                         f"{n!r}")
    if n == 0:
        return C
    witness = alpha_kernel_witness(C.H)
    if witness is not None:
        raise InjectivityError(witness)
    D = CobraidedHomBialgebra(C.H, C.form, alpha_power=C.alpha_power + n,
                              name=C.name)
    D._word_cache, D._fold_cache, D._alpha_cache = (
        C._word_cache, C._fold_cache, C._alpha_cache)
    return D
