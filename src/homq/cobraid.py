"""The cobraiding bilinear form on a presented Hom-bialgebra.

The form is stored on generator pairs plus unit columns and extended to
arbitrary elements by recursion: peel a generator off one slot and
comultiply the other.  On top of the evaluator sit the cobraided axiom
suite, the two scalar Yang-Baxter identities it implies, the
alpha-invariance check, and the power twist that composes the stored
form with iterates of the structure map.
"""

from functools import cache, lru_cache

from .hombialg import _combine, _product_table
from .linalg import kernel_basis
from .ncpoly import NCPoly, PresentationError
from .report import Report, _at, _scan
from .scalars import render


class CobraidingError(Exception):
    """Raised when the form is evaluated outside its configured domain."""


class InjectivityError(Exception):
    """Raised when a power twist is requested for a non-injective
    structure map; carries the kernel witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "structure map has a nontrivial kernel: "
            f"{witness['element']} (degree {witness['degree']})")


class CobraidingForm:
    """Bilinear form data on generator pairs.

    gen_table must list every pair the form is defined on, zeros
    included; a lookup outside the table is a configuration error, not
    an implicit zero.  unit_left holds values against the unit in the
    first slot, unit_right in the second.  Generators present in both
    unit maps form the covered set; verification ranges over monomials
    in covered generators only.

    The form is total when every generator is covered and every ordered
    generator pair is in gen_table.  A total form has a value on every
    pair of words, so the recursion skips a term as soon as one factor
    is zero.  A partial form evaluates every factor, so a missing value
    still raises CobraidingError wherever the recursion reaches it.
    """

    def __init__(self, pres, gen_table, unit_left, unit_right, unit_unit=1):
        self.pres = pres

        def gen_index(spec):
            w = pres.word(spec)
            if len(w) != 1:
                raise PresentationError(f"{spec!r} is not a generator")
            return w[0]

        self.gen_table = {}
        for (l, r), val in gen_table.items():
            self.gen_table[(gen_index(l), gen_index(r))] = pres.coef(val)
        self.unit_left = {gen_index(g): pres.coef(v)
                          for g, v in unit_left.items()}
        self.unit_right = {gen_index(g): pres.coef(v)
                           for g, v in unit_right.items()}
        self.unit_unit = pres.coef(unit_unit)
        self.covered = frozenset(i for i in self.unit_left
                                 if i in self.unit_right)
        for (i, j) in self.gen_table:
            if i not in self.covered or j not in self.covered:
                bad = pres.generators[j if i in self.covered else i]
                raise PresentationError(
                    f"gen_table mentions {bad} but the unit tables do not "
                    "cover it")
        n = len(pres.generators)
        self.total = self.covers_all() and all(
            (i, j) in self.gen_table for i in range(n) for j in range(n))

    def covers_all(self):
        return len(self.covered) == len(self.pres.generators)

    def value(self, i, j):
        v = self.gen_table.get((i, j))
        if v is None:
            g = self.pres.generators
            raise CobraidingError(
                f"no configured value for the pair ({g[i]}, {g[j]})")
        return v

    def unit_value_left(self, j):
        v = self.unit_left.get(j)
        if v is None:
            raise CobraidingError(
                f"no configured value for the pair (1, {self.pres.generators[j]})")
        return v

    def unit_value_right(self, i):
        v = self.unit_right.get(i)
        if v is None:
            raise CobraidingError(
                f"no configured value for the pair ({self.pres.generators[i]}, 1)")
        return v

    def to_json(self):
        gens = self.pres.generators
        rows = [{"left": gens[i], "right": gens[j], "value": render(v)}
                for (i, j), v in sorted(self.gen_table.items())]
        return {"gen_table": rows,
                "unit_left": {gens[j]: render(v)
                              for j, v in sorted(self.unit_left.items())},
                "unit_right": {gens[i]: render(v)
                               for i, v in sorted(self.unit_right.items())},
                "unit_unit": render(self.unit_unit)}

    @classmethod
    def from_json(cls, data, pres):
        gen_table = {(row["left"], row["right"]): row["value"]
                     for row in data["gen_table"]}
        return cls(pres, gen_table, dict(data["unit_left"]),
                   dict(data["unit_right"]),
                   unit_unit=data.get("unit_unit", 1))


class CobraidedHomBialgebra:
    """A Hom-bialgebra together with a cobraiding form.

    The form tables are always the untwisted ones; alpha_power records
    how many times the structure map is applied to both slots before
    the tables are consulted (the power-twisted family keeps H fixed
    and replaces the form by its composite with alpha^n).  The memos of
    the form's extension live here, because the extension goes through
    this host's comultiplication.
    """

    def __init__(self, H, form, alpha_power=0, name=""):
        if form.pres is not H.pres and form.pres.to_json() != H.pres.to_json():
            raise PresentationError("form and bialgebra disagree on the "
                                    "underlying presentation")
        self.H = H
        self.form = form
        self.alpha_power = alpha_power
        self.name = name or H.name
        self._value_cache = {}
        self._word_cache = {}
        self._alt_cache = {}

    def word_pair_value(self, m, n):
        """Instance form on two monomial words (power twist applied)."""
        if not self.alpha_power:
            return word_value(self, m, n)
        key = (m, n)
        hit = self._value_cache.get(key)
        if hit is None:
            H = self.H
            pres = H.pres
            u = NCPoly(pres, {m: pres.field.one}, _trusted=True)
            v = NCPoly(pres, {n: pres.field.one}, _trusted=True)
            for _ in range(self.alpha_power):
                u = H.alpha_poly(u)
                v = H.alpha_poly(v)
            hit = self._value_cache[key] = _bilinear(
                u, v, lambda wm, wn: word_value(self, wm, wn))
        return hit

    def to_json(self):
        out = self.H.to_json()
        out["cobraiding"] = self.form.to_json()
        out["alpha_power"] = self.alpha_power
        return out

    def __repr__(self):
        extra = f", power {self.alpha_power}" if self.alpha_power else ""
        return f"<CobraidedHomBialgebra {self.name or 'instance'}{extra}>"


def word_value(C, m, n, second_slot_first=False):
    """Stored (untwisted) form on two monomial words.

    The recursion peels the leading generator off the first slot and
    comultiplies the second; with second_slot_first it does the mirror
    image whenever both slots are composite.  The two orders agree on
    well-formed instances, which is itself a certified property.  The
    coproduct sums run over the non-zero values: on a total form a term
    is dropped once one factor is zero, without evaluating the other.
    """
    memo = C._alt_cache if second_slot_first else C._word_cache
    return _eval(C, m, n, second_slot_first, memo)


def _eval(C, m, n, second_first, memo):
    key = (m, n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    H = C.H
    form = C.form
    field = H.pres.field
    if not m and not n:
        val = form.unit_unit
    elif not m:
        h, rest = n[0], n[1:]
        if not rest:
            val = form.unit_value_left(h)
        else:
            val = (_eval(C, (), rest, second_first, memo)
                   * _eval(C, (), (h,), second_first, memo))
    elif not n:
        g, rest = m[0], m[1:]
        if not rest:
            val = form.unit_value_right(g)
        else:
            val = (_eval(C, (g,), (), second_first, memo)
                   * _eval(C, rest, (), second_first, memo))
    elif len(m) == 1 and len(n) == 1:
        val = form.value(m[0], n[0])
    elif len(m) == 1 or (second_first and len(n) > 1):
        # comultiply the first slot against the second slot's leading
        # generator: R(x, hz) = sum R(x1, z) R(x2, h)
        h, z = n[0], n[1:]
        val = field.zero
        for (w1, w2), c in H.untwisted_delta_word(m).terms.items():
            a = _eval(C, w1, z, second_first, memo)
            if a or not form.total:
                b = _eval(C, w2, (h,), second_first, memo)
                if a and b:
                    val = val + c * (a * b)
    else:
        # peel the first slot's leading generator, comultiply the
        # second slot: R(g m', n) = sum R(g, n1) R(m', n2)
        g, rest = m[0], m[1:]
        val = field.zero
        for (w1, w2), c in H.untwisted_delta_word(n).terms.items():
            a = _eval(C, (g,), w1, second_first, memo)
            if a or not form.total:
                b = _eval(C, rest, w2, second_first, memo)
                if a and b:
                    val = val + c * (a * b)
    memo[key] = val
    return val


def eval_R(C, u, v):
    """Instance form on two elements, extended bilinearly."""
    pres = C.H.pres
    if not isinstance(u, NCPoly):
        u = pres.poly(u)
    if not isinstance(v, NCPoly):
        v = pres.poly(v)
    return _bilinear(u, v, C.word_pair_value)


def _bilinear(u, v, value):
    """The sum of cu cv value(wu, wv) over the terms of u and v; a term
    whose value is zero is dropped before any multiplication."""
    total = u.pres.field.zero
    for wm, cm in u.terms.items():
        for wn, cn in v.terms.items():
            r = value(wm, wn)
            if r:
                total = total + (cm * cn) * r
    return total


def _eval_word_poly(C, w, p):
    total = C.H.pres.field.zero
    for wv, cv in p.terms.items():
        r = C.word_pair_value(w, wv)
        if r:
            total = total + cv * r
    return total


def _eval_poly_word(C, p, w):
    total = C.H.pres.field.zero
    for wu, cu in p.terms.items():
        r = C.word_pair_value(wu, w)
        if r:
            total = total + cu * r
    return total


def covered_basis(C, degree):
    """Basis monomials of total degree <= degree in covered generators."""
    covered = C.form.covered
    return [w for w in C.H.pres.graded_basis(degree)
            if all(i in covered for i in w)]


def verify_cobraided(C, degree):
    """Check the three cobraided axioms on all covered basis monomials
    of degree <= degree, with the instance's own product xy, coproduct
    x1 (x) x2 and structure map alpha:

    first_slot_product_expansion
        R(xy, alpha z) = sum R(alpha x, z1) R(alpha y, z2)
    second_slot_product_expansion
        R(alpha x, yz) = sum R(x1, alpha z) R(x2, alpha y)
    braided_commutation
        sum y1 x1 R(x2, y2) = sum R(x1, y1) x2 y2

    Both expansions read two memos filled once per call, R(alpha x_i, w)
    and R(w, alpha x_k) for a basis index and a word w: a product side
    sums one of them over the terms of a product, a coproduct side sums
    products of two of them over the legs.  Products of words are read
    from one table filled on first use.  Every sum runs over the
    non-zero form values: each value is looked up, so a partial form
    still raises, and a term with a zero value is dropped before it is
    multiplied.
    """
    H = C.H
    pres = H.pres
    zero = pres.field.zero
    one = pres.field.one
    rep = Report(f"cobraided axioms on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    mono = [NCPoly(pres, {w: one}, _trusted=True) for w in basis]
    names = [pres.word_text(w) for w in basis]
    alpha_of = [H.alpha_poly(p) for p in mono]
    delta_of = [list(H.delta(p).terms.items()) for p in mono]

    word_product = _product_table(H)

    @cache
    def alpha_left(i, w):
        return _eval_poly_word(C, alpha_of[i], w)

    @cache
    def alpha_right(w, k):
        return _eval_word_poly(C, w, alpha_of[k])

    def first_expansion(k, i, j):
        xy = word_product(basis[i], basis[j])
        left = sum((c * v for w, c in xy if (v := alpha_right(w, k))), zero)
        right = zero
        for (z1, z2), c in delta_of[k]:
            a, b = alpha_left(i, z1), alpha_left(j, z2)
            if a and b:
                right = right + c * (a * b)
        return left, right

    def second_expansion(i, j, k):
        yz = word_product(basis[j], basis[k])
        left = sum((c * v for w, c in yz if (v := alpha_left(i, w))), zero)
        right = zero
        for (x1, x2), c in delta_of[i]:
            a, b = alpha_right(x1, k), alpha_right(x2, j)
            if a and b:
                right = right + c * (a * b)
        return left, right

    def commutation(i, j):
        left, right = [], []
        for (x1, x2), cx in delta_of[i]:
            for (y1, y2), cy in delta_of[j]:
                r_left = C.word_pair_value(x2, y2)
                r_right = C.word_pair_value(x1, y1)
                if r_left or r_right:
                    c = cx * cy
                    if r_left:
                        left.append((y1, x1, c * r_left))
                    if r_right:
                        right.append((x2, y2, c * r_right))
        return (_combine(word_product, pres, left),
                _combine(word_product, pres, right))

    idx = range(len(basis))
    _scan(rep, "first_slot_product_expansion", [idx] * 3, first_expansion,
          _at(names, "zxy"), degree)
    _scan(rep, "second_slot_product_expansion", [idx] * 3, second_expansion,
          _at(names, "xyz"), degree)
    _scan(rep, "braided_commutation", [idx] * 2, commutation,
          _at(names, "xy"), degree)
    return rep


def verify_oqhybe(C, degree):
    """Check the two scalar Hom-Yang-Baxter identities implied by the
    cobraided axioms on all covered basis-monomial triples (x, y, z),
    with coproduct x1 (x) x2 and structure map alpha:

    operator_ybe_first_form
        sum R(x1, alpha y1) R(x2, alpha z1) R(y2, z2)
            = sum R(y1, z1) R(x1, alpha z2) R(x2, alpha y2)
    operator_ybe_second_form
        sum R(x1, y1) R(alpha x2, z1) R(alpha y2, z2)
            = sum R(alpha y1, z1) R(alpha x1, z2) R(x2, y2)

    Both read sum f(x1, y1) g(x2, z1) h(y2, z2) = sum h(y1, z1) g(x1, z2)
    f(x2, y2), and each side is a partial contraction.  For a pair (x, y)
    the fold U_xy contracts the legs of x and y that f takes, (x1, y1) on
    the left and (x2, y2) on the right, and keeps its non-zero entries by
    the other two legs.  For z, V_z contracts the coproduct of z with the
    two other factors at those legs; the factor on z1 is memoised per
    (z, leg) on first use, so V_z costs one product per leg z2.  Each
    triple is the sparse dot product of U_xy with V_z.
    """
    H = C.H
    pres = H.pres
    zero = pres.field.zero
    one = pres.field.one
    rep = Report(f"operator Yang-Baxter identities on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    names = [pres.word_text(w) for w in basis]
    delta_of = [list(H.delta(NCPoly(pres, {w: one}, _trusted=True))
                     .terms.items()) for w in basis]
    R = C.word_pair_value

    @cache
    def R_alpha(m, w):
        return _eval_word_poly(C, m, H.alpha_word(w))

    @cache
    def alpha_R(w, m):
        return _eval_poly_word(C, H.alpha_word(w), m)

    @cache
    def z1_fold(k, g, a):
        return [(z2, c * v) for (z1, z2), c in delta_of[k] if (v := g(a, z1))]

    def contract_z(k, g, a, h, b):
        # sum of cz g(a, z1) h(b, z2) over the coproduct of z_k
        return sum((w * v for z2, w in z1_fold(k, g, a) if (v := h(b, z2))),
                   zero)

    def ybe_form(f, g, h):
        @lru_cache(maxsize=1)
        def fold(i, j):
            left, right = {}, {}
            for (x1, x2), cx in delta_of[i]:
                for (y1, y2), cy in delta_of[j]:
                    c = cx * cy
                    u = f(x1, y1)
                    if u:
                        left[x2, y2] = left.get((x2, y2), zero) + c * u
                    u = f(x2, y2)
                    if u:
                        right[x1, y1] = right.get((x1, y1), zero) + c * u
            return ([(a, b, u) for (a, b), u in left.items() if u],
                    [(a, b, u) for (a, b), u in right.items() if u])

        def sides(i, j, k):
            left, right = fold(i, j)
            return (sum((u * v for a, b, u in left
                         if (v := contract_z(k, g, a, h, b))), zero),
                    sum((u * v for a, b, u in right
                         if (v := contract_z(k, h, b, g, a))), zero))
        return sides

    idx = [range(len(basis))] * 3
    _scan(rep, "operator_ybe_first_form", idx, ybe_form(R_alpha, R_alpha, R),
          _at(names, "xyz"), degree)
    _scan(rep, "operator_ybe_second_form", idx, ybe_form(R, alpha_R, alpha_R),
          _at(names, "xyz"), degree)
    return rep


def check_alpha_invariance(C, degree):
    """Check that applying the structure map to both slots leaves the
    instance form unchanged on covered basis monomials."""
    H = C.H
    pres = H.pres
    rep = Report(f"alpha invariance on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    alpha_of = [H.alpha_word(w) for w in basis]
    _scan(rep, "alpha_invariance", [range(len(basis))] * 2,
          lambda i, j: (eval_R(C, alpha_of[i], alpha_of[j]),
                        C.word_pair_value(basis[i], basis[j])),
          _at([pres.word_text(w) for w in basis], "xy"), degree)
    return rep


def alpha_kernel_witness(H, degree=None):
    """Search the graded pieces up to `degree` (default: the
    presentation's max degree) for a nonzero element killed by the
    structure map.  Returns None when every piece has trivial kernel."""
    pres = H.pres
    field = pres.field
    if degree is None:
        degree = pres.max_degree
    if H.alpha_is_identity:
        return None
    for d in range(1, degree + 1):
        words = pres.basis_level(d)
        if not words:
            break
        images = [H.alpha_word(w) for w in words]
        support = sorted({m for p in images for m in p.terms},
                         key=lambda w: (len(w), w))
        row_of = {m: r for r, m in enumerate(support)}
        rows = [[field.zero] * len(words) for _ in support]
        for col, p in enumerate(images):
            for m, c in p.terms.items():
                rows[row_of[m]][col] = c
        for vec in kernel_basis(rows, len(words), field):
            elt = pres.zero_poly()
            for c, w in zip(vec, words):
                if not c.is_zero():
                    elt = elt + NCPoly(pres, {w: c}, _trusted=True)
            if not elt.is_zero():
                return {"degree": d, "element": elt.render()}
    return None


def twist_R_power(C, n):
    """Compose the instance form with n extra iterates of the structure
    map in both slots.  Requires the structure map to be injective on
    every graded piece up to the presentation's max degree."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return C
    witness = alpha_kernel_witness(C.H)
    if witness is not None:
        raise InjectivityError(witness)
    return CobraidedHomBialgebra(C.H, C.form,
                                 alpha_power=C.alpha_power + n, name=C.name)
