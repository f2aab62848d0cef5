"""The cobraiding bilinear form on a presented Hom-bialgebra.

The form R is stored as one table on pairs of words of length at most
one (generator pairs and the unit columns) and extended to all words by
one recursion, word_value: peel a generator off one slot and comultiply
the other.  Every reading of R on images of the structure map,
R(alpha^i x, alpha^j y), is one CobraidedHomBialgebra.alpha_value.  On
top sit the cobraided axiom suite, the two scalar Yang-Baxter
identities it implies, the alpha-invariance check, and the power twist.
The second cobraided product expansion is the first one for the
transposed form R^t(a, b) = R(b, a) over the co-opposite coproduct.

The instance keeps the memos that outlive a call: word_value's, the
alpha^k word images and the power-twisted pair values.  The verifiers
keep theirs for one call: R(alpha a, w), R(w, alpha a), products, and
the folds of their contractions, each kept for one pair of outer cases.
"""

from functools import cache, lru_cache

from .hombialg import _combine, _product_table
from .linalg import kernel_basis
from .ncpoly import NCPoly, PresentationError, json_row, linear_image
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
    """Bilinear form data on pairs of words of length at most one.

    table holds the generator pairs of gen_table, the unit columns
    ((), (j,)) of unit_left and ((i,), ()) of unit_right, and ((), ())
    from unit_unit.  gen_table must list every pair the form is defined
    on, zeros included; a lookup outside the table is a configuration
    error, not an implicit zero.  Generators present in both unit
    columns form the covered set; verification ranges over monomials in
    covered generators only.

    The form is total when table holds every such pair.  A total form
    has a value on every pair of words, so the recursion skips a term as
    soon as one factor is zero.  A partial form evaluates every factor,
    so a missing value still raises CobraidingError wherever the
    recursion reaches it.
    """

    def __init__(self, pres, gen_table, unit_left, unit_right, unit_unit=1):
        self.pres = pres

        def gen_word(spec):
            w = pres.word(spec)
            if len(w) != 1:
                raise PresentationError(f"{spec!r} is not a generator")
            return w

        def gen_pair(spec):
            l, r = spec
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
        cov = self.covered = frozenset(n[0] for m, n in table
                                       if not m and n and (n, ()) in table)
        for m, n in table:
            if m and n and not (m[0] in cov and n[0] in cov):
                bad = pres.generators[n[0] if m[0] in cov else m[0]]
                raise PresentationError(
                    f"gen_table mentions {bad} but the unit tables do not "
                    "cover it")
        self.total = len(table) == (len(pres.generators) + 1) ** 2

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
    the instance form is R(alpha^p x, alpha^p y).  Its three memos go
    through this host's maps: word_value's, seeded with a copy of the
    table; alpha^k(w) for k >= 1; and the pair values when p > 0.
    """

    def __init__(self, H, form, alpha_power=0, name=""):
        if form.pres.field != H.pres.field:
            raise PresentationError("form and bialgebra have different "
                                    "scalar fields")
        if form.pres is not H.pres and form.pres.to_json() != H.pres.to_json():
            raise PresentationError("form and bialgebra disagree on the "
                                    "underlying presentation")
        self.H = H
        self.form = form
        self.alpha_power = alpha_power
        self.name = name or H.name
        self._value_cache = {}
        self._word_cache = dict(form.table)
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
        form and p the alpha_power: the sum of cu cv R(u, v) over the
        terms of the two memoised images, each value read through
        word_value.  A term whose value is zero is dropped before it is
        scaled.  The sum itself is not memoised."""
        p = self.alpha_power
        v_terms = self._alpha_terms(p + j, n)
        return sum((cu * cv * r for u, cu in self._alpha_terms(p + i, m)
                    for v, cv in v_terms if (r := word_value(self, u, v))),
                   self.H.pres.field.zero)

    def _alpha_terms(self, k, w):
        """The terms of alpha^k(w) as a tuple of (word, coefficient)
        pairs, each image built from the one before; alpha^0(w) is w."""
        H = self.H
        if not k:
            return ((w, H.pres.field.one),)
        hit = self._alpha_cache.get((k, w))
        if hit is None:
            hit = self._alpha_cache[k, w] = tuple(linear_image(
                self._alpha_terms(k - 1, w), H.alpha_word,
                H.pres.zero_poly()).terms.items())
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
    words of length at most one is a hit or a CobraidingError.  Any
    other pair is a sum over a coproduct, the unit's being 1 (x) 1: the
    recursion peels the leading generator off a longer first slot and
    comultiplies the second, else comultiplies the first slot against
    the second slot's leading generator.  On a total form a term is
    dropped once one factor is zero, without evaluating the other.
    """
    return _eval(C, m, n)


def _eval(C, m, n):
    memo = C._word_cache
    key = (m, n)
    hit = memo.get(key)
    if hit is not None:
        return hit
    H = C.H
    if len(m) <= 1 and len(n) <= 1:
        text = H.pres.word_text
        raise CobraidingError(
            f"no configured value for the pair ({text(m)}, {text(n)})")
    total = C.form.total
    val = H.pres.field.zero
    if len(m) <= 1:
        # comultiply the first slot against the second slot's leading
        # generator: R(x, hz) = sum R(x1, z) R(x2, h)
        h, z = n[:1], n[1:]
        for (w1, w2), c in H.untwisted_delta_word(m).terms.items():
            a = _eval(C, w1, z)
            if a or not total:
                b = _eval(C, w2, h)
                if a and b:
                    val = val + c * (a * b)
    else:
        # peel the first slot's leading generator, comultiply the
        # second slot: R(g m', n) = sum R(g, n1) R(m', n2)
        g, rest = m[:1], m[1:]
        for (w1, w2), c in H.untwisted_delta_word(n).terms.items():
            a = _eval(C, g, w1)
            if a or not total:
                b = _eval(C, rest, w2)
                if a and b:
                    val = val + c * (a * b)
    memo[key] = val
    return val


def covered_basis(C, degree):
    """Basis monomials of total degree <= degree in covered generators."""
    covered = C.form.covered
    return [w for w in C.H.pres.graded_basis(degree)
            if all(i in covered for i in w)]


def _fold(legs, read, a, keep):
    """The legs (l2, c read(a, l1)) of the legs ((l1, l2), c), in order;
    keep, true exactly on a partial form, keeps the zero ones, so that
    every value the sums need is looked up and a partial form raises."""
    return [(l2, c * v) for (l1, l2), c in legs
            if (v := read(a, l1)) or keep]


def _dot(fold, read, b, out):
    """out plus the sum of u read(b, l2) over the legs (l2, u) of a
    _fold; a term whose read(b, l2) is zero is dropped before it is scaled."""
    for l2, u in fold:
        if v := read(b, l2):
            out = out + u * v
    return out


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

    The second expansion is the first for the transposed form R^t(a, b)
    = R(b, a) over the co-opposite coproduct, so one contraction checks
    both: sides(a, b, c) compares outer(a, bc) with the sum of inner(b,
    a1) inner(c, a2), outer and inner being the call's memos of R(w,
    alpha a) and R(alpha a, w), keyed (a, w).  The first expansion runs
    it over Delta, scanned (z, x, y); the second swaps the two memos and
    runs over Delta^cop, scanned (x, y, z), and so reads every product
    and value in the order of its axiom.  Products of words come from
    one table filled on first use.  The coproduct side folds (a, b) once
    per pair of outer cases into the legs (a2, c inner(b, a1)) of Delta a
    (see _fold), and each case reads one value per leg.  A term with a
    zero value is dropped before it is multiplied.
    """
    H = C.H
    pres = H.pres
    zero = pres.field.zero
    rep = Report(f"cobraided axioms on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    names = {w: pres.word_text(w) for w in basis}
    delta_of = {w: list(H.delta_word(w).terms.items()) for w in basis}
    cop_of = {w: [((l2, l1), c) for (l1, l2), c in legs]
              for w, legs in delta_of.items()}
    # R(alpha a, w) and R(w, alpha a)
    alpha_left = cache(lambda a, w: C.alpha_value(a, w, 1, 0))
    alpha_right = cache(lambda a, w: C.alpha_value(w, a, 0, 1))

    word_prod = _product_table(H.product)
    keep = not C.form.total

    def expansion(outer, inner, delta):
        @lru_cache(maxsize=1)
        def fold(a, b):
            return _fold(delta[a], inner, b, keep)

        def sides(a, b, c):
            left = right = zero
            for w, k in word_prod(b, c):
                v = outer(a, w)
                if v:
                    left = left + k * v
            for a2, u in fold(a, b):
                v = inner(c, a2)
                if u and v:
                    right = right + u * v
            return left, right
        return sides

    def commutation(x, y):
        left, right = [], []
        for (x1, x2), cx in delta_of[x]:
            for (y1, y2), cy in delta_of[y]:
                r_left = C.word_pair_value(x2, y2)
                r_right = C.word_pair_value(x1, y1)
                if r_left or r_right:
                    c = cx * cy
                    if r_left:
                        left.append((y1, x1, c * r_left))
                    if r_right:
                        right.append((x2, y2, c * r_right))
        return (_combine(word_prod, pres, left),
                _combine(word_prod, pres, right))

    _scan(rep, "first_slot_product_expansion", [basis] * 3,
          expansion(alpha_right, alpha_left, delta_of), _at(names, "zxy"),
          degree)
    _scan(rep, "second_slot_product_expansion", [basis] * 3,
          expansion(alpha_left, alpha_right, cop_of), _at(names, "xyz"),
          degree)
    _scan(rep, "braided_commutation", [basis] * 2, commutation,
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
    two other factors at those legs; the factor on z1 is folded per
    (z, leg) on first use (see _fold), so V_z costs one product per leg
    z2.  Each triple is the sparse dot product of U_xy with V_z.
    """
    H = C.H
    pres = H.pres
    zero = pres.field.zero
    rep = Report(f"operator Yang-Baxter identities on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    names = [pres.word_text(w) for w in basis]
    delta_of = [list(H.delta_word(w).terms.items()) for w in basis]
    R = C.word_pair_value
    alpha_first = cache(lambda x, w: C.alpha_value(x, w, 1, 0))
    alpha_second = cache(lambda w, z: C.alpha_value(w, z, 0, 1))
    keep = not C.form.total

    z1_fold = cache(lambda k, g, a: _fold(delta_of[k], g, a, keep))

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
            lhs = rhs = zero
            for a, b, u in left:
                v = _dot(z1_fold(k, g, a), h, b, zero)
                if v:
                    lhs = lhs + u * v
            for a, b, u in right:
                v = _dot(z1_fold(k, h, b), g, a, zero)
                if v:
                    rhs = rhs + u * v
            return lhs, rhs
        return sides

    idx = [range(len(basis))] * 3
    _scan(rep, "operator_ybe_first_form", idx,
          ybe_form(alpha_second, alpha_second, R), _at(names, "xyz"), degree)
    _scan(rep, "operator_ybe_second_form", idx,
          ybe_form(R, alpha_first, alpha_first), _at(names, "xyz"), degree)
    return rep


def check_alpha_invariance(C, degree):
    """Check that applying the structure map to both slots leaves the
    instance form unchanged on covered basis monomials."""
    pres = C.H.pres
    rep = Report(f"alpha invariance on {C.name or 'instance'}")
    basis = covered_basis(C, degree)
    _scan(rep, "alpha_invariance", [basis] * 2,
          lambda x, y: (C.alpha_value(x, y, 1, 1), C.word_pair_value(x, y)),
          _at({w: pres.word_text(w) for w in basis}, "xy"), degree)
    return rep


def alpha_kernel_witness(H):
    """Search the graded pieces up to the presentation's max degree for
    a nonzero element killed by the structure map: the first kernel
    vector of the lowest degree that has one.  Returns None when every
    piece has trivial kernel."""
    pres = H.pres
    field = pres.field
    for d in range(1, pres.max_degree + 1):
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
        kernel = kernel_basis(rows, len(words), field)
        if kernel:
            elt = NCPoly(pres, {w: c for c, w in zip(kernel[0], words)
                                if not c.is_zero()}, _trusted=True)
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
