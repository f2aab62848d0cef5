"""Hom-bialgebra structures on presented algebras.

A structure is stored as generator tables, parsed once by
ncpoly.generator_table into dicts of normal words: a comultiplication
table sending each generator to a dict keyed by pairs of words, and a
twisting-map table sending each generator to a dict keyed by words.
Each extends multiplicatively through its own ncpoly.word_map, and every
word map returns such a dict.  The twisted flag selects between the plain
bialgebra reading (product = concatenation, coproduct = table extension,
twisting map along for the ride) and the twisted reading where the
product is alpha after multiplication and the coproduct is the table
extension after alpha.

The product works on words.  The product checks of verify_hom_bialgebra
compare plain dicts, keyed by words or by pairs of words, and render only
a witness.  cobraid.py checks the second cobraided expansion as the first
one for R^t(a, b) = R(b, a) over Delta^cop.

A Hom-bialgebra is a comodule over itself (rho = Delta, alpha_M = alpha),
so its coproduct checks, that of verify_morphism and every coaction check
of comodule.py are the three plain-dict contractions _intertwining,
_coassociativity and _multiplicativity.
"""

from functools import cache, partial

from .ncpoly import (NCPoly, Presentation, TensorElement, PresentationError,
                     _bump, _expand, _legs, _linear, _poly_json, _render_raw,
                     generator_table, json_row, render_legs, word_key,
                     word_map)
from .report import Report, _at, _scan, _unzip
from .scalars import render


class MorphismError(Exception):
    """Raised when a proposed twisting map fails the morphism checks."""

    def __init__(self, report):
        self.report = report
        bad = ", ".join(c.name for c in report.failures())
        super().__init__(f"{report.title}: twisting map fails {bad}")


class HomBialgebra:

    def __init__(self, pres, delta_table, alpha_table=None, twisted=False,
                 name=""):
        self.pres = pres
        self.name = name or pres.name
        self.twisted = twisted
        self.delta_gen = generator_table(pres, delta_table, "delta table",
                                         (pres, pres))
        self.alpha_gen = generator_table(pres, alpha_table, "alpha table")
        self._alpha = word_map(pres, self.alpha_gen)
        self._delta = word_map(pres, self.delta_gen, (pres, pres))

    # the twisting map --------------------------------------------------------

    def alpha_word(self, w):
        return self._alpha(w)

    def alpha_poly(self, p):
        return NCPoly(self.pres, _linear(self.pres.terms_of(p),
                                         self.alpha_word), _trusted=True)

    # products ----------------------------------------------------------------

    def product(self, u, v):
        """The instance's own product of two words (see _word_terms)."""
        return _word_terms(self.pres, u, v,
                           self.alpha_word if self.twisted else None)

    # coproducts ----------------------------------------------------------------

    def untwisted_delta_word(self, w):
        return self._delta(w)

    def delta(self, p):
        """The instance's own comultiplication (twisted when flagged)."""
        pres = self.pres
        return TensorElement((pres, pres), _linear(pres.terms_of(p),
                                                   self.delta_word),
                             _trusted=True)

    def delta_word(self, w):
        if self.twisted:
            return _linear(self.alpha_word(w).items(),
                           self.untwisted_delta_word)
        return self.untwisted_delta_word(w)

    # serialization ---------------------------------------------------------------

    def to_json(self):
        pres = self.pres
        out = pres.to_json()
        delta = {}
        alpha = {}
        for i, g in enumerate(pres.generators):
            legs = [{"legs": [pres.word_text(ws[0]), pres.word_text(ws[1])],
                     "coef": render(c)}
                    for ws, c in sorted(
                        self.delta_gen[i].items(),
                        key=lambda t: (word_key(t[0][0]), word_key(t[0][1])))]
            delta[g] = legs
            alpha[g] = _poly_json(pres, self.alpha_gen[i])
        out["delta"] = delta
        out["alpha"] = alpha
        out["twisted"] = self.twisted
        return out

    @classmethod
    def from_json(cls, data, field, name=""):
        pres = Presentation.from_json(data, field, name=name)
        delta_table = {g: json_row(f"delta of {g!r}", legs,
                                   lambda t: (t["legs"][0], t["legs"][1]),
                                   "coef")
                       for g, legs in data["delta"].items()}
        alpha_table = {g: json_row(f"alpha of {g!r}", terms,
                                   lambda t: t["mono"], "coef")
                       for g, terms in data["alpha"].items()}
        return cls(pres, delta_table, alpha_table,
                   twisted=data.get("twisted", False), name=name)

    def __repr__(self):
        kind = "twisted" if self.twisted else "plain"
        return f"<HomBialgebra {self.name or 'instance'} ({kind})>"


def _word_terms(pres, u, v, alpha_word):
    """The (word, coefficient) pairs of the normal form of u + v, mapped
    through alpha_word, the memoised twisting map of a twisted instance,
    unless it is None: the twisted product alpha(uv)."""
    terms = pres.concat(u, v)
    if alpha_word is None:
        return terms
    return _linear(terms, alpha_word).items()


def _product_table(product):
    """A memo of a word-level instance product (see _word_terms) that
    lives as long as the returned prod: prod(u, v) is the tuple of (word,
    coefficient) terms of product(u, v), filled on first use.  The
    coefficients are stored as they come: equal one-term ones are
    already one object (see homq.scalars), so the memo hashes none."""
    table = {}

    def prod(u, v):
        hit = table.get((u, v))
        if hit is None:
            hit = table[u, v] = tuple(product(u, v))
        return hit
    return prod


def _combine(prod, terms, one):
    """The sum of a * b * prod(u, v) over the (u, v, a, b) of terms, as
    the plain dict word -> coefficient that _bump sums, so it compares
    like the NCPoly it stands for and renders with _render_raw.  No
    product has the field's one as an operand."""
    raw = {}
    for u, v, a, b in terms:
        c = b if a is one else a if b is one else a * b
        for w, cw in prod(u, v):
            _bump(raw, w, c if cw is one else cw if c is one else c * cw)
    return raw


def _intertwining(rho, f, g, x):
    """rho(g x) and (f (x) g) rho(x), as dicts that _bump sums.  Each word
    map gives a plain dict: rho keyed by (host word, carrier key), f and
    g keyed by word or carrier key.  Delta o alpha = (alpha (x) alpha) o
    Delta is the case rho = Delta, f = g = alpha."""
    return _linear(g(x).items(), rho), _legs(rho(x), [f, g])


def _coassociativity(rho, delta, f, g, x):
    """(Delta (x) g) rho(x) and (f (x) rho) rho(x), keyed by three legs
    (word maps as in _intertwining)."""
    left, right = {}, {}
    for (h, m), c in rho(x).items():
        # g's leg first, so a one-term g costs one product per leg of Delta
        for (v, hs), d in _expand(c, [g(m).items(), delta(h).items()]):
            _bump(left, (*hs, v), d)
        for (v, ms), d in _expand(c, [f(h).items(), rho(m).items()]):
            _bump(right, (v, *ms), d)
    return left, right


def _multiplicativity(rho, host_prod, prod, u, v, one):
    """rho(uv) and rho(u) rho(v): prod and host_prod give the terms of a
    word product in the domain of rho and in the host.  Legs ((a, b), c1)
    and ((x, y), c2) add ((c1 * c2) * cs) * ct over the terms (s, cs) of
    host_prod(a, x) and (t, ct) of prod(b, y).  No product has the
    field's one as an operand."""
    left, right = {}, {}
    for w, c in prod(u, v):
        for key, d in rho(w).items():
            _bump(left, key, d if c is one else c if d is one else c * d)
    second = rho(v).items()
    for (a, b), c1 in rho(u).items():
        for (x, y), c2 in second:
            c = c2 if c1 is one else c1 if c2 is one else c1 * c2
            legs = prod(b, y)
            for s, cs in host_prod(a, x):
                k = cs if c is one else c if cs is one else c * cs
                for t, ct in legs:
                    _bump(right, (s, t),
                          ct if k is one else k if ct is one else k * ct)
    return left, right


def _relations_preserved(rep, pres, image):
    """Add the check that the generator images satisfy every defining
    relation of pres, the first violated rule being the witness; image
    is the caller's word map of the images (see ncpoly.word_map)."""
    _scan(rep, "relations_preserved", [pres.rules],
          lambda: _unzip((image(lw), _linear(rp.items(), image))
                         for lw, rp in pres.rules),
          lambda rule: {"rule": pres.word_text(rule[0])},
          render=partial(_render_raw, pres))


def verify_morphism(endo, H):
    """Check that the generator table endo defines a bialgebra morphism:
    it preserves every defining relation and commutes with the coproduct."""
    pres = H.pres._certified()
    images = generator_table(pres, endo, "endomorphism table")
    rep = Report(f"morphism on {H.name or 'instance'}")
    endo = word_map(pres, images)
    _relations_preserved(rep, pres, endo)
    gens = range(len(images))
    _scan(rep, "comultiplication_preserved", [gens],
          lambda: _unzip(_intertwining(H.untwisted_delta_word, endo, endo,
                                       (i,)) for i in gens),
          lambda i: {"generator": pres.generators[i]},
          render=lambda t: render_legs(t, [(word_key, pres.word_text)] * 2))
    return rep


def twist_hom_bialgebra(B, endo, name=""):
    """Twist a plain bialgebra along a verified endomorphism: the product
    becomes alpha after multiplication, the coproduct becomes the coproduct
    after alpha, and the bilinear data of any enclosing structure is kept."""
    if B.twisted:
        raise PresentationError("twist requires an untwisted base")
    rep = verify_morphism(endo, B)
    if not rep.passed:
        raise MorphismError(rep)
    return HomBialgebra(B.pres, B.delta_gen, endo, twisted=True,
                        name=name or (B.name + "_twisted" if B.name else ""))


def verify_hom_bialgebra(H, degree):
    """Run the structure axioms over all basis monomials of total degree
    at most `degree`, using the instance's own product, coproduct, and
    twisting map.  The three product checks are contractions against one
    table of word products, filled on first use, whose sides are plain
    dicts keyed by words (see _combine) or, for compatibility, by pairs
    of words; only a witness is rendered, to the text of the NCPoly or
    TensorElement the dict stands for.  Each check sweeps its cases by
    rows (see report._scan): a row of multiplicativity reads alpha(x)
    once, and a row of Hom-associativity reads alpha(x) and xy once.
    The coproduct checks and compatibility are those of the comodule
    rho = Delta, read from delta, the call's memo of the instance
    coproduct of a word; each coproduct check is one row."""
    pres = H.pres._certified()
    one = pres.field.one
    rep = Report(f"hom-bialgebra axioms on {H.name or 'instance'}")
    basis = pres.graded_basis(degree)
    at = _at({w: pres.word_text(w) for w in basis}, "xyz")
    alpha = H.alpha_word
    alpha_terms = {w: alpha(w).items() for w in basis}
    word_prod = _product_table(H.product)
    delta = cache(H.delta_word)

    def times(left, right):
        # the instance product of two sums of (word, coefficient) pairs
        return _combine(word_prod, ((u, v, cu, cv) for u, cu in left
                                    for v, cv in right), one)

    def multiplicativity(x):
        ax = alpha_terms[x]
        return ([_linear(word_prod(x, y), alpha) for y in basis],
                [times(ax, alpha_terms[y]) for y in basis])

    def hom_associativity(x, y):
        ax, xy = alpha_terms[x], word_prod(x, y)
        return ([times(ax, word_prod(y, z)) for z in basis],
                [times(xy, alpha_terms[z]) for z in basis])

    poly_text = partial(_render_raw, pres)
    leg = (word_key, pres.word_text)

    _scan(rep, "multiplicativity", [basis] * 2, multiplicativity, at, degree,
          poly_text)
    _scan(rep, "hom_associativity", [basis] * 3, hom_associativity, at,
          degree, poly_text)
    _scan(rep, "comultiplicativity", [basis],
          lambda: _unzip(_intertwining(delta, alpha, alpha, x)
                         for x in basis),
          at, degree, lambda t: render_legs(t, [leg] * 2))
    _scan(rep, "hom_coassociativity", [basis],
          lambda: _unzip(_coassociativity(delta, delta, alpha, alpha, x)[::-1]
                         for x in basis),
          at, degree, lambda t: render_legs(t, [leg] * 3))
    _scan(rep, "product_coproduct_compatibility", [basis] * 2,
          lambda x: _unzip(_multiplicativity(delta, word_prod, word_prod, x, y,
                                             one) for y in basis),
          at, degree, lambda t: render_legs(t, [leg] * 2))
    return rep
