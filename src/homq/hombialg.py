"""Hom-bialgebra structures on presented algebras.

A structure is stored as generator tables: a comultiplication table sending
each generator to an arity-2 tensor, and a twisting-map table sending each
generator to an element.  Both extend multiplicatively.  The twisted flag
selects between the plain bialgebra reading (product = concatenation,
coproduct = table extension, twisting map along for the ride) and the
twisted reading where the product is alpha after multiplication and the
coproduct is the table extension after alpha.

The product works on words.  cobraid.py checks the second cobraided
expansion as the first one for R^t(a, b) = R(b, a) over Delta^cop.
"""

from functools import cache

from .ncpoly import (NCPoly, Presentation, TensorElement, PresentationError,
                     _bump, generator_table, json_row, linear_image,
                     slotwise, word_image, word_key)
from .report import Report, _at, _scan
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

        def two_legs(val):
            te = val if isinstance(val, TensorElement) else pres.tensor(2, val)
            if te.arity != 2:
                raise PresentationError("delta table values need two legs")
            if te.slots != (pres, pres):
                raise PresentationError("element of a different presentation")
            return te

        self.delta_gen = generator_table(pres, delta_table, "delta table",
                                         two_legs)
        if alpha_table is None:
            alpha_table = [pres.gen(g) for g in pres.generators]
        self.alpha_gen = generator_table(pres, alpha_table, "alpha table")

        self._alpha_memo = {(): pres.unit(1)}
        self._delta_memo = {(): pres.unit_tensor(2)}

    # the twisting map --------------------------------------------------------

    def alpha_word(self, w):
        return word_image(w, self.alpha_gen, self._alpha_memo)

    def alpha_poly(self, p):
        return linear_image(self.pres.terms_of(p), self.alpha_word,
                            self.pres.zero_poly())

    def alpha_tensor(self, t):
        fns = [self._alpha_slot] * t.arity
        return t.map_slots(fns)

    def _alpha_slot(self, w):
        return _slot(self.alpha_word(w))

    # products ----------------------------------------------------------------

    def product(self, u, v):
        """The instance's own product of two words (see _word_terms)."""
        return _word_terms(self.pres, u, v,
                           self.alpha_word if self.twisted else None)

    # coproducts ----------------------------------------------------------------

    def untwisted_delta_word(self, w):
        return word_image(w, self.delta_gen, self._delta_memo)

    def untwisted_delta(self, p):
        return linear_image(self.pres.terms_of(p), self.untwisted_delta_word,
                            self.pres.unit_tensor(2, 0))

    def delta(self, p):
        """The instance's own comultiplication (twisted when flagged)."""
        if self.twisted:
            p = self.alpha_poly(p)
        return self.untwisted_delta(p)

    def delta_word(self, w):
        if self.twisted:
            return self.untwisted_delta(self.alpha_word(w))
        return self.untwisted_delta_word(w)

    # serialization ---------------------------------------------------------------

    def to_json(self):
        pres = self.pres
        out = pres.to_json()
        delta = {}
        alpha = {}
        for i, g in enumerate(pres.generators):
            te = self.delta_gen[i]
            legs = [{"legs": [pres.word_text(ws[0]), pres.word_text(ws[1])],
                     "coef": render(c)}
                    for ws, c in sorted(
                        te.terms.items(),
                        key=lambda t: (word_key(t[0][0]), word_key(t[0][1])))]
            delta[g] = legs
            alpha[g] = self.alpha_gen[i].to_json()
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


def _slot(poly):
    """poly as a one-slot TensorElement, the shape map_slots takes."""
    return TensorElement((poly.pres,),
                         {(v,): c for v, c in poly.terms.items()},
                         _trusted=True)


def _word_terms(pres, u, v, alpha_word):
    """The (word, coefficient) pairs of the normal form of u + v, mapped
    through alpha_word, the memoised twisting map of a twisted instance,
    unless it is None: the twisted product alpha(uv).  No one-term
    NCPoly is built."""
    terms = pres.normal_word(u + v).items()
    if alpha_word is None:
        return terms
    return linear_image(terms, alpha_word, pres.zero_poly()).terms.items()


def _product_table(product):
    """A memo of a word-level instance product (see _word_terms) that
    lives as long as the returned prod: prod(u, v) is the tuple of (word,
    coefficient) terms of product(u, v), filled on first use, with equal
    coefficients stored as one object."""
    table = {}
    coefs = {}

    def prod(u, v):
        hit = table.get((u, v))
        if hit is None:
            hit = table[u, v] = tuple((w, coefs.setdefault(c, c))
                                      for w, c in product(u, v))
        return hit
    return prod


def _combine(prod, pres, terms):
    """The sum of c * prod(u, v) over the (u, v, c) triples of terms; a
    pair with a zero coefficient is not looked up."""
    raw = {}
    for u, v, c in terms:
        if c:
            for w, cw in prod(u, v):
                _bump(raw, w, c * cw)
    return NCPoly(pres, raw, _trusted=True)


def _relations_preserved(rep, pres, images, memo):
    """Add the check that the generator images satisfy every defining
    relation of pres, the first violated rule being the witness; memo is
    the caller's word_image memo of images."""

    def sides(rule):
        lw, rp = rule
        return (word_image(lw, images, memo),
                linear_image(rp.items(), lambda v: word_image(v, images, memo),
                             pres.zero_poly()))

    _scan(rep, "relations_preserved", [pres.rules], sides,
          lambda rule: {"rule": pres.word_text(rule[0])})


def verify_morphism(endo, H):
    """Check that the generator table endo defines a bialgebra morphism:
    it preserves every defining relation and commutes with the coproduct."""
    pres = H.pres
    images = generator_table(pres, endo, "endomorphism table")
    rep = Report(f"morphism on {H.name or 'instance'}")
    memo = {(): pres.unit(1)}
    _relations_preserved(rep, pres, images, memo)

    def endo_slot(w):
        return _slot(word_image(w, images, memo))

    _scan(rep, "comultiplication_preserved", [range(len(images))],
          lambda i: (H.untwisted_delta(images[i]),
                     H.untwisted_delta_word((i,)).map_slots([endo_slot,
                                                             endo_slot])),
          lambda i: {"generator": pres.generators[i]})
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
    table of word products, filled on first use."""
    pres = H.pres
    rep = Report(f"hom-bialgebra axioms on {H.name or 'instance'}")
    basis = pres.graded_basis(degree)
    at = _at([pres.word_text(w) for w in basis], "xyz")
    idx = range(len(basis))
    alpha_of = [H.alpha_word(w) for w in basis]
    alpha_terms = [p.terms.items() for p in alpha_of]
    word_prod = _product_table(H.product)

    def prod(i, j):
        return word_prod(basis[i], basis[j])

    def times(left, right):
        # the instance product of two sums of (word, coefficient) pairs
        return _combine(word_prod, pres, ((u, v, cu * cv) for u, cu in left
                                          for v, cv in right))

    @cache
    def delta_of(i):
        return H.delta_word(basis[i])

    def hom_coassociativity(i):
        D = delta_of(i)
        return (D.map_slots([H._alpha_slot, H.delta_word]),
                D.map_slots([H.delta_word, H._alpha_slot]))

    _scan(rep, "multiplicativity", [idx] * 2,
          lambda i, j: (linear_image(prod(i, j), H.alpha_word,
                                     pres.zero_poly()),
                        times(alpha_terms[i], alpha_terms[j])), at, degree)
    _scan(rep, "hom_associativity", [idx] * 3,
          lambda i, j, k: (times(alpha_terms[i], prod(j, k)),
                           times(prod(i, j), alpha_terms[k])), at, degree)
    _scan(rep, "comultiplicativity", [idx],
          lambda i: (H.delta(alpha_of[i]), H.alpha_tensor(delta_of(i))),
          at, degree)
    _scan(rep, "hom_coassociativity", [idx], hom_coassociativity, at, degree)
    _scan(rep, "product_coproduct_compatibility", [idx] * 2,
          lambda i, j: (H.delta(NCPoly(pres, prod(i, j), _trusted=True)),
                        slotwise(delta_of(i), delta_of(j),
                                 [word_prod, word_prod])),
          at, degree)
    return rep
