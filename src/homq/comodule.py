"""Comodules, Yang-Baxter operators, and quantum-plane coactions.

Carriers come in two shapes.  A finite labeled basis (Comodule) is what
the Yang-Baxter operators act on.  A presented algebra whose coaction
extends multiplicatively from a generator table (ComoduleAlgebra) covers
the two quantum planes; its graded pieces collapse back to finite carriers.
The coaction values of an algebra carrier are dicts keyed by (host word,
carrier word), a generator table extended by ncpoly.word_map, and of a
finite carrier dicts keyed by (host word, label).

The coaction of a twisted comodule algebra is always derived from the
stored untwisted generator table composed with the carrier twisting map,
so the table stays valid data for both the plain and the twisted reading
of the same instance.

Every coaction check is one of the contractions of hombialg.py, which
also check a Hom-bialgebra as the comodule rho = Delta over itself.  The
two braid checks contract the three operator stages of a side through
memos of one call, and read the right side as the left side of the
mirrored triple (see _braid_scan).
"""

from functools import cache

from .cobraid import CobraidedHomBialgebra, check_alpha_invariance
from .hombialg import (MorphismError, _coassociativity, _intertwining,
                       _multiplicativity, _product_table,
                       _relations_preserved, _word_terms, twist_hom_bialgebra)
from .ncpoly import (Presentation, PresentationError, TensorElement, _bump,
                     _key_slots, _legs, _linear, generator_table, json_row,
                     render_legs, slotwise, word_key, word_map)
from .report import Report, _scan, _unzip
from .scalars import render


class ComoduleError(Exception):
    """Raised when a comodule construction or precondition is rejected."""

    def __init__(self, message, report=None, witness=None):
        self.report = report
        self.witness = witness
        super().__init__(message)


def host_hom(host):
    """Unwrap a host that may carry a bilinear form."""
    return host.H if isinstance(host, CobraidedHomBialgebra) else host


# finite-carrier comodules -----------------------------------------------------


def _label_table(labels, table, what, read):
    """The rows of a table keyed by carrier label, as label -> row.
    Every label needs a row and every key must be a label.  read(spec,
    val) gives the carrier label one entry names and the (key, scalar)
    terms it adds to its row; each row sums them with _bump."""
    known = set(labels)
    rows = {}
    for lab in labels:
        if lab not in table:
            raise PresentationError(f"label {lab!r} missing from {what}")
        row = rows[lab] = {}
        for spec, val in table[lab].items():
            lab2, terms = read(spec, val)
            if lab2 not in known:
                raise PresentationError(f"unknown carrier label {lab2!r}")
            for key, c in terms:
                _bump(row, key, c)
    for lab in table:
        if lab not in known:
            raise PresentationError(f"unknown carrier label {lab!r}")
    return rows


class Comodule:
    """Comodule on a finite labeled basis.

    rho maps each basis label to a dict (host normal word, label) ->
    coefficient; alpha is a matrix in the same label indexing, identity
    when omitted.  When an alpha table is given it must carry a row for
    every label (an empty row means the zero image).
    """

    def __init__(self, host, labels, rho_table, alpha_table=None, name=""):
        self.host = host
        self.hom = host_hom(host)
        self.name = name
        pres = self.hom.pres
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise PresentationError("duplicate carrier labels")

        def rho_entry(spec, val):
            hspec, lab2 = _key_slots(spec, 2, "rho table")
            return lab2, (((hw, lab2), c) for hw, c in pres._nf_raw(
                pres._raw_poly({hspec: val})).items())

        self.rho = _label_table(self.labels, rho_table, "rho table",
                                rho_entry)
        if alpha_table is None:
            alpha_table = {lab: {lab: 1} for lab in self.labels}
        self.alpha = _label_table(
            self.labels, alpha_table, "alpha table",
            lambda lab2, val: (lab2, [(lab2, pres.coef(val))]))

    def to_json(self):
        pres = self.hom.pres
        rho = {}
        for lab in self.labels:
            entries = sorted(self.rho[lab].items(),
                             key=lambda t: (word_key(t[0][0]),
                                            self.labels.index(t[0][1])))
            rho[lab] = [{"host": pres.word_text(hw), "carrier": lab2,
                         "value": render(c)} for (hw, lab2), c in entries]
        alpha = {lab: [{"carrier": lab2, "value": render(c)}
                       for lab2, c in sorted(
                           self.alpha[lab].items(),
                           key=lambda t: self.labels.index(t[0]))]
                 for lab in self.labels}
        return {"name": self.name, "labels": list(self.labels),
                "rho": rho, "alpha": alpha}

    @classmethod
    def from_json(cls, data, host):
        """Read to_json() output.  A row may name a key only once: rho
        entries are keyed by (host, carrier), alpha entries by carrier."""
        labels = tuple(data["labels"])
        rho_table = {lab: json_row(f"row {lab!r}", entries,
                                   lambda e: (e["host"], e["carrier"]),
                                   "value")
                     for lab, entries in data["rho"].items()}
        alpha_table = None
        if "alpha" in data:
            alpha_table = {lab: json_row(f"row {lab!r}", entries,
                                         lambda e: e["carrier"], "value")
                           for lab, entries in data["alpha"].items()}
        return cls(host, labels, rho_table, alpha_table,
                   name=data.get("name", ""))


# presented-algebra comodules ---------------------------------------------------


class ComoduleAlgebra:
    """Comodule whose carrier is a presented algebra.

    The stored rho table gives the untwisted coaction on carrier
    generators and is extended multiplicatively.  The instance is
    twisted exactly when its host is, since a comodule Hom-algebra is
    twisted together with its host.  A twisted instance reads its
    coaction as the stored table composed with the carrier twisting map
    and multiplies through that map on both slots.
    """

    def __init__(self, host, carrier, rho_table, alpha_table=None, name=""):
        self.host = host
        self.hom = host_hom(host)
        self.carrier = carrier
        self.twisted = self.hom.twisted
        self.name = name
        hpres = self.hom.pres
        if carrier.field != hpres.field:
            raise PresentationError(
                "host and carrier must share one scalar field")

        self.rho_gen = generator_table(carrier, rho_table, "rho table",
                                       (hpres, carrier))
        self.alpha_gen = generator_table(carrier, alpha_table, "alpha table")
        self._alpha = word_map(carrier, self.alpha_gen)
        self._base_rho = word_map(carrier, self.rho_gen, (hpres, carrier))
        self._rho_cache = {}

    # carrier maps ------------------------------------------------------------

    def alpha_word(self, w):
        return self._alpha(w)

    def product(self, u, v):
        """The carrier's own product of two words (see _word_terms)."""
        return _word_terms(self.carrier, u, v,
                           self.alpha_word if self.twisted else None)

    # coactions ---------------------------------------------------------------

    def base_rho_word(self, w):
        """The untwisted coaction of a carrier word: the stored table
        extended multiplicatively by ncpoly.word_map, from the unit
        1 (x) 1, through a memo that lives as long as the instance."""
        return self._base_rho(w)

    def rho_word(self, w):
        """The instance coaction: the stored table composed with the
        carrier twisting map when the instance is twisted."""
        if not self.twisted:
            return self.base_rho_word(w)
        hit = self._rho_cache.get(w)
        if hit is None:
            hit = self._rho_cache[w] = _linear(self.alpha_word(w).items(),
                                               self.base_rho_word)
        return hit

    def pair_product(self, t1, t2):
        """Slotwise product with the instance multiplications: the host
        word products are read as they come, the carrier ones from a
        word-product table local to this call."""
        t1._check(t2)
        return TensorElement(t1.slots, slotwise(
            t1.terms, t2.terms,
            [self.hom.product, _product_table(self.product)]), _trusted=True)

    # graded pieces -------------------------------------------------------------

    def piece(self, degree, base=False, name=""):
        """Collapse the exact-degree slice to a finite carrier.

        With base=True the piece carries the untwisted coaction, which
        is the input the output-twisted Yang-Baxter operator wants."""
        carrier = self.carrier._certified()
        words = carrier.basis_level(degree)
        if not words:
            raise ComoduleError(f"degree-{degree} piece is empty")
        labels = tuple(carrier.word_text(w) for w in words)
        allowed = dict(zip(words, labels))

        def label(v, w, what):
            if v not in allowed:
                raise ComoduleError(f"{what} leaves the degree-{degree} "
                                    f"piece at {carrier.word_text(w)}")
            return allowed[v]

        rho_table, alpha_table = {}, {}
        for w, lab in zip(words, labels):
            t = self.base_rho_word(w) if base else self.rho_word(w)
            rho_table[lab] = {(hw, label(cw, w, "coaction")): c
                              for (hw, cw), c in t.items()}
            alpha_table[lab] = {label(v, w, "twisting map"): c
                                for v, c in self.alpha_word(w).items()}
        return Comodule(self.host, labels, rho_table, alpha_table,
                        name=name or (self.name and
                                      f"{self.name} degree-{degree} piece"))


# axiom verification ------------------------------------------------------------


def verify_comodule(M, degree=None):
    """Check Hom-coassociativity and comultiplicativity of the coaction
    on the carrier basis (up to total degree for algebra carriers), as
    hombialg._coassociativity and _intertwining.  The host coproduct of
    a word is read as it comes: over the quantum planes no call reads
    that of one word twice, so a memo of the call would not pay."""
    H = M.hom
    H.pres._certified()
    rep = Report(f"comodule axioms on {M.name or 'carrier'}")
    if isinstance(M, ComoduleAlgebra):
        degree = 3 if degree is None else degree
        carrier = M.carrier._certified()
        cases, text = carrier.graded_basis(degree), carrier.word_text
        rho_row, alpha_row = M.rho_word, M.alpha_word
    else:
        degree, cases, text = None, M.labels, str
        rho_row, alpha_row = M.rho.__getitem__, M.alpha.__getitem__

    def where(x):
        return {"element": text(x)}

    # the carrier leg sorts by its text, so labels and words sort alike
    host, leg = (word_key, H.pres.word_text), (text, text)
    _scan(rep, "coaction_hom_coassociativity", [cases],
          lambda: _unzip(_coassociativity(rho_row, H.delta_word, H.alpha_word,
                                          alpha_row, x) for x in cases),
          where, degree, render=lambda t: render_legs(t, [host, host, leg]))
    _scan(rep, "coaction_comultiplicativity", [cases],
          lambda: _unzip(_intertwining(rho_row, H.alpha_word, alpha_row,
                                       x)[::-1] for x in cases),
          where, degree, render=lambda t: render_legs(t, [host, leg]))
    return rep


# Yang-Baxter operators ----------------------------------------------------------


class YBOperator:
    """Exact matrix of an operator V (x) W -> W (x) V on labeled bases.

    entries[(v_label, w_label)] is the image as a dict keyed by output
    pairs (w_label, v_label); missing rows are zero.  The alpha
    matrices of the two carriers ride along for the commutation check.
    """

    __slots__ = ("v_labels", "w_labels", "entries", "alpha_v", "alpha_w",
                 "field", "name")

    def __init__(self, v_labels, w_labels, entries, alpha_v, alpha_w, field,
                 name=""):
        self.v_labels = tuple(v_labels)
        self.w_labels = tuple(w_labels)
        self.entries = entries
        self.alpha_v = alpha_v
        self.alpha_w = alpha_w
        self.field = field
        self.name = name


def _require_cobraided(V, W):
    if V.host is not W.host:
        raise ComoduleError("comodules live over different hosts")
    if not isinstance(V.host, CobraidedHomBialgebra):
        raise ComoduleError("host carries no cobraiding form")
    return V.host


def bvw_operator(V, W=None, name=""):
    """The braiding-style operator: pair the host legs of the two
    coactions through the form and swap the carrier legs."""
    W = V if W is None else W
    C = _require_cobraided(V, W)
    zero, one = C.H.pres.field.zero, C.H.pres.field.one
    entries = {}
    for i in V.labels:
        rv = V.rho[i]
        for j in W.labels:
            img = {}
            for (hw_w, k), cw in W.rho[j].items():
                for (hw_v, l), cv in rv.items():
                    r = C.word_pair_value(hw_w, hw_v)
                    if r is not zero:
                        r = cw if r is one else r if cw is one else r * cw
                        _bump(img, (k, l),
                              cv if r is one else r if cv is one else r * cv)
            if img:
                entries[(i, j)] = img
    return YBOperator(V.labels, W.labels, entries, V.alpha, W.alpha,
                      C.H.pres.field, name=name)


def b_alpha_operator(V, W=None, name=""):
    """The output-twisted operator: bvw_operator on the (untwisted)
    coactions, with the carrier twisting maps applied to both output
    legs."""
    B = bvw_operator(V, W, name)
    B.entries = {ij: out for ij, img in B.entries.items()
                 if (out := _legs(img, [B.alpha_w.__getitem__,
                                        B.alpha_v.__getitem__]))}
    return B


# a carrier leg: sorted by its label, rendered as text
_LABEL = (lambda x: x, str)


def _braid_scan(rep, name, labels, ops, alphas):
    """Add the braid check `name` over the label triples of U, V, W:
    ops are the entries of B_UV, B_UW and B_VW, alphas the carrier maps
    of U, V and W.  The left side applies alpha_U (x) B_VW, then
    B_UW (x) alpha_V, then alpha_W (x) B_UV; the right side applies
    B_UV (x) alpha_W, then alpha_V (x) B_UW, then B_VW (x) alpha_U.

    The left side of (i, j, k) is a sparse contraction: the sum over the
    row B_VW(j, k) -> (k1, l1) of each entry times tail(i, k1, l1), the
    two other stages, which factor at B_UV into memos of two labels:
    outer(i, k1) = (alpha_W (x) 1) B_UW (alpha_U (x) 1) keyed (x, u2) and
    inner(l1, u2) = B_UV (1 (x) alpha_V) keyed (y, z).  The memos live
    for one call.  The right side of (i, j, k) is the left side of
    (k, j, i), legs reversed, for the operators conjugated by the flip
    and alpha_U, alpha_W exchanged: reversing the three legs turns each
    stage of one side into the flipped stage of the other, in order.
    No product has the field's one as an operand."""
    def contraction(ops, alphas):
        b_uv, b_uw, b_vw = ops
        a_u, a_v, a_w = alphas

        @cache
        def outer(i, k1):
            img = _linear(a_u.get(i, {}).items(),
                          lambda i2: b_uw.get((i2, k1), {}))
            return _linear(img.items(), lambda xu: {
                (x, xu[1]): d for x, d in a_w.get(xu[0], {}).items()})

        @cache
        def inner(l1, u2):
            return _linear(a_v.get(l1, {}).items(),
                           lambda l2: b_uv.get((u2, l2), {}))

        @cache
        def tail(i, k1, l1):
            return _linear(outer(i, k1).items(), lambda xu: {
                (xu[0], *yz): d for yz, d in inner(l1, xu[1]).items()})

        return lambda i, j, k: _linear(b_vw.get((j, k), {}).items(),
                                       lambda kl: tail(i, *kl))

    left = contraction(ops, alphas)
    right = contraction([{(q, p): {(s, r): c for (r, s), c in img.items()}
                          for (p, q), img in e.items()} for e in ops[::-1]],
                        alphas[::-1])
    _scan(rep, name, labels,
          lambda i, j: _unzip(
              (left(i, j, k),
               {key[::-1]: c for key, c in right(k, j, i).items()})
              for k in labels[2]),
          lambda i, j, k: {"triple": f"{i} (x) {j} (x) {k}"},
          render=lambda t: render_legs(t, [_LABEL] * 3))


def verify_hybe(B):
    """Check the square operator against the twisted braid identity on
    triple tensors, plus commutation with the doubled carrier map.  Both
    factors must carry the same labels and the same carrier map, which
    acts on every leg."""
    if B.v_labels != B.w_labels:
        raise ComoduleError("operator must act on a square carrier pair")
    if B.alpha_v != B.alpha_w:
        raise ComoduleError("operator must act on a square carrier pair: "
                            "the carrier maps of its two factors differ")
    labels, alpha, one = B.v_labels, B.alpha_v, B.field.one
    rep = Report(f"Yang-Baxter operator checks on {B.name or 'operator'}")
    ent = B.entries
    _braid_scan(rep, "hybe", [labels] * 3, (ent,) * 3, (alpha,) * 3)
    twice = [alpha.__getitem__] * 2

    def commutation(i, j):
        # (alpha (x) alpha) after B, and B after (alpha (x) alpha)
        return (_legs(ent.get((i, j), {}), twice),
                _linear(_legs({(i, j): one}, twice).items(),
                        lambda pair: ent.get(pair, {})))

    _scan(rep, "alpha_commutation", [labels] * 2,
          lambda i: _unzip(commutation(i, j) for j in labels),
          lambda i, j: {"pair": f"{i} (x) {j}"},
          render=lambda t: render_legs(t, [_LABEL] * 2))
    return rep


def verify_mixed_hybe(U, V, W):
    """Check the heterogeneous braid identity for three comodules over
    one cobraided host whose form must be invariant under the structure
    map (spot-checked up to degree 2 before anything runs)."""
    if U.host is not V.host or V.host is not W.host:
        raise ComoduleError("comodules live over different hosts")
    C = _require_cobraided(U, V)
    inv = check_alpha_invariance(C, 2)
    if not inv.passed:
        raise ComoduleError(
            "the host form is not invariant under the structure map, "
            "so the mixed braid identity is not guaranteed", report=inv)
    rep = Report("mixed braid identity")
    rep.extend(inv)
    ops = [bvw_operator(X, Y).entries for X, Y in ((U, V), (U, W), (V, W))]
    _braid_scan(rep, "mixed_hybe", [U.labels, V.labels, W.labels], ops,
                (U.alpha, V.alpha, W.alpha))
    return rep


# comodule algebras and their twisting --------------------------------------------


def twist_comodule_algebra(A, alpha_h, alpha_a, name=""):
    """Twist an untwisted comodule algebra along compatible maps.

    alpha_h must be a bialgebra morphism on the host, alpha_a an algebra
    morphism on the carrier, and the coaction must intertwine the two on
    carrier generators; each hypothesis is checked and a failure raises
    with the offending generator or rule; a twisted base is refused by
    twist_hom_bialgebra."""
    H = A.hom
    carrier = A.carrier

    twisted_h = twist_hom_bialgebra(H, alpha_h)

    a_images = generator_table(carrier, alpha_a, "alpha table")
    arep = Report(f"algebra morphism on {carrier.name or 'carrier'}")
    a_word = word_map(carrier, a_images)
    _relations_preserved(arep, carrier, a_word)
    if not arep.passed:
        raise MorphismError(arep)

    irep = Report()
    gens = range(len(carrier.generators))
    _scan(irep, "intertwining", [gens],
          lambda: _unzip(_intertwining(A.base_rho_word, twisted_h.alpha_word,
                                       a_word, (gi,)) for gi in gens),
          lambda gi: {"generator": carrier.generators[gi]},
          render=lambda t: render_legs(t, [(word_key, H.pres.word_text),
                                           (word_key, carrier.word_text)]))
    if not irep.passed:
        witness = irep.checks[0].witness
        raise ComoduleError(
            f"coaction does not intertwine the twisting maps on "
            f"generator {witness['generator']}", witness=witness)

    if isinstance(A.host, CobraidedHomBialgebra):
        host = CobraidedHomBialgebra(twisted_h, A.host.form,
                                     A.host.alpha_power,
                                     name=A.host.name)
    else:
        host = twisted_h
    return ComoduleAlgebra(host, carrier, A.rho_gen, a_images,
                           name=name or (A.name and A.name + "_twisted"))


def verify_comodule_hom_algebra(M, degree):
    """Check that the instance coaction is multiplicative for the
    instance products on basis-monomial pairs of total degree at most
    `degree`, as hombialg._multiplicativity.  Carrier products are read
    from a memo local to this call, host products as they come, since no
    two pairs share one, and the coaction of a word from the instance's
    own memos (see ComoduleAlgebra.rho_word)."""
    hpres = M.hom.pres._certified()
    carrier = M.carrier._certified()
    words = carrier.graded_basis(degree)
    rep = Report(f"comodule algebra on {M.name or 'carrier'}")
    pairs = [(u, v) for u in words for v in words
             if len(u) + len(v) <= degree]
    carrier_product = _product_table(M.product)

    _scan(rep, "coaction_multiplicativity", [pairs],
          lambda: _unzip(_multiplicativity(M.rho_word, M.hom.product,
                                           carrier_product, *pair,
                                           hpres.field.one)
                         for pair in pairs),
          lambda pair: {"left_factor": carrier.word_text(pair[0]),
                        "right_factor": carrier.word_text(pair[1])}, degree,
          lambda t: render_legs(t, [(word_key, hpres.word_text),
                                    (word_key, carrier.word_text)]))
    return rep


# quantum planes -------------------------------------------------------------------

PLANE_KINDS = ("standard", "fermionic")


def plane_presentation(field, kind):
    """The two quantum planes on x and y: the standard one, commuting
    up to q, and the fully nilpotent fermionic one."""
    if kind == "standard":
        rules = [("yx", {"xy": "q"})]
    elif kind == "fermionic":
        rules = [("yx", {"xy": "-q^-1"}), ("xx", {}), ("yy", {})]
    else:
        raise ComoduleError(f"unknown plane kind {kind!r}")
    return Presentation("xy", rules, field, name=f"{kind}_plane")


def _carrier_scalars(carrier, twisted, xi, lam):
    """xi and lam of the plane carrier map as scalars, with the defaults
    plane_comodule_algebra describes."""
    if xi is None:
        xi = "xi" if twisted else 1
    if lam is None:
        lam = "lambda" if twisted else 1
    return carrier.coef(xi), carrier.coef(lam)


def plane_comodule_algebra(host, kind, xi=None, lam=None, name=""):
    """The matrix-style coaction on a quantum plane over a 4-generator
    host named a,b,c,d; twisted exactly when the host is twisted.

    The carrier map is x -> xi x, y -> lam^-1 xi y.  Over a twisted host
    xi and lam default to the variables xi and lambda.  Over an untwisted
    host they default to 1: with the identity as host map, that scaling
    breaks both comodule axioms at x."""
    H = host_hom(host)
    pres = H.pres
    for g in "abcd":
        if g not in pres.generators:
            raise ComoduleError(
                "plane coactions need host generators a, b, c, d")
    carrier = plane_presentation(pres.field, kind)
    xi, lam = _carrier_scalars(carrier, H.twisted, xi, lam)
    rho_table = {"x": {("a", "x"): 1, ("b", "y"): 1},
                 "y": {("c", "x"): 1, ("d", "y"): 1}}
    alpha_table = {"x": {"x": xi}, "y": {"y": lam.inverse() * xi}}
    return ComoduleAlgebra(host, carrier, rho_table, alpha_table,
                           name=name or f"{kind}_plane_coaction")
