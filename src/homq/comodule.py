"""Comodules, Yang-Baxter operators, and quantum-plane coactions.

Carriers come in two shapes.  A finite labeled basis (Comodule) is what
the Yang-Baxter operators act on.  A presented algebra whose coaction
extends multiplicatively from a generator table (ComoduleAlgebra) covers
the two quantum planes; its graded pieces collapse back to finite carriers.

The coaction of a twisted comodule algebra is always derived from the
stored untwisted generator table composed with the carrier twisting map,
so the table stays valid data for both the plain and the twisted reading
of the same instance.
"""

from .cobraid import CobraidedHomBialgebra, check_alpha_invariance
from .hombialg import MorphismError, _relations_preserved, twist_hom_bialgebra
from .ncpoly import (NCPoly, Presentation, PresentationError, _bump,
                     generator_table, linear_image, word_image, word_key)
from .report import Report, _scan, timed
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


# mixed host (x) carrier tensors ----------------------------------------------


class MixedTensor:
    """Element of host (x) carrier with independent presentations per slot."""

    __slots__ = ("hpres", "cpres", "terms")

    def __init__(self, hpres, cpres, raw=None, _trusted=False):
        self.hpres = hpres
        self.cpres = cpres
        if _trusted:
            self.terms = dict(raw) if raw else {}
            return
        out = {}
        for (hspec, cspec), val in (raw or {}).items():
            hp = hpres.poly({hspec: val})
            cnf = cpres.normal_word(cpres.word(cspec))
            for hw, hc in hp.terms.items():
                for cw, cc in cnf.items():
                    _bump(out, (hw, cw), hc * cc)
        self.terms = out

    def _check(self, other):
        if self.hpres is not other.hpres or self.cpres is not other.cpres:
            raise PresentationError("operands from different presentations")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _bump(out, key, c)
        return MixedTensor(self.hpres, self.cpres, out, _trusted=True)

    def scale(self, c):
        c = self.hpres.coef(c)
        if c.is_zero():
            return MixedTensor(self.hpres, self.cpres, {}, _trusted=True)
        return MixedTensor(self.hpres, self.cpres,
                           {k: v * c for k, v in self.terms.items()},
                           _trusted=True)

    def __eq__(self, other):
        if not isinstance(other, MixedTensor):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def render(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (word_key(k[0]), word_key(k[1])))
        return " + ".join(
            f"({render(self.terms[k])})*[{self.hpres.word_text(k[0])}"
            f" (x) {self.cpres.word_text(k[1])}]" for k in keys)

    def __repr__(self):
        return f"MixedTensor({self.render()})"


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
            hspec, lab2 = spec
            return lab2, (((hw, lab2), c)
                          for hw, c in pres.poly({hspec: val}).terms.items())

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
        def row(lab, entries, key):
            out = {}
            for e in entries:
                if key(e) in out:
                    raise PresentationError(f"row {lab!r} repeats {key(e)!r}")
                out[key(e)] = e["value"]
            return out

        labels = tuple(data["labels"])
        rho_table = {lab: row(lab, entries,
                              lambda e: (e["host"], e["carrier"]))
                     for lab, entries in data["rho"].items()}
        alpha_table = None
        if "alpha" in data:
            alpha_table = {lab: row(lab, entries, lambda e: e["carrier"])
                           for lab, entries in data["alpha"].items()}
        return cls(host, labels, rho_table, alpha_table,
                   name=data.get("name", ""))


# presented-algebra comodules ---------------------------------------------------


class ComoduleAlgebra:
    """Comodule whose carrier is a presented algebra.

    The stored rho table gives the untwisted coaction on carrier
    generators and is extended multiplicatively.  A twisted instance
    reads its coaction as the stored table composed with the carrier
    twisting map and multiplies through that map on both slots.
    """

    def __init__(self, host, carrier, rho_table, alpha_table=None,
                 twisted=False, name=""):
        self.host = host
        self.hom = host_hom(host)
        self.carrier = carrier
        self.twisted = bool(twisted)
        self.name = name
        hpres = self.hom.pres
        if carrier.field is not hpres.field:
            raise PresentationError(
                "host and carrier must share one scalar field")

        self.rho_gen = generator_table(
            carrier, rho_table, "rho table",
            lambda t: t if isinstance(t, MixedTensor)
            else MixedTensor(hpres, carrier, dict(t)))
        if alpha_table is None:
            alpha_table = [carrier.gen(g) for g in carrier.generators]
        self.alpha_gen = generator_table(carrier, alpha_table, "alpha table")

        self._alpha_cache = {}
        self._base_rho_cache = {(): MixedTensor(
            hpres, carrier, {((), ()): carrier.field.one}, _trusted=True)}
        self._rho_cache = {}

    # carrier maps ------------------------------------------------------------

    def alpha_word(self, w):
        hit = self._alpha_cache.get(w)
        if hit is None:
            hit = self._alpha_cache[w] = word_image(w, self.alpha_gen,
                                                    self.carrier.unit(1))
        return hit

    def alpha_poly(self, p):
        return linear_image(p.terms.items(), self.alpha_word,
                            self.carrier.zero_poly())

    def product(self, u, v):
        """The carrier's own multiplication (twisted when flagged)."""
        raw = u * v
        return self.alpha_poly(raw) if self.twisted else raw

    # coactions ---------------------------------------------------------------

    def _pair_mul_plain(self, t1, t2):
        hpres, cpres = t1.hpres, t1.cpres
        out = {}
        for (h1, c1), s1 in t1.terms.items():
            for (h2, c2), s2 in t2.terms.items():
                s = s1 * s2
                for hw, hc in hpres.normal_word(h1 + h2).items():
                    shc = s * hc
                    for cw, cc in cpres.normal_word(c1 + c2).items():
                        _bump(out, (hw, cw), shc * cc)
        return MixedTensor(hpres, cpres, out, _trusted=True)

    def base_rho_word(self, w):
        """Multiplicative extension of the stored untwisted table."""
        hit = self._base_rho_cache.get(w)
        if hit is None:
            hit = self._pair_mul_plain(self.base_rho_word(w[:-1]),
                                       self.rho_gen[w[-1]])
            self._base_rho_cache[w] = hit
        return hit

    def base_rho(self, p):
        return linear_image(p.terms.items(), self.base_rho_word,
                            MixedTensor(self.hom.pres, self.carrier))

    def rho_word(self, w):
        """The instance coaction: the stored table composed with the
        carrier twisting map when the instance is twisted."""
        if not self.twisted:
            return self.base_rho_word(w)
        hit = self._rho_cache.get(w)
        if hit is None:
            hit = self._rho_cache[w] = self.base_rho(self.alpha_word(w))
        return hit

    def rho(self, p):
        return linear_image(p.terms.items(), self.rho_word,
                            MixedTensor(self.hom.pres, self.carrier))

    def pair_product(self, t1, t2):
        """Slotwise product with the instance multiplications."""
        hpres, cpres = t1.hpres, t1.cpres
        H = self.hom
        one = cpres.field.one
        out = {}
        for (h1, c1), s1 in t1.terms.items():
            hp1 = NCPoly(hpres, {h1: one}, _trusted=True)
            cp1 = NCPoly(cpres, {c1: one}, _trusted=True)
            for (h2, c2), s2 in t2.terms.items():
                s = s1 * s2
                hprod = H.product(hp1, NCPoly(hpres, {h2: one}, _trusted=True))
                cprod = self.product(cp1, NCPoly(cpres, {c2: one},
                                                 _trusted=True))
                for hw, hc in hprod.terms.items():
                    shc = s * hc
                    for cw, cc in cprod.terms.items():
                        _bump(out, (hw, cw), shc * cc)
        return MixedTensor(hpres, cpres, out, _trusted=True)

    # graded pieces -------------------------------------------------------------

    def piece(self, degree, base=False, name=""):
        """Collapse the exact-degree slice to a finite carrier.

        With base=True the piece carries the untwisted coaction, which
        is the input the output-twisted Yang-Baxter operator wants."""
        carrier = self.carrier
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
                              for (hw, cw), c in t.terms.items()}
            alpha_table[lab] = {label(v, w, "twisting map"): c
                                for v, c in self.alpha_word(w).terms.items()}
        return Comodule(self.host, labels, rho_table, alpha_table,
                        name=name or (self.name and
                                      f"{self.name} degree-{degree} piece"))


# axiom verification ------------------------------------------------------------


def _render_legs(pres, terms, carrier_text):
    """Render a dict keyed by host words followed by one carrier basis
    element, in the order of the words, then of the carrier text."""
    if not terms:
        return "0"

    def legs(k):
        return [*map(pres.word_text, k[:-1]), carrier_text(k[-1])]

    keys = sorted(terms, key=lambda k: (*map(word_key, k[:-1]),
                                        carrier_text(k[-1])))
    return " + ".join(f"({render(terms[k])})*[{' (x) '.join(legs(k))}]"
                      for k in keys)


def verify_comodule(M, degree=None):
    """Check Hom-coassociativity and comultiplicativity of the coaction
    on the carrier basis (up to total degree for algebra carriers)."""
    H = M.hom
    rep = Report(f"comodule axioms on {M.name or 'carrier'}")
    if isinstance(M, ComoduleAlgebra):
        degree = 3 if degree is None else degree
        cases, text = M.carrier.graded_basis(degree), M.carrier.word_text

        def rho_row(x):
            return M.rho_word(x).terms

        def alpha_row(x):
            return M.alpha_word(x).terms
    else:
        degree, cases, text = None, M.labels, str
        rho_row, alpha_row = M.rho.__getitem__, M.alpha.__getitem__

    def hom_coassociativity(x):
        lhs, rhs = {}, {}
        for (hw, m), c in rho_row(x).items():
            dt = H.delta_word(hw).terms
            for v, ac in alpha_row(m).items():
                ca = c * ac
                for (w1, w2), dc in dt.items():
                    _bump(lhs, (w1, w2, v), ca * dc)
            ap = H.alpha_word(hw)
            for (hw2, m2), c2 in rho_row(m).items():
                cc = c * c2
                for w1, c1 in ap.terms.items():
                    _bump(rhs, (w1, hw2, m2), cc * c1)
        return lhs, rhs

    def comultiplicativity(x):
        lhs, rhs = {}, {}
        for (hw, m), c in rho_row(x).items():
            ap = H.alpha_word(hw)
            for v, ac in alpha_row(m).items():
                ca = c * ac
                for w1, c1 in ap.terms.items():
                    _bump(lhs, (w1, v), ca * c1)
        for m, ac in alpha_row(x).items():
            for key, c in rho_row(m).items():
                _bump(rhs, key, c * ac)
        return lhs, rhs

    def where(x):
        return {"element": text(x)}

    _scan(rep, "coaction_hom_coassociativity", [cases], hom_coassociativity,
          where, degree, render=lambda t: _render_legs(H.pres, t, text))
    _scan(rep, "coaction_comultiplicativity", [cases], comultiplicativity,
          where, degree, render=lambda t: _render_legs(H.pres, t, text))
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
    return _operator(V, W, name, twist_output=False)


def b_alpha_operator(V, W=None, name=""):
    """The output-twisted operator: same pairing as bvw_operator on the
    (untwisted) coactions, with the carrier twisting maps applied to
    both output legs."""
    return _operator(V, W, name, twist_output=True)


def _operator(V, W, name, twist_output):
    W = V if W is None else W
    C = _require_cobraided(V, W)
    entries = {}
    for i in V.labels:
        rv = V.rho[i]
        for j in W.labels:
            img = {}
            for (hw_w, k), cw in W.rho[j].items():
                for (hw_v, l), cv in rv.items():
                    r = C.word_pair_value(hw_w, hw_v)
                    if r.is_zero():
                        continue
                    base = r * cw * cv
                    if not twist_output:
                        _bump(img, (k, l), base)
                        continue
                    for k2, c1 in W.alpha[k].items():
                        for l2, c2 in V.alpha[l].items():
                            _bump(img, (k2, l2), base * c1 * c2)
            if img:
                entries[(i, j)] = img
    return YBOperator(V.labels, W.labels, entries, V.alpha, W.alpha,
                      C.H.pres.field, name=name)


# three-leg composition helpers; states are dicts (p, q, r) -> Scalar


def _apply_front(entries, alpha, state):
    """Apply (Op (x) alpha): the operator on legs 0,1 and alpha on leg 2."""
    out = {}
    for (p, q, r), c in state.items():
        img = entries.get((p, q))
        if not img:
            continue
        arow = alpha.get(r)
        if not arow:
            continue
        for (k, l), c1 in img.items():
            base = c * c1
            for r2, c2 in arow.items():
                _bump(out, (k, l, r2), base * c2)
    return out


def _apply_back(entries, alpha, state):
    """Apply (alpha (x) Op): alpha on leg 0 and the operator on legs 1,2."""
    out = {}
    for (p, q, r), c in state.items():
        img = entries.get((q, r))
        if not img:
            continue
        arow = alpha.get(p)
        if not arow:
            continue
        for (k, l), c1 in img.items():
            base = c * c1
            for p2, c2 in arow.items():
                _bump(out, (p2, k, l), base * c2)
    return out


def _chain(state, stages):
    for fn, entries, alpha in stages:
        state = fn(entries, alpha, state)
    return state


def _render_state(terms):
    if not terms:
        return "0"
    return " + ".join(f"({render(terms[k])})*[{k[0]} (x) {k[1]} (x) {k[2]}]"
                      for k in sorted(terms))


def _triple(i, j, k):
    return {"triple": f"{i} (x) {j} (x) {k}"}


def _braid_sides(lhs_stages, rhs_stages, one):
    def sides(i, j, k):
        start = {(i, j, k): one}
        return _chain(start, lhs_stages), _chain(start, rhs_stages)
    return sides


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
    labels = B.v_labels
    alpha = B.alpha_v
    rep = Report(f"Yang-Baxter operator checks on {B.name or 'operator'}")
    ent = B.entries

    back, front = (_apply_back, ent, alpha), (_apply_front, ent, alpha)
    _scan(rep, "hybe", [labels] * 3,
          _braid_sides([back, front, back], [front, back, front],
                       B.field.one),
          _triple, render=_render_state)

    # the commutation witness names the pair and has no sides to render,
    # so this check keeps its own loop
    witness = None
    with timed() as tm:
        for i in labels:
            for j in labels:
                after = {}
                for (k, l), c in ent.get((i, j), {}).items():
                    for k2, c1 in alpha.get(k, {}).items():
                        cc = c * c1
                        for l2, c2 in alpha.get(l, {}).items():
                            _bump(after, (k2, l2), cc * c2)
                before = {}
                for i2, c1 in alpha.get(i, {}).items():
                    for j2, c2 in alpha.get(j, {}).items():
                        cc = c1 * c2
                        for key, c in ent.get((i2, j2), {}).items():
                            _bump(before, key, cc * c)
                if after != before:
                    witness = {"pair": f"{i} (x) {j}"}
                    break
            if witness:
                break
    rep.add("alpha_commutation", "fail" if witness else "pass", witness,
            wall_time=tm.seconds)
    return rep


def verify_mixed_hybe(U, V, W, invariance_degree=2):
    """Check the heterogeneous braid identity for three comodules over
    one cobraided host whose form must be invariant under the structure
    map (spot-checked up to invariance_degree before anything runs)."""
    if U.host is not V.host or V.host is not W.host:
        raise ComoduleError("comodules live over different hosts")
    C = _require_cobraided(U, V)
    inv = check_alpha_invariance(C, invariance_degree)
    if not inv.passed:
        raise ComoduleError(
            "the host form is not invariant under the structure map, "
            "so the mixed braid identity is not guaranteed", report=inv)
    rep = Report("mixed braid identity")
    rep.extend(inv)

    b_uv = bvw_operator(U, V).entries
    b_uw = bvw_operator(U, W).entries
    b_vw = bvw_operator(V, W).entries
    lhs_stages = [(_apply_back, b_vw, U.alpha), (_apply_front, b_uw, V.alpha),
                  (_apply_back, b_uv, W.alpha)]
    rhs_stages = [(_apply_front, b_uv, W.alpha), (_apply_back, b_uw, V.alpha),
                  (_apply_front, b_vw, U.alpha)]
    _scan(rep, "mixed_hybe", [U.labels, V.labels, W.labels],
          _braid_sides(lhs_stages, rhs_stages, C.H.pres.field.one),
          _triple, render=_render_state)
    return rep


# comodule algebras and their twisting --------------------------------------------


def twist_comodule_algebra(A, alpha_h, alpha_a, name=""):
    """Twist an untwisted comodule algebra along compatible maps.

    alpha_h must be a bialgebra morphism on the host, alpha_a an algebra
    morphism on the carrier, and the coaction must intertwine the two on
    carrier generators; each hypothesis is checked and a failure raises
    with the offending generator or rule."""
    if A.twisted:
        raise PresentationError("twist requires an untwisted base")
    H = A.hom
    hpres = H.pres
    carrier = A.carrier

    twisted_h = twist_hom_bialgebra(H, alpha_h)

    a_images = generator_table(carrier, alpha_a, "alpha table")
    arep = Report(f"algebra morphism on {carrier.name or 'carrier'}")
    _relations_preserved(arep, carrier, a_images)
    if not arep.passed:
        raise MorphismError(arep)

    h_images = twisted_h.alpha_gen
    hunit = hpres.unit(1)
    aunit = carrier.unit(1)
    for gi, g in enumerate(carrier.generators):
        lhs = A.base_rho(a_images[gi])
        moved = {}
        for (hw, cw), c in A.rho_gen[gi].terms.items():
            him = word_image(hw, h_images, hunit)
            aim = word_image(cw, a_images, aunit)
            for w1, c1 in him.terms.items():
                cc = c * c1
                for v, c2 in aim.terms.items():
                    _bump(moved, (w1, v), cc * c2)
        rhs = MixedTensor(hpres, carrier, moved, _trusted=True)
        if lhs != rhs:
            raise ComoduleError(
                f"coaction does not intertwine the twisting maps on "
                f"generator {g}",
                witness={"generator": g, "left": lhs.render(),
                         "right": rhs.render()})

    if isinstance(A.host, CobraidedHomBialgebra):
        host = CobraidedHomBialgebra(twisted_h, A.host.form,
                                     A.host.alpha_power,
                                     name=A.host.name)
    else:
        host = twisted_h
    return ComoduleAlgebra(host, carrier, A.rho_gen, a_images, twisted=True,
                           name=name or (A.name and A.name + "_twisted"))


def verify_comodule_hom_algebra(M, degree):
    """Check that the instance coaction is multiplicative for the
    instance products on basis-monomial pairs of total degree at most
    `degree`."""
    carrier = M.carrier
    one = carrier.field.one
    words = carrier.graded_basis(degree)
    rep = Report(f"comodule algebra on {M.name or 'carrier'}")
    pairs = [(u, v) for u in words for v in words
             if len(u) + len(v) <= degree]
    rho = {w: M.rho_word(w) for w in words}

    def multiplicativity(pair):
        u, v = pair
        lhs = M.rho(M.product(NCPoly(carrier, {u: one}, _trusted=True),
                              NCPoly(carrier, {v: one}, _trusted=True)))
        return lhs, M.pair_product(rho[u], rho[v])

    _scan(rep, "coaction_multiplicativity", [pairs], multiplicativity,
          lambda pair: {"left_factor": carrier.word_text(pair[0]),
                        "right_factor": carrier.word_text(pair[1])}, degree)
    return rep


# quantum planes -------------------------------------------------------------------

PLANE_KINDS = ("standard", "fermionic")


def plane_presentation(field, kind, max_degree=4, name=""):
    """The two quantum planes on x and y: the standard one, commuting
    up to q, and the fully nilpotent fermionic one."""
    if kind == "standard":
        rules = [("yx", {"xy": "q"})]
    elif kind == "fermionic":
        rules = [("yx", {"xy": "-q^-1"}), ("xx", {}), ("yy", {})]
    else:
        raise ComoduleError(f"unknown plane kind {kind!r}")
    return Presentation("xy", rules, field, max_degree=max_degree,
                        name=name or f"{kind}_plane")


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
                           twisted=H.twisted,
                           name=name or f"{kind}_plane_coaction")


# closed-form coactions ---------------------------------------------------------


def q_squared_int(field, n):
    """1 + q^2 + ... + q^(2(n-1)) as an exact scalar."""
    q2 = field.parse("q^2")
    total = field.zero
    power = field.one
    for _ in range(n):
        total = total + power
        power = power * q2
    return total


def q_binomial(field, n, r):
    """Gaussian binomial in q^2, by the product formula with exact
    division; never evaluated at a root of unity here."""
    if r < 0 or r > n:
        return field.zero
    value = field.one
    for m in range(1, r + 1):
        value = value * q_squared_int(field, n - r + m)
        value = value / q_squared_int(field, m)
    return value


def closed_form_coaction(A, kind, i, j, xi=None, lam=None):
    """The literal basis-monomial coaction formulas of the two planes,
    used as independent oracles against the multiplicative extension;
    xi and lam default as for plane_comodule_algebra.  Exponents must be
    admissible for the kind."""
    if kind not in PLANE_KINDS:
        raise ComoduleError(f"unknown plane kind {kind!r}")
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    if kind == "fermionic" and (i > 1 or j > 1):
        raise ValueError("fermionic exponents must be at most 1")
    hpres = A.hom.pres
    carrier = A.carrier
    field = carrier.field
    xi, lam = _carrier_scalars(carrier, A.twisted, xi, lam)
    q = field.parse("q")
    lam_inv = lam.inverse()

    raw = {}
    if kind == "standard":
        outer = (lam_inv ** j) * (xi ** (i + j))
        for r in range(i + 1):
            bi = q_binomial(field, i, r)
            for s in range(j + 1):
                c = outer * (q ** ((i - r) * s)) * bi * q_binomial(field, j, s)
                hw = "a" * r + "b" * (i - r) + "c" * s + "d" * (j - s)
                cw = "x" * (r + s) + "y" * (i + j - r - s)
                raw[(hw, cw)] = c
    elif (i, j) == (0, 0):
        raw[("1", "1")] = field.one
    elif (i, j) == (1, 0):
        raw[("a", "x")] = xi
        raw[("b", "y")] = xi
    elif (i, j) == (0, 1):
        raw[("c", "x")] = lam_inv * xi
        raw[("d", "y")] = lam_inv * xi
    else:
        c = lam_inv * xi * xi
        raw[("ad", "xy")] = c
        raw[("bc", "xy")] = c * (-q.inverse())
    return MixedTensor(hpres, carrier, raw)
