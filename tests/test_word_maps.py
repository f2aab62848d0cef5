"""The word maps: the multiplicative extensions of generator tables
(alpha_word, untwisted_delta_word, base_rho_word) and the maps built on
them (delta_word, rho_word).  Each returns a plain dict, keyed by words
or by tuples of words."""

from collections import Counter

import pytest

from homq.cobraid import CobraidedHomBialgebra, verify_cobraided, verify_oqhybe
from homq.hombialg import (HomBialgebra, twist_hom_bialgebra,
                           verify_hom_bialgebra)
from homq.ncpoly import NCPoly, TensorElement
from homq.comodule import (plane_comodule_algebra, verify_comodule,
                           verify_comodule_hom_algebra)
from homq.scalars import ScalarField
from quantum_matrices import ALPHA, DELTA, qm2_form, qm2_presentation

F = ScalarField(("t", "lambda", "xi"))


def qm2(twisted):
    H = HomBialgebra(qm2_presentation(F), DELTA, name="qm2")
    return twist_hom_bialgebra(H, ALPHA) if twisted else H


# long words -------------------------------------------------------------------


def test_base_rho_word_of_a_long_word():
    """x x = 0 on the fermionic plane, so every longer power of x has the
    zero coaction; the word is longer than the default recursion limit."""
    A = plane_comodule_algebra(qm2(twisted=False), "fermionic")
    assert A.base_rho_word((0,) * 1500) == {}


def test_alpha_word_of_a_long_word():
    H = qm2(twisted=True)
    w = (0,) * 1500
    assert H.alpha_word(w) == {w: F.one}


# order independence -------------------------------------------------------------


def left_to_right(w, images, unit):
    """((unit * g1) * g2) * ..., computed here from the generator images
    in the element arithmetic."""
    acc = unit
    for g in w:
        acc = acc * images[g]
    return acc


def after(inner, outer, unit, zero):
    """The generator images of outer after inner: each image of inner,
    a polynomial, sent through the multiplicative extension of outer."""
    out = []
    for p in inner:
        total = zero
        for v, c in p.terms.items():
            total = total + left_to_right(v, outer, unit).scale(c)
        out.append(total)
    return out


def elements(pres, images):
    """The dict images of a generator table as NCPoly elements of pres."""
    return [NCPoly(pres, img, _trusted=True) for img in images]


def tensors(slots, images):
    """The dict images of a generator table as TensorElements."""
    return [TensorElement(slots, img, _trusted=True) for img in images]


def host_maps():
    H = qm2(twisted=True)
    P = H.pres
    alpha = elements(P, H.alpha_gen)
    delta = tensors((P, P), H.delta_gen)
    unit, zero = P.tensor(2, {("1", "1"): 1}), P.tensor(2, {})
    maps = {"alpha_word": (H.alpha_word, alpha, P.unit(1)),
            "untwisted_delta_word": (H.untwisted_delta_word, delta, unit),
            "delta_word": (H.delta_word, after(alpha, delta, unit, zero),
                           unit)}
    return P, maps


def plane_maps():
    A = plane_comodule_algebra(qm2(twisted=True), "standard")
    carrier = A.carrier
    slots = (A.hom.pres, carrier)
    alpha, rho = elements(carrier, A.alpha_gen), tensors(slots, A.rho_gen)
    unit = TensorElement(slots, {((), ()): 1})
    zero = TensorElement(slots, {})
    maps = {"alpha_word": (A.alpha_word, alpha, carrier.unit(1)),
            "base_rho_word": (A.base_rho_word, rho, unit),
            "rho_word": (A.rho_word, after(alpha, rho, unit, zero), unit)}
    return carrier, maps


@pytest.mark.parametrize("build", [host_maps, plane_maps],
                         ids=["twisted_qm2", "twisted_standard_plane"])
def test_word_maps_do_not_depend_on_query_order(build):
    """Two fresh instances, one queried in ascending and one in
    descending graded-lex order, give the same dict on every normal
    word of degree at most 4, and that dict holds the terms of the
    left-to-right product of the generator images."""
    values = []
    for reverse in (False, True):
        pres, maps = build()
        words = pres.graded_basis(4)
        seen = {}
        for w in sorted(words, reverse=reverse, key=lambda w: (len(w), w)):
            for name, (word_map, images, unit) in maps.items():
                seen[name, w] = word_map(w)
                assert type(seen[name, w]) is dict
                assert seen[name, w] == left_to_right(w, images, unit).terms, (
                    name, pres.word_text(w))
        values.append(seen)
    assert len(values[0]) == 3 * len(words)
    assert values[0] == values[1]


# no element wrappers in the verifier path ---------------------------------------


def count_element_builds(monkeypatch):
    """Wrap NCPoly.__init__ and TensorElement.__init__ to count every
    element built, by class name."""
    counts = Counter()

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        return wrapped
    for cls in (NCPoly, TensorElement):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return counts


def test_verifiers_build_no_element(monkeypatch):
    """From instances built beforehand but with cold memos, the verifiers
    of twisted M_q(2) at degree 2 and of the twisted standard plane at
    degree 3 build no NCPoly and no TensorElement, and every word map
    gives a plain dict."""
    H = qm2(twisted=True)
    C = CobraidedHomBialgebra(H, qm2_form(H.pres))
    A = plane_comodule_algebra(C, "standard")
    counts = count_element_builds(monkeypatch)
    reports = [verify_hom_bialgebra(H, 2), verify_cobraided(C, 2),
               verify_oqhybe(C, 2), verify_comodule(A, 3),
               verify_comodule_hom_algebra(A, 3)]
    maps = [(H.pres, [H.alpha_word, H.untwisted_delta_word, H.delta_word]),
            (A.carrier, [A.alpha_word, A.base_rho_word, A.rho_word])]
    images = [f(w) for pres, fs in maps for w in pres.graded_basis(3)
              for f in fs]
    monkeypatch.undo()
    assert counts == {}
    assert all(type(img) is dict for img in images)
    assert all(rep.passed for rep in reports)
