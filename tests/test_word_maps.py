"""The word maps: the multiplicative extensions of generator tables
(alpha_word, untwisted_delta_word, base_rho_word) and the maps built on
them (delta_word, rho_word)."""

import pytest

from homq.hombialg import HomBialgebra, twist_hom_bialgebra
from homq.ncpoly import TensorElement
from homq.comodule import plane_comodule_algebra
from homq.scalars import ScalarField
from quantum_matrices import ALPHA, DELTA, qm2_presentation

F = ScalarField(("t", "lambda", "xi"))


def qm2(twisted):
    H = HomBialgebra(qm2_presentation(F), DELTA, name="qm2")
    return twist_hom_bialgebra(H, ALPHA) if twisted else H


# long words -------------------------------------------------------------------


def test_base_rho_word_of_a_long_word():
    """x x = 0 on the fermionic plane, so every longer power of x has the
    zero coaction; the word is longer than the default recursion limit."""
    A = plane_comodule_algebra(qm2(twisted=False), "fermionic")
    t = A.base_rho_word((0,) * 1500)
    assert t.is_zero() and t.slots == (A.hom.pres, A.carrier)


def test_alpha_word_of_a_long_word():
    H = qm2(twisted=True)
    w = (0,) * 1500
    assert H.alpha_word(w).terms == {w: F.one}


# order independence -------------------------------------------------------------


def left_to_right(w, images, unit):
    """((unit * g1) * g2) * ..., computed here from the generator images."""
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


def host_maps():
    H = qm2(twisted=True)
    P, alpha, delta = H.pres, H.alpha_gen, H.delta_gen
    unit, zero = P.unit_tensor(2), P.unit_tensor(2, 0)
    maps = {"alpha_word": (H.alpha_word, alpha, P.unit(1)),
            "untwisted_delta_word": (H.untwisted_delta_word, delta, unit),
            "delta_word": (H.delta_word, after(alpha, delta, unit, zero),
                           unit)}
    return P, maps


def plane_maps():
    A = plane_comodule_algebra(qm2(twisted=True), "standard")
    carrier, alpha, rho = A.carrier, A.alpha_gen, A.rho_gen
    slots = (A.hom.pres, carrier)
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
    descending graded-lex order, give the same value on every normal
    word of degree at most 4, and that value is the left-to-right
    product of the generator images."""
    values = []
    for reverse in (False, True):
        pres, maps = build()
        words = pres.graded_basis(4)
        seen = {}
        for w in sorted(words, reverse=reverse, key=lambda w: (len(w), w)):
            for name, (word_map, images, unit) in maps.items():
                seen[name, w] = word_map(w)
                assert seen[name, w] == left_to_right(w, images, unit), (
                    name, pres.word_text(w))
        values.append({key: (v.render(), v.terms) for key, v in seen.items()})
    assert len(values[0]) == 3 * len(words)
    assert values[0] == values[1]
