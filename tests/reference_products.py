"""Element-level products, per-slot maps, the carrier map and the
bilinear form on elements, as the reference loops of the tests read
them.  The package multiplies words (HomBialgebra.product,
ComoduleAlgebra.product), maps carrier words (ComoduleAlgebra.alpha_word)
and reads the form on words; these extend them to elements, one-term
polynomials included.  per_case turns a reference's sides of one case
into the rows that report._scan sweeps.  braid_sides pushes a triple of
carrier labels through the three operator stages of each side of the
braid identity."""

from homq.comodule import ComoduleAlgebra
from homq.hombialg import _product_table
from homq.ncpoly import (NCPoly, TensorElement, _bump, _expand, _linear,
                         slotwise)


def per_case(sides, last):
    """The row sides of report._scan from sides(*case) of one case: for
    the outer cases, the left and the right sides of every case of the
    sequence last, each case computed on its own."""
    def row(*outer):
        pairs = [sides(*outer, c) for c in last]
        return [l for l, _ in pairs], [r for _, r in pairs]
    return row


def carrier_alpha_poly(M, p):
    """The carrier map of a ComoduleAlgebra M on an element p of its
    carrier, read through Presentation.terms_of, which refuses an element
    of another presentation."""
    return NCPoly(M.carrier, _linear(M.carrier.terms_of(p), M.alpha_word),
                  _trusted=True)


def element_product(A, u, v):
    """The instance multiplication of two elements of a HomBialgebra or
    a ComoduleAlgebra A: u * v, and alpha(u * v) when A is twisted."""
    raw = u * v
    if not A.twisted:
        return raw
    if isinstance(A, ComoduleAlgebra):
        return carrier_alpha_poly(A, raw)
    return A.alpha_poly(raw)


def map_slots(t, fns):
    """Apply a per-slot linear map to the TensorElement t; fns[i] sends a
    normal word to a TensorElement.  The output slots are those of the
    images, joined."""
    out, slots = {}, None
    for ws, c in t.terms.items():
        imgs = [f(w) for f, w in zip(fns, ws)]
        slots = sum((img.slots for img in imgs), ())
        for keys, v in _expand(c, [img.terms.items() for img in imgs]):
            _bump(out, sum(keys, ()), v)
    if slots is None:
        slots = sum((f(()).slots for f in fns), ())
    return TensorElement(slots, out, _trusted=True)


def element_slot(p):
    """The element p as a one-slot TensorElement, the image map_slots
    takes."""
    return TensorElement((p.pres,), {(v,): c for v, c in p.terms.items()},
                         _trusted=True)


def pairwise_product(H, t1, t2):
    """Slotwise product of two arity-2 tensors using the instance product."""
    prod = _product_table(H.product)
    t1._check(t2)
    return TensorElement(t1.slots, slotwise(t1.terms, t2.terms, [prod, prod]),
                         _trusted=True)


def eval_R(C, u, v):
    """Instance form on two elements of the host, extended bilinearly; a
    term whose value is zero is dropped before it is scaled."""
    pres = C.H.pres
    if not isinstance(u, NCPoly):
        u = pres.poly(u)
    if not isinstance(v, NCPoly):
        v = pres.poly(v)
    v_terms = pres.terms_of(v)
    return sum((cm * cn * r for wm, cm in pres.terms_of(u)
                for wn, cn in v_terms if (r := C.word_pair_value(wm, wn))),
               pres.field.zero)


def _apply(front, entries, alpha, state):
    """Apply (Op (x) alpha) when front, the operator on legs 0,1 and alpha
    on leg 2; otherwise (alpha (x) Op), alpha on leg 0 and the operator on
    legs 1,2.  States are dicts (p, q, r) -> Scalar."""
    out = {}
    for (p, q, r), c in state.items():
        pair, leg = ((p, q), r) if front else ((q, r), p)
        for (kl, m), d in _expand(c, [entries.get(pair, {}).items(),
                                      alpha.get(leg, {}).items()]):
            _bump(out, (*kl, m) if front else (m, *kl), d)
    return out


def braid_sides(ops, alphas, one):
    """sides(i, j, k) of the braid identity on U (x) V (x) W, each side
    the triple pushed through three stages: ops are the entries of B_UV,
    B_UW and B_VW, alphas the carrier maps of U, V and W.  The left side
    applies alpha_U (x) B_VW, then B_UW (x) alpha_V, then alpha_W (x)
    B_UV; the right side applies B_UV (x) alpha_W, then alpha_V (x) B_UW,
    then B_VW (x) alpha_U."""
    b_uv, b_uw, b_vw = ops
    a_u, a_v, a_w = alphas
    lhs = [(False, b_vw, a_u), (True, b_uw, a_v), (False, b_uv, a_w)]
    rhs = [(True, b_uv, a_w), (False, b_uw, a_v), (True, b_vw, a_u)]

    def chain(stages, case):
        state = {case: one}
        for front, entries, alpha in stages:
            state = _apply(front, entries, alpha, state)
        return state

    return lambda i, j, k: (chain(lhs, (i, j, k)), chain(rhs, (i, j, k)))
