"""Element-level products and the bilinear form on elements, as the
reference loops of the tests read them.  The package multiplies words
(HomBialgebra.product, ComoduleAlgebra.product) and reads the form on
words; these extend both to elements, one-term polynomials included."""

from homq.hombialg import _product_table
from homq.ncpoly import NCPoly, slotwise


def element_product(A, u, v):
    """The instance multiplication of two elements of a HomBialgebra or
    a ComoduleAlgebra A: u * v, and alpha(u * v) when A is twisted."""
    raw = u * v
    return A.alpha_poly(raw) if A.twisted else raw


def pairwise_product(H, t1, t2):
    """Slotwise product of two arity-2 tensors using the instance product."""
    prod = _product_table(H.product)
    return slotwise(t1, t2, [prod, prod])


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
