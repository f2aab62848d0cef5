"""The closed-form coactions of the two quantum planes, as the tests use
them: the literal basis-monomial formulas, an oracle that is independent
of the multiplicative extension ComoduleAlgebra.rho_word computes, and
the Gaussian binomials in q^2 they are written with."""

from homq.comodule import PLANE_KINDS, ComoduleError, _carrier_scalars
from homq.ncpoly import TensorElement
from homq.scalars import parse_scalar


def q_squared_int(field, n):
    """1 + q^2 + ... + q^(2(n-1)) as an exact scalar."""
    q2 = parse_scalar("q^2", field)
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
    q = parse_scalar("q", field)
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
    return TensorElement((hpres, carrier), raw)
