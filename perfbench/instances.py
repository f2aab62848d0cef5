"""Instance builders for the benchmark.

The tables are copies of the ones the test suite uses (twisted M_q(2),
the quantum planes, the cyclic group algebras), kept here so that the
benchmark imports nothing from the tests.  Every builder makes fresh
objects, and every host gets a CobraidingForm of its own: the form memo
is keyed only by word pair, so a form shared between hosts would make the
numbers depend on the order the workloads run in.

The ``mixed`` plane is left out on purpose.  It is not a comodule algebra
over M_q(2) (its verdict is an open correctness defect), so no expected
table can be written for it yet.

Functions here import ``homq`` lazily, so the worker can time the import.
"""

QM2_RULES = [
    ("ba", {"ab": "q"}),
    ("ca", {"ac": "q"}),
    ("cb", {"bc": 1}),
    ("db", {"bd": "q"}),
    ("dc", {"cd": "q"}),
    ("da", {"ad": 1, "bc": "q - q^-1"}),
]

QM2_DELTA = {
    "a": {("a", "a"): 1, ("b", "c"): 1},
    "b": {("a", "b"): 1, ("b", "d"): 1},
    "c": {("c", "a"): 1, ("d", "c"): 1},
    "d": {("c", "b"): 1, ("d", "d"): 1},
}

QM2_ALPHA = {
    "a": {"a": 1},
    "b": {"b": "lambda"},
    "c": {"c": "lambda^-1"},
    "d": {"d": 1},
}

QM2_R = {
    ("a", "a"): "q_half",
    ("a", "d"): "q_half^-1",
    ("d", "a"): "q_half^-1",
    ("d", "d"): "q_half",
    ("b", "c"): "q_half^-1 * (q - q^-1)",
}

QM2_UNIT_ROW = {"a": 1, "b": 0, "c": 0, "d": 1}


def qm2_field(extra=()):
    from homq.scalars import ScalarField
    return ScalarField(("t", "lambda") + tuple(extra))


def qm2_presentation(field):
    from homq.ncpoly import Presentation
    return Presentation("abcd", QM2_RULES, field, max_degree=4, name="qm2")


def qm2_form(pres, override=None):
    """The form R of M_q(2), with `override` replacing generator values."""
    from homq.cobraid import CobraidingForm
    table = {(l, r): QM2_R.get((l, r), 0) for l in "abcd" for r in "abcd"}
    table.update(override or {})
    return CobraidingForm(pres, table, dict(QM2_UNIT_ROW), dict(QM2_UNIT_ROW))


def twisted_qm2(field=None, override=None):
    """Twisted M_q(2) with its own (possibly corrupted) form."""
    from homq.cobraid import CobraidedHomBialgebra
    from homq.hombialg import HomBialgebra, twist_hom_bialgebra
    pres = qm2_presentation(field or qm2_field())
    H = twist_hom_bialgebra(HomBialgebra(pres, QM2_DELTA, name="qm2"),
                            QM2_ALPHA)
    return CobraidedHomBialgebra(H, qm2_form(pres, override))


def qm2_with_alpha(alpha):
    """Untwisted M_q(2) plus the generator table `alpha`, for handing to
    twist_hom_bialgebra and for building the twisted structure directly."""
    from homq.hombialg import HomBialgebra
    pres = qm2_presentation(qm2_field())
    base = HomBialgebra(pres, QM2_DELTA, name="qm2")
    direct = HomBialgebra(pres, QM2_DELTA, alpha, twisted=True,
                          name="qm2_direct")
    return base, direct


def planes():
    """Standard and fermionic planes coacted on by twisted M_q(2) over
    Q(t, lambda, xi).  Both share the one host, which has its own form."""
    from homq.comodule import plane_comodule_algebra
    C = twisted_qm2(qm2_field(("xi",)))
    return (plane_comodule_algebra(C, "standard"),
            plane_comodule_algebra(C, "fermionic"))


def cyclic_group(n, k):
    """The Z/n group algebra twisted by g -> g^k, with the bicharacter
    form R(g, g) = zeta_n."""
    from homq.cobraid import CobraidedHomBialgebra, CobraidingForm
    from homq.hombialg import HomBialgebra, twist_hom_bialgebra
    from homq.ncpoly import Presentation
    from homq.scalars import ScalarField
    field = ScalarField((), cyclotomic_order=n)
    pres = Presentation("g", [("g" * n, {"1": 1})], field, max_degree=n - 1,
                        name=f"z{n}")
    base = HomBialgebra(pres, {"g": {("g", "g"): 1}}, name=f"z{n}")
    H = twist_hom_bialgebra(base, {"g": {"g" * k: 1}})
    form = CobraidingForm(pres, {("g", "g"): "zeta"}, {"g": 1}, {"g": 1})
    return CobraidedHomBialgebra(H, form)
