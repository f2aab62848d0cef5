"""M_q(2), the quantum 2x2 matrices, as the tests build it: one copy of
its rewrite rules, coproduct, twisting map, cobraiding form and unit
row.  The builders take the scalar field.  The rules and the form write
q and q_half, the sugar for t^2 and t, so the field must declare t; the
twisting map ALPHA also needs lambda.  perfbench/instances.py keeps a
copy of its own, so that the benchmark imports nothing from the tests."""

from homq.cobraid import CobraidingForm
from homq.ncpoly import Presentation

QM2_RULES = [
    ("ba", {"ab": "q"}),
    ("ca", {"ac": "q"}),
    ("cb", {"bc": 1}),
    ("db", {"bd": "q"}),
    ("dc", {"cd": "q"}),
    ("da", {"ad": 1, "bc": "q - q^-1"}),
]

DELTA = {
    "a": {("a", "a"): 1, ("b", "c"): 1},
    "b": {("a", "b"): 1, ("b", "d"): 1},
    "c": {("c", "a"): 1, ("d", "c"): 1},
    "d": {("c", "b"): 1, ("d", "d"): 1},
}

ALPHA = {
    "a": {"a": 1},
    "b": {"b": "lambda"},
    "c": {"c": "lambda^-1"},
    "d": {"d": 1},
}

# the generator values of the form R that are not zero
R_NONZERO = {
    ("a", "a"): "q_half",
    ("a", "d"): "q_half^-1",
    ("d", "a"): "q_half^-1",
    ("d", "d"): "q_half",
    ("b", "c"): "q_half^-1 * (q - q^-1)",
}

UNIT_ROW = {"a": 1, "b": 0, "c": 0, "d": 1}


def qm2_presentation(field):
    return Presentation("abcd", QM2_RULES, field, max_degree=4, name="qm2")


def qm2_form(pres, override=None, drop=None):
    """The form R on pres over every generator pair, with the entries of
    override replacing values and the pair drop left out."""
    table = {(l, r): R_NONZERO.get((l, r), 0) for l in "abcd" for r in "abcd"}
    if override:
        table.update(override)
    if drop:
        del table[drop]
    return CobraidingForm(pres, table, dict(UNIT_ROW), dict(UNIT_ROW))
