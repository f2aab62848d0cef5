import json
from itertools import product

from hypothesis import given, strategies as st

from homq.report import Report, _at, _scan, _unzip


def test_reprs_give_the_title_and_the_state():
    rep = Report("demo")
    rep.add("a", "pass")
    assert repr(rep) == "<Report demo: 1 checks, pass>"
    rep.add("b", "fail", {"x": "ab"})
    assert repr(rep) == "<Report demo: 2 checks, 1 failing>"
    assert [repr(c) for c in rep.checks] == ["<Check a: pass>",
                                             "<Check b: fail>"]
    assert repr(Report()) == "<Report checks: 0 checks, pass>"


class Side:
    """A compared value with its own render(), which a scan of Sides
    passes as its renderer."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def render(self):
        return f"<{self.value}>"


def test_scan_visits_tuples_in_lexicographic_order():
    rows = []

    def sides(*outer):
        rows.append(outer)
        return [Side(0)] * 3, [Side(0)] * 3

    _scan(Report(), "c", ["ab", "cd", [1, 2, 3]], sides, lambda *case: {})
    assert rows == [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]


def test_scan_stops_at_first_mismatch():
    rows = []

    def sides(i):
        # the row of i holds the cases (i, 0), (i, 1), (i, 2)
        rows.append(i)
        return [Side(i * j) for j in range(3)], [Side(0)] * 3

    rep = Report()
    _scan(rep, "c", [range(3)] * 2, sides, lambda i, j: {"i": i, "j": j},
          render=Side.render)
    assert rows == [0, 1]
    assert rep.checks[0].witness == {"i": 1, "j": 1, "left": "<1>",
                                     "right": "<0>"}


def test_scan_witness_is_the_first_mismatch_of_its_row():
    rep = Report()
    _scan(rep, "c", [range(2), range(4)],
          lambda i: ([Side(0), Side(i), Side(2), Side(i)],
                     [Side(0), Side(0), Side(0), Side(0)]),
          lambda i, j: {"i": i, "j": j}, render=Side.render)
    assert rep.checks[0].witness == {"i": 0, "j": 2, "left": "<2>",
                                     "right": "<0>"}


def test_scan_witness_keys_location_then_sides():
    rep = Report()
    _scan(rep, "c", [["p", "q"], ["r"]],
          lambda a: ([Side(a)], [Side("p")]),
          lambda a, b: {"second": b, "first": a}, render=Side.render)
    (check,) = rep.checks
    assert check.status == "fail"
    assert list(check.witness) == ["second", "first", "left", "right"]
    assert check.witness == {"second": "r", "first": "q",
                             "left": "<q>", "right": "<p>"}


def test_scan_renderer_replaces_render_method():
    rep = Report()
    _scan(rep, "c", [[{"k": 1}]], lambda: ([{"k": 1}], [{}]),
          lambda d: {"at": "d"}, render=json.dumps)
    assert rep.checks[0].witness == {"at": "d", "left": '{"k": 1}',
                                     "right": "{}"}


def test_scan_pass_carries_no_witness():
    rep = Report()
    _scan(rep, "c", [range(4)],
          lambda: ([Side(i) for i in range(4)], [Side(i) for i in range(4)]),
          lambda i: {"i": i})
    (check,) = rep.checks
    assert check.status == "pass"
    assert check.witness is None
    assert "witness" not in check.to_json()


def test_scan_passes_degree_and_wall_time_to_the_check():
    rep = Report()
    _scan(rep, "c", [range(2)], lambda: ([Side(0)] * 2, [Side(0)] * 2),
          lambda i: {}, 3)
    (check,) = rep.checks
    assert (check.name, check.degree) == ("c", 3)
    assert isinstance(check.wall_time, float) and check.wall_time >= 0
    assert check.to_json() == {"name": "c", "status": "pass", "degree": 3,
                               "wall_time": None}


def test_scan_where_is_called_only_on_failure():
    located = []

    def where(*case):
        located.append(case)
        return {"case": list(case)}

    rep = Report()
    _scan(rep, "c", ["xy", range(5)],
          lambda a: ([Side(i) for i in range(5)],
                     [Side(min(i, 2) if a == "y" else i) for i in range(5)]),
          where, render=Side.render)
    # where gets the full case tuple, outer cases and the last one
    assert located == [("y", 3)]
    assert rep.checks[0].witness == {"case": ["y", 3], "left": "<3>",
                                     "right": "<2>"}


def test_scan_one_slot_check_is_one_row():
    rows = []

    def sides(*outer):
        rows.append(outer)
        return [Side(i) for i in range(3)], [Side(0)] * 3

    rep = Report()
    _scan(rep, "c", [range(3)], sides, lambda i: {"i": i}, render=Side.render)
    assert rows == [()]
    assert rep.checks[0].witness == {"i": 1, "left": "<1>", "right": "<0>"}
    # an empty slot is one empty row, and passes
    _scan(rep, "d", [[]], lambda: ([], []), lambda x: {})
    assert rep.checks[1].status == "pass"


def test_unzip_keeps_only_the_sides_of_failing_cases():
    assert _unzip([(1, "a"), (2, 2), ({}, {}), (3, "b")]) == \
        ([1, None, None, 3], ["a", None, None, "b"])
    assert _unzip(iter(())) == ([], [])
    rep = Report()
    _scan(rep, "c", [range(4)],
          lambda: _unzip((Side(i), Side(min(i, 1))) for i in range(4)),
          lambda i: {"i": i}, render=Side.render)
    assert rep.checks[0].witness == {"i": 2, "left": "<2>", "right": "<1>"}


def _per_case_witness(slots, table):
    """The witness of a plain loop over every case tuple."""
    for case in product(*slots):
        left, right = table[case]
        if left != right:
            return {"case": list(case), "left": f"<{left}>",
                    "right": f"<{right}>"}
    return None


# a case whose two sides are equal, or two sides that may differ
SIDE_PAIRS = st.one_of(st.integers(0, 2).map(lambda v: (v, v)),
                       st.tuples(st.integers(0, 2), st.integers(0, 2)))


@given(st.data())
def test_row_scan_witness_equals_the_per_case_loop(data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    slots = [range(n) for n in sizes]
    cases = list(product(*slots))
    table = dict(zip(cases, data.draw(st.lists(
        SIDE_PAIRS, min_size=len(cases), max_size=len(cases)))))
    rows = []

    def sides(*outer):
        rows.append(outer)
        row = [table[(*outer, c)] for c in slots[-1]]
        return [Side(a) for a, _ in row], [Side(b) for _, b in row]

    rep = Report()
    _scan(rep, "c", slots, sides, lambda *case: {"case": list(case)},
          render=Side.render)
    want = _per_case_witness(slots, table)
    assert rep.checks[0].witness == want
    # the rows up to the witness row, and no later one
    outers = list(product(*slots[:-1]))
    stop = (outers.index(tuple(want["case"][:-1])) + 1 if want
            else len(outers))
    assert rows == outers[:stop]


def test_basis_location_sorts_letters_and_ignores_spare_ones():
    names = ["1", "a", "b"]
    assert list(_at(names, "zxy")(0, 1, 2).items()) == \
        [("x", "a"), ("y", "b"), ("z", "1")]
    assert _at(names, "xyz")(2) == {"x": "b"}
