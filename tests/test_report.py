import json

from homq.report import Report, _at, _scan


class Side:
    """A compared value that renders itself."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def render(self):
        return f"<{self.value}>"


def test_scan_visits_tuples_in_lexicographic_order():
    seen = []

    def sides(*case):
        seen.append(case)
        return Side(0), Side(0)

    _scan(Report(), "c", ["ab", [1, 2, 3]], sides, lambda *case: {})
    assert seen == [("a", 1), ("a", 2), ("a", 3),
                    ("b", 1), ("b", 2), ("b", 3)]


def test_scan_stops_at_first_mismatch():
    calls = []

    def sides(i, j):
        calls.append((i, j))
        return Side(i * j), Side(0)

    rep = Report()
    _scan(rep, "c", [range(3)] * 2, sides, lambda i, j: {"i": i, "j": j})
    assert calls == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert rep.checks[0].witness == {"i": 1, "j": 1, "left": "<1>",
                                     "right": "<0>"}


def test_scan_witness_keys_location_then_sides():
    rep = Report()
    _scan(rep, "c", [["p", "q"], ["r"]],
          lambda a, b: (Side(a), Side("p")),
          lambda a, b: {"second": b, "first": a})
    (check,) = rep.checks
    assert check.status == "fail"
    assert list(check.witness) == ["second", "first", "left", "right"]
    assert check.witness == {"second": "r", "first": "q",
                             "left": "<q>", "right": "<p>"}


def test_scan_renderer_replaces_render_method():
    rep = Report()
    _scan(rep, "c", [[{"k": 1}]], lambda d: (d, {}),
          lambda d: {"at": "d"}, render=json.dumps)
    assert rep.checks[0].witness == {"at": "d", "left": '{"k": 1}',
                                     "right": "{}"}


def test_scan_pass_carries_no_witness():
    rep = Report()
    _scan(rep, "c", [range(4)], lambda i: (Side(i), Side(i)),
          lambda i: {"i": i})
    (check,) = rep.checks
    assert check.status == "pass"
    assert check.witness is None
    assert "witness" not in check.to_json()


def test_scan_passes_degree_and_wall_time_to_the_check():
    rep = Report()
    _scan(rep, "c", [range(2)], lambda i: (Side(i), Side(i)),
          lambda i: {}, 3)
    (check,) = rep.checks
    assert (check.name, check.degree) == ("c", 3)
    assert isinstance(check.wall_time, float) and check.wall_time >= 0
    assert check.to_json() == {"name": "c", "status": "pass", "degree": 3,
                               "wall_time": None}


def test_scan_where_is_called_only_on_failure():
    located = []

    def where(i):
        located.append(i)
        return {"i": i}

    rep = Report()
    _scan(rep, "c", [range(5)], lambda i: (Side(i), Side(min(i, 2))), where)
    assert located == [3]
    assert rep.checks[0].witness == {"i": 3, "left": "<3>", "right": "<2>"}


def test_basis_location_sorts_letters_and_ignores_spare_ones():
    names = ["1", "a", "b"]
    assert list(_at(names, "zxy")(0, 1, 2).items()) == \
        [("x", "a"), ("y", "b"), ("z", "1")]
    assert _at(names, "xyz")(2) == {"x": "b"}
