"""Verification reports: named checks with pass/fail/skipped status and
structured witnesses, ordered deterministically so serialized reports are
stable byte-for-byte.
"""

import json
import time
from itertools import product

from . import scalars


class Check:
    __slots__ = ("name", "status", "witness", "degree", "wall_time")

    def __init__(self, name, status, witness=None, degree=None, wall_time=None):
        self.name = name
        self.status = status
        self.witness = witness
        self.degree = degree
        self.wall_time = wall_time

    def to_json(self, timings=False):
        out = {"name": self.name, "status": self.status, "degree": self.degree,
               "wall_time": round(self.wall_time, 6)
               if (timings and self.wall_time is not None) else None}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __repr__(self):
        return f"<Check {self.name}: {self.status}>"


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, name, status, witness=None, degree=None, wall_time=None):
        self.checks.append(Check(name, status, witness, degree, wall_time))
        return self

    def extend(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def _sorted(self):
        return sorted(self.checks,
                      key=lambda c: (c.name,
                                     json.dumps(c.witness, sort_keys=True)
                                     if c.witness is not None else ""))

    def to_json(self, timings=False):
        out = {"checks": [c.to_json(timings) for c in self._sorted()],
               "passed": self.passed}
        if self.title:
            out["title"] = self.title
        return out

    def __repr__(self):
        n = len(self.checks)
        bad = len(self.failures())
        state = "pass" if self.passed else f"{bad} failing"
        return f"<Report {self.title or 'checks'}: {n} checks, {state}>"


def _scan(rep, name, slots, sides, where, degree=None, render=None):
    """Add the check `name` to rep.  Case tuples take one case from each
    sequence in `slots`, first slot outermost, and are swept by rows: a
    row fixes one case of every slot but the last, the rows come in
    lexicographic order, and sides(*outer) returns two lists, the left
    and the right sides of every case of the last slot, in order (or
    None in both for a case whose sides are equal, see _unzip).  A
    one-slot check is one row, sides().  The witness is the first tuple
    in lexicographic order whose sides differ, found as the first index
    at which the two lists of the first unequal row differ, so a failing
    check computes at most the rest of its witness row.  It holds the
    location where(*case), then both sides rendered by `render`, or by
    scalars.render when none is given."""
    *outer_slots, last = slots
    t0 = time.monotonic()
    witness = None
    for outer in product(*outer_slots):
        left, right = sides(*outer)
        if left != right:
            i = next(i for i, (l, r) in enumerate(zip(left, right))
                     if l != r)
            show = render or scalars.render
            witness = where(*outer, last[i])
            witness["left"] = show(left[i])
            witness["right"] = show(right[i])
            break
    rep.add(name, "fail" if witness else "pass", witness=witness,
            degree=degree, wall_time=time.monotonic() - t0)


def _unzip(pairs):
    """The row of a check whose cases share no work, from the (left,
    right) sides of each case: a case whose two sides are equal is None
    in both lists, so a row keeps only the sides of its failing cases."""
    left, right = [], []
    for a, b in pairs:
        if a == b:
            a = b = None
        left.append(a)
        right.append(b)
    return left, right


def _at(names, letters):
    """The location of a case tuple: the i-th letter keys names[case[i]],
    keys in sorted order, so names may be a list read by basis index or
    a dict read by word.  Letters past the length of the tuple go
    unused."""
    return lambda *idx: {s: names[i] for s, i in sorted(zip(letters, idx))}
