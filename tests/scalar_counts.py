"""A count of the Scalar operations a call makes, with the trivial ones
apart: the contraction tests pin those to zero (see homq.scalars).  The
comparisons by value are counted too: equal one-term products are one
object, so comparing containers of them makes no such call.  So are the
hashes, since no memo of a verifier is keyed by a Scalar."""

from collections import Counter

from homq.scalars import Scalar


def count_trivial_operations(monkeypatch):
    """Wrap Scalar +, *, == and hash to count every call, and the calls
    of + and * with an operand that is its field's zero object (+) or one
    object (*)."""
    counts = Counter()

    def counting(op, name, trivial):
        def wrapped(a, b):
            counts[name] += 1
            if any(type(s) is Scalar and s is trivial(s.field)
                   for s in (a, b)):
                counts[name + " trivial"] += 1
            return op(a, b)
        return wrapped

    add = counting(Scalar.__add__, "add", lambda f: f.zero)
    times = counting(Scalar.__mul__, "mul", lambda f: f.one)
    equal = counting(Scalar.__eq__, "eq", lambda f: None)
    hashing = Scalar.__hash__

    def hashed(a):
        counts["hash"] += 1
        return hashing(a)
    for name, op in (("__add__", add), ("__radd__", add),
                     ("__mul__", times), ("__rmul__", times),
                     ("__eq__", equal), ("__hash__", hashed)):
        monkeypatch.setattr(Scalar, name, op)
    return counts
