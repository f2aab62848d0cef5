"""Free noncommutative polynomials over exact scalars, presented algebras
via terminating rewrite rules, normal forms, graded bases, and tensor
products with one presentation per slot.

Monomials are words: tuples of generator indices, the empty tuple being the
unit.  A Presentation fixes the generator order, and every rewrite rule must
strictly decrease the graded-lex order on words, which makes exhaustive
rewriting terminate.

Normal forms are computed at the word level and memoised per presentation:
normal_word extends the longest memoised prefix of a word one generator at
a time, so the rewriter only ever sees a normal word followed by one
generator.  Elements and tensors are sums over such word normal forms,
held as plain dicts: word -> coefficient in one slot, tuple of words ->
coefficient in several.  generator_table reads generator images into
such dicts and word_map extends them multiplicatively, through
poly_product for one slot and slotwise for several; _linear extends a
word map linearly and _legs one map per leg.  NCPoly and TensorElement
wrap the same two products.

One matcher scans for the leftmost rule match from a start position: from
len(u) - max_lhs when all of u but its last letter is normal, and in the
rewriter from i - max_lhs + 1 for a word made by a rewrite at i, since an
earlier match would lie in the unchanged prefix of the rewritten word.

On a non-confluent presentation no reduction order gives a meaningful
normal form, so every verifier refuses such a presentation rather than
reduce it in some other order: it reads its presentations through
Presentation._certified, which resolves every ambiguity
(check_local_confluence at degree 2*max_lhs - 1, Bergman's diamond lemma)
once per presentation and raises a PresentationError that names the first
failing one.  Still, _reduce reads no memo and depends on its argument
alone, so normal_word gives each word one answer, whatever was asked for
before.
"""

from functools import partial

from .scalars import Scalar, parse_scalar, render


class PresentationError(Exception):
    pass


def word_key(w):
    """Graded-lex sort key, ascending."""
    return (len(w), w)


def _bump(acc, key, c):
    """Add c to acc[key], dropping the entry when the sum is zero."""
    cur = acc.get(key)
    cur = c if cur is None else cur + c
    if cur.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = cur


def _key_slots(spec, n, what):
    """spec, a table key of n slots, unchanged; a key of another length,
    or of none, raises a PresentationError that names it."""
    got = len(spec) if hasattr(spec, "__len__") else type(spec).__name__
    if got != n:
        raise PresentationError(
            f"{what} key {spec!r}: expected {n} slots, got {got}")
    return spec


class Presentation:
    """An algebra given by generators and a terminating rewrite system.

    rules: iterable of (lhs, rhs) with lhs a word and rhs a polynomial,
    both given in any form accepted by word()/poly coefficients.  Every
    rhs monomial must be strictly smaller than lhs in graded-lex order.
    """

    def __init__(self, generators, rules, field, max_degree=4, name=""):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        for g in self.generators:
            if not g or "*" in g or g == "1":
                raise PresentationError(f"bad generator name {g!r}")
        self.field = field
        self.max_degree = max_degree
        self.name = name
        self._gen_index = {g: i for i, g in enumerate(self.generators)}
        self._multichar = any(len(g) > 1 for g in self.generators)
        self.rules = []
        for lhs, rhs in rules:
            lw = self.word(lhs)
            if not lw:
                raise PresentationError("empty rule left side")
            rp = self._raw_poly(rhs)
            lk = word_key(lw)
            for v in rp:
                if word_key(v) >= lk:
                    raise PresentationError(
                        f"rule {self.word_text(lw)} -> {self.word_text(v)} "
                        "does not decrease the graded-lex order")
            self.rules.append((lw, rp))
        self._rules_by_first = {}
        for lw, rp in self.rules:
            self._rules_by_first.setdefault(lw[0], []).append((lw, rp, len(lw)))
        self._max_lhs = max((len(lw) for lw, _ in self.rules), default=0)
        self._nf_cache = {(): {(): field.one}}
        self._certificate = None

    # words -----------------------------------------------------------------

    def word(self, spec):
        """Accept a word as an index tuple, a name sequence, or text."""
        if isinstance(spec, tuple) and all(isinstance(x, int) for x in spec):
            for x in spec:
                if not 0 <= x < len(self.generators):
                    raise PresentationError(f"generator index {x} out of range")
            return spec
        if isinstance(spec, str):
            return self._parse_word_text(spec)
        out = []
        for g in spec:
            if g not in self._gen_index:
                raise PresentationError(f"unknown generator {g!r}")
            out.append(self._gen_index[g])
        return tuple(out)

    def _parse_word_text(self, s):
        if s == "1" or s == "":
            return ()
        names = s.split("*") if "*" in s or self._multichar else list(s)
        out = []
        for g in names:
            if g not in self._gen_index:
                raise PresentationError(f"unknown generator {g!r} in {s!r}")
            out.append(self._gen_index[g])
        return tuple(out)

    def word_text(self, w):
        if not w:
            return "1"
        names = [self.generators[i] for i in w]
        return "*".join(names) if self._multichar else "".join(names)

    # coefficients ----------------------------------------------------------

    def coef(self, c):
        if isinstance(c, Scalar):
            if c.field != self.field:
                raise PresentationError("coefficient from a different field")
            return c
        if isinstance(c, int):
            return self.field.from_int(c)
        if isinstance(c, str):
            return parse_scalar(c, self.field)
        raise PresentationError(f"bad coefficient {c!r}")

    def _raw_poly(self, spec):
        """Dict word -> Scalar without normal-forming, zero terms dropped."""
        out = {}
        for wspec, c in spec.items():
            _bump(out, self.word(wspec), self.coef(c))
        return out

    # rewriting -------------------------------------------------------------

    def _find_match(self, u, start=0):
        """The leftmost (position, lhs, rhs) rule match in u, or None; no
        match may begin before start (see the module docstring)."""
        by_first = self._rules_by_first
        for i in range(max(start, 0), len(u)):
            bucket = by_first.get(u[i])
            if not bucket:
                continue
            for lw, rp, L in bucket:
                if u[i:i + L] == lw:
                    return i, lw, rp
        return None

    def normal_word(self, w):
        """Normal form of a single word as a dict word -> Scalar.

        The longest memoised prefix of w is extended one generator g at
        a time: the normal form of prefix + g is the sum, over the terms
        c*x of the prefix's normal form, of c times the normal form of
        x + g, each read from the memo or, on a miss, computed: x is
        normal, so x + g goes to _reduce only when a rule matches it
        from len(x + g) - max_lhs on.  Every new prefix is memoised, in
        a dict of its own.  So only words x + g with x normal are ever
        reduced, and there is no recursion depth to run out of.  On a confluent presentation
        every reduction order gives the one normal form (Bergman's
        diamond lemma), so the order chosen here changes nothing but the
        cost; on any other no order gives a meaningful one (see the
        module docstring)."""
        cache, one = self._nf_cache, self.field.one
        n = len(w)
        while (acc := cache.get(w[:n])) is None:
            n -= 1
        for k in range(n, len(w)):
            g, out = w[k:k + 1], {}
            for x, c in acc.items():
                v = x + g
                sub = cache.get(v)
                if sub is None:
                    sub = cache[v] = (
                        self._reduce(v)
                        if self._find_match(v, len(v) - self._max_lhs)
                        else {v: one})
                for u, sc in sub.items():
                    _bump(out, u, sc if c is one else c if sc is one
                          else c * sc)
            acc = cache[w[:k + 1]] = out
        return acc

    def _reduce(self, w):
        """Normal form of w by exhaustive rewriting: the graded-lex
        largest pending word is rewritten first.  A pending word maps to
        its coefficient and its scan start: 0 for w, i - max_lhs + 1 for
        a word made by a rewrite at i; a word reached twice may keep
        either bound.  max over the pending words replaces a heap: over
        the benchmark workloads and the tests, at most 5 words were ever
        pending."""
        out = {}
        one = self.field.one
        pending = {w: (one, 0)}
        while pending:
            u = max(pending, key=word_key)
            c, start = pending.pop(u)
            m = self._find_match(u, start)
            if m is None:
                _bump(out, u, c)
                continue
            i, lw, rp = m
            pre, post = u[:i], u[i + len(lw):]
            start = i - self._max_lhs + 1
            for rw, rc in rp.items():
                v = pre + rw + post
                hit = pending.get(v)
                p = rc if c is one else c if rc is one else c * rc
                nc = p if hit is None else hit[0] + p
                if nc.is_zero():
                    pending.pop(v, None)
                else:
                    pending[v] = (nc, start)
        return out

    def concat(self, u, v):
        """The (word, coefficient) pairs of the normal form of u + v."""
        return self.normal_word(u + v).items()

    # element constructors ----------------------------------------------------

    def gen(self, name):
        return NCPoly(self, {self.word(name): self.field.one}, _trusted=True)

    def unit(self, c=1):
        s = self.coef(c)
        if s.is_zero():
            return NCPoly(self, {}, _trusted=True)
        return NCPoly(self, {(): s}, _trusted=True)

    def terms_of(self, p):
        """The (word, coefficient) pairs of p, which must be an element of
        this presentation: a word of another one indexes other
        generators."""
        if p.pres is not self:
            raise PresentationError("element of a different presentation")
        return p.terms.items()

    def poly(self, terms):
        return NCPoly(self, self._raw_poly(terms))

    def tensor(self, arity, terms):
        return TensorElement((self,) * arity, terms)

    # graded structure ---------------------------------------------------------

    def _next_level(self, level):
        """The normal words one generator longer than the words of `level`,
        in graded-lex order when `level` is; w is normal, so the scan of
        w + g starts at len(w + g) - max_lhs."""
        nxt = []
        for w in level:
            for g in range(len(self.generators)):
                v = w + (g,)
                if self._find_match(v, len(v) - self._max_lhs) is None:
                    nxt.append(v)
        return nxt

    def _levels(self, degree):
        """The normal words of each total degree 0, 1, ..., `degree`, one
        graded-lex list per degree; a negative degree raises ValueError
        before any level is given."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        level = [()]
        yield level
        for _ in range(degree):
            level = self._next_level(level)
            yield level

    def basis_level(self, degree):
        """Normal words of total degree exactly `degree`, graded-lex order."""
        *_, level = self._levels(degree)
        return level

    def graded_basis(self, degree):
        """Normal words of total degree at most `degree`, graded-lex order."""
        return [w for level in self._levels(degree) for w in level]

    # confluence ----------------------------------------------------------------

    def _reduce_once_at(self, w, pos, lw, rp):
        pre, post = w[:pos], w[pos + len(lw):]
        return {pre + rw + post: rc for rw, rc in rp.items()}

    def _nf_raw(self, raw):
        return _linear(raw.items(), self.normal_word)

    def _ambiguities(self, degree):
        """The ambiguities (i, j, w, p) with len(w) <= degree, where rule
        i rewrites w at 0 and rule j at p.  Per rule pair: the proper
        suffix-prefix overlaps (a rule with itself too), then, if i != j,
        each inclusion of lhs j in lhs i (shared left sides included)."""
        for i, (l1, _) in enumerate(self.rules):
            for j, (l2, _) in enumerate(self.rules):
                for k in range(1, min(len(l1), len(l2))):
                    w = l1 + l2[k:]
                    if l1[len(l1) - k:] == l2[:k] and len(w) <= degree:
                        yield i, j, w, len(l1) - k
                if i != j and len(l2) <= len(l1) <= degree:
                    for p in range(len(l1) - len(l2) + 1):
                        if l1[p:p + len(l2)] == l2:
                            yield i, j, l1, p

    def check_local_confluence(self, degree):
        """Resolve every ambiguity of _ambiguities(degree): both one-step
        rewrites of its word must have one normal form."""
        failures = []
        checked = 0
        for i, j, w, p in self._ambiguities(degree):
            (l1, r1), (l2, r2) = self.rules[i], self.rules[j]
            a = self._nf_raw(self._reduce_once_at(w, 0, l1, r1))
            b = self._nf_raw(self._reduce_once_at(w, p, l2, r2))
            checked += 1
            if a != b:
                failures.append(self._confluence_failure(i, j, w, a, b))
        return ConfluenceResult(self, degree, checked, failures)

    def _certified(self):
        """This presentation, once it passes the full certificate: every
        ambiguity has length at most 2*max_lhs - 1, so resolving those is
        Bergman's complete check.  The result is kept; a failure raises
        a PresentationError that names the first failing ambiguity."""
        cert = self._certificate
        if cert is None:
            cert = self._certificate = self.check_local_confluence(
                2 * self._max_lhs - 1)
        if not cert.passed:
            f = cert.failures[0]
            raise PresentationError(
                f"{self.name or 'presentation'} is not confluent: the "
                f"ambiguity {f['word']} of rules {f['rule_pair'][0]} and "
                f"{f['rule_pair'][1]} has the normal forms {f['first']} "
                f"and {f['second']}")
        return self

    def _confluence_failure(self, i, j, w, a, b):
        return {
            "rule_pair": [i, j],
            "word": self.word_text(w),
            "first": _render_raw(self, a),
            "second": _render_raw(self, b),
        }

    # serialization ---------------------------------------------------------------

    def to_json(self):
        rules = [{"lhs": self.word_text(lw), "rhs": _poly_json(self, rp)}
                 for lw, rp in self.rules]
        return {"generators": list(self.generators), "rules": rules,
                "max_degree": self.max_degree}

    @classmethod
    def from_json(cls, data, field, name=""):
        rules = [(r["lhs"], json_row(f"rule {r['lhs']!r}", r["rhs"],
                                     lambda t: t["mono"], "coef"))
                 for r in data["rules"]]
        return cls(data["generators"], rules, field,
                   max_degree=data.get("max_degree", 4), name=name)

    def __repr__(self):
        label = self.name or "presentation"
        return (f"<Presentation {label}: {len(self.generators)} generators, "
                f"{len(self.rules)} rules>")


def json_row(what, entries, key, value):
    """The dict key(e) -> e[value] over a list of JSON entries.  to_json
    never writes two entries with one key, so a repeated key is malformed
    input and raises instead of keeping the last entry."""
    out = {}
    for e in entries:
        k = key(e)
        if k in out:
            raise PresentationError(f"{what} repeats {k!r}")
        out[k] = e[value]
    return out


def _poly_json(pres, raw):
    """The JSON of a dict word -> Scalar of pres, as NCPoly.to_json and
    the rules of Presentation.to_json write it."""
    return [{"mono": pres.word_text(w), "coef": render(c)}
            for w, c in sorted(raw.items(), key=lambda t: word_key(t[0]))]


def _render_raw(pres, raw):
    if not raw:
        return "0"
    parts = []
    for w in sorted(raw, key=word_key):
        parts.append(f"({render(raw[w])})*{pres.word_text(w)}")
    return " + ".join(parts)


class ConfluenceResult:
    def __init__(self, pres, degree, checked, failures):
        self.presentation = pres
        self.degree = degree
        self.checked = checked
        self.failures = failures
        self.passed = not failures

    def to_json(self):
        return {"degree": self.degree, "overlaps_checked": self.checked,
                "passed": self.passed, "failures": self.failures}

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL({len(self.failures)})"
        return (f"<ConfluenceResult degree={self.degree} "
                f"checked={self.checked} {state}>")


class NCPoly:
    """Element of a presented algebra, always stored in normal form."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, raw, _trusted=False):
        self.pres = pres
        self.terms = dict(raw) if _trusted else pres._nf_raw(raw)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if other.pres is not self.pres:
            raise PresentationError("operands from different presentations")

    def __add__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            out = dict(self.terms)
            for w, c in other.terms.items():
                _bump(out, w, c)
            return NCPoly(self.pres, out, _trusted=True)
        if isinstance(other, (int, Scalar)):
            return self + self.pres.unit(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.pres, {w: -c for w, c in self.terms.items()},
                      _trusted=True)

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.unit(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = self.pres.coef(c)
        if c.is_zero():
            return self.pres.unit(0)
        return NCPoly(self.pres, {w: c * s for w, s in self.terms.items()},
                      _trusted=True)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        return NCPoly(self.pres, poly_product(self.pres, self.terms,
                                              other.terms), _trusted=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.pres.unit(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.unit(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    __hash__ = None

    def render(self):
        return _render_raw(self.pres, self.terms)

    def __repr__(self):
        return f"NCPoly({self.render()})"

    def to_json(self):
        return _poly_json(self.pres, self.terms)

    @classmethod
    def from_json(cls, data, pres):
        raw = {}
        for t in data:
            _bump(raw, pres.word(t["mono"]), pres.coef(t["coef"]))
        return cls(pres, raw)


def _expand(c, slot_terms):
    """The (key tuple, coefficient) terms of c times the tensor product
    of the (key, coefficient) sequences in slot_terms, in lexicographic
    order; each leg keeps its own keys (words, carrier labels or tuples
    of them), and every caller sums the terms with _bump.  Prefixes are
    extended slot by slot, so each prefix coefficient is computed once:
    c * a, then (c * a) * b, and so on, with no product by the field's
    one."""
    one = c.field.one
    prefixes = [((), c)]
    for terms in slot_terms:
        grown = []
        for ws, pc in prefixes:
            for w, tc in terms:
                grown.append((ws + (w,), tc if pc is one else
                              pc if tc is one else pc * tc))
        prefixes = grown
    return prefixes


def poly_product(pres, a, b):
    """The product of two dicts word -> Scalar of pres, as the one dict of
    normal words that _linear sums.  No product has the field's one as an
    operand."""
    one = pres.field.one
    return _linear(((w1 + w2, c2 if c1 is one else c1 if c2 is one
                     else c1 * c2) for w1, c1 in a.items()
                    for w2, c2 in b.items()), pres.normal_word)


def slotwise(a, b, muls):
    """Slotwise product of two dicts keyed by tuples of one word per slot:
    muls[i](u, v) gives the (word, coefficient) pairs of the product of
    two words in slot i.  Each product term of a pair of terms has
    coefficient ((c1 * c2) * a) * b ... for the slot coefficients a, b,
    ..., and no product has the field's one as an operand."""
    out = {}
    for ws, c1 in a.items():
        one = c1.field.one
        for vs, c2 in b.items():
            c = c2 if c1 is one else c1 if c2 is one else c1 * c2
            for key, d in _expand(c, [mul(w, v) for mul, w, v
                                      in zip(muls, ws, vs)]):
                _bump(out, key, d)
    return out


def render_legs(terms, legs):
    """Render a dict keyed by tuples of legs as (c)*[l0 (x) l1 ...] terms,
    ordered by the legs' sort keys; legs[i] is the (sort key, text) pair
    of functions of leg i."""
    if not terms:
        return "0"

    def order(k):
        return tuple(key(x) for (key, _), x in zip(legs, k))

    return " + ".join(
        f"({render(terms[k])})*"
        f"[{' (x) '.join(text(x) for (_, text), x in zip(legs, k))}]"
        for k in sorted(terms, key=order))


class TensorElement:
    """Element of a tensor product of presented algebras, one presentation
    per slot, each slot in normal form."""

    __slots__ = ("slots", "terms")

    def __init__(self, slots, raw, _trusted=False):
        self.slots = slots
        if _trusted:
            self.terms = dict(raw)
            return
        out = {}
        for ws, c in raw.items():
            ws = tuple(p.word(w) for p, w in zip(
                slots, _key_slots(ws, len(slots), "tensor")))
            c = slots[0].coef(c)
            if c.is_zero():
                continue
            for v, sc in _expand(c, [p.normal_word(w).items()
                                     for p, w in zip(slots, ws)]):
                _bump(out, v, sc)
        self.terms = out

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if other.slots != self.slots:
            raise PresentationError("operands from different presentations")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for ws, c in other.terms.items():
            _bump(out, ws, c)
        return TensorElement(self.slots, out, _trusted=True)

    def scale(self, c):
        c = self.slots[0].coef(c)
        if c.is_zero():
            return TensorElement(self.slots, {}, _trusted=True)
        return TensorElement(self.slots,
                             {ws: c * s for ws, s in self.terms.items()},
                             _trusted=True)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return TensorElement(self.slots, slotwise(
            self.terms, other.terms, [p.concat for p in self.slots]),
            _trusted=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.slots == other.slots and self.terms == other.terms

    __hash__ = None

    def render(self):
        return render_legs(self.terms,
                           [(word_key, p.word_text) for p in self.slots])

    def __repr__(self):
        return f"TensorElement({self.render()})"


def generator_table(pres, table, what, slots=None):
    """The images of the generators, in generator order, under a table
    keyed by generator (a list or tuple is read in generator order).
    Two keys that name one generator, such as "a" and (0,), raise.
    Without slots an image is a dict word -> Scalar of normal words: an
    NCPoly is read through pres.terms_of, which refuses an element of
    another presentation, and any other value as the terms of a
    polynomial, as pres.poly reads them.  With slots, the two
    presentations of a coproduct or a coaction, an image is a dict keyed
    by pairs of words: a TensorElement must lie over slots, and any other
    value is read as the terms of one.  No table is the identity, whose
    images {(i,): one} are built directly."""
    if table is None:
        one = pres.field.one
        return [{(i,): one} for i in range(len(pres.generators))]
    if isinstance(table, (list, tuple)):
        if len(table) != len(pres.generators):
            raise PresentationError(f"{what} has wrong length")
        table = {(i,): val for i, val in enumerate(table)}
    images = [None] * len(pres.generators)
    for gspec, val in table.items():
        w = pres.word(gspec)
        if len(w) != 1:
            raise PresentationError(f"{what} key {gspec!r} is not a generator")
        if images[w[0]] is not None:
            raise PresentationError(
                f"{what} key {gspec!r} repeats generator "
                f"{pres.generators[w[0]]}")
        if slots is None:
            images[w[0]] = (dict(pres.terms_of(val)) if isinstance(val, NCPoly)
                            else pres._nf_raw(pres._raw_poly(val)))
            continue
        if not isinstance(val, TensorElement):
            val = TensorElement(slots, val)
        if len(val.slots) != len(slots):
            raise PresentationError(f"{what} values need two legs")
        if val.slots != slots:
            raise PresentationError("element of a different presentation")
        images[w[0]] = val.terms
    for g, img in zip(pres.generators, images):
        if img is None:
            raise PresentationError(f"generator {g} missing from {what}")
    return images


def word_map(pres, images, slots=None):
    """The multiplicative extension of the generator images of pres to
    words, gen i -> images[i], through a memo that lives as long as the
    returned map.  Without slots each image is a dict word -> Scalar and
    poly_product multiplies them; with slots each is keyed by one word
    per slot and slotwise multiplies them, each slot by its concat.  The
    map extends the longest memoised prefix of a word one generator at a
    time, ((1 * g1) * g2) * ..., storing every new prefix, so a value
    does not depend on which words were asked for before.  The stored
    dicts are shared, and no caller may change one."""
    one = pres.field.one
    if slots is None:
        memo, times = {(): {(): one}}, partial(poly_product, pres)
    else:
        memo = {(): {((),) * len(slots): one}}
        times = partial(slotwise, muls=[p.concat for p in slots])

    def image(w):
        n = len(w)
        while (acc := memo.get(w[:n])) is None:
            n -= 1
        for k in range(n, len(w)):
            acc = memo[w[:k + 1]] = times(acc, images[w[k]])
        return acc
    return image


def _legs(img, maps):
    """(maps[0] (x) maps[1] (x) ...) applied to a dict keyed by tuples of
    legs, maps[i] giving the dict image of leg i, as one dict that _bump
    sums; each key's images are read in leg order."""
    out = {}
    for key, c in img.items():
        for k, d in _expand(c, [f(x).items() for f, x in zip(maps, key)]):
            _bump(out, k, d)
    return out


def _linear(terms, image):
    """The sum of c times image(w) over the (w, c) pairs of terms, each
    image a dict key -> Scalar, as one dict that _bump sums, so no
    partial sum is built.  No product has the field's one as an
    operand."""
    out = {}
    for w, c in terms:
        one = c.field.one
        for key, v in image(w).items():
            _bump(out, key, v if c is one else c if v is one else c * v)
    return out
