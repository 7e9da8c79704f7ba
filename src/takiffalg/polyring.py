"""Exact sparse multivariate polynomials over the rationals.

Everything is immutable and pure.  Coefficients are `fractions.Fraction`,
monomials are sorted ``((variable_index, exponent), ...)`` tuples, and the
canonical printed form uses graded reverse lexicographic order over the
declared variable order, so ``parse_poly(str(p), p.varset) == p``.

A point is its coordinate list, one value per variable in varset order.
`coordinates` is the one place a point is read: it also takes a mapping
that assigns every variable exactly once, and returns the list.
Coordinates are exact rationals, `int` or `Fraction` (see `exact_scalar`).

Evaluation runs on integers: on its first `evaluate` or `gradient_at` call a
polynomial builds an integer plan (integer numerators over one common
denominator D) and keeps it.  Integral coordinates stay `int`, so at an
integral point the whole loop is integer arithmetic, and the result is
divided by D once at the end, by `divmod` when it is an `int`, so an
integral value builds no `Fraction`.  Values come back as `int` when
integral and as `Fraction` otherwise.

Differential matrices, which are only ranked and reduced, skip both
divisions: `_int_gradient_rows` (behind `liealg.differential_matrix`)
clears the point to integers over its common denominator once and sweeps
each plan with the plan's denominator dropped, so every row is an integer
row and a positive rational multiple of the exact gradient.  Such rows give
ranks and kernels, never gradient values.

There is no floating point anywhere in this module.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import comb, gcd
from types import MappingProxyType
from typing import Mapping, Sequence

__all__ = [
    "Polynomial",
    "exact_scalar",
    "exact_scalars",
    "coordinates",
    "parse_poly",
    "jet_substitute",
    "PolyringError",
    "ParseError",
    "UnknownVariableError",
    "VarsetMismatchError",
    "MissingAssignmentError",
]

# A monomial: ((var_index, exponent), ...) with indices strictly increasing
# and exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]


class PolyringError(Exception):
    """Base error for the polynomial layer."""


class ParseError(PolyringError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None) -> None:
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class UnknownVariableError(ParseError):
    """An identifier that is not in the declared variable set."""

    def __init__(self, name: str, pos: int | None = None) -> None:
        ParseError.__init__(self, f"unknown variable '{name}'", pos)
        self.name = name


class VarsetMismatchError(PolyringError):
    """Two operands do not share the same ordered variable set."""


class MissingAssignmentError(PolyringError):
    """A point does not cover every required variable."""


Scalar = int | Fraction


def exact_scalar(x) -> Scalar:
    """A point coordinate as an exact rational: `int` when integral, else `Fraction`.

    Anything that is not an `int` or a `Fraction` (a float, a string) raises
    TypeError, so inexact values never reach the integer evaluation loops.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


def exact_scalars(values: list) -> list[Scalar]:
    """`exact_scalar` on every entry; an all-`int` list comes back as it is."""
    if {*map(type, values)} <= {int}:
        return values
    return [exact_scalar(x) for x in values]


# a point: its coordinate list in varset order, or a mapping over the names
Point = Mapping[str, Scalar] | Sequence[Scalar]


def coordinates(varset: Sequence[str], point: Point) -> list[Scalar]:
    """The coordinate list of a point over ``varset``, validated: the one reader of a point.

    The point is its coordinate list, one value per variable in varset
    order, or a mapping that assigns every variable exactly once; a list
    of another length or a mapping with a missing or an extra name raises
    MissingAssignmentError.  Coordinates pass through `exact_scalars`, so a
    float raises TypeError.  A list of `int`s comes back as it is; any other
    sequence comes back as a new list.  A plain list, the common case, is
    told by its exact type before the `Mapping` check.
    """
    if type(point) is not list and isinstance(point, Mapping):
        names = set(varset)
        if point.keys() != names:
            raise MissingAssignmentError(
                f"a point must assign every variable exactly once (missing "
                f"{sorted(names - point.keys())}, unexpected "
                f"{sorted(map(str, point.keys() - names))})")
        point = [point[name] for name in varset]
    elif len(point) != len(varset):
        raise MissingAssignmentError(f"a coordinate list must have {len(varset)} entries, "
                                     f"got {len(point)}")
    return exact_scalars(point if type(point) is list else list(point))


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(exact_scalar(x))


def _over(x: Scalar, den: int) -> Scalar:
    # x / den exactly, as an int when the quotient is integral; an int
    # that den divides needs no Fraction.
    if type(x) is int:
        if den == 1:
            return x
        q, r = divmod(x, den)
        if not r:
            return q
    q = Fraction(x, den)
    return q.numerator if q.denominator == 1 else q


def _common_denominator(coeffs) -> int:
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    return den


def _add_terms(out: dict[Monomial, Fraction], terms: Mapping[Monomial, Fraction]) -> None:
    # out += terms in place, dropping the coefficients that cancel to zero
    for m, c in terms.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, ea = a[i]
        ib, eb = b[j]
        if ia == ib:
            out.append((ia, ea + eb))
            i += 1
            j += 1
        elif ia < ib:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _power(base, exp: int, mul=operator.mul):
    """base^exp for exp >= 1 by square-and-multiply; every product goes through mul.

    The result starts as the first factor of base that the binary expansion
    of exp takes, so no product by one is formed.
    """
    result = None
    while exp:
        if exp & 1:
            result = base if result is None else mul(result, base)
        exp >>= 1
        if exp:
            base = mul(base, base)
    return result


# A polynomial's integer plan: (D, value terms, gradient terms, pad).  The
# value terms are (D * coefficient, factors) with each monomial spelled out as
# a tuple of variable indices, x0^2*x3 as (0, 0, 3); the gradient terms are
# (variable index, D * coefficient * exponent, the factors left after one
# factor of that variable is taken away).  pad is the factor count of the
# longest gradient term when the gradient terms' factor counts differ (the
# polynomial is not homogeneous), and 0 when they agree.
_IntPlan = tuple[int, list[tuple[int, tuple[int, ...]]],
                 list[tuple[int, int, tuple[int, ...]]], int]


def _build_int_plan(terms: Mapping[Monomial, Fraction]) -> _IntPlan:
    den = _common_denominator(terms.values())
    values = [(c.numerator * (den // c.denominator),
               tuple(i for i, e in mono for _ in range(e)))
              for mono, c in terms.items()]
    grads = []
    for c, factors in values:
        for pos, idx in enumerate(factors):
            if pos and factors[pos - 1] == idx:
                continue
            grads.append((idx, c * factors.count(idx), factors[:pos] + factors[pos + 1:]))
    counts = {len(rest) for _, _, rest in grads}
    return den, values, grads, max(counts) if len(counts) > 1 else 0


def _int_gradient_rows(polys: Sequence["Polynomial"], point: Point) -> list[list[int]]:
    """Integer rows, each a positive rational multiple of one gradient at the point.

    The point is read once per variable set and cleared to integers over
    the common denominator D of its coordinates; each member's plan sweeps
    those integers with the plan's denominator dropped.  For a homogeneous
    f of degree d, grad f(D x) = D^(d-1) grad f(x); a gradient term with k
    factors of a non-homogeneous f is padded by D^(pad-k), so every row is
    D^pad times the plan's denominator times the exact gradient.  The rows
    have the rank, row space and kernel of the exact gradients, not their
    values.  The point goes through `coordinates`, as in
    `Polynomial.gradient_at`.
    """
    rows: list[list[int]] = []
    varset: tuple[str, ...] | None = None
    for f in polys:
        if f.varset is not varset and f.varset != varset:
            varset = f.varset
            vals = coordinates(varset, point)
            D = _common_denominator(vals)
            if D != 1:
                vals = [x.numerator * (D // x.denominator) for x in vals]
        _, _, grads, pad = f._int_plan()
        row = [0] * len(vals)
        if D == 1 or not pad:
            for idx, acc, rest in grads:
                for jdx in rest:
                    acc *= vals[jdx]
                row[idx] += acc
        else:
            for idx, acc, rest in grads:
                for jdx in rest:
                    acc *= vals[jdx]
                row[idx] += acc * D ** (pad - len(rest))
        rows.append(row)
    return rows


class Polynomial:
    """Sparse polynomial with Fraction coefficients over a fixed ordered varset.

    ``terms`` is a read-only view: the integer evaluation plan is built from
    it on first use and kept, and `catalog.load` shares its polynomials.
    """

    __slots__ = ("varset", "terms", "_plan")

    def __init__(self, varset: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None,
                 *, _canonical: bool = False):
        self.varset: tuple[str, ...] = tuple(varset)
        self._plan: _IntPlan | None = None
        if terms is None:
            self.terms: Mapping[Monomial, Fraction] = MappingProxyType({})
            return
        if _canonical:
            self.terms = MappingProxyType(dict(terms))
            return
        n = len(self.varset)
        if len(set(self.varset)) != n:
            raise VarsetMismatchError("variable names must be distinct")
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            c = _as_fraction(coeff)
            if not c:
                continue
            prev = -1
            for idx, exp in mono:
                if not (0 <= idx < n):
                    raise PolyringError(f"variable index {idx} out of range")
                if exp <= 0:
                    raise PolyringError("exponents must be positive in sparse monomials")
                if idx <= prev:
                    raise PolyringError("monomial indices must be strictly increasing")
                prev = idx
            clean[tuple(mono)] = clean.get(tuple(mono), Fraction(0)) + c
        self.terms = MappingProxyType({m: c for m, c in clean.items() if c})

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, varset: Sequence[str]) -> "Polynomial":
        return cls(varset, {}, _canonical=True)

    @classmethod
    def constant(cls, varset: Sequence[str], c) -> "Polynomial":
        c = _as_fraction(c)
        return cls(varset, {(): c} if c else {}, _canonical=True)

    @classmethod
    def variable(cls, varset: Sequence[str], name: str) -> "Polynomial":
        varset = tuple(varset)
        if name not in varset:
            raise UnknownVariableError(name)
        return cls(varset, {((varset.index(name), 1),): Fraction(1)}, _canonical=True)

    # -- bookkeeping ---------------------------------------------------------

    def _check_varset(self, other: "Polynomial") -> None:
        if self.varset != other.varset:
            raise VarsetMismatchError(
                f"operands live over different variable sets: {self.varset} vs {other.varset}")

    def _new(self, terms: dict[Monomial, Fraction]) -> "Polynomial":
        return Polynomial(self.varset, terms, _canonical=True)

    # -- structure -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {_mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_varset(other)
        out = dict(self.terms)
        _add_terms(out, other.terms)
        return self._new(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self._new({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return self._new({})
            return self._new({m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_varset(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = out.get(m)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return self._new(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exp: int) -> "Polynomial":
        if not isinstance(exp, int) or exp < 0:
            raise PolyringError("polynomial exponents must be nonnegative integers")
        if exp == 0:
            return Polynomial.constant(self.varset, 1)
        return _power(self, exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.varset, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def _int_plan(self) -> _IntPlan:
        if self._plan is None:
            self._plan = _build_int_plan(self.terms)
        return self._plan

    def evaluate(self, point: Point) -> Scalar:
        """Value at a point, read by `coordinates`.

        Returns an `int` when the value is integral and a `Fraction` otherwise.
        """
        vals = coordinates(self.varset, point)
        den, values, _, _ = self._int_plan()
        total = 0
        for acc, factors in values:
            for idx in factors:
                acc *= vals[idx]
            total += acc
        if den == 1 and type(total) is int:
            return total
        return _over(total, den)

    def gradient_at(self, point: Point) -> list[Scalar]:
        """All partial derivatives evaluated at a point, in varset order.

        One sweep over the plan's gradient terms; much cheaper than evaluating
        each symbolic partial separately when the polynomial is large.  Each
        entry is an `int` when integral and a `Fraction` otherwise.  The point
        is read by `coordinates`.
        """
        vals = coordinates(self.varset, point)
        den, _, grads, _ = self._int_plan()
        grad: list[Scalar] = [0] * len(vals)
        for idx, acc, rest in grads:
            for jdx in rest:
                acc *= vals[jdx]
            grad[idx] += acc
        if den == 1 and {*map(type, grad)} <= {int}:
            return grad
        return [_over(g, den) for g in grad]

    # -- printing ------------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        n = len(self.varset)

        def key(item: tuple[Monomial, Fraction]):
            mono = item[0]
            exps = [0] * n
            for i, e in mono:
                exps[i] = e
            # grevlex-descending: higher degree first; ties broken so that the
            # reversed exponent vector is lexicographically smallest first.
            return (-_mono_degree(mono), tuple(reversed(exps)))

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for k, (mono, c) in enumerate(self._sorted_terms()):
            factors = [self.varset[i] if e == 1 else f"{self.varset[i]}^{e}"
                       for i, e in mono]
            mag = -c if c < 0 else c
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if k == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# a variable name, graded names b@j included; `algio` refuses basis names
# outside it, which no polynomial string could spell
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:@[0-9]+)*")
_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+(?:/[0-9]+)?)"
    rf"|(?P<ident>{_IDENT_RE.pattern})"
    r"|(?P<op>[+\-*^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup or "op"
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


MAX_PARSE_DEGREE = 32
# The degree cap does not bound term counts: over sl3 an 8-term linear form
# to the 8th power has 6435 terms and its last squaring multiplies 330 x 330
# terms.  The products one parse forms, each step of ``^`` included, therefore
# share one budget of MAX_PARSE_WORK term pairs, so parse time is bounded
# whatever the length of the text.  The largest product in the catalog and
# the tests is 4 pairs; a parse that spends the whole budget takes about half
# a second on a 2-core x86 box with Python 3.11.
MAX_PARSE_WORK = 100_000


class _Parser:
    """Recursive-descent parser for the grammar:

        expr   := term (("+" | "-") term)*
        term   := factor ("*" factor)*
        factor := "-" factor | power
        power  := atom ("^" INTEGER)?
        atom   := NUMBER | IDENT | "(" expr ")"

    ``^`` binds tightest, implicit multiplication is a syntax error, and
    number literals may be fractions ``a/b``.  Exponents and the total degree
    of every ``^`` and ``*`` are capped at MAX_PARSE_DEGREE (32): a larger one
    raises ParseError before anything is multiplied out.  The term pairs
    len(p.terms) * len(q.terms) of all products of one parse, each squaring
    or multiplication step of ``^`` included, add up to a running total that
    may not exceed MAX_PARSE_WORK; it is checked before each product is
    formed.
    """

    def __init__(self, text: str, varset: Sequence[str]):
        self.tokens = _tokenize(text)
        self.text = text
        self.i = 0
        self.varset = tuple(varset)
        self.work = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def _expr(self) -> Polynomial:
        # the terms of a sum go into one dict, so a long sum costs linear time
        p = self._term()
        out = None
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return p if out is None else Polynomial(self.varset, out, _canonical=True)
            self._next()
            q = self._term()
            if out is None:
                out = dict(p.terms)
            _add_terms(out, q.terms if tok[1] == "+" else (-q).terms)

    def _term(self) -> Polynomial:
        p = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return p
            op = self._next()
            q = self._factor()
            if p.degree() + q.degree() > MAX_PARSE_DEGREE:
                raise ParseError(f"product exceeds the degree cap {MAX_PARSE_DEGREE}",
                                 op[2])
            p = self._mul(p, q, op[2])

    def _mul(self, p: Polynomial, q: Polynomial, pos: int) -> Polynomial:
        self.work += len(p.terms) * len(q.terms)
        if self.work > MAX_PARSE_WORK:
            raise ParseError(f"products exceed the work cap of {MAX_PARSE_WORK} term pairs "
                             "for one parse", pos)
        return p * q

    def _factor(self) -> Polynomial:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self._next()
            return -self._factor()
        return self._power()

    def _power(self) -> Polynomial:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self._next()
            etok = self._next()
            if etok[0] != "num" or "/" in etok[1]:
                raise ParseError("exponent must be a nonnegative integer", etok[2])
            digits = etok[1].lstrip("0") or "0"
            if len(digits) > 2 or int(digits) * max(base.degree(), 1) > MAX_PARSE_DEGREE:
                raise ParseError(f"power exceeds the degree cap {MAX_PARSE_DEGREE}",
                                 etok[2])
            if digits == "0":
                return Polynomial.constant(self.varset, 1)
            return _power(base, int(digits), lambda p, q: self._mul(p, q, etok[2]))
        return base

    def _atom(self) -> Polynomial:
        tok = self._next()
        kind, value, pos = tok
        if kind == "num":
            try:
                return Polynomial.constant(self.varset, Fraction(value))
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"bad number literal {value[:20]!r}", pos) from e
        if kind == "ident":
            if value not in self.varset:
                raise UnknownVariableError(value, pos)
            return Polynomial.variable(self.varset, value)
        if kind == "op" and value == "(":
            p = self._expr()
            closing = self._next()
            if closing[0] != "op" or closing[1] != ")":
                raise ParseError("expected ')'", closing[2])
            return p
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, varset: Sequence[str]) -> Polynomial:
    """Parse canonical polynomial syntax; degrees are capped as in _Parser."""
    try:
        return _Parser(text, varset).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


# ---------------------------------------------------------------------------
# substitution of truncated eps-expansions
# ---------------------------------------------------------------------------

def _splits(e: int, order: int) -> list[tuple[int, int, tuple[tuple[int, int], ...]]]:
    """Every e = k_0 + ... + k_order of weight sum s*k_s <= order, lightest first.

    Each split is (weight, e!/prod k_s!, ((s, k_s) for k_s >= 1)).
    """
    out = []

    def walk(first: int, left: int, weight: int, mult: int, parts: tuple) -> None:
        if not left:
            out.append((weight, mult, parts))
            return
        for s in range(first, order + 1):
            if weight + s > order:
                return
            for k in range(1, left + 1):
                if weight + s * k > order:
                    break
                walk(s + 1, left - k, weight + s * k, mult * comb(left, k), parts + ((s, k),))

    walk(0, e, 0, 1, ())
    out.sort(key=operator.itemgetter(0))
    return out


def jet_substitute(p: Polynomial, index: Sequence[Sequence[int]],
                   target: Sequence[str]) -> list[Polynomial]:
    """Substitute sum_s eps^s * target[index[i][s]] for variable i of ``p``.

    Every row of ``index`` has order + 1 entries; the result is the
    eps-coefficients over ``target``, truncated at eps^order.  No target
    index may appear twice, so every output monomial comes from one term of
    ``p`` and one split of each exponent e_i into grade-shift parts k_s:
    nothing merges or cancels, and each output coefficient is the term's
    coefficient times the multinomials e_i!/prod k_s!.
    """
    if len(index) != len(p.varset):
        raise PolyringError(f"index has {len(index)} rows for {len(p.varset)} variables")
    lengths = {len(row) for row in index}
    if len(lengths) != 1 or 0 in lengths:
        raise PolyringError("index rows must be nonempty and all of one length")
    used = [k for row in index for k in row]
    if len(set(used)) != len(used):
        raise PolyringError("a target index appears twice in index")
    if not all(0 <= k < len(target) for k in used):
        raise PolyringError(f"a target index is outside the {len(target)} target variables")
    order = len(index[0]) - 1
    splits: dict[tuple[int, int], list] = {}
    result: list[dict[Monomial, Fraction]] = [{} for _ in range(order + 1)]
    for mono, c in p.terms.items():
        acc = [(0, c.numerator, ())]
        for i, e in mono:
            parts = splits.get((i, e))
            if parts is None:
                row = index[i]
                parts = splits[(i, e)] = [(w, mult, tuple((row[s], k) for s, k in split))
                                          for w, mult, split in _splits(e, order)]
            longer = []
            for w, num, grown in acc:
                for v, mult, more in parts:
                    if w + v > order:
                        break
                    longer.append((w + v, num * mult, grown + more))
            acc = longer
        # a term's outputs share a few coefficients: one Fraction for each
        coeffs: dict[int, Fraction] = {}
        for w, num, grown in acc:
            q = coeffs.get(num)
            if q is None:
                q = coeffs[num] = Fraction(num, c.denominator)
            result[w][tuple(sorted(grown))] = q
    return [Polynomial(target, r, _canonical=True) for r in result]
