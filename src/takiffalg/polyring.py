"""Exact sparse multivariate polynomials over the rationals.

Everything is immutable and pure.  Coefficients are `fractions.Fraction`,
monomials are sorted ``((variable_index, exponent), ...)`` tuples, and the
canonical printed form uses graded reverse lexicographic order over the
declared variable order, so ``parse_poly(str(p), p.varset) == p``.

Evaluation runs on integers: on its first `evaluate` or `gradient_at` call a
polynomial builds an integer plan (integer numerators over one common
denominator D) and keeps it.  Point coordinates are exact rationals, `int`
or `Fraction` (see `exact_scalar`); integral ones stay `int`, so at an
integral point the whole loop is integer arithmetic, and the result is
divided by D once at the end.  Values come back as `int` when integral and
as `Fraction` otherwise.

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
from math import gcd
from typing import Mapping, Sequence

__all__ = [
    "Polynomial",
    "exact_scalar",
    "exact_scalars",
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
    """A point or substitution does not cover every required variable."""


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


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(exact_scalar(x))


def _over(x: Scalar, den: int) -> Scalar:
    # x / den exactly, as an int when the quotient is integral.
    if type(x) is int and den == 1:
        return x
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


def _int_gradient_rows(polys: Sequence["Polynomial"],
                       point: Mapping[str, Scalar]) -> list[list[int]]:
    """Integer rows, each a positive rational multiple of one gradient at the point.

    The point is read once per variable set and cleared to integers over
    the common denominator D of its coordinates; each member's plan sweeps
    those integers with the plan's denominator dropped.  For a homogeneous
    f of degree d, grad f(D x) = D^(d-1) grad f(x); a gradient term with k
    factors of a non-homogeneous f is padded by D^(pad-k), so every row is
    D^pad times the plan's denominator times the exact gradient.  The rows
    have the rank, row space and kernel of the exact gradients, not their
    values.  A missing coordinate raises MissingAssignmentError, an inexact
    one TypeError, as in `Polynomial.gradient_at`.
    """
    rows: list[list[int]] = []
    varset: tuple[str, ...] | None = None
    for f in polys:
        if f.varset is not varset and f.varset != varset:
            varset = f.varset
            vals = f._values_vector(point)
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

    ``terms`` must not change once the polynomial is constructed: the integer
    evaluation plan is built from it on first use and kept.
    """

    __slots__ = ("varset", "terms", "_vidx", "_plan")

    def __init__(self, varset: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None,
                 *, _canonical: bool = False):
        self.varset: tuple[str, ...] = tuple(varset)
        self._vidx: dict[str, int] | None = None
        self._plan: _IntPlan | None = None
        if terms is None:
            self.terms: dict[Monomial, Fraction] = {}
            return
        if _canonical:
            self.terms = dict(terms)
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
        self.terms = {m: c for m, c in clean.items() if c}

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

    def _index_map(self) -> dict[str, int]:
        if self._vidx is None:
            self._vidx = {name: i for i, name in enumerate(self.varset)}
        return self._vidx

    def _index_of(self, name: str) -> int:
        idx = self._index_map().get(name)
        if idx is None:
            raise UnknownVariableError(name)
        return idx

    def _check_varset(self, other: "Polynomial") -> None:
        if self.varset != other.varset:
            raise VarsetMismatchError(
                f"operands live over different variable sets: {self.varset} vs {other.varset}")

    def _new(self, terms: dict[Monomial, Fraction]) -> "Polynomial":
        p = Polynomial(self.varset, terms, _canonical=True)
        p._vidx = self._vidx
        return p

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {_mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def support(self) -> frozenset[str]:
        """Names of the variables that actually occur."""
        seen: set[str] = set()
        for mono in self.terms:
            for idx, _ in mono:
                seen.add(self.varset[idx])
        return frozenset(seen)

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
            one = Polynomial.constant(self.varset, 1)
            one._vidx = self._vidx
            return one
        return _power(self, exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.varset, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Exact partial derivative with respect to a named variable."""
        idx = self._index_of(name)
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            for pos, (i, e) in enumerate(mono):
                if i != idx:
                    continue
                if e == 1:
                    nm = mono[:pos] + mono[pos + 1:]
                else:
                    nm = mono[:pos] + ((i, e - 1),) + mono[pos + 1:]
                # nm determines mono, so no two terms meet: nothing cancels
                out[nm] = c * e
                break
        return self._new(out)

    def _values_vector(self, point: Mapping[str, Scalar]) -> list[Scalar]:
        try:
            vals = [point[name] for name in self.varset]
        except KeyError as e:
            raise MissingAssignmentError(
                f"no value assigned to variable '{e.args[0]}'") from None
        return exact_scalars(vals)

    def _int_plan(self) -> _IntPlan:
        if self._plan is None:
            self._plan = _build_int_plan(self.terms)
        return self._plan

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Value at a point given as name -> int or Fraction; every variable needs one.

        Returns an `int` when the value is integral and a `Fraction` otherwise.
        """
        vals = self._values_vector(point)
        den, values, _, _ = self._int_plan()
        total = 0
        for acc, factors in values:
            for idx in factors:
                acc *= vals[idx]
            total += acc
        if den == 1 and type(total) is int:
            return total
        return _over(total, den)

    def gradient_at(self, point: Mapping[str, Scalar]) -> list[Scalar]:
        """All partial derivatives evaluated at a point, in varset order.

        One sweep over the plan's gradient terms; much cheaper than evaluating
        each symbolic partial separately when the polynomial is large.  Each
        entry is an `int` when integral and a `Fraction` otherwise.
        """
        vals = self._values_vector(point)
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

_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:@[0-9]+)*)"
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

def jet_substitute(p: Polynomial, subst: Mapping[str, Sequence[Polynomial]],
                   order: int) -> list[Polynomial]:
    """Substitute c_0 + eps*c_1 + ... + eps^order*c_order for every variable of ``p``.

    ``subst`` maps each variable of ``p.varset`` to its eps-coefficients
    (c_0, ..., c_order).  Returns the eps-coefficients of the result,
    truncated at eps^order.  The input is checked once, here: every variable
    needs a sequence of order + 1 polynomials, all over one target varset.
    """
    if order < 0:
        raise PolyringError(f"truncation order must be nonnegative, got {order}")
    jets: dict[str, tuple[Polynomial, ...]] = {}
    target: tuple[str, ...] | None = None
    for name in p.varset:
        coeffs = subst.get(name)
        if coeffs is None:
            raise MissingAssignmentError(f"no coefficients assigned to variable '{name}'")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise PolyringError(f"variable '{name}' has {len(coeffs)} eps-coefficients, "
                                f"expected {order + 1}")
        for c in coeffs:
            if target is None:
                target = c.varset
            elif c.varset != target:
                raise VarsetMismatchError("substituted coefficients must share one variable set")
        jets[name] = coeffs
    if target is None:
        # p has no variables at all; the result is over no variables either.
        target = ()

    # Integer products: every substituted coefficient is cleared to integers
    # over one denominator ds, and p's coefficients to numerators over dp.
    # A term of degree d then collects ds^d times its value; it is scaled up
    # to ds^dmax so that every term shares the denominator dp * ds^dmax, and
    # each result monomial is divided once at the end.
    ds = _common_denominator(c for coeffs in jets.values() for poly in coeffs
                             for c in poly.terms.values())
    int_jets = {name: [{m: c.numerator * (ds // c.denominator) for m, c in poly.terms.items()}
                       for poly in coeffs]
                for name, coeffs in jets.items()}
    dp = _common_denominator(p.terms.values())
    dmax = max(map(_mono_degree, p.terms), default=0)

    def mul(a: Sequence[dict], b: Sequence[dict]) -> list[dict]:
        # the product of two expansions, truncated at eps^order
        out: list[dict[Monomial, int]] = [{} for _ in range(order + 1)]
        for i, x in enumerate(a):
            if not x:
                continue
            for j in range(order + 1 - i):
                y = b[j]
                if not y:
                    continue
                prod: dict[Monomial, int] = {}
                for ma, ca in x.items():
                    for mb, cb in y.items():
                        m = _mono_mul(ma, mb)
                        v = prod.get(m)
                        v = ca * cb if v is None else v + ca * cb
                        if v:
                            prod[m] = v
                        elif m in prod:
                            del prod[m]
                _add_terms(out[i + j], prod)
        return out

    result: list[dict[Monomial, int]] = [{} for _ in range(order + 1)]
    powcache: dict[tuple[int, int], list[dict[Monomial, int]]] = {}
    for mono, c in p.terms.items():
        scale = c.numerator * (dp // c.denominator) * ds ** (dmax - _mono_degree(mono))
        acc = [{(): scale}] + [{} for _ in range(order)]
        for idx, e in mono:
            jp = powcache.get((idx, e))
            if jp is None:
                jp = powcache[(idx, e)] = _power(int_jets[p.varset[idx]], e, mul)
            acc = mul(acc, jp)
        for r, a in zip(result, acc):
            _add_terms(r, a)
    den = dp * ds ** dmax
    return [Polynomial(target, {m: Fraction(v, den) for m, v in r.items()}, _canonical=True)
            for r in result]
