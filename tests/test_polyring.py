from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from takiffalg.polyring import (
    MAX_PARSE_WORK,
    MissingAssignmentError,
    ParseError,
    PolyringError,
    Polynomial,
    UnknownVariableError,
    VarsetMismatchError,
    _over,
    _power,
    jet_substitute,
    parse_poly,
)
from takiffalg import sampling

from oracles import EpsValue, eval_poly_eps, partial

VS = ("x", "y", "z")
X = Polynomial.variable(VS, "x")
Y = Polynomial.variable(VS, "y")
Z = Polynomial.variable(VS, "z")


def _build(terms):
    p = Polynomial.zero(VS)
    for c, a, b, d in terms:
        p = p + Polynomial.constant(VS, c) * X**a * Y**b * Z**d
    return p


poly_st = st.builds(
    _build,
    st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 3),
                       st.integers(0, 3), st.integers(0, 2)), max_size=5),
)

frac_st = st.fractions(min_value=-10, max_value=10, max_denominator=7)
point_st = st.fixed_dictionaries({v: frac_st for v in VS})


_BIG = 2 ** 200
int_st = st.one_of(st.integers(-1000, 1000), st.integers(-_BIG, _BIG))
den_st = st.one_of(st.just(1), st.integers(1, 1000), st.integers(2, _BIG))


class TestExactDivision:
    """`_over(x, den)` is x / den exactly: an `int` when integral, else a `Fraction`."""

    @staticmethod
    def _check(x, den):
        got, want = _over(x, den), Fraction(x, den)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)

    @given(int_st, den_st, st.booleans())
    def test_an_int_against_the_fraction_oracle(self, x, den, multiple):
        self._check(x * den if multiple else x, den)

    @given(int_st, den_st)
    def test_a_negative_denominator(self, x, den):
        self._check(x * den, -den)
        self._check(x, -den)

    @given(st.fractions(), den_st)
    def test_a_fraction_against_the_fraction_oracle(self, x, den):
        self._check(x, den)
        self._check(x * den, den)

    def test_edges(self):
        for x, den in ((0, 1), (0, 7), (-6, 3), (-7, 3), (_BIG, 1), (_BIG * 3, 3),
                       (_BIG + 1, 2), (Fraction(6, 2), 1), (Fraction(1, 2), 1)):
            self._check(x, den)


class TestBasics:
    def test_zero_and_constant(self):
        assert not Polynomial.zero(VS).terms
        c = Polynomial.constant(VS, Fraction(3, 2))
        assert c.evaluate({v: 0 for v in VS}) == Fraction(3, 2)
        assert c.degree() == 0

    def test_degree_and_homogeneity(self):
        p = parse_poly("x^2*y + 4*z^3", VS)
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert not parse_poly("x^2 + y", VS).is_homogeneous()

    def test_oracle_partial(self):
        p = parse_poly("x^2*y + 4*z^3", VS)
        assert partial(p, "x") == parse_poly("2*x*y", VS)
        assert partial(p, "y") == parse_poly("x^2", VS)
        assert partial(p, "z") == parse_poly("12*z^2", VS)
        assert not partial(Polynomial.constant(VS, 5), "x").terms

    def test_evaluate(self):
        p = parse_poly("x^2*y - z", VS)
        pt = {"x": Fraction(2), "y": Fraction(1, 2), "z": Fraction(-1)}
        assert p.evaluate(pt) == Fraction(3)

    def test_pow(self):
        assert (X + Y) ** 2 == parse_poly("x^2 + 2*x*y + y^2", VS)
        assert (X**0) == Polynomial.constant(VS, 1)
        assert (X + Y) ** 1 == X + Y

    def test_powers_form_no_product_by_one(self):
        # square-and-multiply starts from the first factor it takes: ^7 forms
        # the squares ^2, ^4 and the products ^3, ^7, and ^1 forms nothing
        p = X + 2 * Y - Z
        sizes = []

        def mul(a, b):
            sizes.append((len(a.terms), len(b.terms)))
            return a * b
        for exp, products in ((1, 0), (2, 1), (7, 4), (8, 3)):
            sizes.clear()
            want = p
            for _ in range(exp - 1):
                want = want * p
            assert _power(p, exp, mul) == want
            assert len(sizes) == products and all(1 not in pair for pair in sizes)
        assert parse_poly("(x+2*y-z)^7", VS) == p ** 7
        assert parse_poly("(x+2*y-z)^0", VS) == Polynomial.constant(VS, 1)


class TestParsing:
    def test_rational_coefficients(self):
        p = parse_poly("1/2*x - 3/4*y^2", VS)
        assert p.evaluate({"x": Fraction(2), "y": Fraction(2), "z": Fraction(0)}) \
            == Fraction(-2)

    def test_graded_names_parse(self):
        vs = ("e@0", "e@1", "e@1@0")
        p = parse_poly("e@0*e@1 - 2*e@1@0^2", vs)
        assert p.degree() == 2

    def test_parens_and_unary_minus(self):
        assert parse_poly("-(x - y)^2", VS) == parse_poly("-x^2 + 2*x*y - y^2", VS)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("x + w", VS)

    def test_syntax_error(self):
        for bad in ("x +", "* y", "x^", "(x", "x^-2"):
            with pytest.raises(ParseError):
                parse_poly(bad, VS)

    def test_work_cap_checks_every_product(self):
        vs = tuple("abcdefgh")
        wide = "(" + "+".join(vs) + ")"
        # ^7 multiplies at most 120 x 330 term pairs, under MAX_PARSE_WORK;
        # ^8 squares a 330-term power, and so does the product of two ^4.
        assert len(parse_poly(wide + "^7", vs).terms) == 3432
        for text in (wide + "^8", wide + "^4*" + wide + "^4"):
            with pytest.raises(ParseError, match="work cap"):
                parse_poly(text, vs)
        assert 330 * 330 > MAX_PARSE_WORK >= 120 * 330

    def test_work_cap_covers_the_whole_parse(self):
        vs = ("h1", "h2", "e12", "e23", "e13", "e21", "e32", "e31")
        copy = "(" + "+".join(vs) + ")^7"
        # one ^7 spends 64 + 288 + 1296 + 120*330 = 41248 term pairs
        for k in (1, 2):
            assert len(parse_poly(" + ".join([copy] * k), vs).terms) == 3432
        text = " + ".join([copy] * 10)
        assert len(text) == 357
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="work cap"):
            parse_poly(text, vs)
        assert time.perf_counter() - t0 < 1.0

    def test_long_sum_parses_in_linear_time(self):
        # sums are outside the work cap, so their cost must grow linearly:
        # 16000 distinct cubic monomials over 60 variables (205 KB of text)
        # parse in well under a second on a 2-core x86 box, and took 4.4 s
        # when every "+" copied the sum so far
        vs = tuple(f"x{i}" for i in range(60))
        monos = list(itertools.islice(itertools.combinations_with_replacement(vs, 3), 16000))
        text = " + ".join("*".join(m) for m in monos)
        assert len(text) > 200_000
        t0 = time.perf_counter()
        p = parse_poly(text, vs)
        assert time.perf_counter() - t0 < 2.0
        assert len(p.terms) == 16000 and set(p.terms.values()) == {1}
        assert not parse_poly("x*y - 2*z + z + z - x*y + (x - x)", VS).terms

    @given(poly_st)
    def test_roundtrip(self, p):
        assert parse_poly(str(p), VS) == p


class TestRingAxioms:
    @given(poly_st, poly_st, poly_st)
    def test_add_mul_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_st, poly_st, point_st)
    def test_evaluation_is_a_homomorphism(self, a, b, pt):
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)

    @given(poly_st, poly_st)
    def test_leibniz(self, a, b):
        for v in VS:
            assert partial(a * b, v) == partial(a, v) * b + a * partial(b, v)

    @given(poly_st, point_st)
    def test_gradient_matches_partials(self, p, pt):
        assert p.gradient_at(pt) == [partial(p, v).evaluate(pt) for v in VS]


class TestErrors:
    def test_varset_mismatch(self):
        q = Polynomial.variable(("a", "b"), "a")
        with pytest.raises(VarsetMismatchError):
            X + q

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError):
            X.evaluate({"x": Fraction(1)})


TARGET = tuple(f"t{k}" for k in range(7))


class TestJetRefusals:
    """The index table jet_substitute refuses, one malformation at a time."""

    def test_a_row_count_other_than_the_variables(self):
        with pytest.raises(PolyringError, match="2 rows for 3 variables"):
            jet_substitute(X, [[0, 1], [2, 3]], TARGET)

    def test_ragged_rows(self):
        with pytest.raises(PolyringError, match="one length"):
            jet_substitute(X, [[0, 1], [2], [3, 4]], TARGET)

    def test_empty_rows(self):
        with pytest.raises(PolyringError, match="nonempty"):
            jet_substitute(X, [[], [], []], TARGET)

    def test_a_repeated_target_index(self):
        with pytest.raises(PolyringError, match="appears twice"):
            jet_substitute(X, [[0, 1], [2, 3], [4, 0]], TARGET)

    @pytest.mark.parametrize("outside", [-1, 7])
    def test_an_index_outside_the_target(self, outside):
        with pytest.raises(PolyringError, match="outside the 7 target variables"):
            jet_substitute(X, [[0, 1], [2, 3], [4, outside]], TARGET)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_jets_match_dual_numbers_at_a_random_point(order):
    # F^j of p with a shuffled index table, at a random rational point of
    # the target, is the eps^j coefficient of p at the dual-number point
    # that the table reads off it; one spare target variable stays unused
    target = tuple(f"t{k}" for k in range(len(VS) * (order + 1) + 1))
    for trial in range(40):
        r = sampling.rng(2027, order, trial)
        p = _build([(Fraction(r.randint(-6, 6), r.randint(1, 4)),
                     r.randint(0, 4), r.randint(0, 4), r.randint(0, 4))
                    for _ in range(r.randint(1, 5))])
        slots = list(range(len(target)))
        r.shuffle(slots)
        index = [slots[k * (order + 1):(k + 1) * (order + 1)] for k in range(len(VS))]
        point = {t: Fraction(r.randint(-5, 5), r.randint(1, 4)) for t in target}
        got = jet_substitute(p, index, target)
        assert all(F.varset == target for F in got)
        want = eval_poly_eps(p, {v: EpsValue(order, [point[target[k]] for k in row])
                                 for v, row in zip(VS, index)})
        assert [F.evaluate(point) for F in got] == want.coeffs
