"""Fuzzing the algebra loader: any JSON value either loads or is an input error.

`algio.algebra_from_dict` may return, or raise AlgebraFormatError, ParseError
or another AlgebraError (all of which the CLI turns into exit code 2); any
other exception would reach the user as a traceback.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from takiffalg import algio
from takiffalg.liealg import AlgebraError
from takiffalg.polyring import ParseError

NAMES = ("e", "h", "f")

json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12)

# Polynomial strings over the sl2 names plus an unknown one, with exponents
# on both sides of the parser's degree cap and a zero denominator among the
# literals.
poly_atoms = (st.sampled_from(NAMES + ("w",))
              | st.integers(0, 99).map(str) | st.just("1/0"))
poly_strings = st.recursive(
    poly_atoms,
    lambda p: st.tuples(p, st.sampled_from("+-*"), p).map(lambda t: f"({t[0]}{t[1]}{t[2]})")
    | st.tuples(p, st.integers(0, 40)).map(lambda t: f"{t[0]}^{t[1]}")
    | p.map(lambda s: f"-{s}"),
    max_leaves=6) | st.text(alphabet="ehfw0123456789/+-*^() ", max_size=16)

coefficients = st.integers(-3, 3).map(str) | st.sampled_from(["1/0", "x", "2/3"]) | json_values
bracket_entries = st.fixed_dictionaries({
    "pair": st.lists(st.integers(-1, 3), min_size=2, max_size=2) | json_values,
    "coeffs": st.dictionaries(st.sampled_from(NAMES + ("w",)), coefficients,
                              max_size=3) | json_values,
})
gradings = st.fixed_dictionaries({
    "base_dim": st.integers() | json_values,
    "depth": st.integers() | json_values,
    "grade_of": st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 2) | json_values,
                                max_size=3) | json_values,
    "base_name_of": st.dictionaries(st.sampled_from(NAMES), st.text(max_size=2) | json_values,
                                    max_size=3) | json_values,
})
documents = st.fixed_dictionaries(
    {
        "label": st.just("fuzz") | json_values,
        "basis": st.just(list(NAMES))
        | st.lists(st.sampled_from(NAMES + ("w",)), max_size=4) | json_values,
        "brackets": st.lists(bracket_entries, max_size=4) | json_values,
    },
    optional={
        "invariants": st.lists(poly_strings | json_values, max_size=3) | json_values,
        "flags": st.dictionaries(st.text(max_size=4), st.booleans()) | json_values,
        "grading": gradings | json_values,
    })


@settings(max_examples=200)
@given(json_values | documents)
@example({"label": "x", "basis": ["e"], "brackets": [],
          "grading": {"base_dim": 1, "depth": 10 ** 12, "grade_of": {},
                      "base_name_of": {}}})
@example({"label": "x", "basis": ["e"], "brackets": [],
          "grading": {"base_dim": 1, "depth": 1, "grade_of": [],
                      "base_name_of": {}}})
@example({"label": "x", "basis": list(NAMES), "brackets": [],
          "invariants": ["(" * 2000 + "e" + ")" * 2000]})
@example({"label": "sl2", "basis": list(NAMES),
          "brackets": [{"pair": [0, 1], "coeffs": {"e": "-2"}},
                       {"pair": [0, 2], "coeffs": {"h": "1"}},
                       {"pair": [1, 2], "coeffs": {"f": "-2"}}],
          "grading": {"base_dim": 1, "depth": 0, "grade_of": {"x@0": 0},
                      "base_name_of": {"x@0": "x"}}})
def test_loader_raises_only_input_errors(doc):
    try:
        algio.algebra_from_dict(doc)
    except (AlgebraError, ParseError):
        pass


@settings(max_examples=100)
@given(poly_strings)
def test_invariant_strings_load_or_raise_input_errors(text):
    doc = {"label": "sl2", "basis": list(NAMES), "invariants": [text],
           "brackets": [{"pair": [0, 1], "coeffs": {"e": "-2"}},
                        {"pair": [0, 2], "coeffs": {"h": "1"}},
                        {"pair": [1, 2], "coeffs": {"f": "-2"}}]}
    try:
        algio.algebra_from_dict(doc)
    except (AlgebraError, ParseError):
        pass
