"""JSON file formats for algebras and invariant families.

Algebra files:

    {
      "label": "sl2",
      "basis": ["e", "h", "f"],
      "brackets": [{"pair": [0, 1], "coeffs": {"e": "-2"}}, ...],
      "invariants": ["h^2 + 4*e*f"],
      "flags": {"no_proper_semiinvariants": true},
      "grading": {...}            # only on constructed truncations
    }

A grading block must be the one `TakiffGrading.to_dict` writes for the
file's basis, which must be grade-major; it is checked when the file is read.

Basis names are variable names of the polynomial grammar (`parse_poly`):
a letter or underscore, then letters, digits and underscores, then any
grade suffixes ``@j``; a name such as "1" or "y z" is refused, since no
invariant string could spell it.  Pairs are 0-based indices into the
basis; coefficients are keyed by target basis name.  A coefficient is a
JSON integer or a string matching ``-?[0-9]+(/[0-9]+)?`` ("p/q" with an
optional sign on p); anything else (a float, a boolean, exponent notation
such as "1e3") is rejected before any arithmetic.  All emitted JSON is
sorted and newline-terminated so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .liealg import AlgebraFormatError, InvariantSet, LieAlgebra
from .polyring import _IDENT_RE, parse_poly
from .raistauvel import InvariantFamily
from .takiff import TakiffGrading

__all__ = [
    "algebra_to_dict",
    "algebra_from_dict",
    "family_to_dict",
    "dump_json",
    "load_algebra_file",
    "write_algebra_file",
]


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _coefficient(val, name: str) -> Fraction:
    """A bracket coefficient: a JSON integer or a "p/q" string, nothing else."""
    if type(val) is int:
        return Fraction(val)
    if isinstance(val, str) and _RATIONAL_RE.fullmatch(val):
        try:
            return Fraction(val)
        except (ValueError, ZeroDivisionError) as e:
            raise AlgebraFormatError(f"bad rational {val[:20]!r} for '{name}'") from e
    raise AlgebraFormatError(
        f"bad rational {str(val)[:20]!r} for '{name}': expected an integer or a 'p/q' string")


def algebra_to_dict(L: LieAlgebra, invariants: InvariantSet | None = None,
                    flags: Mapping[str, bool] | None = None) -> dict:
    brackets = []
    for (i, j) in sorted(L.brackets):
        coeffs = {L.basis[k]: str(c)
                  for k, c in sorted(L.brackets[(i, j)].items())}
        brackets.append({"pair": [i, j], "coeffs": coeffs})
    out = {
        "label": L.label,
        "basis": list(L.basis),
        "brackets": brackets,
        "invariants": [str(f) for f in invariants.polys] if invariants else [],
        "flags": dict(flags) if flags else {},
    }
    if isinstance(L.grading, TakiffGrading):
        out["grading"] = L.grading.to_dict()
    return out


def algebra_from_dict(d: Mapping) -> tuple[LieAlgebra, InvariantSet]:
    """Parse an algebra file; raises AlgebraFormatError on malformed data.

    ``flags`` is informational: a value that is not an object is refused,
    and the flags are not returned.
    """
    try:
        label = d["label"]
        basis = d["basis"]
        raw_brackets = d["brackets"]
    except (KeyError, TypeError) as e:
        raise AlgebraFormatError(f"missing or malformed field: {e}") from e
    if not isinstance(label, str) or not isinstance(basis, list) or not basis or \
            not all(isinstance(b, str) for b in basis):
        raise AlgebraFormatError("'label' must be a string and 'basis' a list of names")
    for b in basis:
        if not _IDENT_RE.fullmatch(b):
            raise AlgebraFormatError(f"basis name {b[:20]!r} is not a variable name that "
                                     f"a polynomial can spell")
    if not isinstance(raw_brackets, list):
        raise AlgebraFormatError("'brackets' must be a list of bracket entries")
    name_idx = {b: i for i, b in enumerate(basis)}
    entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in raw_brackets:
        try:
            pair = entry["pair"]
            coeffs = entry["coeffs"]
        except (KeyError, TypeError) as e:
            raise AlgebraFormatError(f"malformed bracket entry {entry!r}") from e
        if not isinstance(pair, list) or len(pair) != 2 or \
                not all(type(x) is int for x in pair):
            raise AlgebraFormatError(f"'pair' of bracket entry {entry!r} must be two integers")
        i, j = pair
        if not isinstance(coeffs, dict):
            raise AlgebraFormatError(f"'coeffs' of bracket entry {entry!r} must be an object")
        vec: dict[int, Fraction] = {}
        for name, val in coeffs.items():
            if name not in name_idx:
                raise AlgebraFormatError(f"bracket coefficient targets unknown name '{name}'")
            vec[name_idx[name]] = _coefficient(val, name)
        if (i, j) in entries or (j, i) in entries:
            raise AlgebraFormatError(f"duplicate bracket entry for pair ({i}, {j})")
        entries[(i, j)] = vec
    grading = None
    if "grading" in d:
        try:
            grading = TakiffGrading.from_dict(d["grading"], basis)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
            raise AlgebraFormatError(f"malformed grading block: {e}") from e
    invariants = d.get("invariants", [])
    if not isinstance(invariants, list) or \
            not all(isinstance(s, str) for s in invariants):
        raise AlgebraFormatError("'invariants' must be a list of polynomial strings")
    if not isinstance(d.get("flags", {}), dict):
        raise AlgebraFormatError("'flags' must be an object")
    L = LieAlgebra.create(label, basis, entries, grading=grading)
    polys = tuple(parse_poly(s, L.basis) for s in invariants)
    return L, InvariantSet(algebra=L, polys=polys)


def family_to_dict(fam: InvariantFamily) -> dict:
    return {
        "label": fam.algebra.label,
        "m": fam.depth,
        "base": {
            "label": fam.base.algebra.label,
            "invariants": [str(f) for f in fam.base.polys],
            "degrees": list(fam.base.degrees()),
        },
        "family": [
            {"i": i, "j": j, "degree": d, "poly": str(F)}
            for (i, j, F), d in zip(fam.members(), fam.degrees())
        ],
    }


def dump_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_algebra_file(path: str | Path) -> tuple[LieAlgebra, InvariantSet]:
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # bad JSON, bad UTF-8, an integer past the digit limit
        raise AlgebraFormatError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(d, dict):
        raise AlgebraFormatError(f"{path} must contain a JSON object")
    return algebra_from_dict(d)


def write_algebra_file(path: str | Path, L: LieAlgebra,
                       invariants: InvariantSet | None = None,
                       flags: Mapping[str, bool] | None = None) -> None:
    dump_json(path, algebra_to_dict(L, invariants, flags))
