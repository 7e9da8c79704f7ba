"""Null-fiber stratification and equidimensionality diagnostics.

The null fiber N of an invariant set is the common zero locus of its members.
One truncation level up, membership of (xi_0, xi_1) in N<1> is equivalent to
xi_1 lying on N with xi_0 annihilated by every invariant differential at
xi_1.  That characterization is certified with no point sampled, by the
structure `raistauvel.InvariantFamily` enforces on every family: each term
of F_i^j has weight j, so F_i^0 lives on grade 1 and every term of F_i^1
has exactly one grade-0 factor, and the derivative identity
dF_i^j/d(b@(1-j)) = (df_i/db)(xi_1) then makes F_i^0 = f_i(xi_1) and
F_i^1 = <(df_i)_{xi_1}, xi_0> as polynomials.  The same identity makes the
family Jacobian [[0, A], [A, B]] with A = J_f(xi_1), which bounds its rank
by the span-containment bounds at every point; one drawn point of N<1>
keeps a concrete rank as witness.

The machinery here also classifies points by the rank of the invariant
differentials (the stratum index), computes fiber dimensions of the
projection to the base exactly, and aggregates per-stratum dimension
estimates against the equidimensionality target 2(dim q - l).  Stratum
dimensions are never computed by elimination: they come from supplied
rational parametrizations (audited by Jacobian rank) plus exact kernel
dimensions.  Those findings are therefore sampled evidence with exact
arithmetic, not proofs of component structure.

Points are coordinate lists, so a point of L<1> is its components' lists
concatenated.  Kernel points are sampled on integers: the exact kernel
basis is cleared to integer vectors over one common denominator, combined
with random integer coefficients, and each coordinate is divided by the
denominator once.

`sl2_chain` packages the three-level run over sl2, with one level-1 family
serving the N<1> certificate and level 2: level 1 attains the target with
no excess, level 2 exhibits two target-dimensional strata one of which
avoids the independence locus (reducibility evidence one level up), and
level 3 exceeds the target over the bad component (non-equidimensionality
evidence).
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Sequence

from . import catalog, linalg, sampling
from .liealg import (
    AlgebraError,
    DualPoint,
    InvariantSet,
    check_point,
    differential_matrix,
    omega_test,
)
from .polyring import Scalar, _common_denominator, _over
from .raistauvel import InvariantFamily, build_family, family_rank_at
from .report import FAIL, PASS, Check, Report

__all__ = [
    "NilfiberError",
    "StratumSample",
    "check_N1_characterization",
    "stratum_index",
    "equidim_diagnostic",
    "sl2_chain",
]

_REF_N1 = ("N<1> = {(xi_0, xi_1) : every f_i vanishes at xi_1 and "
           "<(df_i)_{xi_1}, xi_0> = 0}")
_REF_LEMMA = "on N<1>: 2i <= J <= l+i for base stratum index i and full span J"
_REF_EQUIDIM = "equidimensional target: dim N<1> = 2(dim q - l)"


class NilfiberError(AlgebraError):
    """Precondition violation in the null-fiber layer."""


def stratum_index(fs: InvariantSet, point: DualPoint) -> int:
    """Rank of the invariant differentials at the point (0..l)."""
    return linalg.rank(differential_matrix(fs.polys, point))


def _fiber_kernel(fs: InvariantSet, point: DualPoint) -> list[list[Scalar]]:
    """Exact basis of {xi_0 : <(df_i)_point, xi_0> = 0}, the fiber over a point of N."""
    return linalg.nullspace(differential_matrix(fs.polys, point), ncols=fs.algebra.dim)


def _kernel_point(basis: list[list[Scalar]], r,
                  guard: Callable[[list[Scalar]], bool] | None = None) -> list[Scalar]:
    """Random integer combination of an exact kernel basis, optionally guarded.

    The basis is cleared once to integer vectors over one common denominator
    D; each draw combines those in `int` and divides every coordinate by D
    once, so coordinates are `int` when integral and `Fraction` otherwise.
    """
    if not basis:
        raise NilfiberError("kernel is trivial; no point to sample")
    den = _common_denominator(x for v in basis for x in v)
    columns = list(zip(*([x.numerator * (den // x.denominator) for x in v] for v in basis)))
    for _ in range(100):
        coeffs = sampling.uniform_ints(r, len(basis), sampling.DEFAULT_BOUND)
        vec = [sum(map(operator.mul, coeffs, col)) for col in columns]
        if any(vec):
            pt = [_over(x, den) for x in vec]
            if guard is None or guard(pt):
                return pt
    raise NilfiberError("could not sample a guarded kernel point in 100 draws")


def check_N1_characterization(fam: InvariantFamily, seed: int = 0,
                              cone: Callable[..., tuple] | None = None) -> Report:
    """The depth-one null fiber of the level-1 ``fam`` against its base characterization.

    Two checks on the family, both certificates of the structure every
    family has (see the module docstring).  `null-fiber-characterization`
    PASSes when membership in N<1> equals the characterization at every
    point; it draws nothing and carries no seed.  `lemma-bounds` PASSes
    when 2i <= J <= l+i holds at every point of q<1>*, and ranks one point
    of N<1> as witness, drawn from ``sampling.rng(seed, TAG_NULLFIBER, 2)``:
    xi_1 from ``cone(r)`` (a callable returning (parameters, point), as
    `catalog.Parametrization.sample` does, the point a dual point of the
    base that `liealg.check_point` reads), or 0 without a cone, and xi_0 in
    the kernel of the differentials at xi_1.
    """
    # Weight 0 puts F_i^0 on grade 1 and the identity gives it the gradient
    # of f_i(xi_1); both are homogeneous of degree >= 1, so Euler's relation
    # makes them equal.  Weight 1 gives every term of F_i^1 one grade-0
    # factor, and the identity its partials (df_i/db)(xi_1), so Euler's
    # relation in the grade-0 variables makes F_i^1 = <(df_i)_{xi_1}, xi_0>.
    if fam.depth != 1:
        raise NilfiberError(f"N<1> needs a level-1 family, got depth {fam.depth}")
    rep = Report(label=f"nilfiber:{fam.base.algebra.label}:N1")
    rep.add(Check(name="null-fiber-characterization", status=PASS, paper_ref=_REF_N1,
                  witness={"mode": "derivative-identity"}))
    rep.add(_lemma_bounds(fam, seed, cone))
    return rep


def _lemma_bounds(fam: InvariantFamily, seed: int, cone: Callable[..., tuple] | None) -> Check:
    # With the identity the family Jacobian is [[0, A], [A, B]], A = J_f(xi_1)
    # of rank i, so 2i <= J <= l+i everywhere; one point of N<1> is ranked.
    # The kernel of A gives both xi_0 and, by rank-nullity, i.  family_rank_at
    # ranks A first: at i = l it returns J = 2l with no member gradient, and
    # below l it ranks the members.
    L = fam.base.algebra
    r = sampling.rng(seed, sampling.TAG_NULLFIBER, 2)
    xi1 = check_point(L, cone(r)[1]) if cone is not None else [0] * L.dim
    kernel = _fiber_kernel(fam.base, xi1)
    try:
        xi0 = _kernel_point(kernel, r)
    except NilfiberError:
        xi0 = [0] * L.dim    # trivial kernel: the fiber over xi_1 is the origin
    flat = xi0 + xi1
    i = L.dim - len(kernel)
    J = family_rank_at(fam, flat)
    bounds = {"i": i, "J": J, "lower": 2 * i, "upper": fam.l + i}
    ok = 2 * i <= J <= fam.l + i
    violations = [] if ok else [
        dict(bounds, point=dict(zip(fam.algebra.basis, map(str, flat))))]
    return Check(name="lemma-bounds", status=PASS if ok else FAIL, paper_ref=_REF_LEMMA,
                 witness={"mode": "derivative-identity", **bounds, "violations": violations},
                 seed=seed)


class StratumSample(NamedTuple):
    """Sampled points of one stratum with its externally supplied dimension.

    declared_dim comes from a parametrization (parameter count, audited by
    Jacobian rank) plus exact kernel dimensions; dim_audit records the pieces.
    declared_index is the generic differential-span rank on the stratum and is
    re-checked at every point.
    """

    name: str
    points: tuple[DualPoint, ...]
    declared_dim: int
    declared_index: int
    dim_audit: dict | None = None


def equidim_diagnostic(fs: InvariantSet, strata_samples: Sequence[StratumSample]) -> Report:
    """Per-stratum dimension estimates against the target 2(dim q - l), q = ``fs.algebra``.

    Each stratum contributes declared_dim + (dim q - stratum index); an
    estimate above the target is flagged as excess (the fiber map cannot be
    equidimensional over that stratum), and two target-dimensional strata of
    which one avoids the independence locus are flagged as reducibility
    evidence for the fiber one level up.  There must be at least one
    stratum, and stratum names must be distinct: each names its check and
    its entry in the verdict's totals.
    """
    if not strata_samples:
        raise NilfiberError("no strata to diagnose")
    seen: set[str] = set()
    for s in strata_samples:
        if s.name in seen:
            raise NilfiberError(f"two strata are named '{s.name}'")
        seen.add(s.name)
    L = fs.algebra
    rep = Report(label=f"equidim:{L.label}")
    target = 2 * (L.dim - len(fs))
    totals: dict[str, int] = {}
    meets: dict[str, bool] = {}
    for s in strata_samples:
        if not s.points:
            raise NilfiberError(f"stratum '{s.name}' has no sample points")
        bad = None
        for pt in s.points:
            idx = stratum_index(fs, pt)
            if idx != s.declared_index:
                bad = {"declared_index": s.declared_index, "computed": idx,
                       "point": dict(zip(L.basis, map(str, check_point(L, pt))))}
                break
        if bad is not None:
            rep.add(Check(name=f"stratum:{s.name}", status=FAIL,
                          paper_ref=_REF_EQUIDIM, witness=bad))
            continue
        # every point has the declared index, so one point decides this
        meets_omega = omega_test(fs, s.points[0])
        fiber = L.dim - s.declared_index
        total = s.declared_dim + fiber
        totals[s.name] = total
        meets[s.name] = meets_omega
        witness = {"points": len(s.points), "declared_dim": s.declared_dim,
                   "stratum_index": s.declared_index, "fiber_dim": fiber,
                   "total": total, "target": target, "excess": total > target,
                   "meets_omega": meets_omega}
        if s.dim_audit:
            witness["dim_audit"] = s.dim_audit
        if total > target:
            witness["flag"] = ("excess dimension: the fiber map is not "
                               "equidimensional over this stratum")
        rep.add(Check(name=f"stratum:{s.name}", status=PASS,
                      paper_ref=_REF_EQUIDIM, witness=witness))
    attaining = sorted(n for n, v in totals.items() if v == target)
    avoiding = sorted(n for n, v in meets.items() if not v)
    excess = sorted(n for n, v in totals.items() if v > target)
    rep.add(Check(name="equidim-verdict", status=PASS, paper_ref=_REF_EQUIDIM,
                  witness={"target": target, "totals": totals,
                           "excess_strata": excess,
                           "attaining_strata": attaining,
                           "strata_avoiding_omega": avoiding,
                           "reducibility_evidence": len(attaining) >= 2 and
                           bool(set(attaining) & set(avoiding)),
                           "equidimensional_over_samples": not excess}))
    return rep


# ---------------------------------------------------------------------------
# the three-level sl2 chain
# ---------------------------------------------------------------------------

# sampled points per stratum of the sl2 chain
_POINTS_PER_STRATUM = 5


def sl2_chain(levels: int = 3, seed: int = 0) -> Report:
    """Null-fiber runs over sl2, one truncation level at a time.

    Level k analyzes the null fiber one step above the (k-1)-fold truncation;
    level 1 also carries the certified membership characterization and the
    span-containment bounds of `check_N1_characterization`.  Each family is
    the next level's invariant set; strata get `_POINTS_PER_STRATUM` points.
    """
    if not 1 <= levels <= 3:
        raise ValueError("the sl2 chain is built for levels 1..3")
    entry = catalog.load("sl2")
    L0, fs0 = entry.algebra, entry.invariants
    cone = entry.parametrizations["nilcone"]
    rep = Report(label=f"nilfiber:sl2:chain:{levels}")

    # one level-1 family serves the N<1> certificate and level 2
    fam1 = build_family(fs0, 1)
    rep.extend_prefixed("n1:", check_N1_characterization(fam1, seed, cone.sample).checks)

    # level 1: strata of the sl2 null cone itself
    origin = StratumSample(name="origin", points=([0] * L0.dim,),
                           declared_dim=0, declared_index=0,
                           dim_audit={"construction": "single point"})
    drawn, audit_rank = cone.audit(sampling.streams(seed, sampling.TAG_STRATA, 1),
                                   _POINTS_PER_STRATUM)
    principal = StratumSample(
        name="principal-nilpotent", points=tuple(pt for _, pt in drawn),
        declared_dim=cone.declared_dim, declared_index=1,
        dim_audit={"construction": "cone parametrization",
                   "parameter_dim": cone.declared_dim,
                   "jacobian_rank": audit_rank})
    rep.extend_prefixed("level1:", equidim_diagnostic(fs0, [origin, principal]).checks)
    if levels == 1:
        return rep

    # level 2: N<1> strata; the fiber over a cone point is an exact kernel
    reg_pts = []
    streams = sampling.streams(seed, sampling.TAG_STRATA, 2)
    for t in range(_POINTS_PER_STRATUM):
        r = streams(t)
        _, xi1 = cone.sample(r)
        reg_pts.append(_kernel_point(_fiber_kernel(fs0, xi1), r) + xi1)
    regular = StratumSample(
        name="regular", points=tuple(reg_pts), declared_dim=4, declared_index=2,
        dim_audit={"construction": "cone parametrization + exact kernel",
                   "parameter_dim": 2, "kernel_dim": 2})
    deg_pts = []
    streams = sampling.streams(seed, sampling.TAG_STRATA, 3)
    for t in range(_POINTS_PER_STRATUM):
        r = streams(t)
        xi0 = sampling.random_coords(L0.basis, r)
        while not any(xi0):
            xi0 = sampling.random_coords(L0.basis, r)
        deg_pts.append(xi0 + [0] * L0.dim)
    degenerate = StratumSample(
        name="degenerate", points=tuple(deg_pts), declared_dim=3, declared_index=1,
        dim_audit={"construction": "linear slice xi_1 = 0",
                   "parameter_dim": 3, "kernel_dim": 0})
    rep.extend_prefixed("level2:", equidim_diagnostic(fam1, [regular, degenerate]).checks)
    if levels == 2:
        return rep

    fam2 = build_family(fam1, 1)
    casimir = fs0.polys[0]

    # level 3: the component of the level-2 fiber sitting over the degenerate
    # stratum.  eta_1 = (xi_0, 0) with xi_0 off the cone keeps the sample on
    # the open part; eta_0 runs through the exact 5-dimensional kernel, guarded
    # so its grade-1 block is nonzero (again the open part).
    bad_pts = []
    kernel_dim = None
    streams = sampling.streams(seed, sampling.TAG_STRATA, 4)
    for t in range(_POINTS_PER_STRATUM):
        r = streams(t)
        xi0 = sampling.random_coords(L0.basis, r)
        while casimir.evaluate(xi0) == 0:
            xi0 = sampling.random_coords(L0.basis, r)
        eta1 = xi0 + [0] * L0.dim
        kernel = _fiber_kernel(fam1, eta1)
        kernel_dim = len(kernel)
        eta0 = _kernel_point(kernel, r, guard=lambda p: any(p[L0.dim:]))
        bad_pts.append(eta0 + eta1)
    bad = StratumSample(
        name="bad-component", points=tuple(bad_pts),
        declared_dim=3 + kernel_dim, declared_index=3,
        dim_audit={"construction": "linear slice + exact kernel",
                   "parameter_dim": 3, "kernel_dim": kernel_dim})
    rep.extend_prefixed("level3:", equidim_diagnostic(fam2, [bad]).checks)
    return rep
