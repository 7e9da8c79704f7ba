"""Null-fiber stratification and equidimensionality diagnostics.

The null fiber N of an invariant set is the common zero locus of its members.
One truncation level up, membership of (xi_0, xi_1) in N<1> is equivalent to
xi_1 lying on N with xi_0 annihilated by every invariant differential at
xi_1; the machinery here checks that characterization at seeded points,
classifies points by the rank of the invariant differentials (the stratum
index), computes fiber dimensions of the projection to the base exactly, and
aggregates per-stratum dimension estimates against the equidimensionality
target 2(dim q - l).

Stratum dimensions are never computed by elimination: they come from supplied
rational parametrizations (audited by Jacobian rank) plus exact kernel
dimensions.  The findings are therefore sampled evidence with exact
arithmetic, not proofs of component structure.

Kernel points are sampled on integers: the exact kernel basis is cleared to
integer vectors over one common denominator, combined with random integer
coefficients, and each coordinate is divided by the denominator once.  The
N<1> loop flattens each sample once and evaluates its membership once on
that flat point; a member then gets the containment bounds without a second
membership evaluation.

`sl2_chain` packages the three-level run over sl2, with one level-1 family
serving the N<1> characterization and level 2: level 1 attains the target
with no excess, level 2 exhibits two target-dimensional strata one of which
avoids the independence locus (reducibility evidence one level up), and
level 3 exceeds the target over the bad component (non-equidimensionality
evidence).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import linalg, sampling
from .liealg import (
    AlgebraError,
    DualPoint,
    InvariantSet,
    LieAlgebra,
    differential_matrix,
    omega_test,
)
from .polyring import Scalar, _common_denominator, _over
from .raistauvel import InvariantFamily, build_family, family_rank_at
from .report import FAIL, PASS, Check, Report
from .takiff import TakiffDualPoint, flatten_point

__all__ = [
    "NilfiberError",
    "StratumSample",
    "null_fiber_member",
    "check_N1_characterization",
    "stratum_index",
    "fiber_dim_over",
    "lemma_containment_check",
    "equidim_diagnostic",
    "sl2_chain",
]

_REF_N1 = ("N<1> = {(xi_0, xi_1) : every f_i vanishes at xi_1 and "
           "<(df_i)_{xi_1}, xi_0> = 0}")
_REF_LEMMA = "on N<1>: 2i <= J <= l+i for base stratum index i and full span J"
_REF_EQUIDIM = "equidimensional target: dim N<1> = 2(dim q - l)"


class NilfiberError(AlgebraError):
    """Precondition violation in the null-fiber layer."""


def null_fiber_member(fam: InvariantFamily, components: TakiffDualPoint) -> bool:
    """True iff every family member vanishes exactly at the point."""
    return _family_vanishes(fam, flatten_point(fam.takiff_algebra, components))


def _family_vanishes(fam: InvariantFamily, flat: dict[str, Scalar]) -> bool:
    return all(F.evaluate(flat) == 0 for _, _, F in fam.members())


def stratum_index(fs: InvariantSet, point: DualPoint) -> int:
    """Rank of the invariant differentials at the point (0..l)."""
    return linalg.rank(differential_matrix(fs.polys, point))


def fiber_dim_over(fs: InvariantSet, point: DualPoint) -> int:
    """Exact dimension of {xi_0 : <(df_i)_point, xi_0> = 0}; point must lie on N."""
    off = [str(f) for f in fs.polys if f.evaluate(point)]
    if off:
        raise NilfiberError(f"point is not on the null fiber; nonzero: {off}")
    return fs.algebra.dim - stratum_index(fs, point)


def lemma_containment_check(fam: InvariantFamily, components: TakiffDualPoint) -> Check:
    """Bounds 2i <= J <= l+i for one point of N<1>."""
    if fam.depth != 1:
        raise NilfiberError("containment bounds are stated for one truncation level")
    flat = flatten_point(fam.takiff_algebra, components)
    if not _family_vanishes(fam, flat):
        raise NilfiberError("point is not on the null fiber")
    return _lemma_bounds(fam, components[1], flat)


def _lemma_bounds(fam: InvariantFamily, xi1: DualPoint, flat: dict[str, Scalar]) -> Check:
    # the bounds at a point of N<1> with top component xi1, given flat; the
    # caller has established membership
    i = stratum_index(fam.base, xi1)
    J = family_rank_at(fam, flat)
    ok = 2 * i <= J <= fam.l + i
    return Check(name="lemma-bounds", status=PASS if ok else FAIL,
                 paper_ref=_REF_LEMMA,
                 witness={"i": i, "J": J, "lower": 2 * i, "upper": fam.l + i})


def _pairing_vanishes(fs: InvariantSet, xi1: DualPoint, xi0: DualPoint) -> bool:
    vec0 = [xi0[b] for b in fs.algebra.basis]
    for f in fs.polys:
        grad = f.gradient_at(xi1)
        if sum(g * v for g, v in zip(grad, vec0)):
            return False
    return True


def _kernel_point(rows: list[list[Scalar]], names: Sequence[str], r,
                  bound: int = sampling.DEFAULT_BOUND,
                  guard: Callable[[dict[str, Scalar]], bool] | None = None,
                  ) -> dict[str, Scalar]:
    """Random integer combination of an exact kernel basis, optionally guarded.

    The basis is cleared once to integer vectors over one common denominator
    D; each draw combines those in `int` and divides every coordinate by D
    once, so coordinates are `int` when integral and `Fraction` otherwise.
    """
    basis = linalg.nullspace(rows, ncols=len(names))
    if not basis:
        raise NilfiberError("kernel is trivial; no point to sample")
    den = _common_denominator(x for v in basis for x in v)
    columns = list(zip(*([x.numerator * (den // x.denominator) for x in v] for v in basis)))
    for _ in range(100):
        coeffs = sampling.uniform_ints(r, len(basis), bound)
        vec = [sum(map(operator.mul, coeffs, col)) for col in columns]
        if any(vec):
            pt = dict(zip(names, [_over(x, den) for x in vec]))
            if guard is None or guard(pt):
                return pt
    raise NilfiberError("could not sample a guarded kernel point in 100 draws")


def check_N1_characterization(L: LieAlgebra, fs: InvariantSet,
                              samples: int = 50, seed: int = 0,
                              cone: Callable[..., tuple] | None = None) -> Report:
    """Membership in N<1> versus the base-level characterization, pointwise.

    The two sides are computed by independent routes: the left evaluates the
    expanded family on the graded algebra, the right evaluates the base
    invariants and their differentials only.  The point schedule mixes cone
    points with compatible and incompatible xi_0, fully random points, and
    xi_1 = 0, so both truth values occur.  Points found on the fiber also
    get the span-containment bounds checked.  ``samples`` below 1 raises
    ValueError.
    """
    if samples < 1:
        raise ValueError(f"the N<1> check needs at least one sample, got {samples}")
    return _n1_characterization(L, build_family(L, 1, fs), samples, seed, cone)


def _n1_characterization(L: LieAlgebra, fam: InvariantFamily, samples: int, seed: int,
                         cone: Callable[..., tuple] | None) -> Report:
    # one pass per sample: membership is evaluated once, on the point
    # flattened once for it, and a member gets its bounds without a re-check
    fs = fam.base
    rep = Report(label=f"nilfiber:{L.label}:N1")
    t0 = time.perf_counter()
    member_cases = 0
    mismatch = None
    bound_violations = []
    streams = sampling.streams(seed, sampling.TAG_NULLFIBER)
    for t in range(samples):
        r = streams(t)
        kind = t % 5
        if kind <= 2 and cone is not None:
            _, xi1 = cone(r)
        elif kind == 4:
            xi1 = {b: 0 for b in L.basis}
        else:
            xi1 = sampling.random_coords(L.basis, r)
        if kind == 2:
            try:
                xi0 = _kernel_point(differential_matrix(fs.polys, xi1), L.basis, r)
            except NilfiberError:
                xi0 = sampling.random_coords(L.basis, r)
        else:
            xi0 = sampling.random_coords(L.basis, r)
        flat = flatten_point(fam.takiff_algebra, [xi0, xi1])
        lhs = _family_vanishes(fam, flat)
        rhs = all(f.evaluate(xi1) == 0 for f in fs.polys) and \
            _pairing_vanishes(fs, xi1, xi0)
        if lhs != rhs and mismatch is None:
            mismatch = {"sample": t, "family_vanishes": lhs,
                        "characterization_holds": rhs,
                        "xi0": {k: str(v) for k, v in xi0.items()},
                        "xi1": {k: str(v) for k, v in xi1.items()}}
        if lhs:
            member_cases += 1
            c = _lemma_bounds(fam, xi1, flat)
            if c.status != PASS:
                bound_violations.append(c.witness)
    rep.add(Check(name="null-fiber-characterization",
                  status=FAIL if mismatch else PASS, paper_ref=_REF_N1,
                  witness=mismatch or {"samples": samples, "agreements": samples,
                                       "member_cases": member_cases,
                                       "nonmember_cases": samples - member_cases},
                  seed=seed, elapsed=time.perf_counter() - t0))
    rep.add(Check(name="lemma-bounds",
                  status=FAIL if bound_violations else PASS, paper_ref=_REF_LEMMA,
                  witness={"points_checked": member_cases,
                           "violations": bound_violations},
                  seed=seed))
    return rep


@dataclass(frozen=True)
class StratumSample:
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


def equidim_diagnostic(L: LieAlgebra, fs: InvariantSet,
                       strata_samples: Sequence[StratumSample]) -> Report:
    """Per-stratum dimension estimates against the target 2(dim q - l).

    Each stratum contributes declared_dim + (dim q - stratum index); an
    estimate above the target is flagged as excess (the fiber map cannot be
    equidimensional over that stratum), and two target-dimensional strata of
    which one avoids the independence locus are flagged as reducibility
    evidence for the fiber one level up.  Stratum names must be distinct:
    each names its check and its entry in the verdict's totals.
    """
    seen: set[str] = set()
    for s in strata_samples:
        if s.name in seen:
            raise NilfiberError(f"two strata are named '{s.name}'")
        seen.add(s.name)
    rep = Report(label=f"equidim:{L.label}")
    target = 2 * (L.dim - len(fs))
    totals: dict[str, int] = {}
    meets: dict[str, bool] = {}
    for s in strata_samples:
        t0 = time.perf_counter()
        if not s.points:
            raise NilfiberError(f"stratum '{s.name}' has no sample points")
        bad = None
        for pt in s.points:
            idx = stratum_index(fs, pt)
            if idx != s.declared_index:
                bad = {"declared_index": s.declared_index, "computed": idx,
                       "point": {k: str(v) for k, v in pt.items()}}
                break
        if bad is not None:
            rep.add(Check(name=f"stratum:{s.name}", status=FAIL,
                          paper_ref=_REF_EQUIDIM, witness=bad,
                          elapsed=time.perf_counter() - t0))
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
                      paper_ref=_REF_EQUIDIM, witness=witness,
                      elapsed=time.perf_counter() - t0))
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

def _zero_point(L: LieAlgebra) -> dict[str, int]:
    return {b: 0 for b in L.basis}


def sl2_chain(levels: int = 3, seed: int = 0,
              points_per_stratum: int = 5) -> Report:
    """Null-fiber runs over sl2, one truncation level at a time.

    Level k analyzes the null fiber one step above the (k-1)-fold truncation;
    level 1 also carries the pointwise membership characterization and the
    span-containment bounds.  ``points_per_stratum`` below 1 raises
    ValueError.
    """
    from . import catalog

    if not 1 <= levels <= 3:
        raise ValueError("the sl2 chain is built for levels 1..3")
    if points_per_stratum < 1:
        raise ValueError(f"each stratum needs at least one point, got {points_per_stratum}")
    entry = catalog.load("sl2")
    L0, fs0 = entry.algebra, entry.invariants
    cone = entry.parametrizations["nilcone"]
    rep = Report(label=f"nilfiber:sl2:chain:{levels}")

    # one level-1 family serves the N<1> characterization and level 2
    fam1 = build_family(L0, 1, fs0)
    n1 = _n1_characterization(L0, fam1, samples=50, seed=seed, cone=cone.sample)
    rep.extend_prefixed("n1:", n1.checks)

    def cone_point(r):
        return cone.sample(r)[1]

    # level 1: strata of the sl2 null cone itself
    origin = StratumSample(name="origin", points=(_zero_point(L0),),
                           declared_dim=0, declared_index=0,
                           dim_audit={"construction": "single point"})
    pts = []
    audit_rank = 0
    streams = sampling.streams(seed, sampling.TAG_STRATA, 1)
    for t in range(points_per_stratum):
        r = streams(t)
        vals, pt = cone.sample(r)
        audit_rank = max(audit_rank, cone.jacobian_rank_at(vals))
        pts.append(pt)
    principal = StratumSample(
        name="principal-nilpotent", points=tuple(pts),
        declared_dim=cone.declared_dim, declared_index=1,
        dim_audit={"construction": "cone parametrization",
                   "parameter_dim": cone.declared_dim,
                   "jacobian_rank": audit_rank})
    rep.extend_prefixed("level1:", equidim_diagnostic(L0, fs0, [origin, principal]).checks)
    if levels == 1:
        return rep

    L1, fs1 = fam1.takiff_algebra, fam1.invariant_set(claimed_index=2)

    # level 2: N<1> strata; the fiber over a cone point is an exact kernel
    reg_pts = []
    streams = sampling.streams(seed, sampling.TAG_STRATA, 2)
    for t in range(points_per_stratum):
        r = streams(t)
        _, xi1 = cone.sample(r)
        xi0 = _kernel_point(differential_matrix(fs0.polys, xi1), L0.basis, r)
        reg_pts.append(flatten_point(L1, [xi0, xi1]))
    regular = StratumSample(
        name="regular", points=tuple(reg_pts), declared_dim=4, declared_index=2,
        dim_audit={"construction": "cone parametrization + exact kernel",
                   "parameter_dim": 2, "kernel_dim": 2})
    deg_pts = []
    streams = sampling.streams(seed, sampling.TAG_STRATA, 3)
    for t in range(points_per_stratum):
        r = streams(t)
        xi0 = sampling.random_coords(L0.basis, r)
        while not any(xi0.values()):
            xi0 = sampling.random_coords(L0.basis, r)
        deg_pts.append(flatten_point(L1, [xi0, _zero_point(L0)]))
    degenerate = StratumSample(
        name="degenerate", points=tuple(deg_pts), declared_dim=3, declared_index=1,
        dim_audit={"construction": "linear slice xi_1 = 0",
                   "parameter_dim": 3, "kernel_dim": 0})
    rep.extend_prefixed("level2:", equidim_diagnostic(L1, fs1, [regular, degenerate]).checks)
    if levels == 2:
        return rep

    fam2 = build_family(L1, 1, fs1)
    L2, fs2 = fam2.takiff_algebra, fam2.invariant_set(claimed_index=4)
    casimir = fs0.polys[0]
    grade1 = [b for b in L1.basis if L1.grading.grade_of[b] == 1]

    # level 3: the component of the level-2 fiber sitting over the degenerate
    # stratum.  eta_1 = (xi_0, 0) with xi_0 off the cone keeps the sample on
    # the open part; eta_0 runs through the exact 5-dimensional kernel, guarded
    # so its grade-1 block is nonzero (again the open part).
    bad_pts = []
    kernel_dim = None
    streams = sampling.streams(seed, sampling.TAG_STRATA, 4)
    for t in range(points_per_stratum):
        r = streams(t)
        xi0 = sampling.random_coords(L0.basis, r)
        while casimir.evaluate(xi0) == 0:
            xi0 = sampling.random_coords(L0.basis, r)
        eta1 = flatten_point(L1, [xi0, _zero_point(L0)])
        kernel_dim = fiber_dim_over(fs1, eta1)
        eta0 = _kernel_point(differential_matrix(fs1.polys, eta1), L1.basis, r,
                             guard=lambda p: any(p[b] for b in grade1))
        bad_pts.append(flatten_point(L2, [eta0, eta1]))
    bad = StratumSample(
        name="bad-component", points=tuple(bad_pts),
        declared_dim=3 + kernel_dim, declared_index=3,
        dim_audit={"construction": "linear slice + exact kernel",
                   "parameter_dim": 3, "kernel_dim": kernel_dim})
    rep.extend_prefixed("level3:", equidim_diagnostic(L2, fs2, [bad]).checks)
    return rep
