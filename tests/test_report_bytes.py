"""Golden digests of report files: the byte-identity contract, pinned.

Each case runs one CLI command with ``--report`` at a fixed seed, compares
the status of every check in report order with a pinned vector, then
compares the sha256 of the written JSON with a pinned digest.  The digests
were first recorded before the integer evaluation kernel replaced the
Fraction loops in `gradient_at`, `evaluate`, `kirillov_matrix`, `validate`
and `linalg.rank`.  A speed-up that changes a single byte of any of these
reports fails here.  A change that legitimately moves a byte re-pins the
digest and says why in CHANGES.md; the status vectors are pinned apart, so
a digest re-pin cannot hide a status move.

Every verify digest but the Jacobi-fail case's was re-pinned when
`jacobian-rank-on-omega` and `omega-transfer` became certificates of the
derivative identity: the first's PASS witness went from the number of
searched points to ``{"mode": "derivative-identity", "rank": (m+1)l}``, and
the second's from its sample counts to ``{"mode": "derivative-identity"}``
with a null seed.  Every status stayed as it was.  The `nilfiber` digest
was re-pinned when the chain's two `n1:` checks became certificates of the
same identity: `null-fiber-characterization` went from its 50-sample
counts to ``{"mode": "derivative-identity"}`` with a null seed, and
`lemma-bounds` from its count of fiber points to the bounds at one drawn
point of N<1>; every status stayed as it was.  The notes below say what
each case was recorded to exercise.

The last case is a Jacobi FAIL on an sl2-like algebra with a 1/3 structure
constant, so its witness carries rational residuals.  The `sl3<4>` and
`slnV3<2>` digests were recorded while invariance and the ideal check still
bracketed every basis element, before they bracketed a generating set.
The `sl3<8>` and `sl3<1,1,1>` digests were recorded while every transfer
sample and index trial still ranked a full (m+1)n-wide matrix, before the
grade-block triangularity decided those ranks.  The two-dimensional abelian
case, where the zero top is regular and no zero-row bound decides a sample,
was recorded while every zero-top sample was still drawn and ranked.
`heis1<3>` was recorded while every zero-top transfer sample still drew its
stream and asked `omega_test` at the zero point: its linear invariant z has
an independent differential at 0, so the zero top is in Omega, and ind
heis1<3> = 4 >= n = 3, so its zero tops still rank the full matrix.  `heis1<2,3>` was recorded
while the zero tops were bounded by the zero rows alone: at level 2, mn =
27 is not below dim - ind = 24, so they ranked the full matrix, where the
certified family's m(n - l) = 18 decides them.  `verify --multi 1,1` on the
1/3 algebra was recorded while every level still validated its own
truncation triple by triple: it pins the level-2 FAIL, whose base is
already non-Jacobi, now that the Jacobi check is certified from the base.
The four invariance FAILs, on sl2 with h^2 + 3ef and on the [e, f] = e
algebra with the sl2 Casimir, at one level and at two, were recorded while
`invariance` and `ideal-invariants` still bracketed every family member on
L<m>, before both were certified from the base invariants.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from takiffalg.cli import main
from takiffalg.report import FAIL, PASS, SKIPPED

ABELIAN_2 = {
    "label": "ab2",
    "basis": ["x", "y"],
    "brackets": [],
    "invariants": ["x", "y"],
    "flags": {},
}

BAD_JACOBI_THIRD = {
    "label": "badsl2third",
    "basis": ["e", "h", "f"],
    "brackets": [
        {"pair": [0, 1], "coeffs": {"e": "-2"}},
        {"pair": [0, 2], "coeffs": {"e": "1/3", "h": "1"}},
        {"pair": [1, 2], "coeffs": {"f": "-2"}},
    ],
    "invariants": [],
    "flags": {},
}

# sl2 with h^2 + 3ef, which is no invariant: invariance and the ideal check FAIL
SL2_NOT_INVARIANT = {
    "label": "sl2h3ef",
    "basis": ["e", "h", "f"],
    "brackets": [
        {"pair": [0, 1], "coeffs": {"e": "-2"}},
        {"pair": [0, 2], "coeffs": {"h": "1"}},
        {"pair": [1, 2], "coeffs": {"f": "-2"}},
    ],
    "invariants": ["h^2 + 3*e*f"],
    "flags": {},
}

# [e, f] = e instead of h: Jacobi fails, and the sl2 Casimir is no invariant
BAD_JACOBI_CASIMIR = {
    "label": "badsl2",
    "basis": ["e", "h", "f"],
    "brackets": [
        {"pair": [0, 1], "coeffs": {"e": "-2"}},
        {"pair": [0, 2], "coeffs": {"e": "1"}},
        {"pair": [1, 2], "coeffs": {"f": "-2"}},
    ],
    "invariants": ["h^2 + 4*e*f"],
    "flags": {},
}

_INVARIANCE_FAIL = [PASS, FAIL, FAIL] + [PASS] * 6
_JACOBI_INVARIANCE_FAIL = [FAIL, FAIL, FAIL] + [PASS] * 6

CASES = {
    "verify-m1-sl2": (["verify", "--m", "1", "sl2"],
                      [PASS] * 9,
                      "ff9420b3b1dd1793b3576b75b4873f1b2c8df915c4d8ac7664aa355f371e75b2"),
    "verify-m7-heis2": (["verify", "--m", "7", "heis2"],
                        [PASS] * 9,
                        "51c42b1a2cdadb3df4b17bcf298381aa258ee9adae2f351481e9ad7498d4dcb7"),
    "verify-multi11-sl2": (["verify", "--multi", "1,1", "sl2"],
                           [PASS] * 19,
                           "45987ee8403c266f584e9014364f4ae71b51c4580c9a0b7e530eb84f9eb884ad"),
    "verify-m4-sl3": (["verify", "--m", "4", "sl3"],
                      [PASS] * 9,
                      "c8cf3aa3961b2f256d26e4e11b74b2ac32d30881230265d0c44351fca8c65a38"),
    "verify-m2-slnV3": (["verify", "--m", "2", "slnV3"],
                        [PASS] * 9,
                        "a7b2cc3438ead41e07ef87a6bd3018e6a7f6269bd0be8c533a4f7b79168f66bd"),
    "verify-m8-sl3": (["verify", "--m", "8", "sl3"],
                      [PASS] * 9,
                      "c640ad0d5e606f9499f6117dd22acbeb88f7821637f14611f2837813838eb23b"),
    "verify-multi111-sl3": (["verify", "--multi", "1,1,1", "sl3"],
                            [PASS] * 28,
                            "d4ef135639661df46c3a3359613b6052dfba5231ca7176d575dd5025f0a54b39"),
    "nilfiber-l3-sl2": (["nilfiber", "--levels", "3", "sl2"],
                        [PASS] * 10,
                        "ab3a0b67f4d6dccbb45f30c0cce0807613df2f68692075fdc353dbe5434433e4"),
    "verify-m1-jacobi-fail-third": (["verify", "--m", "1", "{bad}", "--seed", "3"],
                                    [FAIL, SKIPPED] + [PASS] * 3 + [SKIPPED] * 3 + [PASS],
                                    "12e53bee5a89f2d7e2bf69b8fade08adad914c82e6e0f62091d73a9f81488267"),
    "verify-multi11-jacobi-fail-third": (["verify", "--multi", "1,1", "{bad}"],
                                         ([FAIL, SKIPPED] + [PASS] * 3 + [SKIPPED] * 3 + [PASS]) * 2
                                         + [PASS],
                                         "88af340a1fef86780238ba26d7b71d2659ca29f8b4d34c2d3a9c5fe9e59907cb"),
    "verify-m2-abelian": (["verify", "--m", "2", "{abelian}"],
                          [PASS] * 9,
                          "41ed9031156c0498ea03fe0021dacca28a964d7a1375d438c2226f04fd451ce7"),
    "verify-m3-heis1": (["verify", "--m", "3", "heis1"],
                        [PASS] * 9,
                        "8d09ef369768da2fafbfb721078332ae9e2d3a2385b306a4d79cc1d9dd9944e8"),
    "verify-multi23-heis1": (["verify", "--multi", "2,3", "heis1"],
                             [PASS] * 19,
                             "593ef4959dc297ddd8e97075bf3033bd9bf8534433f4ca375429095b0c69f813"),
    "verify-m2-invariance-fail-sl2": (["verify", "--m", "2", "{notinv}"],
                                      _INVARIANCE_FAIL,
                                      "267dfe9e50ea036094a3900513e9ac188ae2edd64ab2d5b4e3dc38df428103a7"),
    "verify-multi12-invariance-fail-sl2": (["verify", "--multi", "1,2", "{notinv}"],
                                           _INVARIANCE_FAIL * 2 + [PASS],
                                           "bc5945575fbefcb420631db143007cd2d708ac136310470588844f535ae2c601"),
    "verify-m2-jacobi-fail-casimir": (["verify", "--m", "2", "{casimir}"],
                                      _JACOBI_INVARIANCE_FAIL,
                                      "79d9554d02bc6bc632b188fd9c71b0e455475022663375168f6160a9a77e4af8"),
    "verify-multi11-jacobi-fail-casimir": (["verify", "--multi", "1,1", "{casimir}"],
                                           _JACOBI_INVARIANCE_FAIL * 2 + [PASS],
                                           "4887a05ae40a8636abc484b8b65bd8197a3599b94df3bbccf159368ef5cd7a53"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(tmp_path, capsys, case):
    argv, statuses, want = CASES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_JACOBI_THIRD))
    abelian = tmp_path / "abelian.json"
    abelian.write_text(json.dumps(ABELIAN_2))
    notinv = tmp_path / "notinv.json"
    notinv.write_text(json.dumps(SL2_NOT_INVARIANT))
    casimir = tmp_path / "casimir.json"
    casimir.write_text(json.dumps(BAD_JACOBI_CASIMIR))
    path = tmp_path / "report.json"
    argv = [a.format(bad=bad, abelian=abelian, notinv=notinv, casimir=casimir)
            for a in argv]
    code = main(argv + ["--report", str(path)])
    capsys.readouterr()
    assert code == (1 if "fail" in case else 0)
    data = path.read_bytes()
    assert [c["status"] for c in json.loads(data)["checks"]] == statuses
    assert hashlib.sha256(data).hexdigest() == want
