"""Golden digests of report files: the byte-identity contract, pinned.

Each case runs one CLI command with ``--report`` at a fixed seed and compares
the sha256 of the written JSON with a digest recorded before the integer
evaluation kernel replaced the Fraction loops in `gradient_at`, `evaluate`,
`kirillov_matrix`, `validate` and `linalg.rank`.  A speed-up that changes a
single byte of any of these reports fails here; a change that legitimately
moves a status must update the digest and say why in CHANGES.md.

The last case is a Jacobi FAIL on an sl2-like algebra with a 1/3 structure
constant, so its witness carries rational residuals.  The `sl3<4>` and
`slnV3<2>` digests were recorded while invariance and the ideal check still
bracketed every basis element, before they bracketed a generating set.
The `sl3<8>` and `sl3<1,1,1>` digests were recorded while every transfer
sample and index trial still ranked a full (m+1)n-wide matrix, before the
grade-block triangularity decided those ranks.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from takiffalg.cli import main

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

CASES = {
    "verify-m1-sl2": (["verify", "--m", "1", "sl2"],
                      "5c95110f6f9d54835f1252d9a4e563db93d9fd0640c1b15eb236f90061e8e7fe"),
    "verify-m7-heis2": (["verify", "--m", "7", "heis2"],
                        "5908bbca47c88042d80de12c3c138e6bd2024c164f2c0af5276107d8c57b020a"),
    "verify-multi11-sl2": (["verify", "--multi", "1,1", "sl2"],
                           "efc27c7b6e8154c84760f1ba81ae0e59976478601badca21d83590a48dcbbe85"),
    "verify-m4-sl3": (["verify", "--m", "4", "sl3"],
                      "88add47eb1aec53b86905821d22bda4241ea691a451cacd21cdcffee46ac0bd9"),
    "verify-m2-slnV3": (["verify", "--m", "2", "slnV3"],
                        "9a9c02af1732234169d5974023bb451b562f2bb5786528235e3ed1dcfde72551"),
    "verify-m8-sl3": (["verify", "--m", "8", "sl3"],
                      "dd91bd221907f516eaa66a715906351aa0ecc0f20845c2e5b8d845977155108e"),
    "verify-multi111-sl3": (["verify", "--multi", "1,1,1", "sl3"],
                            "28754512f1f6a1bee92abc6f3aa71162ec5692a557dc4ae8d5cbc8092c232d90"),
    "nilfiber-l3-sl2": (["nilfiber", "--levels", "3", "sl2"],
                        "491cd1c895744f712212cf43d831e5692325189c3f1f36e64edbbf9b503114d5"),
    "verify-m1-jacobi-fail-third": (["verify", "--m", "1", "{bad}", "--seed", "3"],
                                    "12e53bee5a89f2d7e2bf69b8fade08adad914c82e6e0f62091d73a9f81488267"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(tmp_path, capsys, case):
    argv, want = CASES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_JACOBI_THIRD))
    path = tmp_path / "report.json"
    code = main([a.format(bad=bad) for a in argv] + ["--report", str(path)])
    capsys.readouterr()
    assert code == (1 if "fail" in case else 0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
