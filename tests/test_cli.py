from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import takiffalg
from takiffalg import algio, catalog, raistauvel
from takiffalg.cli import main
from takiffalg.liealg import AlgebraFormatError, validate
from takiffalg.polyring import jet_substitute
from takiffalg.takiff import multi_current, takiff

BAD_JACOBI = {
    "label": "badsl2",
    "basis": ["e", "h", "f"],
    "brackets": [
        {"pair": [0, 1], "coeffs": {"e": "-2"}},
        {"pair": [0, 2], "coeffs": {"e": "1"}},
        {"pair": [1, 2], "coeffs": {"f": "-2"}},
    ],
    "invariants": [],
    "flags": {},
}


class TestBuild:
    def test_single_step(self, tmp_path, capsys):
        out = tmp_path / "sl2m2.json"
        assert main(["build", "--m", "2", "sl2", "--out", str(out)]) == 0
        L, fs = algio.load_algebra_file(out)
        assert L.label == "sl2<2>" and L.dim == 9
        assert L.grading is not None and L.grading.depth == 2
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,digest", [
        (["--m", "2", "sl3"], "4c8d706c6c76df7fac88d386511b0bf859e31baf63bdf12947474e38c347b0b2"),
        (["--m", "2", "slnV3"], "a16f7dc644d194315223f1a3b1292255dadf4d27b6c6d4a5742452b4ec9191e9"),
        (["--multi", "1,2", "sl2"],
         "7f2654c0cef120c20e2908f9117e011ad22583d4cbf87ec596b294bd4bf2066e"),
        (["--multi", "1,2", "heis1"],
         "15fc675ee2b1a7e0360fd2b2f124bcb3c0f1178446b6c137f0c687031cc718f0"),
    ])
    def test_built_files_keep_their_bytes(self, tmp_path, capsys, argv, digest):
        # pinned while `takiff` still built every bracket table at construction
        out = tmp_path / "built.json"
        assert main(["build", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_multi(self, tmp_path):
        out = tmp_path / "h11.json"
        assert main(["build", "--multi", "1,1", "heis1", "--out", str(out)]) == 0
        L, _ = algio.load_algebra_file(out)
        assert L.label == "heis1<1,1>" and L.dim == 12

    def test_broken_jacobi_fails_with_witness(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(BAD_JACOBI))
        out = tmp_path / "out.json"
        assert main(["build", "--m", "1", str(src), "--out", str(out)]) == 1
        assert "jacobi" in capsys.readouterr().out
        assert not out.exists()


class TestInvariants:
    def test_writes_family_file(self, tmp_path):
        out = tmp_path / "fam.json"
        assert main(["invariants", "--m", "1", "sl2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 1
        assert payload["base"]["invariants"] == ["h^2 + 4*e*f"]
        assert [e["poly"] for e in payload["family"]] == [
            "h@1^2 + 4*e@1*f@1",
            "4*f@0*e@1 + 2*h@0*h@1 + 4*e@0*f@1",
        ]
        assert [(e["i"], e["j"], e["degree"]) for e in payload["family"]] == \
            [(1, 0, 2), (1, 1, 2)]

    def test_family_file_bytes_with_two_invariants(self, tmp_path):
        # sl3 (l = 2) at depth 2: the member order F_1^0, F_2^0, F_1^1, ... and
        # every printed polynomial, pinned by digest
        out = tmp_path / "fam.json"
        assert main(["invariants", "--m", "2", "sl3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "0f558123183266a20836970fe4c4ca53870ed6b04dd2d569827b676ea9d13d26"

    def test_stdout_mode(self, capsys):
        assert main(["invariants", "--m", "1", "heis1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["poly"] for e in payload["family"]] == ["z@1", "z@0"]

    def test_entry_without_invariants_is_an_input_error(self):
        assert main(["invariants", "--m", "1", "affine2"]) == 2

    def test_broken_jacobi_prints_the_validation_and_exits_one(self, tmp_path, capsys):
        # the base is validated before anything else, and its report printed
        src, out = tmp_path / "bad.json", tmp_path / "fam.json"
        src.write_text(json.dumps(BAD_JACOBI))
        assert main(["invariants", "--m", "1", str(src), "--out", str(out)]) == 1
        want = validate(algio.load_algebra_file(src)[0]).human_lines()
        assert _without_ms(capsys.readouterr().out) == _without_ms("\n".join(want) + "\n")
        assert "[FAIL] jacobi" in want[1] and not out.exists()


def _without_ms(text):
    return re.sub(r"\(\d+\.\d ms\)", "(ms)", text)


class TestOneDepthOnePath:
    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_m_and_a_one_degree_multi_write_the_same_bytes(self, tmp_path, capsys, name):
        # `--m M` is `--multi M`: the same build file, verify report and output
        built, report = tmp_path / "built.json", tmp_path / "report.json"
        for m in ("1", "2"):
            runs = []
            for flag in ("--m", "--multi"):
                codes = (main(["build", flag, m, name, "--out", str(built)]),
                         main(["verify", flag, m, name, "--report", str(report)]))
                runs.append((codes, built.read_bytes(), report.read_bytes(),
                             _without_ms(capsys.readouterr().out)))
            assert runs[0] == runs[1]
            assert runs[0][0] == (0, 0)


class TestVerify:
    def test_pass_and_report(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert main(["verify", "--m", "1", "sl2", "--report", str(rep)]) == 0
        out = capsys.readouterr().out
        assert "summary: PASS" in out
        payload = json.loads(rep.read_text())
        assert payload["label"] == "verify:sl2<1>"
        assert payload["summary"] == "PASS"
        assert all(c["ms"] == 0 for c in payload["checks"])

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["verify", "--m", "1", "--seed", "7", "heis1",
                         "--report", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multi_verify(self, capsys):
        assert main(["verify", "--multi", "1,1", "sl2"]) == 0
        assert "family-count" in capsys.readouterr().out

    def test_broken_jacobi_exits_one(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(BAD_JACOBI))
        assert main(["verify", "--m", "1", str(src)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "jacobi" in out

    def test_exported_file_round_trips(self, tmp_path):
        exported = tmp_path / "sl3.json"
        assert main(["catalog", "export", "sl3", "--out", str(exported)]) == 0
        assert main(["verify", "--m", "1", str(exported)]) == 0

    def test_formerly_sampled_case_is_hash_seed_independent(self, tmp_path):
        # heis2<7> (dim 40) is certified exactly; the report must not depend
        # on the interpreter's hash seed.
        src = str(Path(takiffalg.__file__).resolve().parents[1])
        reports = []
        for hash_seed in ("0", "1"):
            path = tmp_path / f"r{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "takiffalg.cli", "verify", "--m", "7",
                 "heis2", "--report", str(path)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["summary"] == "PASS"


class TestNilfiber:
    def test_chain_runs_for_sl2(self, tmp_path, capsys):
        rep = tmp_path / "nf.json"
        assert main(["nilfiber", "--levels", "1", "sl2",
                     "--report", str(rep)]) == 0
        assert "equidim-verdict" in capsys.readouterr().out
        assert json.loads(rep.read_text())["summary"] == "PASS"

    def test_rejects_other_algebras(self, capsys):
        assert main(["nilfiber", "--levels", "1", "sl3"]) == 2
        assert "sl2" in capsys.readouterr().err

    def test_rejects_bad_levels(self):
        assert main(["nilfiber", "--levels", "5", "sl2"]) == 2


class TestInputErrors:
    def test_unknown_input(self, capsys):
        assert main(["verify", "--m", "1", "nosuch.json"]) == 2
        assert "neither a catalog name" in capsys.readouterr().err

    def test_nonpositive_depth(self):
        assert main(["build", "--m", "0", "sl2", "--out", "x.json"]) == 2
        assert main(["verify", "--multi", "1,0", "sl2"]) == 2

    @pytest.mark.parametrize("argv", [["invariants", "--m", "306", "sl3"],
                                      ["verify", "--m", "300", "sl3"]], ids=" ".join)
    def test_a_family_past_the_term_budget_is_refused_in_one_line(self, monkeypatch, capsys,
                                                                  argv):
        # takiff admits both depths, but either family would hold tens of
        # millions of terms; an expansion here raises instead of running
        def never(*args):
            raise AssertionError("the expansion ran")

        monkeypatch.setattr(raistauvel, "jet_substitute", never)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the family of sl3<{argv[2]}> would have ")
        assert "past the budget" in err and err.count("\n") == 1

    def test_malformed_json(self, tmp_path):
        src = tmp_path / "broken.json"
        src.write_text("{not json")
        assert main(["verify", "--m", "1", str(src)]) == 2

    @pytest.mark.parametrize("content", [
        json.dumps(dict(BAD_JACOBI, brackets=[{"pair": [0, 1], "coeffs": {"e": 7}}]))
        .replace('"e": 7', '"e": ' + "7" * 5000).encode(),
        b"\xff\xfe{",
    ], ids=["integer-past-digit-limit", "not-utf8"])
    def test_unreadable_json_is_input_error(self, tmp_path, capsys, content):
        src = tmp_path / "bad.json"
        src.write_bytes(content)
        assert main(["verify", "--m", "1", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_rational_and_unknown_name(self, tmp_path):
        for coeffs in ({"e": "1/0"}, {"w": "1"}):
            doc = dict(BAD_JACOBI, brackets=[{"pair": [0, 1], "coeffs": coeffs}])
            src = tmp_path / "bad.json"
            src.write_text(json.dumps(doc))
            assert main(["verify", "--m", "1", str(src)]) == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, tmp_path, capsys, trials):
        rep = tmp_path / "rep.json"
        assert main(["verify", "--m", "1", "--trials", trials, "sl2",
                     "--report", str(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --trials must be at least 1\n"
        assert captured.out == ""
        assert not rep.exists()

    @pytest.mark.parametrize("field,value", [
        ("flags", [1, 2]),
        ("brackets", [{"pair": [0, 1], "coeffs": [1]}]),
        ("invariants", [3]),
    ])
    def test_malformed_fields_are_input_errors(self, tmp_path, capsys,
                                               field, value):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(dict(BAD_JACOBI, **{field: value})))
        with pytest.raises(AlgebraFormatError):
            algio.load_algebra_file(src)
        assert main(["verify", "--m", "1", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("pair", [0.5, 1]),
        ("pair", [True, False]),
        ("basis", "ehf"),
    ])
    def test_wrongly_typed_pair_or_basis_is_input_error(self, tmp_path, capsys,
                                                        sl2, field, value):
        # Each of these used to load as some other algebra and verify to exit 0.
        doc = algio.algebra_to_dict(sl2.algebra, sl2.invariants)
        if field == "pair":
            doc["brackets"][0]["pair"] = value
        else:
            doc[field] = value
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(AlgebraFormatError):
            algio.load_algebra_file(src)
        assert main(["verify", "--m", "1", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["1", "y z"])
    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_a_basis_name_no_polynomial_can_spell_is_input_error(self, tmp_path, capsys,
                                                                 command, name):
        # Both commands used to run on such a file with exit 0.  Over
        # ("x", "1") the invariant string "1" parsed as the constant, and a
        # polynomial printed as "1^2 + 3*x", which parses back to another.
        doc = {"label": "ab", "basis": ["x", name], "invariants": [],
               "brackets": [{"pair": [0, 1], "coeffs": {"x": 1}}]}
        src = tmp_path / "names.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(AlgebraFormatError, match="basis name"):
            algio.load_algebra_file(src)
        out = tmp_path / "out.json"
        assert main([command, "--m", "1", str(src)]
                    + (["--out", str(out)] if command == "build" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("invariant", ["e^99999999", "(e+h)^99999999"])
    def test_huge_degree_is_rejected_at_parse_time(self, tmp_path, capsys,
                                                   sl2, invariant):
        doc = algio.algebra_to_dict(sl2.algebra)
        doc["invariants"] = [invariant]
        src = tmp_path / "huge.json"
        src.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["verify", "--m", "1", str(src)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "degree cap" in err and err.count("\n") == 1

    def test_term_count_is_capped_at_parse_time(self, tmp_path, capsys, sl3):
        # Degree 32 passes the degree cap, but the expansion would have about
        # 15 million terms; the work cap stops it at the first large squaring.
        doc = algio.algebra_to_dict(sl3.algebra)
        doc["invariants"] = ["(" + "+".join(sl3.algebra.basis) + ")^32"]
        src = tmp_path / "wide.json"
        src.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["verify", "--m", "1", str(src)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "work cap" in err and err.count("\n") == 1

    def test_parse_work_is_capped_over_the_whole_string(self, tmp_path, capsys, sl3):
        # Each ^7 is under the cap on its own; ten of them summed are not.
        doc = algio.algebra_to_dict(sl3.algebra)
        doc["invariants"] = [" + ".join(["(" + "+".join(sl3.algebra.basis) + ")^7"] * 10)]
        src = tmp_path / "long.json"
        src.write_text(json.dumps(doc))
        assert main(["verify", "--m", "1", str(src)]) == 2
        err = capsys.readouterr().err
        assert "work cap" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["1e9999999", "1.5", 0.5, True])
    def test_coefficient_outside_the_grammar_is_input_error(self, tmp_path, capsys,
                                                            value):
        # Only JSON integers and "p/q" strings are coefficients; exponent
        # notation used to reach Fraction() and could stall the loader.
        doc = dict(BAD_JACOBI, brackets=[{"pair": [0, 1], "coeffs": {"e": value}}])
        with pytest.raises(AlgebraFormatError):
            algio.algebra_from_dict(doc)
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["verify", "--m", "1", str(src)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value,want", [(3, Fraction(3)), ("-2", Fraction(-2)),
                                            ("1/3", Fraction(1, 3)), ("-4/6", Fraction(-2, 3))])
    def test_coefficient_grammar_accepts_integers_and_p_over_q(self, value, want):
        doc = dict(BAD_JACOBI, brackets=[{"pair": [0, 1], "coeffs": {"e": value}}])
        L, _ = algio.algebra_from_dict(doc)
        assert L.brackets == {(0, 1): {0: want}}

    @pytest.mark.parametrize("flags", [[], "semisimple", 1, None])
    def test_flags_that_are_not_an_object_are_refused(self, flags):
        # flags are informational: an object loads and is not returned
        assert len(algio.algebra_from_dict(dict(BAD_JACOBI, flags={"frobenius": True}))) == 2
        with pytest.raises(AlgebraFormatError, match="'flags' must be an object"):
            algio.algebra_from_dict(dict(BAD_JACOBI, flags=flags))

    @pytest.mark.parametrize("case", ["grading-of-another-basis", "basis-out-of-grade-order"])
    def test_grading_block_off_the_basis_is_input_error(self, tmp_path, capsys, sl2, case):
        # The first file once loaded and verified to PASS, its grading never
        # checked against the basis.
        if case == "grading-of-another-basis":
            doc = algio.algebra_to_dict(sl2.algebra)
            doc["grading"] = {"base_dim": 1, "depth": 0, "grade_of": {"x@0": 0},
                              "base_name_of": {"x@0": "x"}}
        else:
            Lm = takiff(sl2.algebra, 1)
            order = [4, 1, 5, 0, 3, 2]
            doc = algio.algebra_to_dict(Lm)
            doc["basis"] = [Lm.basis[k] for k in order]
            for entry in doc["brackets"]:
                entry["pair"] = [order.index(k) for k in entry["pair"]]
        src = tmp_path / "graded.json"
        src.write_text(json.dumps(doc))
        with pytest.raises(AlgebraFormatError, match="grading block"):
            algio.load_algebra_file(src)
        assert main(["verify", "--m", "1", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""

    def test_a_broken_expansion_is_one_line_exit_two(self, monkeypatch, capsys):
        # an expansion that repeats F^0 as F^1 is refused when the family is
        # built, naming a term of the wrong weight; no report is written
        def broken(*args):
            out = jet_substitute(*args)
            out[1] = out[0]
            return out

        monkeypatch.setattr(raistauvel, "jet_substitute", broken)
        assert main(["verify", "--m", "1", "sl2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: family entry (1,1) has the term")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--m", "100000000000000000000", "sl2"],
        ["build", "--multi", "1000,1000", "sl3", "--out", "x.json"],
    ], ids=["verify-m-1e20", "build-multi-1000,1000"])
    def test_a_truncation_past_the_size_cap_exits_two(self, tmp_path, argv):
        # sizes are checked before anything is built; the address-space cap
        # and the timeout make a regression fail here instead of exhausting
        # the machine
        cap = 512 * 2 ** 20
        proc = subprocess.run(
            [sys.executable, "-m", "takiffalg.cli", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(Path(takiffalg.__file__).resolve().parents[1])),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "past the cap" in proc.stderr and proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_mutually_exclusive_flags(self):
        with pytest.raises(SystemExit):
            main(["verify", "--m", "1", "--multi", "1,1", "sl2"])
        with pytest.raises(SystemExit):
            main(["verify", "sl2"])


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == list(catalog.NAMES)
        for name, line in zip(catalog.NAMES, lines):
            assert line.endswith(catalog.load(name).summary)

    def test_export_schema(self, tmp_path):
        out = tmp_path / "heis2.json"
        assert main(["catalog", "export", "heis2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"label", "basis", "brackets", "invariants", "flags"}
        assert doc["invariants"] == ["z"]
        assert doc["flags"]["no_proper_semiinvariants"] is True

    def test_export_unknown_name(self):
        assert main(["catalog", "export", "nope", "--out", "x.json"]) == 2


class TestAlgioRoundtrip:
    def test_grading_survives(self, heis1):
        Lm = multi_current(heis1.algebra, [1, 2])
        doc = algio.algebra_to_dict(Lm)
        back, _ = algio.algebra_from_dict(doc)
        assert back.structure_equal(Lm)
        assert back.grading == Lm.grading
        assert back.label == Lm.label

    def test_duplicate_pair_is_rejected(self):
        doc = dict(BAD_JACOBI)
        doc["brackets"] = [
            {"pair": [0, 1], "coeffs": {"e": "1"}},
            {"pair": [1, 0], "coeffs": {"e": "2"}},
        ]
        with pytest.raises(AlgebraFormatError):
            algio.algebra_from_dict(doc)
