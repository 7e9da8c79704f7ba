"""Package-level checks: every exported name resolves, and the script runs."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import takiffalg
from takiffalg import catalog
from takiffalg.polyring import parse_poly

SRC = Path(takiffalg.__file__).resolve().parents[1]
ROOT = SRC.parent
MODULES = ["takiffalg"] + [f"takiffalg.{m.name}"
                           for m in pkgutil.iter_modules(takiffalg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_derive_sl3_casimirs_reproduces_the_catalog():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "derive_sl3_casimirs.py")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    basis = catalog.load("sl3").algebra.basis
    for header, frozen in (("# degree-2 Casimir", catalog._SL3_CASIMIR_2),
                           ("# degree-3 Casimir", catalog._SL3_CASIMIR_3)):
        printed = next(lines[k + 1] for k, line in enumerate(lines)
                       if line.startswith(header))
        assert parse_poly(printed, basis) == parse_poly(frozen, basis)
