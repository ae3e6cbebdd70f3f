"""Result records are immutable named tuples, and no modsym import loads
``dataclasses`` or ``inspect``.

Each import runs in a fresh interpreter and is compared with the modules
loaded before it, so an interpreter that loads them at start-up still passes.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modsym.chow import ChowClass, ZeroCycleWithModulus
from modsym.localfield import ConductorProfile
from modsym.modpairs import ModulusPair, ValuationProbe
from modsym.symcalc import RelationInstance, SubadditivityReport, SymbolTerm

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(f"modsym.{p.stem}" for p in (SRC / "modsym").glob("*.py") if p.stem != "__init__")
IMPORTS = {m: f"import {m}" for m in MODULES}
IMPORTS["cli.main probe"] = "from modsym import cli; cli.main(['--json', 'probe', '(s^2,s^3)'])"

PROBE = """import sys
before = set(sys.modules)
{}
print(sorted({{"dataclasses", "inspect"}} & (set(sys.modules) - before)))
"""


@pytest.mark.parametrize("case", sorted(IMPORTS))
def test_import_loads_neither_dataclasses_nor_inspect(case):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(IMPORTS[case])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == []


RECORDS = [
    (SymbolTerm, {"coeff": 1, "field": None, "tags": ("Gm",), "values": (2,)}),
    (RelationInstance, {"R": None, "base": None, "f": 1, "sections": (), "convention": "sum",
                        "symbol_sum": None}),
    (SubadditivityReport, {"slot_conductors": [1, 0], "bound": 1, "evaluated_conductor": 1,
                           "holds": True}),
    (ConductorProfile, {"tag": "Gm", "characteristic": 7, "result": 1, "witness": {"valuation": 2}}),
    (ZeroCycleWithModulus, {"base": None, "tags": ("GaM", "GmM"), "conv": "sum", "terms": ()}),
    (ChowClass, {"tags": ("GaM", "GmM"), "degree": 0, "j1": 0, "j2": 1, "pairing": None,
                 "base": None}),
    (ModulusPair, {"carrier": "prod", "infty": None, "m1": None, "m2": None, "conv": "max"}),
    (ValuationProbe, {"t1": None, "t2": None}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_builds_by_keyword_and_is_immutable(cls, fields):
    rec = cls(**fields)
    assert {k: getattr(rec, k) for k in fields} == fields
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)

