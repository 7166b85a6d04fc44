"""What a fresh interpreter loads for ``import repro`` and a run.

Each check runs in a new ``sys.executable`` with ``PYTHONPATH=src``,
because this process (pytest and the other tests) already holds numpy and
most of ``repro``.  ``repro`` and ``repro.resilience`` resolve their public
names on first access, and ``repro.circuit``, ``repro.core`` and
``repro.bdd`` their file formats, equivalence checks, order helpers and
analysis exports; the baseline adapters import their simulators in
``prepare``, and numpy is imported where a matrix or a default generator
is built.  So a bit-sliced run loads none of the modules below.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a bit-sliced run of a small circuit must leave unloaded.
NOT_LOADED_BY_A_BITSLICE_RUN = (
    "numpy", "asyncio", "multiprocessing", "repro.service", "repro.baselines",
    "repro.snapshot", "repro.resilience.retry", "repro.circuit.qasm",
    "repro.circuit.real_format", "repro.circuit.grcs", "repro.core.equivalence",
    "repro.bdd.analysis", "repro.bdd.ordering")

#: Packages whose every ``__all__`` name must import as a first import.
PACKAGES = ("repro", "repro.engines", "repro.cache", "repro.resilience",
            "repro.circuit", "repro.core", "repro.bdd")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter importing ``repro`` from ``src``
    and return the JSON object its last output line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_a_bitslice_run_loads_no_numpy_asyncio_service_or_baselines():
    reply = run_fresh(f"""
import json, sys
import repro
from repro import QuantumCircuit
result = repro.run(QuantumCircuit(3).h(0).cx(0, 1), engine="bitslice")
print(json.dumps({{"status": result.status,
                  "probability": result.final_probability,
                  "loaded": [name for name in {NOT_LOADED_BY_A_BITSLICE_RUN!r}
                             if name in sys.modules]}}))
""")
    assert reply["status"] == "ok"
    assert reply["probability"] == 0.5
    assert reply["loaded"] == []


def test_every_public_name_imports_as_the_first_import():
    """``from P import N`` works whatever the process imported before.

    One child runs every case; before each, it drops every ``repro``
    module from ``sys.modules``, so the case starts from the package state
    of a fresh interpreter (an import cycle among ``repro``'s own modules
    shows the same way, and only those modules decide it).
    """
    reply = run_fresh(f"""
import importlib, json, sys

def forget_repro():
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]

failures, cases = [], 0
for package in {PACKAGES!r}:
    forget_repro()
    names = list(importlib.import_module(package).__all__)
    for name in names:
        forget_repro()
        cases += 1
        try:
            exec(f"from {{package}} import {{name}}", {{}})
        except Exception as exc:
            failures.append(f"from {{package}} import {{name}}: {{exc!r}}")
print(json.dumps({{"cases": cases, "failures": failures}}))
""")
    assert reply["failures"] == []
    assert reply["cases"] > 100


def test_a_statevector_run_loads_numpy_on_demand():
    reply = run_fresh("""
import json, sys
import repro
from repro import QuantumCircuit
before = "numpy" in sys.modules
result = repro.run(QuantumCircuit(3).h(0).cx(0, 1).h(2), engine="statevector",
                   shots=8, seed=1)
print(json.dumps({"before": before, "after": "numpy" in sys.modules,
                  "counts": {str(k): v for k, v in result.counts.items()}}))
""")
    assert reply["before"] is False
    assert reply["after"] is True
    # The counts of the eagerly importing package at the same seed.
    assert reply["counts"] == {"0": 4, "6": 1, "7": 3}
