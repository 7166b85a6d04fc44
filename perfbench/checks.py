"""Output checks, run outside the timed phase.

Every pass must reproduce the first pass result for result.  For the
default seed the first pass is compared with the digests committed in
``expected.json`` (one per result, over ``to_dict(timings=False)``,
fixed-seed counts included).  For any other seed each final probability is
compared with the dense statevector simulator within ``1e-9`` on every
circuit it can hold under the default limits.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

import repro
from repro.engines.frontdoor import final_query_qubits

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")
TOLERANCE = 1e-9
#: The widest circuit checked densely: the statevector engine's own node
#: budget (``ResourceLimits().max_nodes``) stops it above 20 qubits.
STATEVECTOR_QUBITS = 20


def _canonical(value):
    # Floats are rounded so a last-bit difference in a dense engine's
    # summation order cannot flip a digest; exact results are unaffected.
    if isinstance(value, float):
        return round(value, 12)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def result_digest(result) -> str:
    payload = json.dumps(_canonical(result.to_dict(timings=False)),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_expected(workload: str) -> List[str]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)[workload]


def record_expected(workload: str, digests: List[str]) -> None:
    data: Dict[str, List[str]] = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH) as handle:
            data = json.load(handle)
    data[workload] = digests
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _statevector_probability(circuit, memo: Dict[str, object]):
    """The dense simulator's answer to the front door's final query, or
    ``None`` above :data:`STATEVECTOR_QUBITS`.

    The simulator is driven directly, not through ``repro.run``, so the
    reference shares no code with the path under test.
    """
    if circuit.num_qubits > STATEVECTOR_QUBITS:
        return None
    key = repro.circuit_fingerprint(circuit)
    if key not in memo:
        qubits = final_query_qubits(circuit)
        memo[key] = repro.StatevectorSimulator.simulate(
            circuit).probability_of_outcome(qubits, [0] * len(qubits))
    return memo[key]


def failed_indices(first_pass, circuits, digests: List[str],
                   expected: Optional[List[str]]) -> List[int]:
    """Indices of the first pass's results that fail the output check."""
    failed = []
    memo: Dict[str, object] = {}
    for index, result in enumerate(first_pass):
        if result.status != "ok":
            failed.append(index)
        elif expected is not None:
            if index >= len(expected) or digests[index] != expected[index]:
                failed.append(index)
        else:
            if result.shots and sum(result.counts.values()) != result.shots:
                failed.append(index)
                continue
            reference = _statevector_probability(circuits[index], memo)
            if reference is not None and not (
                    abs(result.final_probability - reference) <= TOLERANCE):
                failed.append(index)
    if expected is not None and len(expected) != len(first_pass):
        failed.extend(range(len(first_pass), len(expected)))
    return failed


def count_failures(passes, circuits,
                   expected: Optional[List[str]]) -> int:
    """Results of all ``passes`` that fail the check.

    ``circuits`` are the circuits whose final probability each result
    reports (for a session append, the session's cumulative circuit);
    ``expected`` holds the committed digests, or ``None`` to check against
    the statevector engine instead.  A later pass fails wherever it differs
    from the first.
    """
    first = passes[0].results
    digests = [result_digest(result) for result in first]
    bad = set(failed_indices(first, circuits, digests, expected))
    failed = len(bad)
    for later in passes[1:]:
        failed += sum(1 for index, result in enumerate(later.results)
                      if index in bad or result_digest(result) != digests[index])
    return failed
