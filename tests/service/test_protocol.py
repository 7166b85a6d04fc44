"""Wire-protocol round-trips: circuits, limits, results, envelopes."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import GateKind, QuantumCircuit, ResourceLimits
from repro.cache import circuit_fingerprint
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ErrorReply,
    ProtocolError,
    SubmitRun,
    SubmitSweep,
    WatchRequest,
    circuit_from_wire,
    circuit_to_wire,
    decode_request,
    decode_response,
    encode_message,
    limits_from_wire,
    limits_to_wire,
    result_from_wire,
    result_to_wire,
)


def _dynamic_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="dyn3")
    circuit.h(0)
    circuit.measure_mid(0, 0)
    circuit.add(GateKind.X, [1], condition=1)
    circuit.cx(1, 2)
    circuit.reset(0)
    circuit.measure(1, 0)
    circuit.measure(2, 1)
    return circuit


def test_circuit_roundtrip_preserves_fingerprint():
    circuit = _dynamic_circuit()
    rebuilt = circuit_from_wire(circuit_to_wire(circuit))
    assert circuit_fingerprint(rebuilt) == circuit_fingerprint(circuit)
    assert rebuilt.name == circuit.name
    assert rebuilt.num_clbits == circuit.num_clbits
    assert rebuilt.final_measurement_map() == circuit.final_measurement_map()


def test_circuit_roundtrip_revalidates_gates():
    payload = circuit_to_wire(QuantumCircuit(2).h(0))
    payload["gates"][0]["targets"] = [5]  # out of range for 2 qubits
    with pytest.raises(ProtocolError):
        circuit_from_wire(payload)


@pytest.mark.parametrize("entry", [
    {"kind": "h", "targets": [1.0]},
    {"kind": "h", "targets": [True]},
    {"kind": "cx", "targets": [1], "controls": [0.5]},
    {"kind": "measure", "targets": [0], "clbits": [True]},
    {"kind": "x", "targets": [0], "condition": 1.0},
], ids=["float-target", "bool-target", "float-control", "bool-clbit",
        "float-condition"])
def test_circuit_with_a_bool_or_non_integral_index_is_a_bad_request(entry):
    payload = {"num_qubits": 2, "name": "", "gates": [entry], "measure": [],
               "num_clbits": 1}
    with pytest.raises(ProtocolError, match="not an integer") as excinfo:
        circuit_from_wire(payload)
    assert excinfo.value.code == "bad_request"


@pytest.mark.parametrize("field,value", [
    ("num_qubits", 2.9), ("num_qubits", True), ("num_clbits", 1.5),
    ("measure", [[1.5, 0]]), ("measure", [[1, True]]),
])
def test_circuit_with_a_bool_or_float_width_or_marker_is_a_bad_request(field, value):
    payload = circuit_to_wire(QuantumCircuit(2).h(0).measure(1))
    payload[field] = value
    with pytest.raises(ProtocolError, match="not an integer") as excinfo:
        circuit_from_wire(payload)
    assert excinfo.value.code == "bad_request"


def test_circuit_with_integral_index_types_fingerprints_like_ints():
    circuit = QuantumCircuit(3).h(np.int64(1)).cx(np.int32(1), 2)
    assert circuit_fingerprint(circuit) == circuit_fingerprint(
        QuantumCircuit(3).h(1).cx(1, 2))


def test_limits_roundtrip():
    limits = ResourceLimits(max_seconds=3.5, max_nodes=1234,
                            max_dense_qubits=20)
    assert limits_from_wire(limits_to_wire(limits)) == limits
    assert limits_to_wire(None) is None
    assert limits_from_wire(None) is None


def test_result_roundtrip_is_byte_identical():
    circuit = QuantumCircuit(2, name="bell").h(0).cx(0, 1).measure_all()
    result = repro.run(circuit, shots=32, seed=5)
    rebuilt = result_from_wire(
        json.loads(json.dumps(result_to_wire(result))))
    assert rebuilt.to_dict(timings=False) == result.to_dict(timings=False)
    assert rebuilt.counts == result.counts


def test_envelope_carries_kind_version_and_ids():
    line = encode_message(WatchRequest(interval=0.5, count=3),
                          msg_id="c9", in_reply_to="c1")
    envelope = json.loads(line)
    assert envelope["kind"] == "watch"
    assert envelope["v"] == PROTOCOL_VERSION
    assert envelope["id"] == "c9"
    assert envelope["in_reply_to"] == "c1"
    request, decoded = decode_request(line)
    assert isinstance(request, WatchRequest)
    assert request.interval == 0.5 and request.count == 3
    assert decoded["id"] == "c9"


def test_submit_run_roundtrip():
    circuit = QuantumCircuit(2, name="rt").h(0).cx(0, 1)
    line = encode_message(SubmitRun(circuit, engine="bitslice",
                                    limits=ResourceLimits(max_seconds=2),
                                    shots=8, seed=11, priority=2),
                          msg_id="c1")
    request, _ = decode_request(line)
    assert isinstance(request, SubmitRun)
    assert request.engine == "bitslice"
    assert request.shots == 8 and request.seed == 11
    assert request.priority == 2
    assert request.limits.max_seconds == 2
    assert circuit_fingerprint(request.circuit) == circuit_fingerprint(circuit)


def test_submit_sweep_tasks_roundtrip():
    circuits = [QuantumCircuit(2, name=f"t{i}").h(0) for i in range(3)]
    tasks = [("bitslice", c) for c in circuits]
    request, _ = decode_request(encode_message(SubmitSweep(tasks, seed=1)))
    assert isinstance(request, SubmitSweep)
    assert [engine for engine, _ in request.tasks] == ["bitslice"] * 3
    assert [c.name for _, c in request.tasks] == ["t0", "t1", "t2"]


def test_boolean_reorder_roundtrips():
    """``reorder`` is the one integer field whose annotation names bool
    (``RunRequest`` takes ``reorder=True``), so a JSON boolean travels."""
    circuit = QuantumCircuit(1).h(0)
    for message in (SubmitRun(circuit, reorder=True),
                    SubmitSweep([("bitslice", circuit)], reorder=True)):
        line = encode_message(message)
        assert json.loads(line)["reorder"] is True
        request, _ = decode_request(line)
        assert request.reorder is True
    request, _ = decode_request(encode_message(SubmitRun(circuit, reorder=3)))
    assert request.reorder == 3


def test_version_mismatch_rejected():
    line = encode_message(WatchRequest())
    envelope = json.loads(line)
    envelope["v"] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError, match="protocol version"):
        decode_request(json.dumps(envelope).encode())


def test_unknown_kind_and_malformed_lines_rejected():
    with pytest.raises(ProtocolError, match="unknown message kind"):
        decode_request(json.dumps({"kind": "nope",
                                    "v": PROTOCOL_VERSION}).encode())
    with pytest.raises(ProtocolError):
        decode_request(b"this is not json\n")
    with pytest.raises(ProtocolError):
        decode_request(b"[1, 2, 3]\n")


def test_request_and_response_registries_are_disjoint_views():
    line = encode_message(ErrorReply("queue_full", "full", {"depth": 4}))
    response, _ = decode_response(line)
    assert isinstance(response, ErrorReply)
    assert response.details == {"depth": 4}
    with pytest.raises(ProtocolError):  # responses are not requests
        decode_request(line)


@pytest.mark.parametrize("kind,payload,field", [
    ("submit_run", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                    "priority": "high"}, "priority"),
    ("submit_run", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                    "priority": None}, "priority"),
    ("submit_run", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                    "engine": ["bitslice"]}, "engine"),
    ("open_session", {"num_qubits": [2]}, "num_qubits"),
    ("open_session", {"num_qubits": True}, "num_qubits"),
    ("submit_run", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                    "priority": True}, "priority"),
    ("submit_sweep", {"tasks": [], "seed": False}, "seed"),
    ("watch", {"interval": True}, "interval"),
    ("watch", {"interval": "fast"}, "interval"),
    ("query_probability", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                           "qubits": 0}, "qubits"),
    ("query_probability", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                           "qubits": [True], "values": [1]},
     "qubits elements"),
    ("query_probability", {"circuit": circuit_to_wire(QuantumCircuit(1)),
                           "qubits": [0], "values": [True]},
     "values elements"),
])
def test_raw_field_of_the_wrong_type_is_rejected_with_its_id(kind, payload,
                                                             field):
    """A JSON-native field must have its annotated type; the error names
    the field and carries the envelope's id for the reply."""
    line = json.dumps({"kind": kind, "v": PROTOCOL_VERSION, "id": "c7",
                       **payload}).encode()
    with pytest.raises(ProtocolError, match=field) as excinfo:
        decode_request(line)
    assert excinfo.value.msg_id == "c7"


def test_undecodable_envelope_errors_carry_the_id_when_known():
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(json.dumps({"kind": ["nope"], "v": PROTOCOL_VERSION,
                                   "id": "c8"}).encode())
    assert excinfo.value.msg_id == "c8"
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(json.dumps({"kind": "watch", "v": 1,
                                   "id": "c9"}).encode())
    assert excinfo.value.msg_id == "c9"
    with pytest.raises(ProtocolError) as excinfo:
        decode_request(b"not json\n")
    assert excinfo.value.msg_id is None
