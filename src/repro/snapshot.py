"""Crash-safe, versioned snapshots of BDD managers and simulators.

ROADMAP item 3: a crashed Table VI run used to lose everything, because
the simulator's state — the interner's node columns, the unique table,
the free list, the 4r slice handles — lived only in memory.  This module
serialises all of it to a single file whose restore is *byte-exact*: the
restored manager's storage columns (``_var`` / ``_low`` / ``_high``),
free-list order, unique-table insertion order and external reference
table are column-for-column identical to the source, so a resumed run
produces results byte-identical to an uninterrupted one (node ids are
a pure function of creation order, which this module preserves exactly).

Format
------
A snapshot is a sectioned binary container::

    magic "REPROSNAP1" | version u32 | kind | section count
    per section: name | payload length u64 | CRC32 | payload

Every section carries its own CRC32, so torn writes, truncations and
bit flips are always *detected* — :func:`read_snapshot` raises
:class:`SnapshotCorruptError` naming the offending section instead of
ever handing back garbage.  Writes are atomic: the payload goes to a
temporary file in the target directory, is fsynced, and then renamed
over the destination (:func:`write_snapshot`), so a crash mid-write
leaves either the old snapshot or none — never a half-written one.

Integer sections use native-endian 64-bit arrays (snapshots are
checkpoints, not an interchange format — they are read back by the
machine that wrote them); scalar metadata uses canonical JSON.

Every snapshot restores onto :class:`~repro.bdd.BddManager`; its
unique-table keys are rebuilt from the node columns.  The writer records
``"dict"`` as the store name in ``meta``.  Checkpoints written while the
``array`` and ``compiled`` stores existed name those instead; they
restore onto the same manager, because node columns and unique-table
insertion order never depended on the store.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.bdd import Bdd, BddManager
from repro.core.bitslice import VECTOR_NAMES, BitSlicedState
from repro.core.gate_rules import GateRuleEngine
from repro.core.simulator import BitSliceSimulator

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotCorruptError",
    "write_snapshot",
    "read_snapshot",
    "snapshot_info",
    "dump_manager",
    "load_manager",
    "dump_simulator",
    "load_simulator",
]

#: On-disk format version.  Bumped on any incompatible layout change; a
#: reader seeing an unknown version refuses with
#: :class:`SnapshotCorruptError` instead of guessing (see
#: ``docs/checkpointing.md`` for the compatibility policy).
SNAPSHOT_VERSION = 1

_MAGIC = b"REPROSNAP1"
_HEADER = struct.Struct("<I")          # version
_SECTION_HEAD = struct.Struct("<HQI")  # name length, payload length, CRC32
_COUNT = struct.Struct("<I")           # section count / kind length

#: Sections every manager snapshot must carry, in writing order.
_MANAGER_SECTIONS = ("meta", "var", "low", "high", "unique", "free",
                     "order", "refs", "knobs", "counters")
#: Additional sections of a simulator snapshot.
_SIMULATOR_SECTIONS = _MANAGER_SECTIONS + ("state", "simulator", "extra")

#: Free slots are stamped with this var value by the GC sweep.
_FREED = -2

#: Store names a snapshot's ``meta`` may carry: ``"dict"``, which the
#: writer records, and the names of two removed stores whose checkpoints
#: restore onto :class:`BddManager` unchanged.
_STORE_NAMES = frozenset({"dict", "array", "compiled"})


class SnapshotCorruptError(RuntimeError):
    """A snapshot file is torn, truncated, bit-flipped or inconsistent.

    Carries the ``section`` whose integrity check failed (``"header"``
    for damage before the first section) and the offending ``path``, so
    callers can log *what* was damaged and skip the file — a corrupt
    checkpoint is always detected and never restored.
    """

    def __init__(self, message: str, *, section: str = "header",
                 path: Optional[str] = None):
        location = f" [{os.fspath(path)}]" if path is not None else ""
        super().__init__(f"snapshot section {section!r}: {message}{location}")
        #: Name of the damaged section (``"header"`` for container-level damage).
        self.section = section
        #: Path of the damaged file, when known.
        self.path = os.fspath(path) if path is not None else None


# ---------------------------------------------------------------------- #
# container: sectioned, checksummed, atomically written
# ---------------------------------------------------------------------- #
def write_snapshot(path: str, kind: str, sections: Dict[str, bytes]) -> None:
    """Write ``sections`` to ``path`` atomically.

    The container is assembled in memory, written to a sibling temporary
    file, fsynced, and renamed over ``path`` (followed by a directory
    fsync where the platform supports it) — a crash at any point leaves
    the previous snapshot intact or no file at all.
    """
    blob = bytearray()
    blob += _MAGIC
    blob += _HEADER.pack(SNAPSHOT_VERSION)
    kind_bytes = kind.encode("utf-8")
    blob += _COUNT.pack(len(kind_bytes))
    blob += kind_bytes
    blob += _COUNT.pack(len(sections))
    for name, payload in sections.items():
        name_bytes = name.encode("utf-8")
        blob += _SECTION_HEAD.pack(len(name_bytes), len(payload),
                                   zlib.crc32(payload))
        blob += name_bytes
        blob += payload
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    temp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass
    finally:
        os.close(dir_fd)


class _Reader:
    """Cursor over a snapshot blob that turns every short read into a
    :class:`SnapshotCorruptError` instead of an IndexError."""

    def __init__(self, blob: bytes, path: Optional[str]):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, count: int, section: str) -> bytes:
        chunk = self.blob[self.offset:self.offset + count]
        if len(chunk) != count:
            raise SnapshotCorruptError(
                f"truncated: wanted {count} bytes at offset {self.offset}, "
                f"file has {len(self.blob)}", section=section, path=self.path)
        self.offset += count
        return chunk


def read_snapshot(path: str, expected_kind: str) -> Dict[str, bytes]:
    """Read and integrity-check the snapshot at ``path``.

    Returns the section payload mapping after verifying the magic, the
    format version, the kind tag, every per-section CRC32 and the exact
    file length.  Any damage — torn write, truncation, bit flip, wrong
    kind, unknown version — raises :class:`SnapshotCorruptError` naming
    the first section that failed; a corrupt file is never partially
    returned.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SnapshotCorruptError(f"unreadable: {exc}", path=path) from exc
    reader = _Reader(blob, path)
    if reader.take(len(_MAGIC), "header") != _MAGIC:
        raise SnapshotCorruptError("bad magic (not a snapshot file)",
                                   path=path)
    (version,) = _HEADER.unpack(reader.take(_HEADER.size, "header"))
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(
            f"unsupported format version {version} "
            f"(this reader supports {SNAPSHOT_VERSION})", path=path)
    (kind_len,) = _COUNT.unpack(reader.take(_COUNT.size, "header"))
    kind = reader.take(kind_len, "header").decode("utf-8", errors="replace")
    if kind != expected_kind:
        raise SnapshotCorruptError(
            f"kind {kind!r} where {expected_kind!r} was expected", path=path)
    (count,) = _COUNT.unpack(reader.take(_COUNT.size, "header"))
    if count > 1024:
        raise SnapshotCorruptError(f"implausible section count {count}",
                                   path=path)
    sections: Dict[str, bytes] = {}
    for _ in range(count):
        head = reader.take(_SECTION_HEAD.size, "header")
        name_len, payload_len, crc = _SECTION_HEAD.unpack(head)
        name = reader.take(name_len, "header").decode("utf-8",
                                                      errors="replace")
        payload = reader.take(payload_len, name)
        if zlib.crc32(payload) != crc:
            raise SnapshotCorruptError("CRC32 mismatch (bit flip or torn "
                                       "write)", section=name, path=path)
        if name in sections:
            raise SnapshotCorruptError("duplicate section", section=name,
                                       path=path)
        sections[name] = payload
    if reader.offset != len(blob):
        raise SnapshotCorruptError(
            f"{len(blob) - reader.offset} bytes of trailing garbage",
            path=path)
    return sections


def snapshot_info(path: str) -> Dict[str, Any]:
    """Cheap integrity probe of the snapshot at ``path``.

    Fully validates the file (all CRCs) and returns ``{"kind",
    "version", "sections", "bytes"}`` without materialising any objects;
    raises :class:`SnapshotCorruptError` exactly like
    :func:`read_snapshot`.  Used by the service's admin surface to
    report checkpoint health without paying a restore.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SnapshotCorruptError(f"unreadable: {exc}", path=path) from exc
    reader = _Reader(blob, path)
    if reader.take(len(_MAGIC), "header") != _MAGIC:
        raise SnapshotCorruptError("bad magic (not a snapshot file)", path=path)
    (version,) = _HEADER.unpack(reader.take(_HEADER.size, "header"))
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(
            f"unsupported format version {version}", path=path)
    (kind_len,) = _COUNT.unpack(reader.take(_COUNT.size, "header"))
    kind = reader.take(kind_len, "header").decode("utf-8", errors="replace")
    sections = read_snapshot(path, kind)
    return {"kind": kind, "version": version,
            "sections": sorted(sections), "bytes": len(blob)}


# ---------------------------------------------------------------------- #
# payload codecs
# ---------------------------------------------------------------------- #
def _pack_ints(values) -> bytes:
    return array("q", values).tobytes()


def _unpack_ints(payload: bytes, section: str,
                 path: Optional[str]) -> List[int]:
    if len(payload) % 8:
        raise SnapshotCorruptError(
            f"payload length {len(payload)} is not a multiple of 8",
            section=section, path=path)
    values = array("q")
    values.frombytes(payload)
    return values.tolist()


def _pack_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _unpack_json(payload: bytes, section: str, path: Optional[str]):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"invalid JSON payload: {exc}",
                                   section=section, path=path) from exc


def _require(condition: bool, message: str, section: str,
             path: Optional[str]) -> None:
    if not condition:
        raise SnapshotCorruptError(message, section=section, path=path)


# ---------------------------------------------------------------------- #
# manager codec
# ---------------------------------------------------------------------- #
_COUNTER_FIELDS = (
    "_unique_probes", "_unique_inserts", "_batch_runs", "_batch_items",
    "_cache_evictions", "_cache_generation", "_gc_count",
    "_gc_pause_seconds", "_gc_freed_nodes", "_reorder_count",
    "_reorder_swaps", "_reorder_pause_seconds", "_reorder_nodes_before",
    "_reorder_nodes_after", "_peak_live_nodes",
)


def _manager_sections(manager: BddManager) -> Dict[str, bytes]:
    """Serialise every persistent field of ``manager`` (see the module
    docstring for what is persistent vs. derived)."""
    counters = {name: getattr(manager, name) for name in _COUNTER_FIELDS}
    counters["_op_hits"] = list(manager._op_hits)
    counters["_op_misses"] = list(manager._op_misses)
    refs: List[int] = []
    for node, count in manager._external_refs.items():
        refs.append(node)
        refs.append(count)
    return {
        "meta": _pack_json({
            "substrate": "dict",
            "num_vars": manager.num_vars,
            "nodes": len(manager._var),
        }),
        "var": _pack_ints(manager._var),
        "low": _pack_ints(manager._low),
        "high": _pack_ints(manager._high),
        "unique": _pack_ints(manager._unique.values()),
        "free": _pack_ints(manager._free),
        "order": _pack_ints(list(manager._var_to_level)
                            + list(manager._level_to_var)),
        "refs": _pack_ints(refs),
        "knobs": _pack_json({
            "auto_gc_threshold": manager._auto_gc_threshold,
            "cache_size_limit": manager._cache_size_limit,
            "auto_reorder_threshold": manager._auto_reorder_threshold,
        }),
        "counters": _pack_json(counters),
    }


def _restore_manager(sections: Dict[str, bytes],
                     path: Optional[str]) -> BddManager:
    """Rebuild a manager whose storage is column-for-column identical to
    the serialised source, including unique-table insertion order,
    free-list order and external references."""
    for name in _MANAGER_SECTIONS:
        _require(name in sections, "section missing from container",
                 name, path)
    meta = _unpack_json(sections["meta"], "meta", path)
    _require(isinstance(meta, dict)
             and isinstance(meta.get("substrate"), str)
             and isinstance(meta.get("num_vars"), int)
             and isinstance(meta.get("nodes"), int)
             and meta["num_vars"] >= 0 and meta["nodes"] >= 2,
             "malformed manager metadata", "meta", path)
    var = _unpack_ints(sections["var"], "var", path)
    low = _unpack_ints(sections["low"], "low", path)
    high = _unpack_ints(sections["high"], "high", path)
    nodes = meta["nodes"]
    _require(len(var) == len(low) == len(high) == nodes,
             f"column lengths {len(var)}/{len(low)}/{len(high)} disagree "
             f"with metadata node count {nodes}", "var", path)
    num_vars = meta["num_vars"]
    for column, section in ((var, "var"), (low, "low"), (high, "high")):
        for value in column:
            _require(-2 <= value < max(nodes, num_vars),
                     f"out-of-range column entry {value}", section, path)
    unique = _unpack_ints(sections["unique"], "unique", path)
    free = _unpack_ints(sections["free"], "free", path)
    _require(len(unique) + len(free) + 2 == nodes,
             f"{len(unique)} interned + {len(free)} free nodes do not "
             f"account for {nodes} slots", "unique", path)
    for node in unique:
        _require(2 <= node < nodes and var[node] >= 0,
                 f"interned id {node} is not a live decision node",
                 "unique", path)
    for node in free:
        _require(2 <= node < nodes and var[node] == _FREED,
                 f"free-list id {node} is not a freed slot", "free", path)
    _require(len(set(unique)) == len(unique), "duplicate interned id",
             "unique", path)
    _require(len(set(free)) == len(free), "duplicate free-list id",
             "free", path)
    order = _unpack_ints(sections["order"], "order", path)
    _require(len(order) == 2 * num_vars,
             f"order payload holds {len(order)} entries, expected "
             f"{2 * num_vars}", "order", path)
    var_to_level = order[:num_vars]
    level_to_var = order[num_vars:]
    _require(sorted(var_to_level) == list(range(num_vars))
             and all(var_to_level[v] == lvl
                     for lvl, v in enumerate(level_to_var)),
             "variable order is not a permutation", "order", path)
    refs_flat = _unpack_ints(sections["refs"], "refs", path)
    _require(len(refs_flat) % 2 == 0, "odd number of reference entries",
             "refs", path)
    refs: Dict[int, int] = {}
    for index in range(0, len(refs_flat), 2):
        node, count = refs_flat[index], refs_flat[index + 1]
        _require(0 <= node < nodes and count > 0 and node not in refs,
                 f"invalid external reference ({node}, {count})",
                 "refs", path)
        refs[node] = count
    knobs = _unpack_json(sections["knobs"], "knobs", path)
    counters = _unpack_json(sections["counters"], "counters", path)
    _require(isinstance(knobs, dict) and isinstance(counters, dict),
             "malformed scalar payload", "knobs", path)

    _require(meta["substrate"] in _STORE_NAMES,
             f"unknown substrate {meta['substrate']!r}; expected one of "
             f"{sorted(_STORE_NAMES)}", "meta", path)
    manager = BddManager(num_vars)
    manager._var, manager._low, manager._high = var, low, high
    table: Dict[Tuple[int, int, int], int] = {}
    for node in unique:
        table[(var[node], low[node], high[node])] = node
    _require(len(table) == len(unique), "colliding unique-table keys",
             "unique", path)
    manager._unique = table
    manager._free = list(free)
    manager._var_to_level = list(var_to_level)
    manager._level_to_var = list(level_to_var)
    manager._external_refs = dict(refs)
    manager._auto_gc_threshold = knobs.get("auto_gc_threshold")
    manager._cache_size_limit = knobs.get("cache_size_limit")
    manager._auto_reorder_threshold = knobs.get("auto_reorder_threshold")
    for name in _COUNTER_FIELDS:
        value = counters.get(name)
        _require(isinstance(value, (int, float)),
                 f"missing or non-numeric counter {name}", "counters", path)
        setattr(manager, name, value)
    for name in ("_op_hits", "_op_misses"):
        values = counters.get(name)
        _require(isinstance(values, list)
                 and len(values) == len(manager._op_hits)
                 and all(isinstance(v, int) for v in values),
                 f"malformed per-op counter list {name}", "counters", path)
        setattr(manager, name, list(values))
    return manager


def dump_manager(manager: BddManager, path: str) -> None:
    """Atomically snapshot ``manager`` to ``path``.

    Safe at any operation boundary; the manager is not mutated.  The
    computed tables and other derived caches are deliberately excluded —
    they are rebuilt lazily after :func:`load_manager` and carry no
    node-identity information.
    """
    write_snapshot(path, "manager", _manager_sections(manager))


def load_manager(path: str) -> BddManager:
    """Restore the manager snapshot at ``path``.

    The result's storage columns, unique-table insertion order,
    free-list order, variable order, external references, tuning knobs
    and perf counters are identical to the dumped source; a damaged file
    raises :class:`SnapshotCorruptError` instead of restoring garbage.
    """
    return _restore_manager(read_snapshot(path, "manager"), path)


# ---------------------------------------------------------------------- #
# simulator codec
# ---------------------------------------------------------------------- #
def _simulator_sections(simulator: BitSliceSimulator,
                        extra: Optional[Dict[str, Any]]) -> Dict[str, bytes]:
    state = simulator.state
    sections = _manager_sections(state.manager)
    groups: Dict[int, int] = {}
    slice_nodes: Dict[str, List[int]] = {}
    share: List[int] = []
    for name in VECTOR_NAMES:
        nodes = []
        for handle in state.slices[name]:
            nodes.append(handle.node)
            share.append(groups.setdefault(id(handle), len(groups)))
        slice_nodes[name] = nodes
    cubes = [[list(key), handle.node]
             for key, handle in simulator._rules._control_cubes.items()]
    sections["state"] = _pack_json({
        "num_qubits": state.num_qubits,
        "r": state.r,
        "k": state.k,
        "s": state.s.hex(),
        "slices": slice_nodes,
        "share": share,
        "cubes": cubes,
    })
    sections["simulator"] = _pack_json({
        "gates_applied": simulator.gates_applied,
        "peak_nodes": simulator.peak_nodes,
        "auto_shrink": simulator.auto_shrink,
        "max_seconds": simulator.max_seconds,
        "max_nodes": simulator.max_nodes,
    })
    sections["extra"] = _pack_json(extra or {})
    return sections


def _handle_without_incref(manager: BddManager, node: int) -> Bdd:
    # The serialised "refs" section already accounts for this handle's
    # reference; constructing via Bdd() would double-count it.
    handle = object.__new__(Bdd)
    handle.manager = manager
    handle.node = node
    return handle


def _restore_simulator(sections: Dict[str, bytes], path: Optional[str],
                       ) -> Tuple[BitSliceSimulator, Dict[str, Any]]:
    for name in _SIMULATOR_SECTIONS:
        _require(name in sections, "section missing from container",
                 name, path)
    manager = _restore_manager(sections, path)
    payload = _unpack_json(sections["state"], "state", path)
    sim_payload = _unpack_json(sections["simulator"], "simulator", path)
    extra = _unpack_json(sections["extra"], "extra", path)
    _require(isinstance(payload, dict) and isinstance(sim_payload, dict)
             and isinstance(extra, dict), "malformed payload", "state", path)
    num_qubits = payload.get("num_qubits")
    r = payload.get("r")
    _require(isinstance(num_qubits, int) and 0 < num_qubits
             and num_qubits <= manager.num_vars,
             f"state qubit count {num_qubits!r} exceeds the manager's "
             f"{manager.num_vars} variables", "state", path)
    _require(isinstance(r, int) and r >= 2,
             f"invalid integer width {r!r}", "state", path)
    try:
        s_value = float.fromhex(payload["s"])
    except (KeyError, TypeError, ValueError):
        raise SnapshotCorruptError("invalid normalisation factor",
                                   section="state", path=path) from None
    slice_nodes = payload.get("slices")
    share = payload.get("share")
    _require(isinstance(slice_nodes, dict)
             and sorted(slice_nodes) == sorted(VECTOR_NAMES)
             and all(isinstance(nodes, list) and len(nodes) == r
                     for nodes in slice_nodes.values()),
             "slice table does not cover the four vectors at width r",
             "state", path)
    _require(isinstance(share, list) and len(share) == 4 * r,
             "handle-sharing table has the wrong length", "state", path)
    node_count = len(manager._var)
    handles: Dict[int, Bdd] = {}
    slices: Dict[str, List[Bdd]] = {}
    cursor = 0
    for name in VECTOR_NAMES:
        vector: List[Bdd] = []
        for node in slice_nodes[name]:
            group = share[cursor]
            cursor += 1
            _require(isinstance(node, int) and 0 <= node < node_count
                     and (node <= 1 or manager._var[node] >= 0),
                     f"slice references dead node {node!r}", "state", path)
            _require(isinstance(group, int) and 0 <= group < 4 * r,
                     f"invalid sharing group {group!r}", "state", path)
            handle = handles.get(group)
            if handle is None:
                handle = handles[group] = _handle_without_incref(manager,
                                                                 node)
            _require(handle.node == node,
                     "sharing group maps one handle to two nodes",
                     "state", path)
            vector.append(handle)
        slices[name] = vector

    state = object.__new__(BitSlicedState)
    state.num_qubits = num_qubits
    state.manager = manager
    state.r = r
    state.k = payload.get("k", 0)
    _require(isinstance(state.k, int), "invalid exponent k", "state", path)
    state.s = s_value
    state.slices = slices

    simulator = object.__new__(BitSliceSimulator)
    simulator.state = state
    simulator._rules = GateRuleEngine(state)
    cubes = payload.get("cubes", [])
    _require(isinstance(cubes, list), "malformed control-cube table",
             "state", path)
    for entry in cubes:
        _require(isinstance(entry, list) and len(entry) == 2
                 and isinstance(entry[0], list)
                 and isinstance(entry[1], int)
                 and 0 <= entry[1] < node_count,
                 "malformed control-cube entry", "state", path)
        key = tuple(entry[0])
        simulator._rules._control_cubes[key] = _handle_without_incref(
            manager, entry[1])
    simulator.max_seconds = sim_payload.get("max_seconds")
    simulator.max_nodes = sim_payload.get("max_nodes")
    simulator.auto_shrink = bool(sim_payload.get("auto_shrink", True))
    simulator.reset_clock()
    gates_applied = sim_payload.get("gates_applied", 0)
    peak_nodes = sim_payload.get("peak_nodes", 0)
    _require(isinstance(gates_applied, int) and gates_applied >= 0,
             "invalid gate count", "simulator", path)
    _require(isinstance(peak_nodes, int) and peak_nodes >= 0,
             "invalid peak node count", "simulator", path)
    simulator.gates_applied = gates_applied
    simulator.peak_nodes = peak_nodes
    return simulator, extra


def dump_simulator(simulator: BitSliceSimulator, path: str,
                   extra: Optional[Dict[str, Any]] = None) -> None:
    """Atomically snapshot a :class:`BitSliceSimulator` to ``path``.

    Serialises the full manager (see :func:`dump_manager`) plus the
    bit-sliced state (``r`` / ``k`` / ``s`` and the 4r slice node ids,
    including which positions share one handle object), the gate
    engine's memoised control cubes, and the simulator's accounting
    (``gates_applied`` / ``peak_nodes`` / limits), so a restored
    simulator continues exactly where the source stood.  ``extra`` is an
    arbitrary JSON-compatible dict stored verbatim for the calling layer
    (the frontdoor records sweep progress there; the service records
    session identity).  Safe only at a gate boundary — mid-gate there
    are live temporaries the snapshot cannot see.
    """
    write_snapshot(path, "simulator", _simulator_sections(simulator, extra))


def load_simulator(path: str) -> Tuple[BitSliceSimulator, Dict[str, Any]]:
    """Restore the simulator snapshot at ``path``.

    Returns ``(simulator, extra)`` where ``extra`` is the caller dict
    given to :func:`dump_simulator`.  The restored manager storage is
    column-for-column identical to the dumped source (the byte-identity
    guarantee resumable runs rely on); any damage raises
    :class:`SnapshotCorruptError` naming the offending section.
    """
    return _restore_simulator(read_snapshot(path, "simulator"), path)
