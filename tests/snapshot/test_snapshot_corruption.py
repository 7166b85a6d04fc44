"""Satellite 3: corrupt snapshots are *always* detected, never restored.

The adversarial matrix behind the "never garbage restore" guarantee —
torn writes (truncation at and around every structural boundary),
single-bit flips across the whole file, header damage, semantic
inconsistencies smuggled past the CRCs — every one raises
:class:`SnapshotCorruptError` naming the offending section.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.bdd import BddManager
from repro.core.simulator import BitSliceSimulator
from repro.snapshot import (
    SnapshotCorruptError,
    dump_manager,
    dump_simulator,
    load_manager,
    load_simulator,
    read_snapshot,
    snapshot_info,
    write_snapshot,
)
from tests.conftest import universal_mix

_MAGIC_LEN = 10          # b"REPROSNAP1"
_SECTION_HEAD = struct.Struct("<HQI")
_COUNT = struct.Struct("<I")

#: Every store name the reader accepts in ``meta``: ``dict`` is what the
#: writer emits, ``array`` and ``compiled`` name the retired stores.  A
#: damaged checkpoint is refused whichever of them it names.
STORE_NAMES = ["dict", "array", "compiled"]


def simulator_blob(path, store_name="dict"):
    """A valid simulator snapshot whose ``meta`` names ``store_name``, as
    bytes."""
    manager = BddManager(3)
    simulator = BitSliceSimulator(3, manager=manager)
    simulator.run(universal_mix(3, seed=5, measure=False))
    # Collected scratch nodes give the snapshot a non-empty free list —
    # the partition and field-width probes below need one.
    manager.apply_and(
        manager.apply_xor(manager.var_node(0), manager.var_node(1)),
        manager.var_node(2))
    manager.garbage_collect()
    dump_simulator(simulator, path)
    if store_name != "dict":
        sections = read_snapshot(path, "simulator")
        meta = json.loads(sections["meta"].decode())
        meta["substrate"] = store_name
        write_snapshot(path, "simulator",
                       dict(sections, meta=json.dumps(meta).encode()))
    return path.read_bytes()


def section_layout(blob):
    """Parse the container layout: ``[(name, payload_start, payload_end)]``
    plus the offset where sections begin — the test's own tiny reader, so
    damage coordinates are independent of the code under test."""
    offset = _MAGIC_LEN + 4                       # magic + version
    (kind_len,) = _COUNT.unpack_from(blob, offset)
    offset += 4 + kind_len
    (count,) = _COUNT.unpack_from(blob, offset)
    offset += 4
    sections = []
    for _ in range(count):
        name_len, payload_len, _crc = _SECTION_HEAD.unpack_from(blob, offset)
        offset += _SECTION_HEAD.size
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
        sections.append((name, offset, offset + payload_len))
        offset += payload_len
    assert offset == len(blob)
    return sections


def expect_corrupt(path):
    with pytest.raises(SnapshotCorruptError) as excinfo:
        load_simulator(path)
    error = excinfo.value
    # The section is always named (it may be unprintable when the damage
    # hit a section *name*; the precise-naming pin lives in
    # test_payload_flip_names_the_damaged_section).
    assert isinstance(error.section, str) and error.section
    assert error.path == str(path)
    assert str(path) in str(error)
    return error


@pytest.mark.parametrize("store_name", STORE_NAMES)
class TestTornAndFlipped:
    def test_truncation_at_every_structural_boundary(self, store_name,
                                                     tmp_path):
        """Cut the file at every section boundary and just inside every
        payload (every field width a torn write can leave behind): the
        loader always reports corruption, never returns."""
        source = tmp_path / "good.snap"
        blob = simulator_blob(source, store_name)
        cuts = {0, 1, _MAGIC_LEN - 1, _MAGIC_LEN, _MAGIC_LEN + 2,
                _MAGIC_LEN + 4}
        for _name, start, end in section_layout(blob):
            head = start - _SECTION_HEAD.size
            cuts.update({head, head + 1, head + 2, head + 8,
                         start - 1, start, start + 1,
                         end - 1, (start + end) // 2})
        victim = tmp_path / "torn.snap"
        for cut in sorted(c for c in cuts if 0 <= c < len(blob)):
            victim.write_bytes(blob[:cut])
            expect_corrupt(victim)

    def test_single_bit_flips_across_the_file(self, store_name, tmp_path):
        """Flip one bit at a stride across the entire file (headers,
        section heads, every payload): always SnapshotCorruptError."""
        source = tmp_path / "good.snap"
        blob = simulator_blob(source, store_name)
        victim = tmp_path / "flipped.snap"
        offsets = set(range(0, len(blob), 97))
        offsets.update({0, 3, len(blob) - 1, len(blob) // 2})
        for offset in sorted(offsets):
            for bit in (0, 7):
                damaged = bytearray(blob)
                damaged[offset] ^= 1 << bit
                victim.write_bytes(bytes(damaged))
                expect_corrupt(victim)

    def test_payload_flip_names_the_damaged_section(self, store_name,
                                                    tmp_path):
        """A bit flip inside a payload is caught by *that section's* CRC:
        the error names it, for every section in the container."""
        source = tmp_path / "good.snap"
        blob = simulator_blob(source, store_name)
        victim = tmp_path / "flipped.snap"
        layout = section_layout(blob)
        assert {entry[0] for entry in layout} == {
            "meta", "var", "low", "high", "unique", "free", "order",
            "refs", "knobs", "counters", "state", "simulator", "extra"}
        for section, start, end in layout:
            if end == start:
                continue
            damaged = bytearray(blob)
            damaged[(start + end) // 2] ^= 0x10
            victim.write_bytes(bytes(damaged))
            error = expect_corrupt(victim)
            assert error.section == section
            assert "CRC32" in str(error)


class TestContainerDamage:
    def test_empty_missing_and_alien_files(self, tmp_path):
        empty = tmp_path / "empty.snap"
        empty.write_bytes(b"")
        expect_corrupt(empty)
        with pytest.raises(SnapshotCorruptError) as excinfo:
            load_simulator(tmp_path / "nonexistent.snap")
        assert "unreadable" in str(excinfo.value)
        alien = tmp_path / "alien.snap"
        alien.write_bytes(b"#!/usr/bin/env python\nprint('not a snapshot')\n")
        assert "magic" in str(expect_corrupt(alien))

    def test_unknown_format_version_is_refused(self, tmp_path):
        path = tmp_path / "future.snap"
        blob = bytearray(simulator_blob(path))
        blob[_MAGIC_LEN:_MAGIC_LEN + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        error = expect_corrupt(path)
        assert "version 99" in str(error)
        with pytest.raises(SnapshotCorruptError):
            snapshot_info(path)

    def test_wrong_kind_is_refused_both_ways(self, tmp_path):
        manager_path = tmp_path / "manager.snap"
        dump_manager(BddManager(2), manager_path)
        with pytest.raises(SnapshotCorruptError) as excinfo:
            load_simulator(manager_path)
        assert "'manager'" in str(excinfo.value)
        simulator_path = tmp_path / "sim.snap"
        simulator_blob(simulator_path)
        with pytest.raises(SnapshotCorruptError):
            load_manager(simulator_path)

    def test_trailing_garbage_and_duplicate_sections(self, tmp_path):
        path = tmp_path / "sim.snap"
        blob = simulator_blob(path)
        path.write_bytes(blob + b"\x00" * 7)
        assert "trailing" in str(expect_corrupt(path))

    def test_missing_section_is_corruption_not_a_crash(self, tmp_path):
        """A structurally valid container lacking a required section is
        still SnapshotCorruptError — never a KeyError leaking out."""
        path = tmp_path / "sim.snap"
        blob = simulator_blob(path)
        sections = read_snapshot(path, "simulator")
        for missing in ("meta", "var", "free", "state", "extra"):
            partial = {k: v for k, v in sections.items() if k != missing}
            crafted = tmp_path / f"no-{missing}.snap"
            write_snapshot(crafted, "simulator", partial)
            error = expect_corrupt(crafted)
            assert error.section == missing
        assert path.read_bytes() == blob  # source untouched throughout


class TestSemanticInconsistency:
    """Damage that passes every CRC — internally inconsistent payloads
    re-signed through write_snapshot — is caught by the validators."""

    def _recraft(self, tmp_path, mutate):
        path = tmp_path / "sim.snap"
        simulator_blob(path)
        sections = dict(read_snapshot(path, "simulator"))
        mutate(sections)
        crafted = tmp_path / "crafted.snap"
        write_snapshot(crafted, "simulator", sections)
        return expect_corrupt(crafted)

    def test_column_length_mismatch(self, tmp_path):
        error = self._recraft(tmp_path,
                              lambda s: s.update(var=s["var"][:-8]))
        assert error.section == "var"

    def test_non_multiple_of_field_width(self, tmp_path):
        """A payload that is not a whole number of 64-bit fields (torn at
        an intra-field byte) is rejected before decoding."""
        for width in range(1, 8):
            error = self._recraft(
                tmp_path, lambda s, w=width: s.update(free=s["free"] + b"x" * w))
            assert error.section == "free"
            assert "multiple of 8" in str(error)

    def test_free_and_unique_must_partition_the_store(self, tmp_path):
        def drop_free_entry(sections):
            sections["free"] = sections["free"][:-8]
        error = self._recraft(tmp_path, drop_free_entry)
        assert error.section in ("unique", "free")

    def test_order_must_be_a_permutation(self, tmp_path):
        def scramble(sections):
            order = bytearray(sections["order"])
            order[0:8] = struct.pack("<q", 7777)
            sections["order"] = bytes(order)
        error = self._recraft(tmp_path, scramble)
        assert error.section == "order"

    def test_refs_must_be_pairs(self, tmp_path):
        error = self._recraft(
            tmp_path,
            lambda s: s.update(refs=s["refs"] + struct.pack("<q", 3)))
        assert error.section == "refs"

    def test_json_payload_must_parse(self, tmp_path):
        error = self._recraft(tmp_path,
                              lambda s: s.update(meta=b"{not json"))
        assert error.section == "meta"
        assert "JSON" in str(error)

    @pytest.mark.parametrize("column", ["var", "low", "high"])
    def test_out_of_range_column_entry(self, column, tmp_path):
        """A node column pointing past the store (or below the freed-slot
        marker) is refused before any node is rebuilt from it."""
        for value in (10 ** 6, -3):
            def poison(sections, value=value):
                payload = bytearray(sections[column])
                payload[-8:] = struct.pack("<q", value)
                sections[column] = bytes(payload)
            error = self._recraft(tmp_path, poison)
            assert error.section == column
            assert f"out-of-range column entry {value}" in str(error)

    def test_state_slice_to_dead_node(self, tmp_path):
        def point_into_space(sections):
            payload = json.loads(sections["state"].decode())
            payload["slices"]["a"][0] = 10 ** 9
            sections["state"] = json.dumps(payload).encode()
        error = self._recraft(tmp_path, point_into_space)
        assert error.section == "state"

    def test_unknown_substrate_name(self, tmp_path):
        def rename(sections):
            payload = json.loads(sections["meta"].decode())
            payload["substrate"] = "quantum-foam"
            sections["meta"] = json.dumps(payload).encode()
        error = self._recraft(tmp_path, rename)
        assert error.section == "meta"
        assert "substrate" in str(error)
