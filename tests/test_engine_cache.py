"""Unit tests for the engine's content-addressed artifact cache."""

import pickle

import pytest

from repro.engine import (ArtifactCache, CACHE_SALT,
                          fingerprint_config, fingerprint_edge_profile,
                          fingerprint_module, fingerprint_text, ground_truth)
from repro.engine.faults import drain_degradations
from repro.core import DEFAULT_CONFIG, ppp_config_without
from repro.workloads import get_workload


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def test_fingerprint_text_deterministic_and_part_sensitive():
    assert fingerprint_text("a", "b") == fingerprint_text("a", "b")
    assert fingerprint_text("a", "b") != fingerprint_text("ab")
    assert fingerprint_text("a", "b") != fingerprint_text("b", "a")
    assert str(CACHE_SALT)  # the source salt participates in every key


def test_fingerprint_module_tracks_content():
    module = get_workload("mcf").compile(1)
    again = get_workload("mcf").compile(1)
    other = get_workload("bzip2").compile(1)
    assert fingerprint_module(module) == fingerprint_module(again)
    assert fingerprint_module(module) != fingerprint_module(other)


def test_fingerprint_edge_profile_is_content_addressed():
    # Two independent runs of the same program (distinct Module objects,
    # hence distinct block uids) fingerprint identically; a different
    # program fingerprints differently; None is its own sentinel.
    _a1, profile, _r1 = ground_truth(get_workload("mcf").compile(1))
    _a2, same, _r2 = ground_truth(get_workload("mcf").compile(1))
    _a3, diff, _r3 = ground_truth(get_workload("bzip2").compile(1))
    assert fingerprint_edge_profile(profile) == fingerprint_edge_profile(same)
    assert fingerprint_edge_profile(profile) != fingerprint_edge_profile(diff)
    assert fingerprint_edge_profile(None) != fingerprint_edge_profile(profile)


def test_fingerprint_config_separates_variants():
    assert fingerprint_config(DEFAULT_CONFIG) == \
        fingerprint_config(DEFAULT_CONFIG)
    assert fingerprint_config(DEFAULT_CONFIG) != \
        fingerprint_config(ppp_config_without("LC"))


# ----------------------------------------------------------------------
# Memory layer + counters
# ----------------------------------------------------------------------

def test_memory_hit_miss_store_counters():
    cache = ArtifactCache()
    calls = []
    value = cache.get_or_compute("compile", "k1",
                                 lambda: calls.append(1) or "artifact")
    assert value == "artifact" and calls == [1]
    value = cache.get_or_compute("compile", "k1",
                                 lambda: calls.append(2) or "recomputed")
    assert value == "artifact" and calls == [1]  # no recompute on hit
    ks = cache.stats.of("compile")
    assert (ks.hits, ks.misses, ks.stores, ks.disk_hits) == (1, 1, 1, 0)
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert "compile: 1 hit / 1 miss" in cache.stats.summary()


def test_lookup_counts_hits_and_misses():
    cache = ArtifactCache()
    assert cache.lookup("record", "missing") is None
    cache.store("record", "present", 42)
    assert cache.lookup("record", "present") == 42
    ks = cache.stats.of("record")
    assert (ks.hits, ks.misses, ks.stores) == (1, 1, 1)


def test_memory_disabled_is_pass_through():
    cache = ArtifactCache(memory=False)
    cache.store("plan", "k", "v")
    assert cache.lookup("plan", "k") is None  # nothing retained
    assert cache.entry_count() == 0
    ks = cache.stats.of("plan")
    assert ks.stores == 1 and ks.misses == 1


def test_clear_memory():
    cache = ArtifactCache()
    cache.store("workload", "k", object())
    assert cache.entry_count() == 1
    assert cache.clear() == 1
    assert cache.entry_count() == 0


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------

def test_disk_round_trip_across_instances(tmp_path):
    first = ArtifactCache(disk_dir=tmp_path / "cache")
    first.store("expand", "deadbeef", {"blocks": [1, 2, 3]})
    assert len(first.disk_files()) == 1
    assert first.disk_size_bytes() > 0

    second = ArtifactCache(disk_dir=tmp_path / "cache")
    assert second.lookup("expand", "deadbeef") == {"blocks": [1, 2, 3]}
    ks = second.stats.of("expand")
    assert ks.hits == 1 and ks.disk_hits == 1
    # The disk hit was promoted into memory: next probe is memory-served.
    assert second.lookup("expand", "deadbeef") == {"blocks": [1, 2, 3]}
    assert second.stats.of("expand").disk_hits == 1


@pytest.mark.parametrize("junk", [b"not a pickle", b"garbage\n", b"\x80"])
def test_corrupt_disk_entry_is_a_miss_and_quarantined(tmp_path, junk):
    # Any bytes that fail the envelope check (wrong magic, bad digest,
    # truncation) must read as a miss and move the file aside.
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "abc", [1, 2])
    path, = cache.disk_files()
    path.write_bytes(junk)
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.lookup("record", "abc") is None
    assert fresh.stats.of("record").misses == 1
    assert fresh.stats.of("record").corrupt == 1
    assert fresh.disk_files() == []  # renamed aside, not left in place
    assert len(fresh.quarantined_files()) == 1
    drain_degradations()


def test_truncated_disk_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "abc", list(range(100)))
    path, = cache.disk_files()
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.lookup("record", "abc") is None
    assert fresh.stats.corrupt == 1
    drain_degradations()


def test_flipped_payload_byte_fails_checksum(tmp_path):
    # A single flipped bit deep inside an otherwise well-formed pickle
    # would unpickle into a WRONG value without the digest check.
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "abc", list(range(100)))
    path, = cache.disk_files()
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF
    path.write_bytes(bytes(raw))
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.lookup("record", "abc") is None
    assert fresh.stats.of("record").corrupt == 1
    drain_degradations()


def test_legacy_schema_file_is_quarantined(tmp_path):
    # A bare pickle from a pre-envelope cache (wrong schema version /
    # format) must never be trusted.
    path = tmp_path / "plan-oldkey.pkl"
    path.write_bytes(pickle.dumps({"schema": "v0"}))
    cache = ArtifactCache(disk_dir=tmp_path)
    assert cache.lookup("plan", "oldkey") is None
    assert cache.stats.of("plan").corrupt == 1
    drain_degradations()


def test_quarantine_records_degradation_event(tmp_path):
    drain_degradations()
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("plan", "k", 1)
    path, = cache.disk_files()
    path.write_bytes(b"junk")
    cache.lookup("plan", "k")  # memory hit: no disk read, no event
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.lookup("plan", "k") is None
    events = drain_degradations()
    assert [e.kind for e in events] == ["cache-quarantine"]
    assert "plan-k.pkl" in events[0].subject


def test_verify_disk_sweeps_and_quarantines(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "good1", [1])
    cache.store("record", "good2", [2])
    cache.store("record", "bad", [3])
    bad = cache._disk_path("record", "bad")
    bad.write_bytes(b"scrambled")
    ok, quarantined, stale = cache.verify_disk()
    assert (ok, quarantined, stale) == (2, 1, 0)
    assert len(cache.disk_files()) == 2
    assert len(cache.quarantined_files()) == 1
    # A second sweep finds a clean directory.
    assert cache.verify_disk() == (2, 0, 0)
    drain_degradations()


def _write_v1_entry(tmp_path, name, value):
    """A well-formed envelope from the schema-5 era (v1 magic)."""
    import hashlib
    payload = pickle.dumps(value)
    digest = hashlib.sha256(payload).digest()
    path = tmp_path / name
    path.write_bytes(b"RPROCAV1" + digest + payload)
    return path


def _write_salted_entry(tmp_path, name, value, salt):
    """A well-formed v2 envelope written under ``salt``."""
    import hashlib
    payload = pickle.dumps(value)
    digest = hashlib.sha256(payload).digest()
    path = tmp_path / name
    path.write_bytes(b"RPROCAV2" + salt.to_bytes(4, "big") + digest
                     + payload)
    return path


def test_stale_schema_entry_is_a_miss_not_quarantined(tmp_path, caplog):
    # An intact entry written under the previous schema is stale, not
    # corrupt: it reads as a miss with a "run gc" hint and stays on disk.
    import logging
    path = _write_v1_entry(tmp_path, "plan-old.pkl", {"era": 5})
    cache = ArtifactCache(disk_dir=tmp_path)
    with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
        assert cache.lookup("plan", "old") is None
    assert cache.stats.of("plan").stale == 1
    assert cache.stats.of("plan").corrupt == 0
    assert cache.stats.stale == 1
    assert path.exists()  # left in place for gc, not quarantined
    assert cache.quarantined_files() == []
    assert any("repro cache gc" in r.message for r in caplog.records)


def test_verify_disk_counts_stale_entries(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "fresh", [1])
    _write_v1_entry(tmp_path, "trace-old.pkl", [2])
    assert cache.verify_disk() == (1, 0, 1)
    assert cache.schema_census() == {CACHE_SALT: 1, 5: 1}
    drain_degradations()


def test_gc_disk_removes_stale_schema_entries(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "fresh", [1])
    old = _write_v1_entry(tmp_path, "trace-old.pkl", [2])
    removed, reclaimed = cache.gc_disk()
    assert removed == 1 and reclaimed > 0
    assert not old.exists()
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.lookup("record", "fresh") == [1]


# ----------------------------------------------------------------------
# The source-derived cache salt
# ----------------------------------------------------------------------

@pytest.fixture
def package_copy(tmp_path):
    """A private copy of the ``repro`` package's ``.py`` files."""
    import shutil
    from repro.engine.fingerprint import PACKAGE_ROOT
    root = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_source_salt_follows_the_source(package_copy):
    from repro.engine.fingerprint import source_salt
    # The salt depends on the files, not on where the package lives.
    assert source_salt(package_copy) == CACHE_SALT
    # The top bit keeps it clear of the legacy versions (5, 9) and the
    # census's 0 for corrupt entries.
    assert CACHE_SALT & 0x8000_0000

    target = package_copy / "engine" / "cache.py"
    original = target.read_bytes()
    target.write_bytes(original[:-1] + bytes([original[-1] ^ 1]))
    edited = source_salt(package_copy)
    assert edited != CACHE_SALT
    target.write_bytes(original)
    assert source_salt(package_copy) == CACHE_SALT

    target.rename(target.with_name("cache_renamed.py"))
    assert source_salt(package_copy) not in (CACHE_SALT, edited)


def test_entry_under_another_salt_is_stale(tmp_path):
    other = CACHE_SALT ^ 1
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("table", "fresh", "text")
    old = _write_salted_entry(tmp_path, "table-old.pkl", "old text", other)
    assert cache.verify_disk() == (1, 0, 1)
    assert cache.schema_census() == {CACHE_SALT: 1, other: 1}
    reader = ArtifactCache(disk_dir=tmp_path)
    assert reader.lookup("table", "old") is None
    assert reader.stats.of("table").stale == 1
    removed, _reclaimed = cache.gc_disk()
    assert removed == 1 and not old.exists()
    assert ArtifactCache(disk_dir=tmp_path).lookup("table",
                                                   "fresh") == "text"


def test_gc_disk_removes_quarantined_and_temp_files(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("plan", "keep", 1)
    cache.store("plan", "bad", 2)
    cache._disk_path("plan", "bad").write_bytes(b"junk")
    cache.verify_disk()
    (tmp_path / ".tmp-orphan.pkl").write_bytes(b"partial write")
    removed, reclaimed = cache.gc_disk()
    assert removed == 2 and reclaimed > 0
    assert cache.quarantined_files() == []
    assert [p.name for p in cache.disk_files()] == \
        [cache._disk_path("plan", "keep").name]
    # The surviving entry still round-trips.
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.lookup("plan", "keep") == 1
    drain_degradations()


def test_concurrent_writer_race_last_write_wins(tmp_path):
    # Two caches sharing a directory write the same key: atomic
    # os.replace means a reader sees one complete envelope, never a mix.
    a = ArtifactCache(disk_dir=tmp_path)
    b = ArtifactCache(disk_dir=tmp_path)
    a.store("record", "k", {"writer": "a", "data": list(range(50))})
    b.store("record", "k", {"writer": "b", "data": list(range(50))})
    fresh = ArtifactCache(disk_dir=tmp_path)
    value = fresh.lookup("record", "k")
    assert value == {"writer": "b", "data": list(range(50))}
    assert fresh.stats.corrupt == 0


def test_concurrent_corruption_recomputes_not_crashes(tmp_path):
    # A writer dies mid-write leaving garbage under the final name (e.g.
    # a non-atomic filesystem): readers recompute and repair the entry.
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("expand", "k", "good")
    path, = cache.disk_files()
    path.write_bytes(b"RPROCAV1" + b"\x00" * 16)  # short/invalid envelope
    fresh = ArtifactCache(disk_dir=tmp_path)
    value = fresh.get_or_compute("expand", "k", lambda: "recomputed")
    assert value == "recomputed"
    # The recompute re-stored a valid entry; the next reader hits disk.
    again = ArtifactCache(disk_dir=tmp_path)
    assert again.lookup("expand", "k") == "recomputed"
    assert again.stats.of("expand").disk_hits == 1
    drain_degradations()


def test_disk_files_skip_temp_names(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("plan", "k", 1)
    (tmp_path / ".tmp-leftover.pkl").write_bytes(b"")
    (tmp_path / "notes.txt").write_text("ignored")
    assert [p.name for p in cache.disk_files()] == ["plan-k.pkl"]


def test_clear_disk(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("compile", "a", 1)
    cache.store("compile", "b", 2)
    removed = cache.clear(disk=True)
    assert removed == 4  # 2 memory entries + 2 disk files
    assert cache.disk_files() == []


def test_unwritable_disk_degrades_to_memory(tmp_path, monkeypatch):
    cache = ArtifactCache(disk_dir=tmp_path / "cache")
    monkeypatch.setattr(pickle, "dumps",
                        lambda *a, **k: (_ for _ in ()).throw(
                            pickle.PicklingError("boom")))
    cache.store("plan", "k", "v")
    assert cache.lookup("plan", "k") == "v"  # memory layer still serves
    assert cache.disk_files() == []


# ----------------------------------------------------------------------
# CLI: repro cache verify / gc
# ----------------------------------------------------------------------

def test_cli_cache_verify_and_gc(tmp_path, capsys):
    from repro.__main__ import main as repro_main

    cache = ArtifactCache(disk_dir=tmp_path)
    cache.store("record", "good", [1])
    cache.store("record", "bad", [2])
    cache._disk_path("record", "bad").write_bytes(b"junk")

    assert repro_main(["cache", "verify", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 ok" in out and "1 corrupt" in out

    # A clean directory verifies with exit 0.
    assert repro_main(["cache", "verify", "--dir", str(tmp_path)]) == 0

    assert repro_main(["cache", "gc", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out
    assert ArtifactCache(disk_dir=tmp_path).quarantined_files() == []
    drain_degradations()
