"""The content-addressed artifact cache behind :class:`ProfilingSession`.

Artifacts are stored under a ``(kind, key)`` address where ``kind`` names
the pipeline stage ("compile", "expand", "record", "profiles", "remap",
"plan", "technique", "workload",
and "table" for a rendered harness table; "verifyreport" holds a plan's
verifier report, shared by the session's ``verify_plans`` check and the
proof passes, which add "conservereport", "matchreport" and "equiv")
and ``key`` is a content hash from :mod:`repro.engine.fingerprint`.
Two layers:

* an **in-memory** dict, always consulted first;
* an optional **on-disk** layer (one checksummed pickle file per
  artifact under a directory, by convention ``results/.cache/``) that
  makes repeated CLI and benchmark runs warm across processes.  Writes
  are atomic (temp file + ``os.replace``) so concurrent worker processes
  can share a directory.

Disk entries are written as a small envelope -- magic bytes, a SHA-256
digest, then the pickled payload -- and the digest is verified on every
read.  A file that fails the check (truncated, scrambled, written by an
incompatible version) is **quarantined**: renamed aside with a
``.corrupt`` suffix, counted in :attr:`KindStats.corrupt`, logged, and
reported as a miss so the artifact is simply recomputed.  Corruption is
therefore never a crash and never a wrong result.  ``repro cache
verify`` sweeps the whole directory through the same check;
``repro cache gc`` deletes quarantined and stale temporary files.

Per-kind hit/miss/store counters are exposed on :attr:`ArtifactCache.stats`
-- the experiment tests assert on them to prove a warm run performs no
recompilation or re-interpretation.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import faults
from .fingerprint import CACHE_SALT

__all__ = ["ArtifactCache", "CacheStats", "KindStats"]

log = logging.getLogger(__name__)

# On-disk envelope v2: MAGIC + 4-byte big-endian cache salt +
# sha256(payload) + payload.  The magic names the envelope format;
# semantic changes are handled by CACHE_SALT (a hash of the package
# source), which both salts every key (so stale entries stop matching
# lookups) and is embedded in the envelope (so sweeps can *identify*
# stale entries instead of merely never hitting them).  Older entries
# carry a hand-bumped schema version there instead (at most 9); legacy
# v1 envelopes (no embedded field) were last written at schema 5.
_MAGIC = b"RPROCAV2"
_MAGIC_V1 = b"RPROCAV1"
_V1_SCHEMA = 5  # the schema version when the v1 envelope was retired
_DIGEST_LEN = 32
_SALT_LEN = 4
QUARANTINE_SUFFIX = ".corrupt"


@dataclass
class KindStats:
    """Counters for one artifact kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0  # subset of ``hits`` served from the disk layer
    corrupt: int = 0    # disk entries that failed verification
    stale: int = 0      # intact entries written under another salt
    remapped: int = 0   # stale profiles recovered by profile matching


@dataclass
class CacheStats:
    """Per-kind counters plus whole-cache aggregates."""

    kinds: dict[str, KindStats] = field(default_factory=dict)

    def of(self, kind: str) -> KindStats:
        return self.kinds.setdefault(kind, KindStats())

    @property
    def hits(self) -> int:
        return sum(k.hits for k in self.kinds.values())

    @property
    def misses(self) -> int:
        return sum(k.misses for k in self.kinds.values())

    @property
    def stores(self) -> int:
        return sum(k.stores for k in self.kinds.values())

    @property
    def disk_hits(self) -> int:
        return sum(k.disk_hits for k in self.kinds.values())

    @property
    def corrupt(self) -> int:
        return sum(k.corrupt for k in self.kinds.values())

    @property
    def stale(self) -> int:
        return sum(k.stale for k in self.kinds.values())

    @property
    def remapped(self) -> int:
        return sum(k.remapped for k in self.kinds.values())

    def summary(self) -> str:
        parts = []
        for kind in sorted(self.kinds):
            ks = self.kinds[kind]
            parts.append(f"{kind}: {ks.hits} hit / {ks.misses} miss")
        return "; ".join(parts) if parts else "(no cache traffic)"


_MISSING = object()


class ArtifactCache:
    """Content-addressed cache for pipeline artifacts.

    Parameters
    ----------
    disk_dir:
        Directory for the persistent layer; ``None`` keeps the cache
        purely in-memory (``--no-cache``: every artifact is computed once
        per process, and nothing outlives it).
    """

    def __init__(self, disk_dir: Optional[os.PathLike | str] = None):
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._mem: dict[tuple[str, str], object] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def lookup(self, kind: str, key: str) -> object:
        """The cached artifact, or ``None`` on a miss (counted)."""
        found, value = self._probe(kind, key)
        return value if found else None

    def get_or_compute(self, kind: str, key: str,
                       compute: Callable[[], object]) -> object:
        """Return the cached artifact, computing and storing it on miss."""
        found, value = self._probe(kind, key)
        if found:
            return value
        value = compute()
        self.store(kind, key, value)
        return value

    def store(self, kind: str, key: str, value: object) -> None:
        self.stats.of(kind).stores += 1
        self._mem[(kind, key)] = value
        if self.disk_dir is not None:
            self._disk_store(kind, key, value)

    def _probe(self, kind: str, key: str) -> tuple[bool, object]:
        ks = self.stats.of(kind)
        value = self._mem.get((kind, key), _MISSING)
        if value is not _MISSING:
            ks.hits += 1
            return True, value
        if self.disk_dir is not None:
            value = self._disk_load(kind, key)
            if value is not _MISSING:
                ks.hits += 1
                ks.disk_hits += 1
                self._mem[(kind, key)] = value
                return True, value
        ks.misses += 1
        return False, None

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------

    def _disk_path(self, kind: str, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{kind}-{key}.pkl"

    def _disk_load(self, kind: str, key: str) -> object:
        path = self._disk_path(kind, key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return _MISSING
        except OSError:
            return _MISSING
        payload, salt = self._parse_envelope(raw)
        if payload is None:
            self._quarantine(path, kind, "checksum mismatch")
            return _MISSING
        if salt != CACHE_SALT:
            # Intact but written by other code.  Keys are salted too, so
            # this address should never have matched -- still, never
            # unpickle across salts: count it, report a miss, and leave
            # the file for ``repro cache gc``.
            self._mark_stale(path, kind, salt)
            return _MISSING
        try:
            return pickle.loads(payload)
        except Exception:
            # The bytes are intact but no longer unpicklable (e.g. a
            # class moved between versions): quarantine, don't crash.
            self._quarantine(path, kind, "unpicklable payload")
            return _MISSING

    @staticmethod
    def _parse_envelope(raw: bytes) -> tuple[Optional[bytes], int]:
        """``(payload, salt)``; payload is ``None`` when the envelope is
        malformed or fails its checksum."""
        if raw.startswith(_MAGIC):
            header = len(_MAGIC) + _SALT_LEN + _DIGEST_LEN
            if len(raw) < header:
                return None, 0
            salt = int.from_bytes(
                raw[len(_MAGIC):len(_MAGIC) + _SALT_LEN], "big")
            digest = raw[len(_MAGIC) + _SALT_LEN:header]
        elif raw.startswith(_MAGIC_V1):
            header = len(_MAGIC_V1) + _DIGEST_LEN
            if len(raw) < header:
                return None, 0
            salt = _V1_SCHEMA
            digest = raw[len(_MAGIC_V1):header]
        else:
            return None, 0
        payload = raw[header:]
        if hashlib.sha256(payload).digest() != digest:
            return None, 0
        return payload, salt

    def _mark_stale(self, path: Path, kind: str, salt: int) -> None:
        self.stats.of(kind).stale += 1
        log.warning(
            "cache entry %s is stale (salt %08x, current %08x); "
            "run `repro cache gc` to remove stale entries",
            path.name, salt, CACHE_SALT)

    def _quarantine(self, path: Path, kind: str, reason: str) -> None:
        """Rename a corrupt entry aside; it will be recomputed."""
        self.stats.of(kind).corrupt += 1
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            try:  # cannot rename (read-only dir?): drop it instead
                path.unlink()
            except OSError:
                pass
        faults.record_degradation(faults.DegradationEvent(
            "cache-quarantine", path.name, reason))
        log.warning("quarantined corrupt cache entry %s (%s)",
                    path.name, reason)

    def _disk_store(self, kind: str, key: str, value: object) -> None:
        assert self.disk_dir is not None
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).digest()
            # Fault injection scrambles bytes *after* the digest, so an
            # injected corruption is always detectable on read.
            payload = faults.corrupt_cache_payload(kind, payload)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, prefix=".tmp-",
                                       suffix=".pkl")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC)
                    handle.write(CACHE_SALT.to_bytes(_SALT_LEN, "big"))
                    handle.write(digest)
                    handle.write(payload)
                os.replace(tmp, self._disk_path(kind, key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # A read-only or full disk degrades to memory-only caching.
            pass

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """In-memory entries (the disk layer is counted separately)."""
        return len(self._mem)

    def disk_files(self) -> list[Path]:
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(p for p in self.disk_dir.iterdir()
                      if p.suffix == ".pkl" and not p.name.startswith("."))

    def quarantined_files(self) -> list[Path]:
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(p for p in self.disk_dir.iterdir()
                      if p.name.endswith(QUARANTINE_SUFFIX))

    def verify_disk(self) -> tuple[int, int, int]:
        """Checksum every disk entry; quarantine failures.

        Returns ``(ok, quarantined, stale)`` -- stale entries are intact
        files written under another cache salt; they are counted
        (and logged with a "run gc" hint) but left in place for
        :meth:`gc_disk`.  Verification reads the envelope only --
        payloads are never unpickled, so a hostile or stale file cannot
        execute anything during a sweep.
        """
        ok = quarantined = stale = 0
        for path in self.disk_files():
            kind = path.name.split("-", 1)[0]
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            payload, salt = self._parse_envelope(raw)
            if payload is None:
                self._quarantine(path, kind, "checksum mismatch")
                quarantined += 1
            elif salt != CACHE_SALT:
                self._mark_stale(path, kind, salt)
                stale += 1
            else:
                ok += 1
        return ok, quarantined, stale

    def stale_files(self) -> list[Path]:
        """Intact disk entries written under another cache salt."""
        out: list[Path] = []
        for path in self.disk_files():
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            payload, salt = self._parse_envelope(raw)
            if payload is not None and salt != CACHE_SALT:
                out.append(path)
        return out

    def schema_census(self) -> dict[int, int]:
        """Salt (or legacy schema version) -> number of intact disk
        entries carrying it (0 stands for malformed/corrupt envelopes)."""
        census: dict[int, int] = {}
        for path in self.disk_files():
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            payload, salt = self._parse_envelope(raw)
            if payload is None:
                salt = 0
            census[salt] = census.get(salt, 0) + 1
        return census

    def gc_disk(self) -> tuple[int, int]:
        """Delete quarantined entries, stale entries, and orphaned temp
        files.

        Returns ``(files_removed, bytes_reclaimed)``.
        """
        removed = reclaimed = 0
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return 0, 0
        doomed = list(self.quarantined_files())
        doomed += self.stale_files()
        doomed += [p for p in self.disk_dir.iterdir()
                   if p.name.startswith(".tmp-")]
        for path in doomed:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            reclaimed += size
        return removed, reclaimed

    def disk_size_bytes(self) -> int:
        total = 0
        for path in self.disk_files():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self, disk: bool = False) -> int:
        """Drop the in-memory layer (and the disk layer when asked).

        Returns the number of entries removed across both layers.
        """
        removed = len(self._mem)
        self._mem.clear()
        if disk:
            for path in self.disk_files():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
