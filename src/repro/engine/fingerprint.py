"""Content fingerprints for cache keying.

Every :class:`~repro.engine.cache.ArtifactCache` key is derived from the
*content* of a stage's inputs, never from object identity or compile
order: MiniC source text, the canonical IR rendering of a module, the
JSON form of an edge profile, and the repr of a frozen
:class:`~repro.core.ProfilerConfig`.  Two sessions (or two processes)
that profile the same program under the same configuration therefore
produce the same keys, which is what makes the on-disk cache layer warm
across CLI and benchmark runs.  Keying by content rather than compile
identity follows the stale-profile-matching argument of Ayupov et al.:
an artifact stays valid for as long as the text it was derived from, and
the code that derived it, stay unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..ir.function import Module
    from ..profiles.edge_profile import EdgeProfile

# Every key is salted with a hash of the package's own source, so any
# edit to the code that derives an artifact retires every cached entry
# at once; no version number has to be bumped by hand.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def source_salt(root: Path = PACKAGE_ROOT) -> int:
    """A 32-bit digest of every ``.py`` file under ``root``: relative
    path and bytes, in sorted path order, so editing any byte or
    renaming any file changes it.  The top bit is always set, so a salt
    can never equal a legacy schema version (at most 9) or the 0
    :meth:`~repro.engine.cache.ArtifactCache.schema_census` uses for
    corrupt entries.  ``root`` is a test seam: tests salt an edited copy
    of the package."""
    files = sorted((p.relative_to(root).as_posix(), p)
                   for p in root.rglob("*.py"))
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return int.from_bytes(digest.digest()[:4], "big") | 0x8000_0000


CACHE_SALT = source_salt()

_SEP = "\x1f"  # unit separator: cannot appear in the joined parts


def fingerprint_text(*parts: str) -> str:
    """SHA-256 over the joined parts (with an unambiguous separator)."""
    material = _SEP.join([str(CACHE_SALT), *parts])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def fingerprint_module(module: Module) -> str:
    """Hash of the canonical IR text (plus the entry point's name).

    :func:`~repro.ir.printer.format_module` renders blocks in reverse
    postorder with globals sorted, so structurally identical modules hash
    identically regardless of construction order.
    """
    from ..ir.printer import format_module

    return fingerprint_text("module", module.name, module.main,
                            format_module(module))


def fingerprint_edge_profile(profile: Optional[EdgeProfile]) -> str:
    """Hash of the name-keyed serialized form (uid-independent)."""
    if profile is None:
        return "no-profile"
    from ..profiles.serialize import edge_profile_to_dict

    payload = json.dumps(edge_profile_to_dict(profile), sort_keys=True)
    return fingerprint_text("edge-profile", payload)


def fingerprint_config(config: object) -> str:
    """Hash of a frozen config dataclass's repr (covers every field)."""
    return fingerprint_text("config", repr(config))
