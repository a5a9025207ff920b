"""Crash-safe file IO shared by every on-disk artifact writer.

Results (:mod:`repro.harness.results_io`), the orchestration cache
(:mod:`repro.orchestrate.cache`) and the checkpoint store
(:mod:`repro.ckpt.store`) all follow the same discipline:

* **atomic publication** — write to a temp file in the destination
  directory, ``fsync`` it, then ``os.replace`` onto the final name.
  A reader (or a crash at any instant) sees either the old complete
  file or the new complete file, never a torn write;
* **durable directories** — after the rename, ``fsync`` the directory
  so the new name itself survives a power cut;
* **self-verifying payloads** — JSON artifacts embed a SHA-256 over
  their canonical form, checked on read. A corrupt artifact is
  *quarantined* (renamed ``<name>.corrupt``) rather than deleted, so
  the damaged bytes stay available for post-mortems while every normal
  code path treats the entry as absent.

Every syscall in the protocol announces itself through the
:mod:`repro.iohooks` fault-injection seam, so the :mod:`repro.chaos`
harness can fail, tear, or crash it by name. Failed fsyncs are counted
in :data:`FSYNC_ERRORS` (exported as ``repro_io_fsync_errors_total`` on
the service's ``/metrics``), and an ``ENOSPC`` fsync is *always*
re-raised — a full disk must reach the caller so the service plane can
degrade to read-only instead of silently losing durability.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.iohooks import (SITE_DIR_FSYNC, SITE_PUBLISHED, SITE_READ,
                           SITE_RENAME, SITE_TMP_FSYNC, SITE_TMP_WRITE,
                           filter_write, io_site)
from repro.obs.metrics import Counter

__all__ = [
    "canonical_json", "join_canonical", "sha256_of", "sha256_text",
    "atomic_write_text",
    "atomic_write_json", "fsync_dir", "quarantine", "read_checked_json",
    "CorruptArtifactError", "FSYNC_ERRORS",
]

#: Process-wide count of fsync failures observed at this layer (file
#: and directory fsyncs). The serve plane renders it on ``/metrics``
#: as ``repro_io_fsync_errors_total{layer="ioutil"}``.
FSYNC_ERRORS = Counter("repro_io_fsync_errors_total")


class CorruptArtifactError(ValueError):
    """An on-disk artifact failed parsing or checksum verification.

    Carries the ``path`` of the damaged file and, after
    :func:`quarantine`, ``quarantined`` — where the bytes were moved.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
        self.quarantined: Optional[str] = None


def canonical_json(value: Any) -> str:
    """The one serialized form all content hashes are taken over.

    Stable under a JSON round-trip: non-string dict keys are first
    coerced to the strings JSON stores (and re-sorted lexically, the
    way a re-read dict sorts), so a value checksummed before
    serialization and the same value parsed back from disk produce the
    same digest. Without the round-trip, int keys sort numerically at
    write time ({2: ..., 10: ...}) but lexically after re-reading
    ("10" < "2"), and the digests diverge.
    """
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return json.dumps(json.loads(encoded), sort_keys=True,
                      separators=(",", ":"))


def join_canonical(members: Dict[str, str]) -> str:
    """Canonical text of an object from its members' canonical texts.

    ``members`` maps each key to its value's already-canonical JSON, so
    a writer that encoded one large member (a checkpoint's state
    capture) splices it in instead of serializing it again. The result
    equals :func:`canonical_json` of the decoded object.
    """
    return "{" + ",".join(f"{json.dumps(key)}:{members[key]}"
                          for key in sorted(members)) + "}"


def sha256_text(text: str) -> str:
    """SHA-256 hex digest of already-canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_of(value: Any) -> str:
    """SHA-256 hex digest of a JSON-able value's canonical form."""
    return sha256_text(canonical_json(value))


def fsync_dir(path: str) -> None:
    """Flush a directory entry table (makes renames/creates durable).

    Mostly best-effort: some filesystems refuse ``open(O_RDONLY)`` on
    directories, and crash-safety degrades gracefully to rename
    atomicity there. A *failing* fsync is counted in
    :data:`FSYNC_ERRORS`, and ``ENOSPC`` is re-raised — a full disk is
    a persistent condition the caller must react to, not a quirk.
    """
    io_site(SITE_DIR_FSYNC, path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        FSYNC_ERRORS.inc()
        if exc.errno == errno.ENOSPC:
            raise
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str, durable: bool = True) -> None:
    """Publish ``text`` at ``path`` atomically (temp + fsync + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    io_site(SITE_TMP_WRITE, path, size=len(text))
    out = filter_write(SITE_TMP_WRITE, path, text)
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=f".{os.path.basename(path)}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(out)
            if len(out) != len(text):
                raise OSError(
                    errno.EIO,
                    f"torn write ({len(out)}/{len(text)} bytes)", path)
            if durable:
                handle.flush()
                io_site(SITE_TMP_FSYNC, path)
                try:
                    os.fsync(handle.fileno())
                except OSError:
                    FSYNC_ERRORS.inc()
                    raise
        io_site(SITE_RENAME, path)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(directory)
    io_site(SITE_PUBLISHED, path)


def atomic_write_json(path: str, value: Any, durable: bool = True,
                      indent: Optional[int] = None) -> None:
    """Atomically publish a JSON document at ``path``."""
    if indent is None:
        text = canonical_json(value)
    else:
        text = json.dumps(value, sort_keys=True, indent=indent)
    atomic_write_text(path, text + "\n", durable=durable)


def quarantine(error: CorruptArtifactError) -> Optional[str]:
    """Move a corrupt artifact aside as ``<path>.corrupt``.

    Returns the quarantine path (also recorded on the error), or None
    if the file vanished or could not be moved. Never raises.
    """
    target = error.path + ".corrupt"
    try:
        os.replace(error.path, target)
    except OSError:
        return None
    error.quarantined = target
    return target


def read_checked_json(path: str, checksum_field: Optional[str] = None) -> Any:
    """Read a JSON artifact, raising :class:`CorruptArtifactError` on a
    parse failure — and, when ``checksum_field`` is given, on a missing
    or mismatched embedded SHA-256.

    With ``checksum_field``, the file must hold an object whose
    ``checksum_field`` entry is ``sha256_of`` the object *without* that
    entry; the returned dict has the checksum already stripped.
    """
    try:
        io_site(SITE_READ, path)
        with open(path) as handle:
            value = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorruptArtifactError(path, f"unreadable JSON ({exc})") from exc
    if checksum_field is None:
        return value
    if not isinstance(value, dict):
        raise CorruptArtifactError(path, "expected a JSON object")
    body = dict(value)
    stated = body.pop(checksum_field, None)
    if stated is None:
        raise CorruptArtifactError(path, f"missing {checksum_field!r}")
    actual = sha256_of(body)
    if stated != actual:
        raise CorruptArtifactError(
            path, f"checksum mismatch (stated {str(stated)[:12]}…, "
                  f"actual {actual[:12]}…)")
    return body
