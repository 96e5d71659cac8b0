"""The versioned model registry.

Training is the expensive phase; serving reuses its artifact many times —
possibly across machines and across model generations.  The registry gives
trained models a home with the operations a serving layer needs:

* **versions** — every published model gets a monotonically increasing id
  (``v0001``, ``v0002``, …) and an immutable archive + metadata pair;
* **tags** — mutable names (``prod``, ``canary``) mapping to versions, so a
  running service can be repointed without restarting (``latest`` is a
  built-in dynamic tag for the newest version);
* **fingerprint validation** — the encoder fingerprint is stored in both
  the archive and the metadata, and checked on load, so a registry shared
  by several encoder layouts can never hand out a mismatched model;
* **atomic writes** — archives ride :func:`repro.learn.model_io.save_model`
  (temp file + ``os.replace``), and metadata/tag files are replaced the
  same way, so concurrent readers never observe torn state.

* **corruption containment** — ``tags.json`` (the one *mutable* shared
  file) is written as a checksummed envelope and mirrored to
  ``tags.json.bak``; a reader that finds the primary torn or bit-flipped
  (checksum mismatch, non-JSON bytes) counts the corruption and answers
  from the mirror, and the next tag write repairs the primary.  Archives
  are immutable, so a corrupted one cannot be repaired — but a dynamic
  ``latest`` load that hits one falls back to the newest older version
  that still loads (``corruption_fallbacks`` counts these), keeping a
  serving worker answering instead of erroring on every request.

Layout under the registry root::

    root/
      models/v0001.npz     immutable model archive
      models/v0001.json    metadata (version, fingerprint, note, counts)
      tags.json            mutable tag -> version map (checksummed envelope)
      tags.json.bak        last-good mirror of tags.json
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import time
from pathlib import Path

from repro.learn.model_io import load_model, save_model
from repro.learn.ranksvm import RankSVM

__all__ = ["ModelRegistry"]

_VERSION_RE = re.compile(r"^v(\d{4,})$")
#: dynamic built-in tag: always the highest published version
LATEST = "latest"
#: format marker of the checksummed tags envelope
_TAGS_FORMAT = "tags-v2"


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _tags_digest(tags: "dict[str, str]") -> str:
    """Content checksum of a tag map (canonical JSON, key-sorted)."""
    canon = json.dumps(tags, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _encode_tags(tags: "dict[str, str]") -> dict:
    """The checksummed on-disk envelope of a tag map."""
    return {"format": _TAGS_FORMAT, "sha256": _tags_digest(tags), "tags": tags}


def _decode_tags(raw: bytes) -> "dict[str, str]":
    """Parse + verify a tags file; raises :class:`ValueError` on corruption.

    Accepts both the checksummed envelope and the legacy plain
    ``{tag: version}`` map (registries written before the envelope
    existed have no checksum to verify — they upgrade on their next tag
    write).
    """
    data = json.loads(raw)  # JSONDecodeError is a ValueError
    if not isinstance(data, dict):
        raise ValueError("tags file is not a JSON object")
    if data.get("format") == _TAGS_FORMAT:
        tags = data.get("tags")
        if not isinstance(tags, dict) or _tags_digest(tags) != data.get("sha256"):
            raise ValueError("tags checksum mismatch")
        return tags
    if all(isinstance(k, str) and isinstance(v, str) for k, v in data.items()):
        return data  # legacy plain map
    raise ValueError("unrecognized tags payload")


#: load_model error prefixes that mean "the bytes are bad", as opposed to
#: a fingerprint mismatch (which is a *policy* error and must propagate)
_CORRUPTION_PREFIXES = ("corrupted or unreadable model archive", "unsupported model format")


def _is_corruption_error(exc: Exception) -> bool:
    if isinstance(exc, json.JSONDecodeError):
        return True  # metadata file itself is garbage
    return isinstance(exc, ValueError) and str(exc).startswith(_CORRUPTION_PREFIXES)


class ModelRegistry:
    """Versioned, tagged, fingerprint-validated store of trained models."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.models_dir = self.root / "models"
        self.models_dir.mkdir(parents=True, exist_ok=True)
        self._tags_path = self.root / "tags.json"
        self._bak_path = self.root / "tags.json.bak"
        #: (raw bytes, parsed map) of the last tags.json read — a serving
        #: worker re-resolves its tag on *every* request, so the poll
        #: must cost a small read, not a JSON parse (see tags())
        self._tags_cache: "tuple[bytes, dict[str, str]] | None" = None
        self._bak_cache: "tuple[bytes, dict[str, str]] | None" = None
        #: last corrupt primary bytes seen (so one corruption counts once,
        #: not once per poll)
        self._last_corrupt_raw: "bytes | None" = None
        #: distinct corrupted tags.json contents this handle detected
        self.corruption_detected = 0
        #: dynamic loads served by an older version after archive corruption
        self.corruption_fallbacks = 0
        #: optional observer called as ``on_tag(name, version)`` after every
        #: successful tag write (``AuditJournal.attach_registry`` sets it)
        self.on_tag = None

    # -- publishing ------------------------------------------------------------

    def publish(
        self,
        model: RankSVM,
        encoder_fingerprint: str,
        tags: "tuple[str, ...] | list[str]" = (),
        note: str = "",
    ) -> str:
        """Store a fitted model as the next version; returns its id.

        The version id is reserved with an exclusive-create claim file, so
        concurrent publishers (several trainers sharing one registry root)
        can never allocate the same id and overwrite each other.  The
        archive lands atomically before the metadata, and the metadata
        before any tag moves — a crash can leave an orphaned archive or a
        stale claim (which just skips that id) but never a resolvable
        version without its model.
        """
        version, claim = self._reserve_version()
        try:
            archive = save_model(
                model, self.models_dir / f"{version}.npz", encoder_fingerprint
            )
            meta = {
                "version": version,
                "encoder_fingerprint": encoder_fingerprint,
                "note": note,
                "num_pairs": model.num_pairs_,
                "num_features": int(model.w_.size),
                "created_unix_s": time.time(),
                "archive": archive.name,
            }
            _atomic_write_json(self.models_dir / f"{version}.json", meta)
        finally:
            # the metadata (if written) now holds the id; drop the claim
            # only on success so a failed publish keeps the id burned
            # rather than reusable mid-flight
            if (self.models_dir / f"{version}.json").exists():
                claim.unlink(missing_ok=True)
        for tag in tags:
            self.tag(tag, version)
        return version

    def _next_version(self) -> str:
        """Smallest unused id, counting published, claimed and orphaned files."""
        taken = [0]
        for path in self.models_dir.glob("v*"):
            m = _VERSION_RE.match(path.stem)
            if m and path.suffix in (".json", ".claim", ".npz"):
                taken.append(int(m.group(1)))
        return f"v{max(taken) + 1:04d}"

    def _reserve_version(self) -> "tuple[str, Path]":
        """Atomically allocate the next version id via an exclusive create."""
        while True:
            version = self._next_version()
            claim = self.models_dir / f"{version}.claim"
            try:
                claim.touch(exist_ok=False)
            except FileExistsError:  # raced by another publisher; rescan
                continue
            return version, claim

    # -- resolution ------------------------------------------------------------

    def versions(self) -> list[str]:
        """All published version ids, oldest first."""
        found = []
        for path in self.models_dir.glob("v*.json"):
            m = _VERSION_RE.match(path.stem)
            if m:
                found.append((int(m.group(1)), path.stem))
        return [name for _, name in sorted(found)]

    def tags(self) -> dict[str, str]:
        """The current tag → version map (excluding the dynamic ``latest``).

        The parse is memoized against the file's raw bytes: the file is a
        few dozen bytes, so re-reading it is a cheap syscall, and keying
        the cache on content (rather than a stat signature, which can
        alias when an inode is recycled within one filesystem timestamp
        tick) means a moved tag can never be served stale — this is the
        cross-process poll that lets every cluster worker observe a
        promotion by its very next request.

        A corrupted primary (torn write, flipped bits — the envelope's
        checksum or the JSON itself fails) is counted
        (``corruption_detected``) and answered from the ``tags.json.bak``
        mirror, *read-only*: repairing here would need the tag lock, and a
        reader racing a writer holding it must never block or clobber the
        writer's update — the next :meth:`tag` write rewrites both files
        and thereby repairs the primary.
        """
        try:
            raw = self._tags_path.read_bytes()
        except FileNotFoundError:
            return {}
        cached = self._tags_cache
        if cached is not None and cached[0] == raw:
            return dict(cached[1])
        try:
            parsed = _decode_tags(raw)
        except ValueError:
            if raw != self._last_corrupt_raw:
                self.corruption_detected += 1
                self._last_corrupt_raw = raw
            return self._tags_from_backup()
        self._tags_cache = (raw, parsed)
        return dict(parsed)

    def _tags_from_backup(self) -> "dict[str, str]":
        """Last-good tags from the mirror ({} when it is absent or bad too)."""
        try:
            raw = self._bak_path.read_bytes()
        except FileNotFoundError:
            return {}
        cached = self._bak_cache
        if cached is None or cached[0] != raw:
            try:
                cached = (raw, _decode_tags(raw))
            except ValueError:  # both copies bad: resolve tags as unknown
                return {}
            self._bak_cache = cached
        return dict(cached[1])

    def tag(self, name: str, ref: str) -> str:
        """Point tag ``name`` at the version ``ref`` resolves to.

        The read-modify-write of ``tags.json`` runs under an advisory file
        lock, so concurrent publishers tagging different names cannot lose
        each other's updates.  The map is written as a checksummed
        envelope and mirrored to ``tags.json.bak`` (primary first): a
        crash between the two leaves a valid primary and a stale mirror,
        which only matters if the primary *also* corrupts before the next
        write — and then the mirror still serves the last-good map.  A
        corrupted primary found here is repaired by this write.
        """
        if _VERSION_RE.match(name) or name == LATEST:
            raise ValueError(f"tag name {name!r} is reserved")
        with open(self.root / "tags.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            # resolve under the lock: gc() holds the same lock while it
            # deletes, so the target cannot vanish between the existence
            # check and the tag write (no dangling tags)
            version = self.resolve(ref)
            tags = self.tags()
            tags[name] = version
            payload = _encode_tags(tags)
            _atomic_write_json(self._tags_path, payload)
            _atomic_write_json(self._bak_path, payload)
        if self.on_tag is not None:
            self.on_tag(name, version)
        return version

    def resolve(self, ref: str) -> str:
        """Resolve a version id, a tag, or ``latest`` to a version id."""
        if ref == LATEST:
            versions = self.versions()
            if not versions:
                raise KeyError("registry is empty; publish a model first")
            return versions[-1]
        if _VERSION_RE.match(ref):
            if not (self.models_dir / f"{ref}.json").exists():
                raise KeyError(f"unknown model version {ref!r}")
            return ref
        tags = self.tags()
        if ref in tags:
            return tags[ref]
        raise KeyError(
            f"unknown model reference {ref!r}; "
            f"versions: {self.versions()}, tags: {sorted(tags)}"
        )

    # -- retention -------------------------------------------------------------

    def gc(self, keep_last: int = 3, dry_run: bool = False) -> list[str]:
        """Delete old, untagged versions; returns the (would-be) victims.

        Retention policy: the newest ``keep_last`` versions and every
        tagged version survive; everything else is removed.  Continual
        promotion publishes a version per retraining round, so without gc
        the store grows unboundedly — this is the bound.

        * ``dry_run=True`` reports the victims without touching anything.
        * Runs under the same advisory lock as :meth:`tag`, so a concurrent
          ``tag()`` cannot grab a version mid-deletion, and gc never races
          another gc.
        * Metadata is deleted before the archive: a crash between the two
          leaves an orphaned ``.npz``, which is unresolvable (resolution
          goes through metadata) and — like claim files — keeps its id
          burned, so version ids are never reused.
        """
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        with open(self.root / "tags.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            versions = self.versions()
            protected = set(versions[-keep_last:]) | set(self.tags().values())
            victims = [v for v in versions if v not in protected]
            if not dry_run:
                for version in victims:
                    (self.models_dir / f"{version}.json").unlink(missing_ok=True)
                    (self.models_dir / f"{version}.npz").unlink(missing_ok=True)
        return victims

    # -- loading ---------------------------------------------------------------

    def describe(self, ref: str) -> dict:
        """Metadata of the version ``ref`` resolves to."""
        version = self.resolve(ref)
        return json.loads((self.models_dir / f"{version}.json").read_text())

    def load(self, ref: str = LATEST, expect_fingerprint: "str | None" = None) -> RankSVM:
        """Load the model ``ref`` resolves to, validating the fingerprint.

        The check runs against both the registry metadata and the
        fingerprint embedded in the archive itself, so neither a stale
        metadata file nor a swapped archive can slip through.

        Resolution and the file reads are not one atomic step, so a
        concurrent ``tag()`` + :meth:`gc` in another process can delete
        the resolved version between them.  A tag or ``latest`` ref
        retries against a fresh resolution (the mover's lock ordering
        guarantees the *new* target exists, so each retry fails only if a
        whole further move+gc cycle lands inside the read window); a
        vanished concrete version id surfaces as :class:`KeyError`, same
        as one never published.

        Corruption fallback: a **dynamic** ``latest`` load whose resolved
        archive (or metadata) turns out corrupted falls back to the
        newest *older* version that still loads and validates — serving
        yesterday's model beats serving nothing, and
        ``corruption_fallbacks`` counts every such save.  A concrete
        version id or a tag gets no such silent substitution: the caller
        named a specific model (or an operator pinned a tag to one), and
        handing back a different version would be a lie — the
        :class:`ValueError` propagates.
        """
        attempts = 3
        for attempt in range(attempts):
            version = self.resolve(ref)
            try:
                return self._load_version(version, expect_fingerprint)
            except FileNotFoundError:
                if attempt == attempts - 1 or ref == version:
                    raise KeyError(
                        f"model version {version!r} disappeared while loading "
                        f"(garbage-collected by a concurrent retention pass)"
                    ) from None
            except ValueError as exc:
                if ref == LATEST and _is_corruption_error(exc):
                    fallback = self._load_last_good(version, expect_fingerprint)
                    if fallback is not None:
                        self.corruption_fallbacks += 1
                        return fallback
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def _load_version(self, version: str, expect_fingerprint: "str | None") -> RankSVM:
        """Load one concrete version, validating metadata + archive."""
        meta = json.loads((self.models_dir / f"{version}.json").read_text())
        if (
            expect_fingerprint is not None
            and meta.get("encoder_fingerprint") != expect_fingerprint
        ):
            raise ValueError(
                f"encoder fingerprint mismatch for {version}: registry has "
                f"{meta.get('encoder_fingerprint')!r}, expected {expect_fingerprint!r}"
            )
        return load_model(
            self.models_dir / f"{version}.npz",
            expect_fingerprint=expect_fingerprint,
        )

    def _load_last_good(
        self, bad_version: str, expect_fingerprint: "str | None"
    ) -> "RankSVM | None":
        """The newest version older than ``bad_version`` that still loads."""
        bad = int(bad_version[1:])
        older = [v for v in self.versions() if int(v[1:]) < bad]
        for version in reversed(older):
            try:
                return self._load_version(version, expect_fingerprint)
            except (FileNotFoundError, ValueError):
                continue  # also bad (or incompatible): keep descending
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry({str(self.root)!r}, versions={self.versions()})"
