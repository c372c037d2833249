"""Journaled campaign store: crash-safe resume under ``.repro_cache/campaigns/``.

One directory per campaign id::

    <cache-dir>/campaigns/<id>/manifest.json    # the submitted manifest
    <cache-dir>/campaigns/<id>/journal.ndjson   # one line per finished point

The journal is **append-only NDJSON**: each completed point appends one
record ``{"v": 1, "i": <point index>, "src": "computed"|"cache"|"journal",
"key": <result cache key>, "seconds": s, "summary": {...}}`` and flushes.
A server killed mid-campaign loses at most the line it was writing; on
reload, malformed or truncated trailing lines are counted and skipped —
the matching point simply re-runs.  Before a resumed campaign appends, the
service rewrites its journal to the records it resumes
(:meth:`CampaignStore.rewrite_journal`), so superseded and corrupt lines
do not pile up across restarts.  Combined with the content-addressed
result cache (each point's full result is stored atomically as it
completes) this makes campaigns resumable: re-submitting the same
manifest re-executes only points with no journal record, or whose record's
``key`` is no longer the point's cache key (the service's rule: the key
folds in the code version, so a record from older sources re-runs).

The store is intentionally dumb — no locking, no index.  Writers are the
single service process; readers tolerate anything.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Dict, Iterable, Optional, TextIO, Union

from .manifest import CampaignManifest, ManifestError

#: Journal record layout version.
JOURNAL_VERSION = 1

MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.ndjson"


def _journal_line(record: Dict[str, object]) -> str:
    """One journal record as its NDJSON line."""
    return json.dumps(record, separators=(",", ":")) + "\n"


class CampaignStore:
    """The on-disk campaign journal layer (see module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- layout -------------------------------------------------------------

    def dir_for(self, campaign_id: str) -> Path:
        """The campaign's directory (exists only after :meth:`create`)."""
        return self.root / campaign_id

    def manifest_path(self, campaign_id: str) -> Path:
        return self.dir_for(campaign_id) / MANIFEST_FILE

    def journal_path(self, campaign_id: str) -> Path:
        return self.dir_for(campaign_id) / JOURNAL_FILE

    # -- manifests ----------------------------------------------------------

    def create(self, manifest: CampaignManifest) -> bool:
        """Persist a manifest; returns True when newly created.

        An existing directory with a *matching* manifest means resume
        (returns False); a mismatched manifest under the same id can only
        be a hash collision or tampering and is rejected.
        """
        campaign_id = manifest.campaign_id
        path = self.manifest_path(campaign_id)
        existing = self.load_manifest(campaign_id)
        if existing is not None:
            if existing.canonical_json() != manifest.canonical_json():
                raise ManifestError(
                    f"campaign {campaign_id} exists with a different manifest"
                )
            return False
        self.dir_for(campaign_id).mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            json.dump(
                {"id": campaign_id, "manifest": manifest.to_dict()},
                handle,
                indent=1,
            )
        os.replace(tmp, path)
        return True

    def load_manifest(self, campaign_id: str) -> Optional[CampaignManifest]:
        """The stored manifest, or None when absent/unreadable."""
        try:
            with open(self.manifest_path(campaign_id)) as handle:
                data = json.load(handle)
            return CampaignManifest.from_dict(data["manifest"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, ManifestError):
            return None

    # -- journal ------------------------------------------------------------

    def open_journal(self, campaign_id: str) -> TextIO:
        """An append handle for the campaign's journal (caller closes)."""
        self.dir_for(campaign_id).mkdir(parents=True, exist_ok=True)
        return open(self.journal_path(campaign_id), "a")

    def append(
        self,
        campaign_id: str,
        index: int,
        source: str,
        key: str = "",
        seconds: float = 0.0,
        summary: Optional[Dict[str, float]] = None,
        handle: Optional[TextIO] = None,
    ) -> Dict[str, object]:
        """Append one completed-point record and flush; returns the record."""
        record: Dict[str, object] = {
            "v": JOURNAL_VERSION,
            "i": int(index),
            "src": source,
            "key": key,
            "seconds": round(float(seconds), 6),
            "summary": summary or {},
        }
        line = _journal_line(record)
        if handle is not None:
            handle.write(line)
            handle.flush()
        else:
            with self.open_journal(campaign_id) as out:
                out.write(line)
                out.flush()
        return record

    def rewrite_journal(
        self, campaign_id: str, records: Iterable[Dict[str, object]]
    ) -> None:
        """Replace the journal with exactly ``records``, atomically.

        Written as :meth:`create` writes the manifest: a temp file, then
        ``os.replace``, so a crash leaves either the old journal or the new
        one.  A campaign with no journal and no records gets no file.
        """
        path = self.journal_path(campaign_id)
        lines = [_journal_line(record) for record in records]
        if not lines and not path.exists():
            return
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            handle.writelines(lines)
        os.replace(tmp, path)

    def load_journal(self, campaign_id: str) -> Dict[int, Dict[str, object]]:
        """Completed-point records by index; corrupt lines are skipped.

        A truncated final line (the crash case), garbage, wrong-version or
        structurally invalid records never raise — the affected points
        just re-run.  The skip count is returned via :meth:`last_skipped`
        (stored on the instance for the caller that wants it).
        """
        records: Dict[int, Dict[str, object]] = {}
        skipped = 0
        try:
            with open(self.journal_path(campaign_id)) as handle:
                raw = handle.read()
        except (FileNotFoundError, OSError):
            self._last_skipped = 0
            return records
        for line in raw.split("\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if (
                    not isinstance(record, dict)
                    or record.get("v") != JOURNAL_VERSION
                    or not isinstance(record.get("i"), int)
                    or record["i"] < 0
                    or not isinstance(record.get("summary"), dict)
                ):
                    raise ValueError("malformed journal record")
            except ValueError:
                skipped += 1
                continue
            records[record["i"]] = record
        self._last_skipped = skipped
        return records

    def last_skipped(self) -> int:
        """Corrupt lines skipped by the most recent :meth:`load_journal`."""
        return getattr(self, "_last_skipped", 0)

    # -- maintenance --------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Store footprint: ``{"campaigns": N, "files": F, "bytes": B}``."""
        campaigns = files = total = 0
        if self.root.is_dir():
            for entry in self.root.iterdir():
                if not entry.is_dir():
                    continue
                campaigns += 1
                for path in entry.iterdir():
                    try:
                        total += path.stat().st_size
                        files += 1
                    except OSError:
                        pass
        return {"campaigns": campaigns, "files": files, "bytes": total}

    def clear(self) -> int:
        """Delete every campaign directory; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
            else:
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
