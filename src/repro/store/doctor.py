"""Store health scanner and repairer (the ``repro doctor`` backend).

The crash-recovery contract the store makes is *detectability*: a
process killed mid-ingest leaves either a complete run or a sentinel
marking the partial one (:meth:`SQLiteStore.mark_pending`), shard
corruption surfaces as degraded reads, and every ingested run (serial
or parallel) carries the SHA-256 of its spool serialization.  This
module walks those signals:

* :func:`diagnose` — scan a store: shard availability + ``PRAGMA
  integrity_check``, stale ingest sentinels (partial runs), runs
  already quarantined by the ingest pipeline, and — when requested —
  re-serialization checksum verification against the recorded spool
  hash (the JSONL dump is byte-stable, so a mismatch means the stored
  graph drifted from what was ingested), and files whose provenance
  tables still use the pre-clustered rowid layout (informational);
* :func:`repair` — roll back partials and quarantine checksum-failed
  runs.  Repair never deletes committed data: a stale sentinel is
  dropped (SQLite's transaction atomicity guarantees whatever *is*
  committed under the run id is a consistent version), and bad-checksum
  runs are tagged in catalog meta rather than removed.
"""

from __future__ import annotations

import hashlib
import sqlite3
from typing import List, Optional

from ..errors import ShardUnavailableError, StoreError
from ..graph.provgraph import ProvenanceGraph
from ..graph.serialize import dump_chunks
from .base import GraphStore

#: Detail of the informational ``legacy-layout`` diagnosis.
_LEGACY_LAYOUT_DETAIL = (
    "rowid tables ({tables}) predate the clustered WITHOUT ROWID layout: "
    "answers stay correct but lookups are slower; export each run to a "
    "spool and re-ingest it (repro ingest --spool) into a new store file "
    "to get the clustered layout")


def graph_checksum(graph: ProvenanceGraph) -> str:
    """SHA-256 of the graph's canonical JSONL serialization, hashed
    chunk by chunk (the text is never held whole)."""
    digest = hashlib.sha256()
    for chunk in dump_chunks(graph):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


class DoctorReport:
    """Findings of one :func:`diagnose` pass (JSON-able)."""

    def __init__(self, shards: Optional[List[dict]] = None):
        #: Per-shard availability/integrity (None for unsharded stores).
        self.shards = shards
        #: ``[{"run_id", "state"}]`` — runs with a stale ingest sentinel.
        self.partial_runs: List[dict] = []
        #: Runs the ingest pipeline quarantined (meta carries the error).
        self.quarantined: List[dict] = []
        #: ``[{"run_id", "expected", "actual"}]`` checksum mismatches.
        self.checksum_failures: List[dict] = []
        #: Runs whose checksum could not be verified (unreadable shard).
        self.unverifiable: List[dict] = []
        #: Shards that could not be listed during the catalog scan.
        self.degraded: List[dict] = []
        #: Actions :func:`repair` took (empty until repair runs).
        self.repaired: List[dict] = []
        #: ``[{"shard", "path", "tables", "detail"}]`` files still in
        #: the rowid layout (informational, not counted in problems).
        self.legacy_layout: List[dict] = []

    @property
    def unhealthy_shards(self) -> List[dict]:
        return [entry for entry in (self.shards or [])
                if not entry["available"] or entry["integrity"]]

    @property
    def problems(self) -> int:
        """Count of findings that need attention (quarantined runs are
        informational — the pipeline already contained them)."""
        return (len(self.partial_runs) + len(self.checksum_failures)
                + len(self.unverifiable) + len(self.unhealthy_shards)
                + len(self.degraded))

    @property
    def healthy(self) -> bool:
        return self.problems == 0

    def diagnoses(self) -> List[dict]:
        """Flat, uniformly-shaped diagnosis records — one per finding,
        each ``{"severity", "kind", "run_id", "shard", "detail"}`` —
        so scripts consume one list instead of seven differently-keyed
        ones.  ``severity`` is ``error`` for findings counted in
        :attr:`problems` and ``info`` for contained/informational ones
        (quarantined runs, completed repairs)."""
        records: List[dict] = []

        def add(severity: str, kind: str, detail: str,
                run_id=None, shard=None) -> None:
            records.append({"severity": severity, "kind": kind,
                            "run_id": run_id, "shard": shard,
                            "detail": detail})

        for entry in (self.shards or []):
            if not entry["available"]:
                add("error", "shard-unavailable",
                    f"shard {entry['shard']} unavailable: {entry['path']}",
                    shard=entry["shard"])
            elif entry["integrity"]:
                add("error", "shard-corrupted",
                    "; ".join(entry["integrity"][:3]),
                    shard=entry["shard"])
        for entry in self.partial_runs:
            add("error", "partial-ingest",
                f"stale ingest sentinel in state {entry['state']!r}",
                run_id=entry["run_id"])
        for entry in self.checksum_failures:
            add("error", "checksum-mismatch",
                "stored graph differs from its ingest spool",
                run_id=entry["run_id"])
        for entry in self.unverifiable:
            add("error", "unverifiable", str(entry["error"]),
                run_id=entry["run_id"])
        for entry in self.degraded:
            add("error", "degraded-scan", str(entry["error"]))
        for entry in self.quarantined:
            add("info", "quarantined", str(entry["error"]),
                run_id=entry["run_id"])
        for entry in self.repaired:
            add("info", "repaired", str(entry["action"]),
                run_id=entry["run_id"])
        for entry in self.legacy_layout:
            add("info", "legacy-layout", entry["detail"],
                shard=entry["shard"])
        return records

    def to_dict(self) -> dict:
        return {
            "healthy": self.healthy,
            "problems": self.problems,
            "diagnoses": self.diagnoses(),
            "shards": self.shards,
            "partial_runs": self.partial_runs,
            "quarantined": self.quarantined,
            "checksum_failures": self.checksum_failures,
            "unverifiable": self.unverifiable,
            "degraded": self.degraded,
            "repaired": self.repaired,
            "legacy_layout": self.legacy_layout,
        }

    def __repr__(self) -> str:
        return (f"DoctorReport(problems={self.problems}, "
                f"partial={len(self.partial_runs)}, "
                f"checksum={len(self.checksum_failures)})")


def diagnose(store: GraphStore, verify_checksums: bool = True,
             quick: bool = False) -> DoctorReport:
    """Scan ``store`` for partial, corrupted, or quarantined runs."""
    checkpoint = getattr(store, "checkpoint", None)
    if callable(checkpoint):
        # Fold the WAL into the main file first so the integrity scan
        # (and any out-of-band file inspection) sees committed state.
        try:
            checkpoint()
        except (StoreError, sqlite3.DatabaseError, OSError):
            pass  # an unreachable shard shows up in health below
    shard_health = getattr(store, "shard_health", None)
    if callable(shard_health):
        report = DoctorReport(shards=shard_health(quick=quick))
    else:
        problems = store.integrity_check(quick=quick)
        path = getattr(store, "path", None)
        report = DoctorReport(shards=[{
            "shard": None, "path": path, "available": not problems
            or not any("cannot open" in problem for problem in problems),
            "integrity": problems}] if path is not None else None)

    shards = getattr(store, "shards", None)
    for index, child in enumerate(shards or [store]):
        rowid_tables = getattr(child, "rowid_tables", None)
        try:
            tables = rowid_tables() if callable(rowid_tables) else []
        except (StoreError, sqlite3.DatabaseError):
            tables = []  # an unreachable shard shows up in health above
        if tables:
            report.legacy_layout.append({
                "shard": index if shards else None,
                "path": getattr(child, "path", None), "tables": tables,
                "detail": _LEGACY_LAYOUT_DETAIL.format(
                    tables=", ".join(tables))})

    # Stale ingest sentinels → partial runs.  A sentinel is cleared in
    # the same transaction as the data commit, so one still present
    # means that ingest never committed: either no data exists (fresh
    # run died mid-flight) or the committed data predates the crashed
    # attempt (overwrite died; the old version is intact).
    try:
        pending = store.pending_runs()
    except (StoreError, sqlite3.DatabaseError, OSError) as error:
        pending = []
        report.degraded.append({"shard": None,
                                "path": getattr(store, "path", None),
                                "error": str(error)})
    for run_id in pending:
        try:
            exists = store.has_run(run_id)
        except (ShardUnavailableError, sqlite3.DatabaseError):
            exists = None
        report.partial_runs.append({
            "run_id": run_id,
            "state": ("no data committed" if exists is False else
                      "previous version intact" if exists else
                      "shard unavailable")})

    try:
        runs = store.list_runs()
    except (StoreError, sqlite3.DatabaseError, OSError) as error:
        runs = []
        report.degraded.append({"shard": None,
                                "path": getattr(store, "path", None),
                                "error": str(error)})
    report.degraded.extend(getattr(runs, "failures", []))
    for info in runs:
        meta = info.meta or {}
        if meta.get("quarantined"):
            report.quarantined.append({
                "run_id": info.run_id,
                "error": meta["quarantined"].get("error")})
            continue
        expected = (meta.get("ingest") or {}).get("spool_sha256")
        if not verify_checksums or not expected:
            continue
        try:
            actual = graph_checksum(store.load_graph(info.run_id))
        except (ShardUnavailableError, StoreError,
                sqlite3.DatabaseError) as error:
            report.unverifiable.append({"run_id": info.run_id,
                                        "error": str(error)})
            continue
        if actual != expected:
            report.checksum_failures.append({
                "run_id": info.run_id,
                "expected": expected, "actual": actual})
    return report


def repair(store: GraphStore, report: Optional[DoctorReport] = None,
           verify_checksums: bool = True) -> DoctorReport:
    """Fix what :func:`diagnose` found; returns the report with
    ``repaired`` filled in.

    * partial runs: drop the stale sentinel (committed data, if any,
      is a consistent prior version and is kept);
    * checksum failures: tag the run's catalog meta as quarantined so
      queries and ``repro runs`` see it flagged — the data is left in
      place for forensics.
    """
    if report is None:
        report = diagnose(store, verify_checksums=verify_checksums)
    for partial in report.partial_runs:
        run_id = partial["run_id"]
        if partial["state"] == "shard unavailable":
            continue
        store.clear_pending(run_id)
        report.repaired.append({"run_id": run_id,
                                "action": "rolled back partial ingest"})
    for failure in report.checksum_failures:
        run_id = failure["run_id"]
        try:
            info = store.run_info(run_id)
            meta = dict(info.meta or {})
            meta["quarantined"] = {
                "error": "spool checksum mismatch",
                "expected": failure["expected"],
                "actual": failure["actual"]}
            store.set_run_meta(run_id, meta)
            report.repaired.append({"run_id": run_id,
                                    "action": "quarantined (bad checksum)"})
        except StoreError as error:
            report.repaired.append({"run_id": run_id,
                                    "action": f"quarantine failed: {error}"})
    return report
