"""SQLite-persisted ``GraphStore``: provenance that survives the process.

The paper's Provenance Tracker hands off to the Query Processor
through the file-system (Section 5.1).  :class:`SQLiteStore` upgrades
that hand-off from a write-once spool file to a real database: many
runs per file, incremental append while a workflow sequence is still
executing, and lazy per-run loads — the Query Processor only pays to
rebuild the run it is asked about, when it is asked.

Schema (all tables keyed by ``run_id``):

* ``runs`` — catalog metadata plus id high-water marks;
* ``nodes`` — one row per node, written and read back through the
  columnar node codec of :mod:`repro.graph.serialize` (payloads are
  JSON-encoded exactly as in the JSONL spool);
* ``edges`` — one row per edge *slot* ``(target, seq)`` where ``seq``
  is the position in the target's operand (pred) list, preserving
  operand order and parallel-edge multiplicity.  The secondary index
  ``edges_by_source (run_id, source)`` lets the ``sqlite-pushdown``
  query tier (see :mod:`repro.store.pushdown`) walk edges downward as
  cheaply as the primary key lets it walk them upward;
* ``invocations`` — module invocation anchors (inputs/outputs/state
  node-id lists, JSON-encoded).

``nodes``, ``edges`` and ``invocations`` are ``WITHOUT ROWID`` tables:
each primary key is the table's own b-tree, so a point lookup is one
search and no second key index is stored.  Files created before that
keep their rowid layout and still answer correctly (``repro doctor``
reports them as ``legacy-layout``).  Opening such a file drops the
retired ``node_intervals`` labelling table and builds
``edges_by_source``.

Incremental append exploits how the tracker grows a graph: node and
invocation ids are monotonic and operand lists only ever extend, so
an append writes nodes above the stored high-water mark, the tail of
each operand list, and upserts the (few) invocation rows.

Thread model: file-backed stores open in WAL journal mode and keep
**one connection per thread** (``threading.local``), so readers never
block behind a writer and every thread sees committed data.  Writes
are serialized through a process-wide lock per store — SQLite allows
a single writer anyway, and taking the lock in Python avoids
``database is locked`` churn under concurrent commits.  ``:memory:``
stores cannot share data across connections, so they fall back to one
shared connection guarded by the same lock.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Union

from .. import faults as _faults
from .. import obs as _obs
from ..errors import StoreError, UnknownRunError
from ..faults.retry import RetryPolicy, retry_call
from ..graph.provgraph import Invocation, ProvenanceGraph
from ..graph.serialize import decode_records, node_records
from .base import GraphStore, RunInfo
from .pushdown import PushdownView, pushdown_enabled

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id              TEXT PRIMARY KEY,
    created_at          REAL NOT NULL,
    updated_at          REAL NOT NULL,
    source              TEXT,
    node_count          INTEGER NOT NULL,
    edge_count          INTEGER NOT NULL,
    invocation_count    INTEGER NOT NULL,
    next_node_id        INTEGER NOT NULL,
    next_invocation_id  INTEGER NOT NULL,
    meta                TEXT
);
CREATE TABLE IF NOT EXISTS nodes (
    run_id     TEXT NOT NULL,
    node_id    INTEGER NOT NULL,
    kind       TEXT NOT NULL,
    label      TEXT NOT NULL,
    ntype      TEXT NOT NULL,
    module     TEXT,
    invocation INTEGER,
    value      TEXT,
    PRIMARY KEY (run_id, node_id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS edges (
    run_id  TEXT NOT NULL,
    target  INTEGER NOT NULL,
    seq     INTEGER NOT NULL,
    source  INTEGER NOT NULL,
    PRIMARY KEY (run_id, target, seq)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS invocations (
    run_id        TEXT NOT NULL,
    invocation_id INTEGER NOT NULL,
    module        TEXT NOT NULL,
    module_node   INTEGER NOT NULL,
    inputs        TEXT NOT NULL,
    outputs       TEXT NOT NULL,
    state         TEXT NOT NULL,
    PRIMARY KEY (run_id, invocation_id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS pending_ingests (
    run_id     TEXT PRIMARY KEY,
    started_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS edges_by_source ON edges (run_id, source);
DROP TABLE IF EXISTS node_intervals;
"""


#: No-op context for readers on per-thread connections.
_NULL_LOCK = contextlib.nullcontext()


class SQLiteStore(GraphStore):
    """Durable multi-run provenance store backed by one SQLite file.

    Safe for concurrent use from many threads: file-backed stores run
    in WAL mode with one connection per thread; writes serialize
    through a per-store lock.
    """

    def __init__(self, path: Union[str, os.PathLike] = ":memory:",
                 retry_policy: Optional[RetryPolicy] = None):
        self.path = os.fspath(path) if not isinstance(path, str) else path
        # Transient write failures (``database is locked``/busy) are
        # retried with jittered exponential backoff; knobs come from
        # the REPRO_RETRY_* environment unless a policy is passed.
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.from_env())
        # Telemetry: every timing/counter this store emits carries a
        # ``store`` label, so shard files show up as distinct series.
        self._obs_labels = {"store": (os.path.basename(self.path)
                                      if self.path != ":memory:"
                                      else ":memory:")}
        self._wal_path = (self.path + "-wal"
                          if self.path != ":memory:" else None)
        self._last_wal_bytes = 0
        self._write_lock = threading.RLock()
        self._local = threading.local()
        # (owning thread, connection) pairs; owners that have exited
        # (e.g. a wound-down commit pool) are reaped on the next
        # connect so file handles don't accumulate until close().
        self._thread_conns: List[tuple] = []
        self._conns_lock = threading.Lock()
        self._closed = False
        # ``:memory:`` databases are private to their connection, so a
        # per-thread pool would give every thread an empty store; share
        # one connection and serialize *all* access through the lock.
        self._shared_conn: Optional[sqlite3.Connection] = None
        if self.path == ":memory:":
            self._shared_conn = self._connect()
        else:
            self._conn  # eagerly create the file + schema

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False so close() can reap connections that
        # other threads opened; each non-shared connection is still
        # only ever *used* by its owning thread.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.execute("PRAGMA synchronous=NORMAL")
            # busy_timeout applies to *every* connection — shared
            # ':memory:' connections hit SQLITE_BUSY too (e.g. via an
            # ATTACH or a second handle in tests), and without the
            # pragma they relied solely on the retry loop.
            conn.execute("PRAGMA busy_timeout=10000")
            if self._shared_conn is None and self.path != ":memory:":
                conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)
            # Stores created before the telemetry PR lack the runs.meta
            # column; widen them in place (CREATE IF NOT EXISTS above
            # skipped the table, so the ALTER is the upgrade path).
            columns = {row[1]
                       for row in conn.execute("PRAGMA table_info(runs)")}
            if "meta" not in columns:
                conn.execute("ALTER TABLE runs ADD COLUMN meta TEXT")
            conn.commit()
        except sqlite3.DatabaseError as error:
            # A corrupted/garbage file fails right here; surface it as
            # a typed store error so shard layers can degrade instead
            # of leaking a raw sqlite3 exception.
            conn.close()
            raise StoreError(
                f"cannot open store at {self.path!r}: {error}") from error
        return conn

    def _reap_dead_owners_locked(self) -> None:
        survivors = []
        for thread, conn in self._thread_conns:
            if thread.is_alive():
                survivors.append((thread, conn))
            else:
                try:
                    conn.close()
                except sqlite3.Error:
                    # A close() that fails leaks the file handle; make
                    # that visible instead of silently swallowing it.
                    _obs.count("store.reap_errors_total",
                               **self._obs_labels)
        self._thread_conns = survivors

    @property
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection (the shared one for ``:memory:``)."""
        if self._closed:
            # Lazily reconnecting would silently resurrect the store —
            # for ':memory:' as a brand-new empty database.
            raise StoreError(f"store {self.path!r} is closed")
        if self._shared_conn is not None:
            return self._shared_conn
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
            with self._conns_lock:
                self._reap_dead_owners_locked()
                self._thread_conns.append((threading.current_thread(), conn))
        return conn

    def _read_lock(self):
        """Readers only need the lock when the connection is shared
        (WAL-mode per-thread connections read without blocking)."""
        return self._write_lock if self._shared_conn is not None else _NULL_LOCK

    # -- telemetry helpers ---------------------------------------------
    def _commit(self, op: str = "", run_id: str = "") -> None:
        """Commit this thread's connection, recording commit latency,
        commit counts, and WAL growth/auto-checkpoints when telemetry
        is on (a WAL file that *shrank* since the last commit means
        SQLite ran an auto-checkpoint in between)."""
        conn = self._conn
        _faults.fire("store.commit", store=self._obs_labels["store"],
                     op=op, run_id=run_id)
        if not _obs.enabled():
            conn.commit()
            return
        labels = self._obs_labels
        started = time.perf_counter()
        conn.commit()
        _obs.observe("store.commit_seconds", time.perf_counter() - started,
                     **labels)
        _obs.count("store.commit_total", **labels)
        if self._wal_path is not None:
            try:
                wal_bytes = os.path.getsize(self._wal_path)
            except OSError:
                wal_bytes = 0
            _obs.gauge("store.wal_bytes", wal_bytes, **labels)
            if wal_bytes < self._last_wal_bytes:
                _obs.count("store.wal_autocheckpoint_total", **labels)
            self._last_wal_bytes = wal_bytes

    def _timed_write(self, write):
        """Run ``write()`` under the write lock; when telemetry is on,
        record lock wait, write duration, and rows written."""
        if not _obs.enabled():
            with self._write_lock:
                return write()
        labels = self._obs_labels
        wait_started = time.perf_counter()
        with self._write_lock:
            started = time.perf_counter()
            _obs.observe("store.write_lock_wait_seconds",
                         started - wait_started, **labels)
            before = self._conn.total_changes
            info = write()
            _obs.observe("store.write_seconds",
                         time.perf_counter() - started, **labels)
            _obs.count("store.rows_written_total",
                       self._conn.total_changes - before, **labels)
            return info

    def _retrying(self, operation: str, func):
        """Run a write operation under the store's retry policy.

        Each attempt acquires (and on failure releases) the write
        lock, and every write helper rolls back before re-raising, so
        a retried attempt always starts from a clean transaction.
        """
        return retry_call(func, self.retry_policy, operation=operation,
                          labels=self._obs_labels)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put_graph(self, run_id: str, graph: ProvenanceGraph,
                  source: Optional[str] = None) -> RunInfo:
        return self._retrying("put_graph", lambda: self._timed_write(
            lambda: self._put_graph_locked(run_id, graph, source)))

    def _put_graph_locked(self, run_id: str, graph: ProvenanceGraph,
                          source: Optional[str]) -> RunInfo:
        now = time.time()
        cursor = self._conn.cursor()
        try:
            row = cursor.execute(
                "SELECT created_at, source, meta FROM runs WHERE run_id = ?",
                (run_id,)).fetchone()
            created = row[0] if row else now
            if source is None and row is not None:
                source = row[1]
            meta = row[2] if row else None
            self._clear_run(cursor, run_id)
            self._insert_nodes(cursor, run_id, graph, 0)
            self._insert_edge_tails(cursor, run_id, graph, {})
            self._upsert_invocations(cursor, run_id,
                                     graph.invocations.values())
            info = self._write_run_row(cursor, run_id, graph, created, now,
                                       source, meta)
            # Clearing the ingest sentinel rides the same transaction:
            # the run flips from "pending" to "complete" atomically.
            cursor.execute("DELETE FROM pending_ingests WHERE run_id = ?",
                           (run_id,))
            self._commit(op="put_graph", run_id=run_id)
            return info
        except BaseException:
            self._conn.rollback()
            raise

    def append_graph(self, run_id: str, graph: ProvenanceGraph,
                     source: Optional[str] = None) -> RunInfo:
        return self._retrying("append_graph", lambda: self._timed_write(
            lambda: self._append_graph_locked(run_id, graph, source)))

    def _append_graph_locked(self, run_id: str, graph: ProvenanceGraph,
                             source: Optional[str]) -> RunInfo:
        cursor = self._conn.cursor()
        row = cursor.execute(
            "SELECT created_at, source, next_node_id, meta FROM runs "
            "WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            return self._put_graph_locked(run_id, graph, source)
        created, stored_source, stored_next_node, stored_meta = row
        if graph._next_node_id < stored_next_node:
            raise StoreError(
                f"append to run {run_id!r} would shrink it: stored "
                f"high-water node id {stored_next_node}, graph has "
                f"{graph._next_node_id} (append expects a superset graph)")
        now = time.time()
        try:
            self._insert_nodes(cursor, run_id, graph, stored_next_node)
            stored_counts: Dict[int, int] = dict(cursor.execute(
                "SELECT target, COUNT(*) FROM edges WHERE run_id = ? "
                "GROUP BY target", (run_id,)).fetchall())
            # Guard against appending an unrelated graph: every stored
            # node/operand-list must still exist and must not have
            # shrunk.  (Prefix contents are trusted — comparing them
            # would defeat the incremental write.)
            for target, have in stored_counts.items():
                predecessors = (graph.preds(target)
                                if graph.has_node(target) else None)
                if predecessors is None or len(predecessors) < have:
                    raise StoreError(
                        f"append to run {run_id!r} is not a superset of "
                        f"the stored graph: node {target} has "
                        f"{0 if predecessors is None else len(predecessors)} "
                        f"operand(s), store holds {have}")
            self._insert_edge_tails(cursor, run_id, graph, stored_counts)
            self._upsert_invocations(cursor, run_id,
                                     graph.invocations.values())
            info = self._write_run_row(cursor, run_id, graph, created, now,
                                       source if source is not None
                                       else stored_source, stored_meta)
            cursor.execute("DELETE FROM pending_ingests WHERE run_id = ?",
                           (run_id,))
            self._commit(op="append_graph", run_id=run_id)
            return info
        except BaseException:
            self._conn.rollback()
            raise

    def delete_run(self, run_id: str) -> None:
        self._retrying("delete_run",
                       lambda: self._delete_run_once(run_id))

    def _delete_run_once(self, run_id: str) -> None:
        with self._write_lock:
            cursor = self._conn.cursor()
            if not cursor.execute("SELECT 1 FROM runs WHERE run_id = ?",
                                  (run_id,)).fetchone():
                raise UnknownRunError(run_id)
            try:
                self._clear_run(cursor, run_id)
                cursor.execute("DELETE FROM runs WHERE run_id = ?",
                               (run_id,))
                cursor.execute(
                    "DELETE FROM pending_ingests WHERE run_id = ?",
                    (run_id,))
                self._commit(op="delete_run", run_id=run_id)
            except BaseException:
                self._conn.rollback()
                raise

    # -- write helpers -------------------------------------------------
    def _clear_run(self, cursor: sqlite3.Cursor, run_id: str) -> None:
        cursor.execute("DELETE FROM nodes WHERE run_id = ?", (run_id,))
        cursor.execute("DELETE FROM edges WHERE run_id = ?", (run_id,))
        cursor.execute("DELETE FROM invocations WHERE run_id = ?", (run_id,))

    def _insert_nodes(self, cursor: sqlite3.Cursor, run_id: str,
                      graph: ProvenanceGraph, start: int) -> None:
        """Insert every alive node with id >= ``start``."""
        cursor.executemany(
            "INSERT INTO nodes VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            ((run_id, *record) for record in node_records(graph, start)))

    def _insert_edge_tails(self, cursor: sqlite3.Cursor, run_id: str,
                           graph: ProvenanceGraph,
                           stored_counts: Dict[int, int]) -> None:
        """Insert each node's operand-list tail beyond what is stored."""
        pred_views = graph.csr().pred_views

        def rows():
            for target in graph.node_ids():
                predecessors = pred_views[target]
                have = stored_counts.get(target, 0)
                for seq in range(have, len(predecessors)):
                    yield run_id, target, seq, predecessors[seq]
        cursor.executemany("INSERT INTO edges VALUES (?, ?, ?, ?)", rows())

    def _upsert_invocations(self, cursor: sqlite3.Cursor, run_id: str,
                            invocations) -> None:
        cursor.executemany(
            "INSERT OR REPLACE INTO invocations VALUES (?, ?, ?, ?, ?, ?, ?)",
            ((run_id, invocation.invocation_id, invocation.module_name,
              invocation.module_node, json.dumps(invocation.input_nodes),
              json.dumps(invocation.output_nodes),
              json.dumps(invocation.state_nodes))
             for invocation in invocations))

    def _write_run_row(self, cursor: sqlite3.Cursor, run_id: str,
                       graph: ProvenanceGraph, created: float, updated: float,
                       source: Optional[str],
                       meta: Optional[str] = None) -> RunInfo:
        cursor.execute(
            "INSERT OR REPLACE INTO runs (run_id, created_at, updated_at, "
            "source, node_count, edge_count, invocation_count, "
            "next_node_id, next_invocation_id, meta) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (run_id, created, updated, source, graph.node_count,
             graph.edge_count, len(graph.invocations),
             graph._next_node_id, graph._next_invocation_id, meta))
        return RunInfo(run_id, created, updated, source, graph.node_count,
                       graph.edge_count, len(graph.invocations),
                       meta=json.loads(meta) if meta else None)

    # ------------------------------------------------------------------
    # Read path (lazy: nothing is loaded until a run is asked for)
    # ------------------------------------------------------------------
    def load_graph(self, run_id: str) -> ProvenanceGraph:
        _faults.fire("store.read", store=self._obs_labels["store"],
                     run_id=run_id)
        if not _obs.enabled():
            with self._read_lock():
                return self._load_graph_unlocked(run_id)
        started = time.perf_counter()
        with self._read_lock():
            graph = self._load_graph_unlocked(run_id)
        _obs.observe("store.read_seconds", time.perf_counter() - started,
                     **self._obs_labels)
        _obs.count("store.rows_read_total",
                   graph.node_count + graph.edge_count, **self._obs_labels)
        return graph

    def _load_graph_unlocked(self, run_id: str) -> ProvenanceGraph:
        cursor = self._conn.cursor()
        row = cursor.execute(
            "SELECT next_node_id, next_invocation_id FROM runs "
            "WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise UnknownRunError(run_id)
        graph = ProvenanceGraph()
        graph._restore_columns(decode_records(cursor.execute(
            "SELECT node_id, kind, label, ntype, module, invocation, "
            "value FROM nodes WHERE run_id = ? ORDER BY node_id",
            (run_id,))))
        sources: List[int] = []
        targets: List[int] = []
        for target, source in cursor.execute(
                "SELECT target, source FROM edges WHERE run_id = ? "
                "ORDER BY target, seq", (run_id,)):
            sources.append(source)
            targets.append(target)
        graph.add_edge_lists(sources, targets)
        for (invocation_id, module, module_node, inputs, outputs,
             state) in cursor.execute(
                 "SELECT invocation_id, module, module_node, inputs, "
                 "outputs, state FROM invocations WHERE run_id = ? "
                 "ORDER BY invocation_id", (run_id,)):
            invocation = Invocation(invocation_id, module, module_node)
            invocation.input_nodes = json.loads(inputs)
            invocation.output_nodes = json.loads(outputs)
            invocation.state_nodes = json.loads(state)
            graph.invocations[invocation_id] = invocation
        # Restore the stored id high-water mark; _pad_rows keeps the
        # arena columns sized to it (trailing removed nodes leave the
        # stored counter above the highest surviving row).
        graph._pad_rows(row[0])
        graph._next_invocation_id = row[1]
        return graph

    # ------------------------------------------------------------------
    # Pushdown tier (recursive walks inside SQLite)
    # ------------------------------------------------------------------
    def pushdown(self, run_id: str) -> Optional[PushdownView]:
        """A :class:`~repro.store.pushdown.PushdownView` answering
        this run's queries inside SQLite, or ``None`` when the tier
        is disabled or the run is unknown (callers fall back to the
        CSR tiers)."""
        if not pushdown_enabled():
            return None
        with self._read_lock():
            known = self._conn.execute(
                "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)).fetchone()
        return PushdownView(self, run_id) if known else None

    @staticmethod
    def _info_row(row) -> RunInfo:
        meta = json.loads(row[7]) if row[7] else None
        return RunInfo(*row[:7], meta=meta)

    def run_info(self, run_id: str) -> RunInfo:
        with self._read_lock():
            row = self._conn.execute(
                "SELECT run_id, created_at, updated_at, source, node_count, "
                "edge_count, invocation_count, meta FROM runs "
                "WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise UnknownRunError(run_id)
        return self._info_row(row)

    def list_runs(self) -> List[RunInfo]:
        with self._read_lock():
            rows = self._conn.execute(
                "SELECT run_id, created_at, updated_at, source, node_count, "
                "edge_count, invocation_count, meta FROM runs "
                "ORDER BY created_at, run_id").fetchall()
        return [self._info_row(row) for row in rows]

    def set_run_meta(self, run_id: str, meta: dict) -> None:
        encoded = json.dumps(meta)
        self._retrying("set_run_meta",
                       lambda: self._set_run_meta_once(run_id, encoded))

    def _set_run_meta_once(self, run_id: str, encoded: str) -> None:
        with self._write_lock:
            _faults.fire("catalog.meta", store=self._obs_labels["store"],
                         run_id=run_id)
            cursor = self._conn.cursor()
            try:
                updated = cursor.execute(
                    "UPDATE runs SET meta = ? WHERE run_id = ?",
                    (encoded, run_id)).rowcount
                if not updated:
                    self._conn.rollback()
                    raise UnknownRunError(run_id)
                self._commit(op="set_run_meta", run_id=run_id)
            except UnknownRunError:
                raise
            except BaseException:
                self._conn.rollback()
                raise

    # ------------------------------------------------------------------
    # Crash-safe ingest sentinels
    # ------------------------------------------------------------------
    def mark_pending(self, run_id: str) -> None:
        """Journal that an ingest for ``run_id`` is in flight.

        The sentinel is committed *before* the run's data transaction
        and deleted *inside* it, so a process killed at any point
        leaves either a complete run (sentinel gone) or a detectable
        partial (sentinel present) — never a silent half-run.  ``repro
        doctor`` scans and rolls these back.
        """
        def once() -> None:
            with self._write_lock:
                try:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO pending_ingests "
                        "VALUES (?, ?)", (run_id, time.time()))
                    self._commit(op="mark_pending", run_id=run_id)
                except BaseException:
                    self._conn.rollback()
                    raise
        self._retrying("mark_pending", once)

    def clear_pending(self, run_id: str) -> None:
        """Drop a sentinel without committing data (repair path)."""
        def once() -> None:
            with self._write_lock:
                try:
                    self._conn.execute(
                        "DELETE FROM pending_ingests WHERE run_id = ?",
                        (run_id,))
                    self._commit(op="clear_pending", run_id=run_id)
                except BaseException:
                    self._conn.rollback()
                    raise
        self._retrying("clear_pending", once)

    def pending_runs(self) -> List[str]:
        """Run ids with a live ingest sentinel (suspected partials)."""
        with self._read_lock():
            rows = self._conn.execute(
                "SELECT run_id FROM pending_ingests "
                "ORDER BY started_at, run_id").fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def integrity_check(self, quick: bool = False) -> List[str]:
        """SQLite's own corruption scan; ``[]`` means healthy.

        Returns the ``PRAGMA integrity_check`` problem rows (or the
        open/scan error itself) so ``repro doctor`` can report *what*
        is wrong with a shard, not just that something is.
        """
        pragma = "quick_check" if quick else "integrity_check"
        try:
            with self._read_lock():
                rows = self._conn.execute(f"PRAGMA {pragma}").fetchall()
        except (StoreError, sqlite3.Error) as error:
            return [str(error)]
        problems = [row[0] for row in rows if row[0] != "ok"]
        return problems

    def rowid_tables(self) -> List[str]:
        """Provenance tables a pre-``WITHOUT ROWID`` writer created:
        they still answer correctly, but every lookup goes through a
        second b-tree (``repro doctor`` names them)."""
        with self._read_lock():
            rows = self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' AND "
                "name IN ('nodes', 'edges', 'invocations') AND "
                "sql NOT LIKE '%WITHOUT ROWID%' ORDER BY name"
            ).fetchall()
        return [row[0] for row in rows]

    def checkpoint(self, mode: str = "TRUNCATE") -> None:
        """Force a WAL checkpoint (doctor runs one before scanning so
        the main database file reflects every committed write)."""
        if self.path == ":memory:":
            return
        _faults.fire("store.wal_checkpoint",
                     store=self._obs_labels["store"])
        with self._write_lock:
            self._conn.execute(f"PRAGMA wal_checkpoint({mode})")

    def storage_bytes(self) -> Optional[int]:
        """Bytes on disk: the database file plus WAL/SHM sidecars."""
        if self.path == ":memory:":
            return None
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every connection the store opened (any thread's).
        Further use raises :class:`~repro.errors.StoreError`."""
        self._closed = True
        with self._conns_lock:
            conns = [conn for _thread, conn in self._thread_conns]
            self._thread_conns = []
        if self._shared_conn is not None:
            conns.append(self._shared_conn)
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                _obs.count("store.reap_errors_total", **self._obs_labels)
        self._shared_conn = None
        self._local = threading.local()

    def __repr__(self) -> str:
        return f"SQLiteStore({self.path!r})"
