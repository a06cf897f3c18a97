"""Durable per-client privacy-budget ledger (sqlite + migrations).

The paper prices disclosure for a *single* query; a served deployment
answers millions of queries from returning clients, and disclosed
features compose across requests -- an adversary who learns features
``{a, b}`` today and ``{c}`` tomorrow holds the posterior of
``{a, b, c}``. :class:`PrivacyLedger` makes that composition explicit
and enforceable: it durably records, per client identity, which
features have ever been disclosed and the *cumulative realized risk* of
that set, so the serving runtime can price each new request against the
client's remaining budget ``rho`` and degrade gracefully as the budget
depletes (shrink the disclosed set, then fall back to pure SMC).

Three properties the serving integration leans on:

1. **No double-charge.** A feature already disclosed to a client is
   free forever after: cumulative risk is the risk *of the set*, and
   ``risk(D | D)`` adds nothing. The ``disclosures`` table's primary key
   enforces the same rule durably.
2. **Budget is a cap on realized risk, not a token bucket.** ``spent``
   always equals the priced risk of the client's full disclosed set, so
   the invariant ``spent <= rho`` is exactly "the adversary's composed
   posterior gain never exceeds the budget".
3. **Durability with versioned schema.** The backing store is a single
   sqlite file with ``PRAGMA user_version``-tracked migrations: a
   ledger created by older code is upgraded in place on open, and the
   forward path is pinned by tests (v1 -> v2 under
   ``tests/privacy/test_ledger.py``).

The module deliberately imports only the standard library -- pricing
(numpy, the incremental evaluator) lives in
:mod:`repro.privacy.pricing`, and :mod:`repro.serving.budget` glues the
two together for the serving runtime. Operator workflow: see
``docs/PRIVACY.md`` and the ``python -m repro budget`` CLI.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class LedgerError(Exception):
    """Raised on invalid ledger operations or corrupt/newer schemas."""


#: Current schema version; ``PRAGMA user_version`` of a healthy ledger.
SCHEMA_VERSION = 2

#: Default per-client budget ``rho`` (normalized cumulative risk in
#: ``[0, 1]``) when the operator does not configure one.
DEFAULT_PRIVACY_BUDGET = 0.5

#: Ordered, append-only schema migrations. Each entry upgrades
#: ``user_version`` N-1 -> N inside one transaction; opening a ledger
#: applies every pending entry, so any historical file fast-forwards to
#: :data:`SCHEMA_VERSION`. Never edit a shipped entry -- append.
MIGRATIONS: Dict[int, str] = {
    # v1: the core ledger -- one row per client, one row per
    # (client, feature) disclosure. The disclosure primary key IS the
    # no-double-charge rule, durably.
    1: """
        CREATE TABLE clients (
            client_id  TEXT PRIMARY KEY,
            budget     REAL NOT NULL,
            spent      REAL NOT NULL DEFAULT 0.0,
            created_at TEXT NOT NULL,
            updated_at TEXT NOT NULL
        );
        CREATE TABLE disclosures (
            client_id  TEXT    NOT NULL,
            feature    INTEGER NOT NULL,
            request_id TEXT    NOT NULL,
            created_at TEXT    NOT NULL,
            PRIMARY KEY (client_id, feature)
        );
    """,
    # v2: the per-request charge journal (audit trail behind
    # ``repro budget inspect``) plus the hot-path index. Older ledgers
    # migrate in place; their charge history simply starts at the
    # upgrade.
    2: """
        CREATE TABLE charges (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            client_id   TEXT NOT NULL,
            request_id  TEXT NOT NULL,
            features    TEXT NOT NULL,
            delta       REAL NOT NULL,
            spent_after REAL NOT NULL,
            mode        TEXT NOT NULL,
            created_at  TEXT NOT NULL
        );
        CREATE INDEX idx_charges_client ON charges (client_id);
        CREATE INDEX idx_disclosures_client ON disclosures (client_id);
    """,
}


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True)
class ClientRecord:
    """One client's ledger state, as the CLI and tests read it.

    ``spent`` is the cumulative realized risk of ``disclosed`` (the
    priced risk of the *set*, not a sum of per-feature prices), and
    ``remaining`` the headroom left under the client's budget.
    """

    client_id: str
    budget: float
    spent: float
    disclosed: Tuple[int, ...]
    charges: int
    created_at: str
    updated_at: str

    @property
    def remaining(self) -> float:
        return max(0.0, self.budget - self.spent)

    def to_dict(self) -> Dict[str, object]:
        return {
            "client_id": self.client_id,
            "budget": self.budget,
            "spent": self.spent,
            "remaining": self.remaining,
            "disclosed": list(self.disclosed),
            "charges": self.charges,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }


@dataclass(frozen=True)
class ChargeRecord:
    """One row of the charge journal (schema v2's audit trail)."""

    client_id: str
    request_id: str
    features: Tuple[int, ...]
    delta: float
    spent_after: float
    mode: str
    created_at: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "client_id": self.client_id,
            "request_id": self.request_id,
            "features": list(self.features),
            "delta": self.delta,
            "spent_after": self.spent_after,
            "mode": self.mode,
            "created_at": self.created_at,
        }


class PrivacyLedger:
    """Durable per-client privacy-budget ledger backed by sqlite.

    Records, per client identity (the handshake keyring fingerprint in
    the serving runtime), every feature ever disclosed and the
    cumulative realized privacy risk of that set, so repeated queries
    compose correctly: already-disclosed features are never charged
    twice, and the recorded ``spent`` can never exceed the client's
    budget ``rho``. The schema is versioned (``PRAGMA user_version``)
    and migrates forward automatically on open.

    Thread-safe: one connection guarded by a lock, so the concurrent
    serving runtime's handler threads can charge through a shared
    instance. Cross-process sharing goes through the fleet frontend
    (one ledger, one writer) rather than shared file handles.

    Example::

        from repro.privacy.ledger import PrivacyLedger

        with PrivacyLedger("budget.db", default_budget=0.3) as ledger:
            ledger.charge("pk-ab12", features=[0, 4], delta=0.11,
                          spent_after=0.11, request_id="req-1",
                          mode="full")
            record = ledger.client("pk-ab12")
            assert record.disclosed == (0, 4)
            assert record.remaining == 0.19
    """

    def __init__(
        self,
        path: str,
        default_budget: float = DEFAULT_PRIVACY_BUDGET,
        target_version: Optional[int] = None,
    ) -> None:
        """Open (creating and/or migrating) the ledger at ``path``.

        ``default_budget`` seeds new clients' ``rho``. ``target_version``
        stops migrations early -- the forward-compatibility test hook
        that creates a v1 file for newer code to upgrade; production
        callers leave it ``None`` (= :data:`SCHEMA_VERSION`).
        """
        if not 0.0 <= float(default_budget) <= 1.0:
            raise LedgerError(
                f"default_budget must be a normalized risk in [0, 1], "
                f"got {default_budget}"
            )
        self.path = path
        self.default_budget = float(default_budget)
        directory = os.path.dirname(os.path.abspath(path))
        if directory and not os.path.isdir(directory):
            raise LedgerError(f"ledger directory does not exist: {directory}")
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._migrate(target_version or SCHEMA_VERSION)

    # -- schema ----------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The backing file's ``PRAGMA user_version``."""
        with self._lock:
            return int(
                self._conn.execute("PRAGMA user_version").fetchone()[0]
            )

    def _migrate(self, target: int) -> None:
        if target > SCHEMA_VERSION:
            raise LedgerError(
                f"cannot migrate to unknown schema version {target} "
                f"(this build knows up to {SCHEMA_VERSION})"
            )
        with self._lock:
            current = int(
                self._conn.execute("PRAGMA user_version").fetchone()[0]
            )
            if current > SCHEMA_VERSION:
                raise LedgerError(
                    f"ledger {self.path!r} was written by newer code "
                    f"(schema v{current}; this build knows up to "
                    f"v{SCHEMA_VERSION})"
                )
            for version in range(current + 1, target + 1):
                with self._conn:  # one transaction per migration step
                    self._conn.executescript(MIGRATIONS[version])
                    self._conn.execute(f"PRAGMA user_version = {version}")

    # -- write path ------------------------------------------------------

    def ensure_client(
        self, client_id: str, budget: Optional[float] = None
    ) -> ClientRecord:
        """The client's record, creating it (with ``budget`` or the
        ledger default) on first sight."""
        now = _utcnow()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR IGNORE INTO clients "
                "(client_id, budget, spent, created_at, updated_at) "
                "VALUES (?, ?, 0.0, ?, ?)",
                (client_id,
                 self.default_budget if budget is None else float(budget),
                 now, now),
            )
        return self.client(client_id)

    def charge(
        self,
        client_id: str,
        features: Sequence[int],
        delta: float,
        spent_after: float,
        request_id: str,
        mode: str = "full",
    ) -> None:
        """Record one request's charge atomically.

        ``features`` are the *newly* disclosed features (may be empty
        for a fully-degraded or all-repeat request); ``delta`` the
        marginal realized risk this request added; ``spent_after`` the
        client's cumulative realized risk after the charge (the priced
        risk of the full disclosed set -- the caller computed it, the
        ledger stores it verbatim). Already-present features are
        ignored by the disclosure table's primary key, so a replayed
        charge cannot double-count.
        """
        if delta < -1e-9:
            raise LedgerError(f"negative charge delta {delta}")
        self.ensure_client(client_id)
        now = _utcnow()
        with self._lock, self._conn:
            for feature in features:
                self._conn.execute(
                    "INSERT OR IGNORE INTO disclosures "
                    "(client_id, feature, request_id, created_at) "
                    "VALUES (?, ?, ?, ?)",
                    (client_id, int(feature), request_id, now),
                )
            self._conn.execute(
                "UPDATE clients SET spent = ?, updated_at = ? "
                "WHERE client_id = ?",
                (float(spent_after), now, client_id),
            )
            try:
                self._conn.execute(
                    "INSERT INTO charges (client_id, request_id, features, "
                    "delta, spent_after, mode, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (client_id, request_id,
                     json.dumps([int(f) for f in features]),
                     float(delta), float(spent_after), mode, now),
                )
            except sqlite3.OperationalError:
                pass  # pre-v2 ledger: no charge journal yet

    def reset(self, client_id: Optional[str] = None) -> int:
        """Forget one client's history (or every client's, when
        ``None``); returns the number of client rows removed.

        This *grants budget back*: only run it when the real-world
        exposure is void too (key rotation, data-subject deletion) --
        see the runbook in ``docs/PRIVACY.md``.
        """
        with self._lock, self._conn:
            if client_id is None:
                removed = self._conn.execute(
                    "SELECT COUNT(*) FROM clients"
                ).fetchone()[0]
                for table in ("charges", "disclosures", "clients"):
                    try:
                        self._conn.execute(f"DELETE FROM {table}")
                    except sqlite3.OperationalError:
                        pass  # pre-v2 ledger: no charge journal yet
                return int(removed)
            removed = self._conn.execute(
                "SELECT COUNT(*) FROM clients WHERE client_id = ?",
                (client_id,),
            ).fetchone()[0]
            for table in ("charges", "disclosures", "clients"):
                try:
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE client_id = ?",
                        (client_id,),
                    )
                except sqlite3.OperationalError:
                    pass  # pre-v2 ledger: no charge journal yet
            return int(removed)

    # -- read path -------------------------------------------------------

    def client(self, client_id: str) -> ClientRecord:
        """One client's state; raises :class:`LedgerError` if unknown."""
        with self._lock:
            row = self._conn.execute(
                "SELECT budget, spent, created_at, updated_at "
                "FROM clients WHERE client_id = ?",
                (client_id,),
            ).fetchone()
            if row is None:
                raise LedgerError(f"unknown client {client_id!r}")
            disclosed = tuple(
                int(r[0]) for r in self._conn.execute(
                    "SELECT feature FROM disclosures "
                    "WHERE client_id = ? ORDER BY feature",
                    (client_id,),
                )
            )
            try:
                charges = int(self._conn.execute(
                    "SELECT COUNT(*) FROM charges WHERE client_id = ?",
                    (client_id,),
                ).fetchone()[0])
            except sqlite3.OperationalError:
                charges = 0  # pre-v2 ledger: no charge journal yet
        return ClientRecord(
            client_id=client_id,
            budget=float(row[0]),
            spent=float(row[1]),
            disclosed=disclosed,
            charges=charges,
            created_at=str(row[2]),
            updated_at=str(row[3]),
        )

    def disclosed(self, client_id: str) -> Tuple[int, ...]:
        """The features ever disclosed to ``client_id`` (empty for an
        unknown client -- reading never creates rows)."""
        with self._lock:
            return tuple(
                int(r[0]) for r in self._conn.execute(
                    "SELECT feature FROM disclosures "
                    "WHERE client_id = ? ORDER BY feature",
                    (client_id,),
                )
            )

    def clients(self) -> List[str]:
        """Every known client id, sorted."""
        with self._lock:
            return [
                str(r[0]) for r in self._conn.execute(
                    "SELECT client_id FROM clients ORDER BY client_id"
                )
            ]

    def client_count(self) -> int:
        """How many clients the ledger knows (``len(clients())``,
        without building the list)."""
        with self._lock:
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM clients"
            ).fetchone()[0])

    def top(self, limit: int = 10) -> List[ClientRecord]:
        """The ``limit`` clients with the highest cumulative spend."""
        with self._lock:
            ids = [
                str(r[0]) for r in self._conn.execute(
                    "SELECT client_id FROM clients "
                    "ORDER BY spent DESC, client_id LIMIT ?",
                    (int(limit),),
                )
            ]
        return [self.client(client_id) for client_id in ids]

    def charges(
        self, client_id: str, limit: int = 50
    ) -> List[ChargeRecord]:
        """The client's most recent charge-journal rows, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT client_id, request_id, features, delta, "
                "spent_after, mode, created_at FROM charges "
                "WHERE client_id = ? ORDER BY id DESC LIMIT ?",
                (client_id, int(limit)),
            ).fetchall()
        return [
            ChargeRecord(
                client_id=str(r[0]),
                request_id=str(r[1]),
                features=tuple(int(f) for f in json.loads(r[2])),
                delta=float(r[3]),
                spent_after=float(r[4]),
                mode=str(r[5]),
                created_at=str(r[6]),
            )
            for r in rows
        ]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Flush and close the backing connection."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "PrivacyLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
