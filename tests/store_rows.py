"""Read and damage the disk stores' rows from outside the store.

The IR index, the analysis summaries and the reports are rows of one
SQLite table (:mod:`repro.corpus.cache`).  These helpers open the
database on their own connection, as another process would, so a
test can list and decode what was stored or plant a torn, foreign,
damaged or other-code-state row without going through the store's
checks.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from typing import Any, Dict, List, Optional

from repro.corpus import cache as disk


def db_path() -> str:
    """The store's database file under the current cache directory."""
    return os.path.join(disk.cache_dir(), disk.STORE_DB)


def _connect() -> sqlite3.Connection:
    return sqlite3.connect(db_path(), timeout=30.0, isolation_level=None)


def blobs(kind: Optional[str] = None) -> Dict[str, bytes]:
    """key -> pickled value of every row (of ``kind``, if given); empty
    when there is no database."""
    if not os.path.exists(db_path()):
        return {}
    conn = _connect()
    try:
        query = "SELECT key, value FROM entries"
        rows = (conn.execute(query + " WHERE kind = ?", (kind,))
                if kind else conn.execute(query))
        return dict(rows.fetchall())
    finally:
        conn.close()


def values(kind: Optional[str] = None) -> Dict[str, Any]:
    """key -> unpickled value of every row (of ``kind``, if given)."""
    return {key: pickle.loads(blob) for key, blob in blobs(kind).items()}


def keys(kind: Optional[str] = None) -> List[str]:
    """The sorted keys of every row (of ``kind``, if given)."""
    return sorted(blobs(kind))


def codes() -> List[str]:
    """The code column of every row."""
    conn = _connect()
    try:
        return [code for (code,) in conn.execute("SELECT code FROM entries")]
    finally:
        conn.close()


def put(key: str, blob: bytes, kind: str = "an",
        code: Optional[str] = None) -> None:
    """Write raw bytes as the row under ``key`` (default code: the
    current package digest)."""
    os.makedirs(disk.cache_dir(), exist_ok=True)
    conn = _connect()
    try:
        conn.executescript(disk._SCHEMA)
        conn.execute("INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?)",
                     (key, kind, disk.package_digest() if code is None
                      else code, blob))
    finally:
        conn.close()


def drop(kind: str) -> None:
    """Delete every row of ``kind``."""
    conn = _connect()
    try:
        conn.execute("DELETE FROM entries WHERE kind = ?", (kind,))
    finally:
        conn.close()


def put_value(key: str, value: Any, kind: str = "an") -> None:
    """Pickle ``value`` into the row under ``key``, unchecked."""
    put(key, pickle.dumps(value), kind)
