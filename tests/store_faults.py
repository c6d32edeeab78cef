"""Disk faults for store tests: payload edits below the store's API and
a schema-3 store written the way that layout wrote it."""

import json
import sqlite3
import zlib

from repro.crawler.integrity import _visit_to_dict


def rewrite_payload(store, rank, edit):
    """Replace ``rank``'s stored payload with ``edit(payload)`` — a disk
    fault below the store's API."""
    payload = store._conn.execute(
        "SELECT payload FROM visits WHERE rank = ?", (rank,)).fetchone()[0]
    store._conn.execute("UPDATE visits SET payload = ? WHERE rank = ?",
                        (edit(payload), rank))
    store._conn.commit()


def flip_in_string(payload):
    """Flip the case bit of one letter inside the ``requested_url``
    string: the payload still parses, only its checksum gives it away."""
    pos = payload.index(b'"requested_url":"https://') + 25
    assert payload[pos:pos + 1].isalpha()
    return payload[:pos] + bytes([payload[pos] ^ 0x20]) + payload[pos + 1:]


def break_frames(payload):
    """Make the ``frames`` child records unparseable."""
    assert b'"frames":[{' in payload
    return payload.replace(b'"frames":[{', b'"frames":[{{', 1)


_V3_SCHEMA = """
CREATE TABLE visits (
    rank INTEGER PRIMARY KEY, requested_url TEXT NOT NULL,
    final_url TEXT NOT NULL, success INTEGER NOT NULL, failure TEXT,
    top_level_document_count INTEGER NOT NULL,
    skipped_lazy_iframes INTEGER NOT NULL,
    iframe_load_failures INTEGER NOT NULL, duration_seconds REAL NOT NULL,
    retries INTEGER NOT NULL DEFAULT 0, error_detail TEXT, checksum INTEGER);
CREATE TABLE frames (
    rank INTEGER NOT NULL, frame_id INTEGER NOT NULL, url TEXT NOT NULL,
    origin TEXT NOT NULL, site TEXT NOT NULL, parent_id INTEGER,
    depth INTEGER NOT NULL, is_local INTEGER NOT NULL, headers TEXT NOT NULL,
    iframe_attributes TEXT, PRIMARY KEY (rank, frame_id));
CREATE TABLE calls (
    rank INTEGER NOT NULL, frame_id INTEGER NOT NULL, api TEXT NOT NULL,
    kind TEXT NOT NULL, permissions TEXT NOT NULL, args TEXT NOT NULL,
    script_url TEXT, allowed INTEGER NOT NULL);
CREATE TABLE scripts (
    rank INTEGER NOT NULL, frame_id INTEGER NOT NULL, url TEXT,
    source TEXT NOT NULL);
CREATE TABLE prompts (
    rank INTEGER NOT NULL, frame_id INTEGER NOT NULL,
    permission TEXT NOT NULL, display_site TEXT NOT NULL, text TEXT NOT NULL);
CREATE TABLE quarantine (
    rank INTEGER NOT NULL, reason TEXT NOT NULL, detail TEXT NOT NULL,
    payload TEXT);
"""


def write_v3_store(path, visits, *, legacy_ranks=()):
    """A schema-3 store as that layout wrote it: five normalized tables,
    checksums over sorted-key JSON (NULL for ``legacy_ranks``)."""
    conn = sqlite3.connect(path)
    conn.executescript(_V3_SCHEMA)
    for v in visits:
        checksum = None if v.rank in legacy_ranks else zlib.crc32(json.dumps(
            _visit_to_dict(v), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True).encode("ascii"))
        conn.execute("INSERT INTO visits VALUES (?,?,?,?,?,?,?,?,?,?,?,?)", (
            v.rank, v.requested_url, v.final_url, int(v.success), v.failure,
            v.top_level_document_count, v.skipped_lazy_iframes,
            v.iframe_load_failures, v.duration_seconds, v.retries,
            v.error_detail, checksum))
        conn.executemany("INSERT INTO frames VALUES (?,?,?,?,?,?,?,?,?,?)", [
            (v.rank, f.frame_id, f.url, f.origin, f.site, f.parent_id,
             f.depth, int(f.is_local), json.dumps(f.headers),
             None if f.iframe_attributes is None
             else json.dumps(f.iframe_attributes)) for f in v.frames])
        conn.executemany("INSERT INTO calls VALUES (?,?,?,?,?,?,?,?)", [
            (v.rank, c.frame_id, c.api, c.kind, json.dumps(list(c.permissions)),
             json.dumps(list(c.args)), c.script_url, int(c.allowed))
            for c in v.calls])
        conn.executemany("INSERT INTO scripts VALUES (?,?,?,?)", [
            (v.rank, s.frame_id, s.url, s.source) for s in v.scripts])
        conn.executemany("INSERT INTO prompts VALUES (?,?,?,?,?)", [
            (v.rank, p.requesting_frame_id, p.permission, p.display_site,
             p.text) for p in v.prompts])
    conn.commit()
    return conn
