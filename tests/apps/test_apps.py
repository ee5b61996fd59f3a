"""Tests for the application payloads."""

from __future__ import annotations

from repro.apps import AppPayload


def test_app_payload_tag_stable():
    payload = AppPayload(seqno=3, sent_at=1.0, source=42, stream_id=7)
    assert payload.tag == "app:7:42:3"
