"""Versioned single-file container for trained classifiers and pipelines.

Layout: 4-byte magic, little-endian uint32 format version, uint32 header
length, a JSON header (family, seed, data fingerprints, body checksum), then
the JSON body. Floats serialize through repr, which round-trips doubles
exactly, so a loaded model predicts bit-identically. No timestamps are
written: identical inputs produce identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

from . import models
from .stages import FittedPipeline

MAGIC = b"CVML"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Unreadable model container."""


class ChecksumError(ModelFileError):
    """Body bytes do not match the recorded digest."""


class VersionError(ModelFileError):
    """Container written by an unsupported format version."""


def _body_for(obj) -> tuple[str, dict]:
    if isinstance(obj, FittedPipeline):
        return "pipeline", obj.to_dict()
    if isinstance(obj, models.TrainedClassifier):
        return "classifier", {"family": obj.family, "model": obj.to_dict()}
    raise ModelFileError(f"cannot persist object of type {type(obj).__name__}")


def save_model(
    obj,
    path,
    *,
    seed: int | None = None,
    data_fingerprint: str | None = None,
    source_fingerprint: str | None = None,
) -> None:
    """Write a classifier or fitted pipeline with integrity metadata."""
    kind, payload = _body_for(obj)
    body = json.dumps({"kind": kind, "payload": payload}, separators=(",", ":")).encode("utf-8")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "family": obj.family,
        "seed": seed,
        "data_fingerprint": data_fingerprint,
        "source_fingerprint": source_fingerprint,
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "body_len": len(body),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(body)


#: Header keys that every model file carries.
REQUIRED_HEADER_KEYS = ("format_version", "kind", "family", "body_sha256", "body_len")


def _read_header(fh, path) -> dict:
    """The header of the open model file `fh`, leaving it at the body."""
    prefix = fh.read(12)
    if len(prefix) < 12 or prefix[:4] != MAGIC:
        raise ModelFileError(f"{path}: not a coverml model file")
    version, header_len = struct.unpack("<II", prefix[4:])
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{path}: unsupported model format version {version} (supported: {FORMAT_VERSION})"
        )
    raw = fh.read(header_len)
    if len(raw) < header_len:
        raise ModelFileError(f"{path}: truncated header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFileError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise ModelFileError(f"{path}: corrupt header: not a JSON object")
    missing = [key for key in REQUIRED_HEADER_KEYS if key not in header]
    if missing:
        raise ModelFileError(f"{path}: corrupt header: missing {', '.join(missing)}")
    return header


def read_header(path) -> dict:
    """Header only: family and version are recoverable without the body."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_model(path) -> tuple[object, dict]:
    """Load and verify; returns (model-or-pipeline, header metadata)."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        body = fh.read()
    if len(body) != header["body_len"]:
        raise ModelFileError(
            f"{path}: body is {len(body)} bytes, header declares {header['body_len']}"
        )
    if hashlib.sha256(body).hexdigest() != header["body_sha256"]:
        raise ChecksumError(f"{path}: body checksum mismatch; file is corrupt")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ModelFileError(f"{path}: corrupt body: {exc}") from exc
    if not isinstance(doc, dict) or not {"kind", "payload"} <= doc.keys():
        raise ModelFileError(f"{path}: corrupt body: expected an object with kind and payload")
    payload = doc["payload"]
    try:
        if doc["kind"] == "pipeline":
            return FittedPipeline.from_dict(payload), header
        if doc["kind"] == "classifier":
            return models.classifier_from_dict(payload["family"], payload["model"]), header
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ModelFileError(f"{path}: corrupt {doc['kind']} payload: {exc!r}") from exc
    raise ModelFileError(f"{path}: unknown payload kind {doc['kind']!r}")
