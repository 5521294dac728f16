"""Loaders and writers for the external JSONL contracts.

Everything entering the pipeline passes through here: embedding sets,
annotation records, and loss logs. Loaders are pure functions over file
contents, preserve file order, and raise a distinct error kind per
contract violation, always naming the offending line.

Embeddings JSONL: one object per line,
``{"id": str, "domain": "infrared"|"visible", "vector": [f64, ...]}``;
the first line fixes the dimension.

Annotations JSONL:
``{"image_id": str, "width": int, "height": int,
"objects": [{"category": str, "bbox": [x, y, w, h]}], "scene": str?}``
with top-left-origin integer-pixel boxes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (
    BoundsError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyDomainError,
    MalformedLineError,
    NonFiniteValueError,
    UnknownCategoryError,
)

INFRARED = "infrared"
VISIBLE = "visible"
DOMAINS = (INFRARED, VISIBLE)


@dataclass(frozen=True)
class EmbeddingSample:
    id: str
    domain: str
    vector: tuple[float, ...]


@dataclass(frozen=True)
class EmbeddingSet:
    """Per-sample dense feature vectors tagged infrared or visible."""

    dim: int
    samples: tuple[EmbeddingSample, ...]

    def ids(self, domain: str | None = None) -> list[str]:
        return [s.id for s in self.samples if domain is None or s.domain == domain]

    def vectors(self, domain: str | None = None) -> list[tuple[float, ...]]:
        return [s.vector for s in self.samples if domain is None or s.domain == domain]

    def count(self, domain: str) -> int:
        return sum(1 for s in self.samples if s.domain == domain)


@dataclass(frozen=True)
class BBox:
    """Top-left origin, integer pixels."""

    x: int
    y: int
    w: int
    h: int

    def as_list(self) -> list[int]:
        return [self.x, self.y, self.w, self.h]

    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class AnnotatedObject:
    category: str
    bbox: BBox


@dataclass(frozen=True)
class AnnotationRecord:
    image_id: str
    width: int
    height: int
    objects: tuple[AnnotatedObject, ...]
    scene: str | None = None


def _read_json_lines(path):
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLineError(path, line_no, f"not UTF-8: {exc.reason}") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise MalformedLineError(path, line_no, "expected a JSON object")
            yield line_no, obj


def _require(obj: dict, key: str, path, line_no: int):
    if key not in obj:
        raise MalformedLineError(path, line_no, f"missing field {key!r}")
    return obj[key]


def _require_str(obj: dict, key: str, path, line_no: int) -> str:
    value = _require(obj, key, path, line_no)
    if not isinstance(value, str) or not value:
        raise MalformedLineError(path, line_no, f"field {key!r} must be a non-empty string")
    return value


def _require_int(obj: dict, key: str, path, line_no: int) -> int:
    value = _require(obj, key, path, line_no)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedLineError(path, line_no, f"field {key!r} must be an integer")
    return value


def _require_float(obj: dict, key: str, path, line_no: int) -> float:
    value = _require(obj, key, path, line_no)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedLineError(path, line_no, f"field {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteValueError(f"{path}:{line_no}: non-finite {key!r}")
    return value


def _require_vector(obj: dict, key: str, path, line_no: int) -> tuple[float, ...]:
    value = _require(obj, key, path, line_no)
    if not isinstance(value, list) or not value:
        raise MalformedLineError(path, line_no, f"field {key!r} must be a non-empty array")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise MalformedLineError(path, line_no, f"field {key!r} must contain numbers")
        try:
            entry = float(entry)
        except OverflowError:  # an integer beyond the float range
            entry = math.inf
        if not math.isfinite(entry):
            raise NonFiniteValueError(f"{path}:{line_no}: non-finite value in {key!r}")
        out.append(entry)
    return tuple(out)


def load_embeddings(path) -> EmbeddingSet:
    """Load an embeddings JSONL file into a validated EmbeddingSet.

    The first line fixes the dimension; every later vector must match it.
    Ids must be unique and both domains must be represented (the set feeds
    two-domain scoring downstream).
    """
    samples: list[EmbeddingSample] = []
    seen: set[str] = set()
    dim: int | None = None
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        domain = _require_str(obj, "domain", path, line_no)
        if domain not in DOMAINS:
            raise MalformedLineError(path, line_no, f"domain must be one of {DOMAINS}, got {domain!r}")
        vector = _require_vector(obj, "vector", path, line_no)
        if dim is None:
            dim = len(vector)
        elif len(vector) != dim:
            raise DimensionMismatchError(
                f"{path}:{line_no}: vector has {len(vector)} entries, expected {dim}"
            )
        if sample_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        samples.append(EmbeddingSample(sample_id, domain, vector))
    if dim is None:
        raise EmptyDomainError(f"{path}: no samples at all")
    for domain in DOMAINS:
        if not any(s.domain == domain for s in samples):
            raise EmptyDomainError(f"{path}: no {domain} samples")
    return EmbeddingSet(dim=dim, samples=tuple(samples))


def write_embeddings(embedding_set: EmbeddingSet, path) -> None:
    """Inverse of load_embeddings; full-precision round trip."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in embedding_set.samples:
            fh.write(json.dumps({"id": s.id, "domain": s.domain, "vector": list(s.vector)}) + "\n")


def _validate_bbox(raw, width: int, height: int, path, line_no: int) -> BBox:
    if not isinstance(raw, list) or len(raw) != 4:
        raise MalformedLineError(path, line_no, "bbox must be a 4-element array")
    for entry in raw:
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise MalformedLineError(path, line_no, "bbox entries must be integers")
    x, y, w, h = raw
    if w <= 0 or h <= 0:
        raise BoundsError(f"{path}:{line_no}: bbox {raw} has non-positive size")
    if x < 0 or y < 0 or x + w > width or y + h > height:
        raise BoundsError(
            f"{path}:{line_no}: bbox {raw} exceeds image bounds {width}x{height}"
        )
    return BBox(x, y, w, h)


def load_annotations(path, vocabulary: set[str] | None = None) -> list[AnnotationRecord]:
    """Load annotation records, checking bounds and, when a vocabulary is
    given, that every category is in it."""
    records: list[AnnotationRecord] = []
    seen: set[str] = set()
    for line_no, obj in _read_json_lines(path):
        image_id = _require_str(obj, "image_id", path, line_no)
        if image_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        width = _require_int(obj, "width", path, line_no)
        height = _require_int(obj, "height", path, line_no)
        if width <= 0 or height <= 0:
            raise MalformedLineError(path, line_no, "width and height must be positive")
        raw_objects = _require(obj, "objects", path, line_no)
        if not isinstance(raw_objects, list):
            raise MalformedLineError(path, line_no, "field 'objects' must be an array")
        objects = []
        for raw in raw_objects:
            if not isinstance(raw, dict):
                raise MalformedLineError(path, line_no, "each object must be a JSON object")
            category = _require_str(raw, "category", path, line_no)
            if vocabulary is not None and category not in vocabulary:
                raise UnknownCategoryError(
                    f"{path}:{line_no}: category {category!r} not in vocabulary"
                )
            bbox = _validate_bbox(_require(raw, "bbox", path, line_no), width, height, path, line_no)
            objects.append(AnnotatedObject(category, bbox))
        scene = obj.get("scene")
        if scene is not None and (not isinstance(scene, str) or not scene):
            raise MalformedLineError(path, line_no, "field 'scene' must be a non-empty string")
        records.append(AnnotationRecord(image_id, width, height, tuple(objects), scene))
    return records


def write_annotations(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "image_id": rec.image_id,
                "width": rec.width,
                "height": rec.height,
                "objects": [
                    {"category": o.category, "bbox": o.bbox.as_list()} for o in rec.objects
                ],
            }
            if rec.scene is not None:
                obj["scene"] = rec.scene
            fh.write(json.dumps(obj) + "\n")


def load_loss_log(path) -> dict[str, tuple[float, float]]:
    """Read per-sample (l, l_prime) pairs from an alignment-score JSONL file."""
    log: dict[str, tuple[float, float]] = {}
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        if sample_id in log:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        log[sample_id] = (_require_float(obj, "l", path, line_no),
                          _require_float(obj, "l_prime", path, line_no))
    return log
