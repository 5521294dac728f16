"""Benchmark metrics and the psum/nsum aggregate.

Nine task kinds, three metric families: grounding is scored by mAP at
IoU 0.5, the three counting/location tasks by mean absolute error
(lower is better), everything else by exact-match accuracy on a 0-100
scale. Reports sum the six accuracy-or-mAP tasks into psum and the
three error tasks into nsum.

Average precision uses all-point interpolation. Predictions are sorted
per category by descending confidence, ties broken by ascending
image_id then box index, so a file evaluates to the same number
everywhere. Each prediction greedily claims the unmatched ground-truth
box it overlaps most; a claim counts when IoU >= 0.5. Categories are
taken from the ground truth: predictions naming a category with no
ground-truth box cannot affect any category's curve and are dropped,
matching the usual detection-benchmark convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    DegenerateBoxError,
    DuplicateIdError,
    IdSetMismatchError,
    MalformedLineError,
    MissingConfidenceError,
    MissingTaskError,
    NonFiniteValueError,
    UndefinedRateError,
)
from .ingest import BBox, _read_json_lines, _require, _require_float, _require_str

POSITIVE_TASKS = ("scene", "recognition", "grounding", "relationship", "reid", "security")
NEGATIVE_TASKS = ("location", "aerial_counting", "pedestrian_counting")
# report order, and the task list of the QA generator
TASK_KINDS = POSITIVE_TASKS + NEGATIVE_TASKS


@dataclass(frozen=True)
class ScoredBox:
    bbox: BBox
    confidence: float | None = None
    category: str | None = None


@dataclass(frozen=True)
class TruthBox:
    bbox: BBox
    category: str | None = None


@dataclass(frozen=True)
class PredictionRecord:
    image_id: str
    task: str
    predicted: object


@dataclass(frozen=True)
class BenchmarkReport:
    per_task: dict[str, float]
    psum: float
    nsum: float


# --------------------------------------------------------------------------
# metric primitives


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area; 0 for disjoint boxes."""
    for box in (a, b):
        if box.w <= 0 or box.h <= 0:
            raise DegenerateBoxError(f"zero-area box {box}")
    ix = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
    iy = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
    inter = ix * iy
    return inter / (a.w * a.h + b.w * b.h - inter)


def accuracy(preds: dict, truths: dict) -> float:
    """100 x exact matches / N; list-valued answers compare as sets."""
    _check_ids(preds, truths)
    hits = sum(1 for k in truths if _matches(preds[k], truths[k]))
    return 100.0 * hits / len(truths)


def _matches(pred, truth) -> bool:
    multi = (list, tuple, set, frozenset)
    if isinstance(pred, multi) and isinstance(truth, multi):
        return set(pred) == set(truth)
    return pred == truth


def mae(preds: dict, truths: dict) -> float:
    """Mean absolute prediction error over matched ids."""
    _check_ids(preds, truths)
    total = 0.0
    for k in truths:
        total += abs(_number(preds[k]) - _number(truths[k]))
    return total / len(truths)


def _check_ids(preds: dict, truths: dict) -> None:
    if set(preds) != set(truths):
        only_p = sorted(set(preds) - set(truths))
        only_t = sorted(set(truths) - set(preds))
        raise IdSetMismatchError(
            f"prediction/truth ids differ (extra: {only_p}, missing: {only_t})"
        )
    if not truths:
        raise UndefinedRateError("no records to score")


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NonFiniteValueError(f"payload {value!r} is not a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteValueError(f"payload {value!r} is not finite")
    return value


def map_at_50(preds: dict, truths: dict) -> float:
    """Mean AP at IoU 0.5 over the ground truth's categories, x100.

    preds maps image_id to a sequence of ScoredBox, truths to a sequence
    of TruthBox. Images absent from one side contribute empty lists.
    """
    categories = sorted(
        {t.category for boxes in truths.values() for t in boxes}, key=str
    )
    if not categories:
        raise UndefinedRateError("no ground-truth boxes")
    total = sum(_category_ap(c, preds, truths) for c in categories)
    return total / len(categories)


def _category_ap(category, preds, truths) -> float:
    entries = []
    for image_id in sorted(preds):
        for idx, sb in enumerate(preds[image_id]):
            if sb.category != category:
                continue
            if sb.confidence is None:
                raise MissingConfidenceError(
                    f"{image_id}: prediction box {idx} has no confidence"
                )
            entries.append((-float(sb.confidence), image_id, idx, sb.bbox))
    entries.sort(key=lambda e: e[:3])
    gt = {
        image_id: [t.bbox for t in boxes if t.category == category]
        for image_id, boxes in truths.items()
    }
    n_gt = sum(len(v) for v in gt.values())
    taken: set[tuple[str, int]] = set()
    tp = fp = 0
    points = []
    for _neg_conf, image_id, _idx, box in entries:
        best_iou, best_gi = 0.0, None
        for gi, gt_box in enumerate(gt.get(image_id, [])):
            if (image_id, gi) in taken:
                continue
            v = iou(box, gt_box)
            if v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi is not None and best_iou >= 0.5:
            taken.add((image_id, best_gi))
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    return 100.0 * _all_point_ap(points)


def _all_point_ap(points) -> float:
    """Area under the interpolated precision/recall curve of (recall, precision)
    points in rank order: each recall step is weighted by the best precision
    reached at or beyond it, a running max taken from the end."""
    best = list(accumulate((p for _r, p in reversed(points)), max))[::-1]
    ap = 0.0
    prev_recall = 0.0
    for (recall, _precision), interpolated in zip(points, best):
        if recall > prev_recall:
            ap += (recall - prev_recall) * interpolated
            prev_recall = recall
    return ap


def aggregate(per_task: dict) -> BenchmarkReport:
    """Sum the six positive tasks into psum, the three negative into nsum."""
    missing = [t for t in TASK_KINDS if t not in per_task]
    if missing:
        raise MissingTaskError(f"missing task values: {', '.join(missing)}")
    unknown = sorted(set(per_task) - set(TASK_KINDS))
    if unknown:
        raise ValueError(f"unknown tasks: {', '.join(unknown)}")
    values = {t: _number(per_task[t]) for t in TASK_KINDS}
    return BenchmarkReport(
        per_task=values,
        psum=sum(values[t] for t in POSITIVE_TASKS),
        nsum=sum(values[t] for t in NEGATIVE_TASKS),
    )


def evaluate_records(
    task: str, predictions: list[PredictionRecord], truths: list[PredictionRecord]
) -> float:
    """Score one task from parallel prediction/truth record lists."""
    if task not in TASK_KINDS:
        raise ValueError(f"unknown task {task!r}")
    pred_by_id = _by_id(predictions, task)
    truth_by_id = _by_id(truths, task)
    if task == "grounding":
        _check_ids(pred_by_id, truth_by_id)
        return map_at_50(pred_by_id, truth_by_id)
    if task in NEGATIVE_TASKS:
        return mae(pred_by_id, truth_by_id)
    return accuracy(pred_by_id, truth_by_id)


def _by_id(records, task) -> dict:
    out = {}
    for rec in records:
        if rec.task != task:
            raise ValueError(f"record for {rec.image_id!r} has task {rec.task!r}")
        if rec.image_id in out:
            raise DuplicateIdError(f"duplicate image_id {rec.image_id!r}")
        out[rec.image_id] = rec.predicted
    return out


# --------------------------------------------------------------------------
# file formats


def load_predictions(path, task: str, *, scored: bool = True) -> list[PredictionRecord]:
    """Read one task's JSONL; `scored=False` reads ground-truth boxes,
    which need no confidence."""
    if task not in TASK_KINDS:
        raise ValueError(f"unknown task {task!r}")
    records = []
    seen = set()
    for line_no, obj in _read_json_lines(path):
        image_id = _require_str(obj, "image_id", path, line_no)
        line_task = _require_str(obj, "task", path, line_no)
        if line_task != task:
            raise MalformedLineError(
                path, line_no, f"expected task {task!r}, found {line_task!r}"
            )
        payload = _parse_payload(
            task, _require(obj, "predicted", path, line_no), scored, path, line_no
        )
        if image_id in seen:
            raise DuplicateIdError(f"{path}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        records.append(PredictionRecord(image_id=image_id, task=task, predicted=payload))
    return records


def _parse_payload(task, raw, scored, path, line_no):
    if task in ("scene", "recognition", "relationship", "reid"):
        if not isinstance(raw, str) or not raw:
            raise MalformedLineError(path, line_no, "predicted must be a string")
        return raw
    if task == "security":
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(v, str) and v for v in raw)
        ):
            raise MalformedLineError(
                path, line_no, "predicted must be a list of option strings"
            )
        return tuple(raw)
    if task in NEGATIVE_TASKS:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise MalformedLineError(path, line_no, "predicted must be a number")
        return raw
    return _parse_boxes(raw, scored, path, line_no)


def _parse_boxes(raw, scored, path, line_no):
    if not isinstance(raw, list):
        raise MalformedLineError(path, line_no, "predicted must be a list of boxes")
    boxes = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise MalformedLineError(path, line_no, f"box {i} must be an object")
        bbox = entry.get("bbox")
        if (
            not isinstance(bbox, list)
            or len(bbox) != 4
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in bbox
            )
        ):
            raise MalformedLineError(path, line_no, f"box {i} needs bbox [x, y, w, h]")
        category = entry.get("category")
        if category is not None and (not isinstance(category, str) or not category):
            raise MalformedLineError(path, line_no, f"box {i} category must be a string")
        if not scored:
            boxes.append(TruthBox(bbox=BBox(*bbox), category=category))
            continue
        confidence = entry.get("confidence")
        if confidence is None:
            raise MissingConfidenceError(f"{path}:{line_no}: box {i} has no confidence")
        if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
            raise MalformedLineError(path, line_no, f"box {i} confidence must be a number")
        boxes.append(
            ScoredBox(bbox=BBox(*bbox), confidence=float(confidence), category=category)
        )
    return tuple(boxes)


def _read_json_object(path) -> dict:
    """The single JSON object a whole file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as exc:
        raise MalformedLineError(path, 1, f"not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedLineError(path, exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise MalformedLineError(path, 1, "expected a JSON object")
    return obj


def load_per_task(path) -> dict[str, float]:
    """Read a {task: value} JSON object; tasks must be known and values
    finite numbers."""
    obj = _read_json_object(path)
    unknown = sorted(set(obj) - set(TASK_KINDS))
    if unknown:
        raise MalformedLineError(path, 1, f"unknown tasks: {', '.join(unknown)}")
    return {task: _require_float(obj, task, path, 1) for task in obj}


def write_report(report: BenchmarkReport, path) -> None:
    obj = {
        "per_task": {t: report.per_task[t] for t in TASK_KINDS},
        "psum": report.psum,
        "nsum": report.nsum,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def load_report(path) -> BenchmarkReport:
    obj = _read_json_object(path)
    if set(obj) != {"per_task", "psum", "nsum"}:
        raise MalformedLineError(path, 1, "report must hold per_task, psum, nsum")
    report = aggregate(obj["per_task"])
    for key in ("psum", "nsum"):
        if not math.isclose(getattr(report, key), _number(obj[key]), abs_tol=1e-9):
            raise MalformedLineError(
                path, 1, f"stored {key} disagrees with the per-task values"
            )
    return report
