"""Template-based QA, caption, and frame-resampling utilities.

Every generator takes an annotation record plus a seed and is a pure
function of the two: the same (annotation, seed) pair always yields the
same question, options, and answer on any platform, because all draws
go through the portable generator in `rng`. Answers are derived from
the annotation alone, never from the drawn text, so each record can be
re-checked against its annotation after the fact (`validate_qa_record`).

QA file: one {"image_id", "task", "question", "options"?, "answer",
"seed"} object per line; "options" appears only for the three
multiple-choice tasks. Captions are {"image_id", "text"} lines. The
task list is the benchmark's, but no annotation format carries
identities, so no "reid" question is generated here.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .bench_eval import TASK_KINDS
from .errors import (
    EmptyDomainError,
    GenerationPreconditionError,
    MalformedLineError,
    VocabularyTooSmallError,
)
from .ingest import (
    AnnotationRecord,
    _read_json_lines,
    _require,
    _require_int,
    _require_str,
)
from .rng import SplitMix64, choose, sample_indices, shuffled

MCQ_TASKS = ("recognition", "scene", "security")
OPTION_COUNT = 4

PEDESTRIAN_CATEGORIES = frozenset({"person", "pedestrian", "people"})
VEHICLE_CATEGORIES = frozenset(
    {"car", "truck", "bus", "van", "bicycle", "motorcycle", "freight_car"}
)

RESAMPLE_MODES = ("stride", "seeded-uniform")


@dataclass(frozen=True)
class QARecord:
    image_id: str
    task: str
    question: str
    options: tuple[str, ...] | None
    answer: str | int | list
    seed: int


@dataclass(frozen=True)
class CaptionRecord:
    image_id: str
    text: str


@dataclass(frozen=True)
class ResampleConfig:
    retain_rate: float
    mode: str

    def __post_init__(self):
        if not 0.0 < self.retain_rate <= 1.0:
            raise ValueError(f"retain_rate must be in (0, 1], got {self.retain_rate}")
        if self.mode not in RESAMPLE_MODES:
            raise ValueError(f"mode must be one of {RESAMPLE_MODES}, got {self.mode!r}")


# --------------------------------------------------------------------------
# captions


def generate_caption(record: AnnotationRecord) -> CaptionRecord:
    """Deterministic caption: category counts, most frequent first."""
    counts = Counter(o.category for o in record.objects)
    parts = [
        f"{n} {category}" + ("s" if n != 1 else "")
        for category, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    body = ", ".join(parts) if parts else "no annotated objects"
    scene = record.scene if record.scene is not None else "a scene"
    return CaptionRecord(
        image_id=record.image_id,
        text=f"An infrared image of {scene} containing {body}.",
    )


# --------------------------------------------------------------------------
# multiple-choice tasks


def generate_mcq(
    record: AnnotationRecord, task: str, vocabulary: set[str], *, seed: int
) -> QARecord:
    """One 4-option question; the distractor pool never overlaps the truth."""
    if task == "recognition":
        question, options, answer = _recognition(record, vocabulary, seed)
    elif task == "scene":
        question, options, answer = _scene(record, vocabulary, seed)
    elif task == "security":
        question, options, answer = _security(record, vocabulary, seed)
    else:
        raise ValueError(f"unknown multiple-choice task {task!r}")
    return QARecord(
        image_id=record.image_id,
        task=task,
        question=question,
        options=tuple(options),
        answer=answer,
        seed=seed,
    )


def _recognition(record, vocabulary, seed):
    present = sorted({o.category for o in record.objects})
    if not present:
        raise GenerationPreconditionError(
            f"{record.image_id}: recognition needs at least one object"
        )
    _check_vocabulary(vocabulary)
    absent = sorted(set(vocabulary) - set(present))
    if len(absent) < OPTION_COUNT - 1:
        raise VocabularyTooSmallError(
            f"{record.image_id}: need {OPTION_COUNT - 1} absent categories for "
            f"distractors, vocabulary leaves {len(absent)}"
        )
    rng = SplitMix64(seed)
    target = choose(present, 1, rng)[0]
    distractors = choose(absent, OPTION_COUNT - 1, rng)
    options = shuffled([target, *distractors], rng)
    return "Which of the following objects is present in the image?", options, target


def _scene(record, vocabulary, seed):
    if record.scene is None:
        raise GenerationPreconditionError(
            f"{record.image_id}: scene task needs a scene label"
        )
    _check_vocabulary(vocabulary)
    pool = sorted(set(vocabulary) - {record.scene})
    if len(pool) < OPTION_COUNT - 1:
        raise VocabularyTooSmallError(
            f"{record.image_id}: need {OPTION_COUNT - 1} scene distractors, "
            f"vocabulary leaves {len(pool)}"
        )
    rng = SplitMix64(seed)
    distractors = choose(pool, OPTION_COUNT - 1, rng)
    options = shuffled([record.scene, *distractors], rng)
    return "What scene is depicted in the image?", options, record.scene


def _security(record, vocabulary, seed):
    present = {o.category for o in record.objects}
    absent = sorted(set(vocabulary) - present)
    if not absent:
        raise GenerationPreconditionError(
            f"{record.image_id}: every vocabulary category is present, "
            "no absent option exists"
        )
    _check_vocabulary(vocabulary)
    rng = SplitMix64(seed)
    forced = choose(absent, 1, rng)[0]
    rest = choose(sorted(set(vocabulary) - {forced}), OPTION_COUNT - 1, rng)
    options = shuffled([forced, *rest], rng)
    answer = sorted(o for o in options if o not in present)
    return "Which of the following objects are absent from the image?", options, answer


def _check_vocabulary(vocabulary):
    if len(set(vocabulary)) < OPTION_COUNT:
        raise VocabularyTooSmallError(
            f"need at least {OPTION_COUNT} categories, got {len(set(vocabulary))}"
        )


# --------------------------------------------------------------------------
# spatial and counting tasks


def generate_spatial(record: AnnotationRecord, task: str, *, seed: int) -> QARecord:
    """Grounding, location, relationship, or one of the two counting tasks."""
    if task == "grounding":
        question, answer = _grounding(record, seed)
    elif task == "location":
        question, answer = _location(record, seed)
    elif task == "relationship":
        question, answer = _relationship(record, seed)
    elif task == "pedestrian_counting":
        question, answer = _counting(record, PEDESTRIAN_CATEGORIES, "pedestrians")
    elif task == "aerial_counting":
        question, answer = _counting(record, VEHICLE_CATEGORIES, "vehicles")
    else:
        raise ValueError(f"unknown spatial task {task!r}")
    return QARecord(
        image_id=record.image_id,
        task=task,
        question=question,
        options=None,
        answer=answer,
        seed=seed,
    )


def _grounding(record, seed):
    categories = sorted({o.category for o in record.objects})
    if not categories:
        raise GenerationPreconditionError(
            f"{record.image_id}: grounding needs at least one object"
        )
    rng = SplitMix64(seed)
    category = choose(categories, 1, rng)[0]
    qualifier = ("leftmost", "rightmost", "topmost")[rng.below(3)]
    members = [
        (i, o) for i, o in enumerate(record.objects) if o.category == category
    ]
    if qualifier == "leftmost":
        key = lambda item: (item[1].bbox.center()[0], item[0])
    elif qualifier == "rightmost":
        key = lambda item: (-item[1].bbox.center()[0], item[0])
    else:
        key = lambda item: (item[1].bbox.center()[1], item[0])
    picked = min(members, key=key)[1]
    question = f"Return the bounding box of the {qualifier} {category} in the image."
    return question, picked.bbox.as_list()


def _location(record, seed):
    categories = sorted({o.category for o in record.objects})
    if not categories:
        raise GenerationPreconditionError(
            f"{record.image_id}: location needs at least one object"
        )
    rng = SplitMix64(seed)
    category = choose(categories, 1, rng)[0]
    answer = [o.bbox.as_list() for o in record.objects if o.category == category]
    question = f"Give the coordinate locations of all {category}s in the image."
    return question, answer


def _relationship(record, seed):
    if len(record.objects) < 2:
        raise GenerationPreconditionError(
            f"{record.image_id}: relationship needs at least two objects"
        )
    rng = SplitMix64(seed)
    perm = shuffled(range(len(record.objects)), rng)
    pair = None
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            a, b = record.objects[perm[i]], record.objects[perm[j]]
            if a.bbox.center() != b.bbox.center():
                pair = (a, b)
                break
        if pair is not None:
            break
    if pair is None:
        raise GenerationPreconditionError(
            f"{record.image_id}: all object centers coincide"
        )
    a, b = pair
    (ax, ay), (bx, by) = a.bbox.center(), b.bbox.center()
    truth = rng.below(2) == 0
    if ax != bx:
        actual = "left" if ax < bx else "right"
        stated = actual if truth else ("right" if actual == "left" else "left")
        statement = (
            f"the {a.category} at x={_coord(ax)} is to the {stated} of "
            f"the {b.category} at x={_coord(bx)}"
        )
    else:
        actual = "above" if ay < by else "below"
        stated = actual if truth else ("below" if actual == "above" else "above")
        statement = (
            f"the {a.category} at y={_coord(ay)} is {stated} "
            f"the {b.category} at y={_coord(by)}"
        )
    return f"True or false: {statement}.", "true" if truth else "false"


def _counting(record, categories, noun):
    n = present_count(record, categories)
    if n == 0:
        raise GenerationPreconditionError(
            f"{record.image_id}: no {noun} to count"
        )
    return f"How many {noun} appear in the image?", n


def _coord(value: float) -> str:
    # centers are multiples of 0.5; print 20.0 as "20" and 25.5 as "25.5"
    return str(int(value)) if value == int(value) else str(value)


# --------------------------------------------------------------------------
# frame resampling


def resample_frames(ids: list, config: ResampleConfig, *, seed: int) -> list:
    """Thin a frame-id list to ~retain_rate of its length, preserving order.

    The rate is read as the decimal it prints as (0.01 means exactly 1/100),
    so ceil/round arithmetic is immune to binary float slack. "stride" keeps
    every round(1/rate)-th id starting at index 0; "seeded-uniform" draws
    ceil(N * rate) ids without replacement.
    """
    if not ids:
        raise EmptyDomainError("no frame ids to resample")
    rate = Fraction(str(config.retain_rate))
    if config.mode == "stride":
        step = max(1, round(1 / rate))
        return list(ids[::step])
    k = math.ceil(len(ids) * rate)
    rng = SplitMix64(seed)
    return [ids[i] for i in sample_indices(len(ids), k, rng)]


# --------------------------------------------------------------------------
# validation against the source annotation


def validate_qa_record(record: QARecord, ann: AnnotationRecord) -> None:
    """Re-derive every checkable property of `record` from `ann`.

    Raises MalformedLineError (line 0) on any inconsistency; returns None
    when the record holds up.
    """
    if record.image_id != ann.image_id:
        raise MalformedLineError(
            record.image_id, 0, f"annotation is for {ann.image_id!r}"
        )
    if record.task not in TASK_KINDS:
        raise MalformedLineError(record.image_id, 0, f"unknown task {record.task!r}")
    if not record.question:
        raise MalformedLineError(record.image_id, 0, "empty question")
    present = {o.category for o in ann.objects}
    boxes = [o.bbox.as_list() for o in ann.objects]
    if record.task in MCQ_TASKS:
        opts = record.options
        if opts is None or len(opts) != OPTION_COUNT or len(set(opts)) != OPTION_COUNT:
            raise MalformedLineError(
                record.image_id, 0, f"need {OPTION_COUNT} distinct options"
            )
    elif record.options is not None:
        raise MalformedLineError(
            record.image_id, 0, f"task {record.task!r} does not take options"
        )
    if record.task == "recognition":
        if record.answer not in record.options or record.answer not in present:
            raise MalformedLineError(record.image_id, 0, "answer not in the image")
        wrong = set(record.options) - {record.answer}
        if wrong & present:
            raise MalformedLineError(record.image_id, 0, "distractor is present")
    elif record.task == "scene":
        if record.answer != ann.scene or record.answer not in record.options:
            raise MalformedLineError(record.image_id, 0, "answer is not the scene")
    elif record.task == "security":
        expected = sorted(o for o in record.options if o not in present)
        if record.answer != expected or not expected:
            raise MalformedLineError(
                record.image_id, 0, "answer must list the absent options"
            )
    elif record.task == "grounding":
        if record.answer not in boxes or not _in_bounds(record.answer, ann):
            raise MalformedLineError(record.image_id, 0, "box is not an object's")
    elif record.task == "location":
        if not record.answer or not all(
            b in boxes and _in_bounds(b, ann) for b in record.answer
        ):
            raise MalformedLineError(record.image_id, 0, "boxes are not objects'")
    elif record.task == "relationship":
        if record.answer not in ("true", "false"):
            raise MalformedLineError(record.image_id, 0, "answer must be true/false")
    elif record.task == "pedestrian_counting":
        _check_count(record, present_count(ann, PEDESTRIAN_CATEGORIES))
    elif record.task == "aerial_counting":
        _check_count(record, present_count(ann, VEHICLE_CATEGORIES))
    else:
        raise MalformedLineError(
            record.image_id, 0, "reid questions are not generated from annotations"
        )


def present_count(ann: AnnotationRecord, categories: frozenset) -> int:
    return sum(1 for o in ann.objects if o.category in categories)


def _check_count(record, expected):
    if record.answer != expected:
        raise MalformedLineError(
            record.image_id, 0, f"count is {expected}, record says {record.answer}"
        )


def _in_bounds(box, ann) -> bool:
    return _is_box(box) and box[0] + box[2] <= ann.width and box[1] + box[3] <= ann.height


# --------------------------------------------------------------------------
# file formats


def write_qa_records(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {"image_id": rec.image_id, "task": rec.task, "question": rec.question}
            if rec.options is not None:
                obj["options"] = list(rec.options)
            obj["answer"] = rec.answer
            obj["seed"] = rec.seed
            fh.write(json.dumps(obj) + "\n")


def load_qa_records(path) -> list[QARecord]:
    records = []
    for line_no, obj in _read_json_lines(path):
        image_id = _require_str(obj, "image_id", path, line_no)
        task = _require_str(obj, "task", path, line_no)
        if task not in TASK_KINDS:
            raise MalformedLineError(path, line_no, f"unknown task {task!r}")
        question = _require_str(obj, "question", path, line_no)
        seed = _require_int(obj, "seed", path, line_no)
        options = None
        if task in MCQ_TASKS:
            raw = _require(obj, "options", path, line_no)
            if (
                not isinstance(raw, list)
                or len(raw) != OPTION_COUNT
                or len(set(raw)) != OPTION_COUNT
                or not all(isinstance(o, str) and o for o in raw)
            ):
                raise MalformedLineError(
                    path,
                    line_no,
                    f"options must be {OPTION_COUNT} distinct non-empty strings",
                )
            options = tuple(raw)
        elif "options" in obj:
            raise MalformedLineError(
                path, line_no, f"task {task!r} does not take options"
            )
        answer = _require(obj, "answer", path, line_no)
        _check_loaded_answer(task, options, answer, path, line_no)
        records.append(
            QARecord(
                image_id=image_id,
                task=task,
                question=question,
                options=options,
                answer=answer,
                seed=seed,
            )
        )
    return records


def _check_loaded_answer(task, options, answer, path, line_no):
    if task in ("recognition", "scene"):
        if answer not in options:
            raise MalformedLineError(path, line_no, "answer must be one of the options")
    elif task == "security":
        if (
            not isinstance(answer, list)
            or not answer
            or answer != sorted(answer)
            or len(set(answer)) != len(answer)
            or not set(answer) <= set(options)
        ):
            raise MalformedLineError(
                path, line_no, "answer must be a sorted subset of the options"
            )
    elif task == "grounding":
        if not _is_box(answer):
            raise MalformedLineError(path, line_no, "answer must be [x, y, w, h]")
    elif task == "location":
        if not isinstance(answer, list) or not answer or not all(map(_is_box, answer)):
            raise MalformedLineError(path, line_no, "answer must be a list of boxes")
    elif task == "relationship":
        if answer not in ("true", "false"):
            raise MalformedLineError(path, line_no, 'answer must be "true" or "false"')
    elif task in ("pedestrian_counting", "aerial_counting"):
        if isinstance(answer, bool) or not isinstance(answer, int) or answer < 0:
            raise MalformedLineError(path, line_no, "count must be a whole number")
    else:
        raise MalformedLineError(
            path, line_no, "reid questions are not generated from annotations"
        )


def _is_box(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 4
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        and value[0] >= 0
        and value[1] >= 0
        and value[2] >= 1
        and value[3] >= 1
    )


def write_captions(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"image_id": rec.image_id, "text": rec.text}) + "\n")


def load_captions(path) -> list[CaptionRecord]:
    return [
        CaptionRecord(
            image_id=_require_str(obj, "image_id", path, line_no),
            text=_require_str(obj, "text", path, line_no),
        )
        for line_no, obj in _read_json_lines(path)
    ]
