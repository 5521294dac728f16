"""Metric tests with an independent average-precision oracle.

The oracle enumerates every prediction ordering consistent with
confidence ties (instances are kept to <= 5 boxes so this is cheap),
matches greedily in that order, and integrates precision over recall
per true positive. It shares no code with the implementation: IoU is
recomputed from tuple arithmetic and AP from the max-precision-at-
recall>=r formulation.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircur.bench_eval import (
    NEGATIVE_TASKS,
    POSITIVE_TASKS,
    TASK_KINDS,
    BenchmarkReport,
    PredictionRecord,
    ScoredBox,
    TruthBox,
    accuracy,
    aggregate,
    evaluate_records,
    iou,
    load_per_task,
    load_predictions,
    load_report,
    mae,
    map_at_50,
    write_report,
    _all_point_ap,
)
from ircur.errors import (
    DegenerateBoxError,
    DuplicateIdError,
    IdSetMismatchError,
    MalformedLineError,
    MissingConfidenceError,
    MissingTaskError,
    NonFiniteValueError,
    UndefinedRateError,
)
from ircur.ingest import BBox


def ref_iou(a, b):
    ix = max(0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def ref_ap_for_order(order, gt_by_image):
    """AP for one fixed prediction order; order holds (image_id, box) tuples."""
    n_gt = sum(len(v) for v in gt_by_image.values())
    taken = set()
    flags = []
    for img, box in order:
        best, best_gi = 0.0, None
        for gi, gt in enumerate(gt_by_image.get(img, [])):
            if (img, gi) in taken:
                continue
            v = ref_iou(box, gt)
            if v > best:
                best, best_gi = v, gi
        if best_gi is not None and best >= 0.5:
            taken.add((img, best_gi))
            flags.append(True)
        else:
            flags.append(False)
    precisions = []
    tp = 0
    for k, f in enumerate(flags, start=1):
        tp += f
        precisions.append(tp / k)
    ap = sum(max(precisions[k:]) / n_gt for k, f in enumerate(flags) if f)
    return 100.0 * ap


def ref_category_aps(preds, truths, category):
    """(canonical-order AP, set of APs over every tie-consistent order)."""
    gt_by_image = {
        img: [t.bbox.as_list() for t in boxes if t.category == category]
        for img, boxes in truths.items()
    }
    entries = []
    for img in sorted(preds):
        for idx, sb in enumerate(preds[img]):
            if sb.category == category:
                entries.append((sb.confidence, img, idx, sb.bbox.as_list()))
    canonical = sorted(entries, key=lambda e: (-e[0], e[1], e[2]))
    canonical_ap = ref_ap_for_order([(e[1], e[3]) for e in canonical], gt_by_image)
    all_aps = set()
    for perm in itertools.permutations(entries):
        confs = [e[0] for e in perm]
        if all(confs[i] >= confs[i + 1] for i in range(len(confs) - 1)):
            ap = ref_ap_for_order([(e[1], e[3]) for e in perm], gt_by_image)
            all_aps.add(round(ap, 9))
    return canonical_ap, all_aps


def ref_map(preds, truths):
    categories = sorted(
        {t.category for boxes in truths.values() for t in boxes}, key=str
    )
    per_cat = [ref_category_aps(preds, truths, c) for c in categories]
    canonical = sum(c for c, _ in per_cat) / len(per_cat)
    combos = {
        round(sum(combo) / len(combo), 9)
        for combo in itertools.product(*(sorted(aps) for _, aps in per_cat))
    }
    return canonical, combos


class TestIou:
    def test_identical(self):
        assert iou(BBox(3, 4, 5, 6), BBox(3, 4, 5, 6)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 2, 2), BBox(10, 10, 2, 2)) == 0.0

    def test_hand_overlap(self):
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(2 / 6)

    def test_touching_edges_is_zero(self):
        assert iou(BBox(0, 0, 2, 2), BBox(2, 0, 2, 2)) == 0.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(DegenerateBoxError):
            iou(BBox(0, 0, 0, 5), BBox(0, 0, 2, 2))
        with pytest.raises(DegenerateBoxError):
            iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 0))

    @given(
        st.tuples(
            st.integers(0, 20), st.integers(0, 20), st.integers(1, 10), st.integers(1, 10)
        ),
        st.tuples(
            st.integers(0, 20), st.integers(0, 20), st.integers(1, 10), st.integers(1, 10)
        ),
    )
    def test_symmetric_and_bounded(self, a, b):
        box_a, box_b = BBox(*a), BBox(*b)
        v = iou(box_a, box_b)
        assert v == iou(box_b, box_a)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(ref_iou(a, b))
        assert iou(box_a, box_a) == 1.0


class TestAccuracy:
    def test_three_of_four(self):
        preds = {"a": "x", "b": "x", "c": "x", "d": "y"}
        truths = {"a": "x", "b": "x", "c": "x", "d": "x"}
        assert accuracy(preds, truths) == 75.0

    def test_all_correct(self):
        assert accuracy({"a": "x", "b": "y"}, {"a": "x", "b": "y"}) == 100.0

    def test_multi_answer_set_equality(self):
        assert accuracy({"i": ["a", "b"]}, {"i": ["b", "a"]}) == 100.0
        assert accuracy({"i": ["a"]}, {"i": ["a", "b"]}) == 0.0

    def test_mixed_multi_answer(self):
        preds = {"i": ["dog", "truck"], "j": ["dog"]}
        truths = {"i": ["truck", "dog"], "j": ["dog", "cat"]}
        assert accuracy(preds, truths) == 50.0

    def test_id_mismatch(self):
        with pytest.raises(IdSetMismatchError):
            accuracy({"a": "x"}, {"b": "x"})

    def test_empty_undefined(self):
        with pytest.raises(UndefinedRateError):
            accuracy({}, {})

    def test_permutation_invariant(self):
        pairs = [("a", "x", "x"), ("b", "y", "z"), ("c", "w", "w")]
        forward = accuracy({k: p for k, p, _ in pairs}, {k: t for k, _, t in pairs})
        backward = accuracy(
            {k: p for k, p, _ in reversed(pairs)}, {k: t for k, _, t in reversed(pairs)}
        )
        assert forward == backward == pytest.approx(200 / 3)


class TestMae:
    def test_single_pair(self):
        assert mae({"a": 3}, {"a": 5}) == 2.0

    def test_equal_is_zero(self):
        assert mae({"a": 4.5, "b": 2}, {"a": 4.5, "b": 2}) == 0.0

    def test_hand_mean(self):
        assert mae({"a": 1, "b": 4}, {"a": 2, "b": 2}) == 1.5

    def test_id_mismatch(self):
        with pytest.raises(IdSetMismatchError):
            mae({"a": 1}, {"a": 1, "b": 2})

    def test_empty_undefined(self):
        with pytest.raises(UndefinedRateError):
            mae({}, {})

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValueError):
            mae({"a": float("nan")}, {"a": 1})
        with pytest.raises(NonFiniteValueError):
            mae({"a": 1}, {"a": float("inf")})
        with pytest.raises(NonFiniteValueError):
            mae({"a": 10**400}, {"a": 1})

    def test_non_numeric_rejected(self):
        with pytest.raises(NonFiniteValueError):
            mae({"a": "3"}, {"a": 3})
        with pytest.raises(NonFiniteValueError):
            mae({"a": True}, {"a": 1})


def scored(x, y, w, h, conf, category=None):
    return ScoredBox(bbox=BBox(x, y, w, h), confidence=conf, category=category)


def truth(x, y, w, h, category=None):
    return TruthBox(bbox=BBox(x, y, w, h), category=category)


class TestMapAt50:
    def test_perfect_detection(self):
        preds = {"i1": [scored(0, 0, 10, 10, 0.9)]}
        truths = {"i1": [truth(0, 0, 10, 10)]}
        assert map_at_50(preds, truths) == 100.0

    def test_no_predictions(self):
        assert map_at_50({"i1": []}, {"i1": [truth(0, 0, 10, 10)]}) == 0.0

    def test_half_matched_pr_curve(self):
        # points (p=1.0, r=0.5) then (p=0.5, r=0.5) integrate to 50
        preds = {
            "i1": [scored(0, 0, 10, 10, 0.9), scored(40, 40, 5, 5, 0.6)]
        }
        truths = {"i1": [truth(0, 0, 10, 10), truth(20, 0, 10, 10)]}
        assert map_at_50(preds, truths) == pytest.approx(50.0)

    def test_confidence_tie_uses_box_index_order(self):
        # the 0.5-conf FP sits at a lower index than the 0.5-conf TP, so
        # the pinned tie-break yields 100*(1/2 + 1/3); the reversed tie
        # order would yield 100, and the oracle must see both
        preds = {
            "i1": [
                scored(0, 0, 10, 10, 0.9),
                scored(50, 50, 5, 5, 0.5),
                scored(20, 0, 10, 10, 0.5),
            ]
        }
        truths = {"i1": [truth(0, 0, 10, 10), truth(20, 0, 10, 10)]}
        value = map_at_50(preds, truths)
        assert value == pytest.approx(100 * (0.5 + 1 / 3))
        canonical, all_aps = ref_map(preds, truths)
        assert value == pytest.approx(canonical)
        assert {round(v, 6) for v in all_aps} == {83.333333, 100.0}

    def test_iou_threshold_is_half(self):
        # iou exactly 0.5 counts; just under does not
        preds = {"i1": [scored(0, 0, 10, 5, 0.9)]}
        truths = {"i1": [truth(0, 0, 10, 10)]}
        assert map_at_50(preds, truths) == 100.0
        preds = {"i1": [scored(0, 0, 10, 4, 0.9)]}
        assert map_at_50(preds, truths) == 0.0

    def test_greedy_takes_highest_iou_first(self):
        # the first prediction overlaps both GT boxes but must claim the
        # exact match at index 1, not the weak overlap at index 0; taking
        # GT boxes in file order instead would score 25
        preds = {
            "i1": [scored(0, 0, 10, 10, 0.9), scored(0, 4, 10, 10, 0.6)]
        }
        truths = {"i1": [truth(0, 6, 10, 10), truth(0, 0, 10, 10)]}
        assert map_at_50(preds, truths) == 100.0

    def test_two_images(self):
        preds = {
            "i1": [scored(0, 0, 10, 10, 0.9)],
            "i2": [scored(5, 5, 10, 10, 0.8)],
        }
        truths = {"i1": [truth(0, 0, 10, 10)], "i2": [truth(5, 5, 10, 10)]}
        assert map_at_50(preds, truths) == 100.0

    def test_multi_category_average(self):
        preds = {
            "i1": [scored(0, 0, 10, 10, 0.9, "car"), scored(50, 50, 4, 4, 0.8, "person")]
        }
        truths = {
            "i1": [truth(0, 0, 10, 10, "car"), truth(20, 20, 4, 4, "person")]
        }
        assert map_at_50(preds, truths) == pytest.approx(50.0)

    def test_prediction_of_unseen_category_ignored(self):
        preds = {
            "i1": [scored(0, 0, 10, 10, 0.95, "dog"), scored(0, 0, 10, 10, 0.9, "car")]
        }
        truths = {"i1": [truth(0, 0, 10, 10, "car")]}
        assert map_at_50(preds, truths) == 100.0

    def test_missing_confidence(self):
        preds = {"i1": [ScoredBox(bbox=BBox(0, 0, 10, 10), confidence=None)]}
        truths = {"i1": [truth(0, 0, 10, 10)]}
        with pytest.raises(MissingConfidenceError):
            map_at_50(preds, truths)

    def test_no_ground_truth_undefined(self):
        with pytest.raises(UndefinedRateError):
            map_at_50({"i1": [scored(0, 0, 2, 2, 0.9)]}, {"i1": []})

    def test_degenerate_truth_box(self):
        preds = {"i1": [scored(0, 0, 2, 2, 0.9)]}
        truths = {"i1": [truth(0, 0, 0, 5)]}
        with pytest.raises(DegenerateBoxError):
            map_at_50(preds, truths)


@st.composite
def detection_instances(draw):
    images = ("i1", "i2")
    categories = ("car", "person") if draw(st.booleans()) else (None,)

    def box():
        x = draw(st.integers(0, 6))
        y = draw(st.integers(0, 6))
        w = draw(st.sampled_from((2, 4)))
        h = draw(st.sampled_from((2, 4)))
        return x, y, w, h

    truths = {img: [] for img in images}
    for _ in range(draw(st.integers(1, 4))):
        truths[draw(st.sampled_from(images))].append(
            TruthBox(bbox=BBox(*box()), category=draw(st.sampled_from(categories)))
        )
    gt_categories = sorted(
        {t.category for boxes in truths.values() for t in boxes}, key=str
    )
    preds = {img: [] for img in images}
    for _ in range(draw(st.integers(0, 5))):
        preds[draw(st.sampled_from(images))].append(
            ScoredBox(
                bbox=BBox(*box()),
                confidence=draw(st.sampled_from((0.3, 0.6, 0.9))),
                category=draw(st.sampled_from(gt_categories)),
            )
        )
    return preds, truths


def suffix_max_ap(points):
    """All-point AP with the best later precision searched afresh at each step."""
    ap = 0.0
    prev_recall = 0.0
    for i, (recall, _precision) in enumerate(points):
        if recall > prev_recall:
            ap += (recall - prev_recall) * max(p for _r, p in points[i:])
            prev_recall = recall
    return ap


unit_floats = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def ranked_points(draw):
    """(recall, precision) after each prediction of a ranked hit/miss list."""
    hits = draw(st.lists(st.booleans(), max_size=60))
    n_gt = sum(hits) + draw(st.integers(0, 5)) or 1
    points, tp = [], 0
    for rank, hit in enumerate(hits, start=1):
        tp += hit
        points.append((tp / n_gt, tp / rank))
    return points


class TestMapOracle:
    @settings(max_examples=60, deadline=None)
    @given(detection_instances())
    def test_matches_brute_force_enumeration(self, instance):
        preds, truths = instance
        value = map_at_50(preds, truths)
        canonical, all_orderings = ref_map(preds, truths)
        assert value == pytest.approx(canonical)
        assert any(math.isclose(value, v, abs_tol=1e-6) for v in all_orderings)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(ranked_points(), st.lists(st.tuples(unit_floats, unit_floats), max_size=40)))
    def test_running_max_equals_suffix_max_definition(self, points):
        assert _all_point_ap(points) == suffix_max_ap(points)


ROW_FINE_TUNE = {
    "scene": 85.12,
    "recognition": 99.79,
    "grounding": 51.58,
    "relationship": 98.69,
    "reid": 50.79,
    "security": 99.82,
    "location": 3.32,
    "aerial_counting": 0.25,
    "pedestrian_counting": 0.82,
}

ROW_ZERO_SHOT = {
    "scene": 46.02,
    "recognition": 77.69,
    "grounding": 30.05,
    "relationship": 53.02,
    "reid": 7.33,
    "security": 38.19,
    "location": 43.29,
    "aerial_counting": 21.75,
    "pedestrian_counting": 60.39,
}


class TestAggregate:
    def test_reference_row_fine_tune(self):
        report = aggregate(ROW_FINE_TUNE)
        assert report.psum == pytest.approx(485.79, abs=0.005)
        assert report.nsum == pytest.approx(4.39, abs=0.005)

    def test_reference_row_zero_shot(self):
        report = aggregate(ROW_ZERO_SHOT)
        assert report.psum == pytest.approx(252.30, abs=0.005)
        assert report.nsum == pytest.approx(125.43, abs=0.005)

    def test_all_zeros(self):
        report = aggregate({t: 0.0 for t in TASK_KINDS})
        assert report.psum == 0.0
        assert report.nsum == 0.0

    def test_task_partition(self):
        assert set(POSITIVE_TASKS) | set(NEGATIVE_TASKS) == set(TASK_KINDS)
        assert not set(POSITIVE_TASKS) & set(NEGATIVE_TASKS)
        assert len(POSITIVE_TASKS) == 6 and len(NEGATIVE_TASKS) == 3
        assert "grounding" in POSITIVE_TASKS

    def test_missing_task(self):
        values = dict(ROW_FINE_TUNE)
        del values["reid"]
        with pytest.raises(MissingTaskError):
            aggregate(values)

    def test_unknown_task(self):
        values = dict(ROW_FINE_TUNE)
        values["segmentation"] = 1.0
        with pytest.raises(ValueError):
            aggregate(values)


class TestEvaluateRecords:
    def rec(self, image_id, task, predicted):
        return PredictionRecord(image_id=image_id, task=task, predicted=predicted)

    def test_scene_accuracy(self):
        preds = [self.rec("a", "scene", "road"), self.rec("b", "scene", "city")]
        truths = [self.rec("a", "scene", "road"), self.rec("b", "scene", "forest")]
        assert evaluate_records("scene", preds, truths) == 50.0

    def test_security_set_equality(self):
        preds = [self.rec("a", "security", ["dog", "truck"])]
        truths = [self.rec("a", "security", ["truck", "dog"])]
        assert evaluate_records("security", preds, truths) == 100.0

    def test_counting_mae(self):
        preds = [self.rec("a", "pedestrian_counting", 3)]
        truths = [self.rec("a", "pedestrian_counting", 5)]
        assert evaluate_records("pedestrian_counting", preds, truths) == 2.0

    def test_grounding_map(self):
        preds = [self.rec("a", "grounding", (scored(0, 0, 10, 10, 0.9),))]
        truths = [self.rec("a", "grounding", (truth(0, 0, 10, 10),))]
        assert evaluate_records("grounding", preds, truths) == 100.0

    def test_id_mismatch(self):
        with pytest.raises(IdSetMismatchError):
            evaluate_records(
                "scene", [self.rec("a", "scene", "road")], [self.rec("b", "scene", "road")]
            )

    def test_duplicate_id(self):
        preds = [self.rec("a", "scene", "road"), self.rec("a", "scene", "city")]
        truths = [self.rec("a", "scene", "road")]
        with pytest.raises(DuplicateIdError):
            evaluate_records("scene", preds, truths)

    def test_wrong_task_record(self):
        with pytest.raises(ValueError):
            evaluate_records(
                "scene", [self.rec("a", "recognition", "car")], [self.rec("a", "scene", "road")]
            )


def write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


class TestPredictionsIo:
    def test_scene_file(self, tmp_path):
        path = tmp_path / "scene.jsonl"
        write_lines(
            path,
            [
                {"image_id": "a", "task": "scene", "predicted": "road"},
                {"image_id": "b", "task": "scene", "predicted": "city"},
            ],
        )
        records = load_predictions(path, "scene")
        assert records == [
            PredictionRecord(image_id="a", task="scene", predicted="road"),
            PredictionRecord(image_id="b", task="scene", predicted="city"),
        ]

    def test_task_field_must_match(self, tmp_path):
        path = tmp_path / "scene.jsonl"
        write_lines(path, [{"image_id": "a", "task": "scene", "predicted": "road"}])
        with pytest.raises(MalformedLineError):
            load_predictions(path, "recognition")

    def test_security_payload_is_list(self, tmp_path):
        path = tmp_path / "sec.jsonl"
        write_lines(path, [{"image_id": "a", "task": "security", "predicted": ["dog"]}])
        assert load_predictions(path, "security")[0].predicted == ("dog",)
        write_lines(path, [{"image_id": "a", "task": "security", "predicted": "dog"}])
        with pytest.raises(MalformedLineError):
            load_predictions(path, "security")

    def test_counting_payload_is_number(self, tmp_path):
        path = tmp_path / "count.jsonl"
        write_lines(
            path, [{"image_id": "a", "task": "aerial_counting", "predicted": 3}]
        )
        assert load_predictions(path, "aerial_counting")[0].predicted == 3
        write_lines(
            path, [{"image_id": "a", "task": "aerial_counting", "predicted": "three"}]
        )
        with pytest.raises(MalformedLineError):
            load_predictions(path, "aerial_counting")
        write_lines(
            path, [{"image_id": "a", "task": "aerial_counting", "predicted": True}]
        )
        with pytest.raises(MalformedLineError):
            load_predictions(path, "aerial_counting")

    def test_grounding_scored(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_lines(
            path,
            [
                {
                    "image_id": "a",
                    "task": "grounding",
                    "predicted": [
                        {"bbox": [0, 0, 10, 10], "confidence": 0.9, "category": "car"}
                    ],
                }
            ],
        )
        record = load_predictions(path, "grounding")[0]
        assert record.predicted == (scored(0, 0, 10, 10, 0.9, "car"),)

    def test_grounding_missing_confidence(self, tmp_path):
        path = tmp_path / "g.jsonl"
        write_lines(
            path,
            [{"image_id": "a", "task": "grounding", "predicted": [{"bbox": [0, 0, 10, 10]}]}],
        )
        with pytest.raises(MissingConfidenceError):
            load_predictions(path, "grounding")
        record = load_predictions(path, "grounding", scored=False)[0]
        assert record.predicted == (truth(0, 0, 10, 10),)

    def test_duplicate_image_id(self, tmp_path):
        path = tmp_path / "scene.jsonl"
        write_lines(
            path,
            [
                {"image_id": "a", "task": "scene", "predicted": "road"},
                {"image_id": "a", "task": "scene", "predicted": "city"},
            ],
        )
        with pytest.raises(DuplicateIdError):
            load_predictions(path, "scene")


class TestReportIo:
    def test_round_trip(self, tmp_path):
        report = aggregate(ROW_FINE_TUNE)
        path = tmp_path / "report.json"
        write_report(report, path)
        assert load_report(path) == report

    def test_rewrite_byte_identical(self, tmp_path):
        report = aggregate(ROW_ZERO_SHOT)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, first)
        write_report(load_report(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_inconsistent_sums_rejected(self, tmp_path):
        report = aggregate(ROW_FINE_TUNE)
        path = tmp_path / "report.json"
        write_report(report, path)
        obj = json.loads(path.read_text())
        obj["psum"] = 0.0
        path.write_text(json.dumps(obj))
        with pytest.raises(MalformedLineError):
            load_report(path)

    def test_per_task_file(self, tmp_path):
        path = tmp_path / "per_task.json"
        path.write_text(json.dumps(ROW_FINE_TUNE))
        assert load_per_task(path) == ROW_FINE_TUNE

    def test_per_task_rejects_non_numbers(self, tmp_path):
        path = tmp_path / "per_task.json"
        path.write_text(json.dumps({"scene": "high"}))
        with pytest.raises(MalformedLineError):
            load_per_task(path)
