import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ircur.errors import (
    GenerationPreconditionError,
    MalformedLineError,
    VocabularyTooSmallError,
)
from ircur.ingest import AnnotatedObject, AnnotationRecord, BBox
from ircur.pairgen import (
    PEDESTRIAN_CATEGORIES,
    VEHICLE_CATEGORIES,
    CaptionRecord,
    QARecord,
    ResampleConfig,
    generate_caption,
    generate_mcq,
    generate_spatial,
    load_captions,
    load_qa_records,
    resample_frames,
    validate_qa_record,
    write_captions,
    write_qa_records,
)


def obj(category, x, y, w, h):
    return AnnotatedObject(category=category, bbox=BBox(x, y, w, h))


def ann(objects, scene=None, width=640, height=512, image_id="img1"):
    return AnnotationRecord(
        image_id=image_id, width=width, height=height, objects=tuple(objects), scene=scene
    )


class TestCaption:
    def test_two_cars_one_person(self):
        record = generate_caption(ann([obj("car", 0, 0, 5, 5), obj("car", 10, 0, 5, 5), obj("person", 20, 0, 5, 5)]))
        assert record == CaptionRecord(
            image_id="img1", text="An infrared image of a scene containing 2 cars, 1 person."
        )

    def test_empty_objects(self):
        record = generate_caption(ann([]))
        assert record.text == "An infrared image of a scene containing no annotated objects."

    def test_scene_named(self):
        record = generate_caption(
            ann([obj("person", 0, 0, 5, 5), obj("person", 10, 0, 5, 5), obj("person", 20, 0, 5, 5)], scene="road")
        )
        assert record.text == "An infrared image of road containing 3 persons."

    def test_descending_count_then_alphabetical(self):
        record = generate_caption(
            ann([obj("person", 0, 0, 5, 5), obj("person", 10, 0, 5, 5), obj("car", 20, 0, 5, 5), obj("bicycle", 30, 0, 5, 5)])
        )
        assert record.text == "An infrared image of a scene containing 2 persons, 1 bicycle, 1 car."


VOCAB = {"car", "person", "bicycle", "dog", "truck"}
SCENES = {"road", "forest", "harbor", "airport", "city"}


class TestRecognition:
    def test_spec_example(self):
        record = generate_mcq(ann([obj("car", 0, 0, 5, 5)]), "recognition", VOCAB, seed=7)
        assert record.task == "recognition"
        assert record.answer == "car"
        assert len(record.options) == 4
        assert "car" in record.options
        assert set(record.options) <= VOCAB

    def test_distractors_absent_from_image(self):
        record_ann = ann([obj("car", 0, 0, 5, 5), obj("person", 10, 0, 5, 5)])
        for seed in range(20):
            record = generate_mcq(record_ann, "recognition", VOCAB, seed=seed)
            for option in record.options:
                if option != record.answer:
                    assert option not in {"car", "person"}

    def test_vocabulary_too_small(self):
        with pytest.raises(VocabularyTooSmallError):
            generate_mcq(ann([obj("car", 0, 0, 5, 5)]), "recognition", {"car", "person", "dog"}, seed=0)

    def test_deterministic(self):
        record_ann = ann([obj("car", 0, 0, 5, 5)])
        first = generate_mcq(record_ann, "recognition", VOCAB, seed=3)
        second = generate_mcq(record_ann, "recognition", VOCAB, seed=3)
        assert first == second

    def test_no_objects_rejected(self):
        with pytest.raises(GenerationPreconditionError):
            generate_mcq(ann([]), "recognition", VOCAB, seed=0)


class TestSceneTask:
    def test_answer_is_true_scene(self):
        record = generate_mcq(ann([obj("car", 0, 0, 5, 5)], scene="road"), "scene", SCENES, seed=5)
        assert record.task == "scene"
        assert record.answer == "road"
        assert "road" in record.options
        assert len(record.options) == 4
        assert len(set(record.options)) == 4

    def test_missing_scene_rejected(self):
        with pytest.raises(GenerationPreconditionError):
            generate_mcq(ann([obj("car", 0, 0, 5, 5)]), "scene", SCENES, seed=0)


class TestSecurity:
    def test_spec_example_complement(self):
        record = generate_mcq(ann([obj("car", 0, 0, 5, 5)]), "security", {"car", "person", "dog", "truck"}, seed=11)
        assert set(record.options) == {"car", "person", "dog", "truck"}
        assert record.answer == ["dog", "person", "truck"]

    def test_answer_is_absent_subset(self):
        record_ann = ann([obj("car", 0, 0, 5, 5), obj("person", 10, 0, 5, 5)])
        for seed in range(20):
            record = generate_mcq(record_ann, "security", VOCAB, seed=seed)
            assert len(record.options) == 4
            expected = sorted(o for o in record.options if o not in {"car", "person"})
            assert record.answer == expected
            assert len(record.answer) >= 1

    def test_no_absent_category_rejected(self):
        record_ann = ann([obj("car", 0, 0, 5, 5), obj("person", 10, 0, 5, 5)])
        with pytest.raises(GenerationPreconditionError):
            generate_mcq(record_ann, "security", {"car", "person"}, seed=0)


GROUNDING_RE = re.compile(r"^Return the bounding box of the (leftmost|rightmost|topmost) (\w+) in the image\.$")


class TestGrounding:
    def test_single_object(self):
        record = generate_spatial(ann([obj("person", 10, 10, 20, 40)]), "grounding", seed=0)
        assert record.task == "grounding"
        assert record.answer == [10, 10, 20, 40]

    def test_qualifier_matches_answer(self):
        record_ann = ann(
            [obj("car", 10, 100, 20, 20), obj("car", 90, 10, 20, 20), obj("car", 200, 300, 20, 20)]
        )
        picks = {"leftmost": [10, 100, 20, 20], "rightmost": [200, 300, 20, 20], "topmost": [90, 10, 20, 20]}
        seen = set()
        for seed in range(30):
            record = generate_spatial(record_ann, "grounding", seed=seed)
            qualifier, category = GROUNDING_RE.match(record.question).groups()
            assert category == "car"
            assert record.answer == picks[qualifier]
            seen.add(qualifier)
        assert seen == set(picks)

    def test_no_objects_rejected(self):
        with pytest.raises(GenerationPreconditionError):
            generate_spatial(ann([]), "grounding", seed=0)


class TestLocation:
    def test_all_boxes_in_annotation_order(self):
        record_ann = ann([obj("car", 0, 0, 5, 5), obj("person", 10, 0, 5, 5), obj("car", 20, 0, 5, 5)])
        for seed in range(10):
            record = generate_spatial(record_ann, "location", seed=seed)
            category = re.match(r"^Give the coordinate locations of all (\w+)s in the image\.$", record.question).group(1)
            expected = [o.bbox.as_list() for o in record_ann.objects if o.category == category]
            assert record.answer == expected


HORIZONTAL_RE = re.compile(
    r"^True or false: the (\w+) at x=([\d.]+) is to the (left|right) of the (\w+) at x=([\d.]+)\.$"
)
VERTICAL_RE = re.compile(
    r"^True or false: the (\w+) at y=([\d.]+) is (above|below) the (\w+) at y=([\d.]+)\.$"
)


class TestRelationship:
    def test_spec_example_statement(self):
        record_ann = ann([obj("car", 10, 10, 20, 20), obj("car", 90, 10, 20, 20)])
        wanted = "the car at x=20 is to the left of the car at x=100"
        found = False
        for seed in range(50):
            record = generate_spatial(record_ann, "relationship", seed=seed)
            if wanted in record.question:
                assert record.answer == "true"
                found = True
        assert found

    def test_truth_value_verified_independently(self):
        # the person box has odd width/height so its center lands on .5
        record_ann = ann(
            [obj("car", 10, 10, 20, 20), obj("person", 90, 40, 11, 11), obj("truck", 300, 200, 40, 20)]
        )
        centers = {}
        for o in record_ann.objects:
            centers.setdefault(o.category, o.bbox.center())
        for seed in range(40):
            record = generate_spatial(record_ann, "relationship", seed=seed)
            m = HORIZONTAL_RE.match(record.question)
            if m:
                cat_a, xa, rel, cat_b, xb = m.groups()
                actual = "left" if float(xa) < float(xb) else "right"
                assert centers[cat_a][0] == float(xa)
                assert centers[cat_b][0] == float(xb)
            else:
                m = VERTICAL_RE.match(record.question)
                assert m, record.question
                cat_a, ya, rel, cat_b, yb = m.groups()
                actual = "above" if float(ya) < float(yb) else "below"
                assert centers[cat_a][1] == float(ya)
                assert centers[cat_b][1] == float(yb)
            assert record.answer == ("true" if rel == actual else "false")

    def test_vertical_axis_when_x_tied(self):
        # both centers sit at x=20, so the question must use the y axis
        record_ann = ann([obj("car", 10, 10, 20, 20), obj("person", 15, 100, 10, 10)])
        for seed in range(10):
            record = generate_spatial(record_ann, "relationship", seed=seed)
            m = VERTICAL_RE.match(record.question)
            assert m, record.question
            _, ya, rel, _, yb = m.groups()
            actual = "above" if float(ya) < float(yb) else "below"
            assert record.answer == ("true" if rel == actual else "false")

    def test_needs_two_objects(self):
        with pytest.raises(GenerationPreconditionError):
            generate_spatial(ann([obj("car", 0, 0, 5, 5)]), "relationship", seed=0)

    def test_coincident_centers_rejected(self):
        record_ann = ann([obj("car", 0, 0, 5, 5), obj("person", 1, 1, 3, 3)])
        with pytest.raises(GenerationPreconditionError):
            generate_spatial(record_ann, "relationship", seed=0)


class TestCounting:
    def test_seven_persons(self):
        record_ann = ann([obj("person", 10 * i, 0, 5, 5) for i in range(7)])
        record = generate_spatial(record_ann, "pedestrian_counting", seed=0)
        assert record.task == "pedestrian_counting"
        assert record.answer == 7

    def test_vehicle_filter(self):
        record_ann = ann(
            [obj("car", 0, 0, 5, 5), obj("car", 10, 0, 5, 5), obj("truck", 20, 0, 5, 5), obj("person", 30, 0, 5, 5)]
        )
        record = generate_spatial(record_ann, "aerial_counting", seed=0)
        assert record.answer == 3

    def test_category_sets_disjoint(self):
        assert not (PEDESTRIAN_CATEGORIES & VEHICLE_CATEGORIES)

    def test_no_matching_objects_rejected(self):
        with pytest.raises(GenerationPreconditionError):
            generate_spatial(ann([obj("car", 0, 0, 5, 5)]), "pedestrian_counting", seed=0)


class TestResample:
    def test_one_percent_of_large_corpus_exact(self):
        ids = list(range(1_700_000))
        kept = resample_frames(ids, ResampleConfig(retain_rate=0.01, mode="stride"), seed=0)
        assert len(kept) == 17_000

    def test_rate_one_identity(self):
        ids = ["a", "b", "c"]
        for mode in ("stride", "seeded-uniform"):
            assert resample_frames(ids, ResampleConfig(retain_rate=1.0, mode=mode), seed=1) == ids

    def test_stride_indices(self):
        ids = [f"f{i}" for i in range(10)]
        kept = resample_frames(ids, ResampleConfig(retain_rate=0.5, mode="stride"), seed=0)
        assert kept == [ids[i] for i in (0, 2, 4, 6, 8)]

    def test_seeded_uniform_contract(self):
        ids = [f"f{i}" for i in range(100)]
        cfg = ResampleConfig(retain_rate=0.13, mode="seeded-uniform")
        kept = resample_frames(ids, cfg, seed=42)
        assert len(kept) == 13
        assert kept == [i for i in ids if i in set(kept)]
        assert kept == resample_frames(ids, cfg, seed=42)
        assert kept != resample_frames(ids, cfg, seed=43)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            ResampleConfig(retain_rate=0.0, mode="stride")
        with pytest.raises(ValueError):
            ResampleConfig(retain_rate=1.5, mode="stride")
        with pytest.raises(ValueError):
            ResampleConfig(retain_rate=0.5, mode="sorted")


class TestQaIo:
    def records(self):
        a = ann([obj("car", 0, 0, 5, 5), obj("person", 10, 0, 5, 5)])
        return [
            generate_mcq(a, "recognition", VOCAB, seed=1),
            generate_mcq(a, "security", VOCAB, seed=2),
            generate_spatial(a, "grounding", seed=3),
            generate_spatial(a, "location", seed=4),
            generate_spatial(a, "relationship", seed=5),
            generate_spatial(a, "pedestrian_counting", seed=6),
        ]

    def test_round_trip_byte_identical(self, tmp_path):
        records = self.records()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_qa_records(records, first)
        write_qa_records(load_qa_records(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert load_qa_records(first) == records

    def test_mcq_needs_four_options(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"image_id": "i", "task": "recognition", "question": "q?", "options": ["a", "b"], "answer": "a", "seed": 0}
            )
            + "\n"
        )
        with pytest.raises(MalformedLineError):
            load_qa_records(path)

    def test_answer_must_be_an_option(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {
                    "image_id": "i",
                    "task": "recognition",
                    "question": "q?",
                    "options": ["a", "b", "c", "d"],
                    "answer": "z",
                    "seed": 0,
                }
            )
            + "\n"
        )
        with pytest.raises(MalformedLineError):
            load_qa_records(path)

    def test_unknown_task_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"image_id": "i", "task": "segmentation", "question": "q?", "answer": "a", "seed": 0}) + "\n"
        )
        with pytest.raises(MalformedLineError):
            load_qa_records(path)

    def test_captions_round_trip(self, tmp_path):
        records = [CaptionRecord(image_id="a", text="t1"), CaptionRecord(image_id="b", text="t2")]
        path = tmp_path / "captions.jsonl"
        write_captions(records, path)
        assert load_captions(path) == records


CATEGORY_POOL = ("car", "person", "truck", "dog", "bicycle", "bus")


@st.composite
def annotations(draw):
    width = draw(st.integers(min_value=40, max_value=200))
    height = draw(st.integers(min_value=40, max_value=200))
    n = draw(st.integers(min_value=1, max_value=6))
    objects = []
    for _ in range(n):
        category = draw(st.sampled_from(CATEGORY_POOL))
        x = draw(st.integers(min_value=0, max_value=width - 2))
        y = draw(st.integers(min_value=0, max_value=height - 2))
        w = draw(st.integers(min_value=1, max_value=width - x))
        h = draw(st.integers(min_value=1, max_value=height - y))
        objects.append(obj(category, x, y, w, h))
    scene = draw(st.sampled_from(("road", "forest", None)))
    return ann(objects, scene=scene, width=width, height=height)


class TestGeneratedInvariants:
    @settings(max_examples=50, deadline=None)
    @given(annotations(), st.integers(min_value=0, max_value=2**32))
    @example(ann([obj(c, 10 * i, 0, 5, 5) for i, c in enumerate(CATEGORY_POOL)]), 0)
    def test_all_tasks_valid_and_deterministic(self, record_ann, seed):
        # an image can hold every pool category; three more leave the
        # three absent categories that MCQ distractors need
        vocabulary = set(CATEGORY_POOL) | {"boat", "van", "motorcycle"}
        present = {o.category for o in record_ann.objects}
        records = [
            generate_mcq(record_ann, "recognition", vocabulary, seed=seed),
            generate_mcq(record_ann, "security", vocabulary, seed=seed),
            generate_spatial(record_ann, "grounding", seed=seed),
            generate_spatial(record_ann, "location", seed=seed),
        ]
        if record_ann.scene is not None:
            records.append(generate_mcq(record_ann, "scene", SCENES, seed=seed))
        if len({o.bbox.center() for o in record_ann.objects}) >= 2:
            records.append(generate_spatial(record_ann, "relationship", seed=seed))
        if present & PEDESTRIAN_CATEGORIES:
            records.append(generate_spatial(record_ann, "pedestrian_counting", seed=seed))
        if present & VEHICLE_CATEGORIES:
            records.append(generate_spatial(record_ann, "aerial_counting", seed=seed))
        for record in records:
            validate_qa_record(record, record_ann)
            assert record.seed == seed
        again = [
            generate_mcq(record_ann, "recognition", vocabulary, seed=seed),
            generate_mcq(record_ann, "security", vocabulary, seed=seed),
            generate_spatial(record_ann, "grounding", seed=seed),
            generate_spatial(record_ann, "location", seed=seed),
        ]
        assert records[: len(again)] == again
