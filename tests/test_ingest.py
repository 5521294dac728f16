import json

import pytest

from ircur.errors import (
    BoundsError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyDomainError,
    MalformedLineError,
    NonFiniteValueError,
    UnknownCategoryError,
)
from ircur.ingest import (
    AnnotatedObject,
    AnnotationRecord,
    BBox,
    load_annotations,
    load_embeddings,
    load_loss_log,
    write_annotations,
    write_embeddings,
)


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def embedding_rows():
    return [
        {"id": "a01", "domain": "infrared", "vector": [0.0, 1.0, 2.0, 3.0]},
        {"id": "a02", "domain": "infrared", "vector": [1.0, 1.0, 1.0, 1.0]},
        {"id": "b01", "domain": "visible", "vector": [0.5, 0.5, 0.5, 0.5]},
    ]


class TestLoadEmbeddings:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_lines(path, embedding_rows())
        es = load_embeddings(path)
        assert es.dim == 4
        assert [s.id for s in es.samples] == ["a01", "a02", "b01"]
        assert es.count("infrared") == 2
        assert es.count("visible") == 1
        assert es.samples[0].vector == (0.0, 1.0, 2.0, 3.0)

    def test_first_line_fixes_dimension(self, tmp_path):
        rows = embedding_rows()
        rows[2]["vector"] = [1.0, 2.0]
        path = tmp_path / "emb.jsonl"
        write_lines(path, rows)
        with pytest.raises(DimensionMismatchError, match="3"):
            load_embeddings(path)

    def test_duplicate_id(self, tmp_path):
        rows = embedding_rows()
        rows[1]["id"] = "a01"
        path = tmp_path / "emb.jsonl"
        write_lines(path, rows)
        with pytest.raises(DuplicateIdError, match="a01"):
            load_embeddings(path)

    def test_missing_domain_side(self, tmp_path):
        rows = [r for r in embedding_rows() if r["domain"] == "infrared"]
        path = tmp_path / "emb.jsonl"
        write_lines(path, rows)
        with pytest.raises(EmptyDomainError, match="visible"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text("")
        with pytest.raises(EmptyDomainError):
            load_embeddings(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(json.dumps(embedding_rows()[0]) + "\n{broken\n")
        with pytest.raises(MalformedLineError) as exc:
            load_embeddings(path)
        assert exc.value.line_no == 2

    def test_unknown_domain(self, tmp_path):
        rows = embedding_rows()
        rows[0]["domain"] = "thermal"
        path = tmp_path / "emb.jsonl"
        write_lines(path, rows)
        with pytest.raises(MalformedLineError, match="thermal"):
            load_embeddings(path)

    def test_non_finite_vector(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        with open(path, "w") as fh:
            fh.write('{"id": "a01", "domain": "infrared", "vector": [1.0, NaN]}\n')
        with pytest.raises((NonFiniteValueError, MalformedLineError)):
            load_embeddings(path)

    def test_integer_beyond_float_range_is_non_finite(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a01", "domain": "infrared", "vector": [1.0, 1%s]}\n' % ("0" * 400))
        with pytest.raises(NonFiniteValueError):
            load_embeddings(path)

    def test_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_bytes(json.dumps(embedding_rows()[0]).encode() + b'\n{"id": "\xff"}\n')
        with pytest.raises(MalformedLineError) as exc:
            load_embeddings(path)
        assert exc.value.line_no == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = embedding_rows()
        with open(path, "w") as fh:
            fh.write(json.dumps(rows[0]) + "\n\n")
            fh.write(json.dumps(rows[1]) + "\n")
            fh.write(json.dumps(rows[2]) + "\n")
        es = load_embeddings(path)
        assert len(es.samples) == 3

    def test_round_trip_exact(self, tmp_path):
        src = tmp_path / "src.jsonl"
        rows = embedding_rows()
        rows[0]["vector"] = [0.1, 1e-17, -2.5000000000000004, 3.0]
        write_lines(src, rows)
        es = load_embeddings(src)
        dst = tmp_path / "dst.jsonl"
        write_embeddings(es, dst)
        assert load_embeddings(dst) == es


def annotation_rows():
    return [
        {
            "image_id": "img1",
            "width": 640,
            "height": 512,
            "objects": [
                {"category": "person", "bbox": [10, 20, 30, 40]},
                {"category": "car", "bbox": [100, 100, 60, 30]},
            ],
            "scene": "road",
        },
        {"image_id": "img2", "width": 640, "height": 512, "objects": []},
    ]


class TestLoadAnnotations:
    VOCAB = {"person", "car"}

    def test_basic_load(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, annotation_rows())
        recs = load_annotations(path, self.VOCAB)
        assert [r.image_id for r in recs] == ["img1", "img2"]
        assert recs[0].objects[0].category == "person"
        assert recs[0].objects[0].bbox == BBox(10, 20, 30, 40)
        assert recs[0].scene == "road"
        assert recs[1].scene is None
        assert recs[1].objects == ()

    def test_bbox_out_of_bounds(self, tmp_path):
        rows = annotation_rows()
        rows[0]["objects"][0]["bbox"] = [630, 10, 50, 40]
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        with pytest.raises(BoundsError):
            load_annotations(path, self.VOCAB)

    def test_bbox_zero_size(self, tmp_path):
        rows = annotation_rows()
        rows[0]["objects"][0]["bbox"] = [10, 10, 0, 5]
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        with pytest.raises(BoundsError):
            load_annotations(path, self.VOCAB)

    def test_unknown_category(self, tmp_path):
        rows = annotation_rows()
        rows[0]["objects"][0]["category"] = "dragon"
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        with pytest.raises(UnknownCategoryError, match="dragon"):
            load_annotations(path, self.VOCAB)

    def test_duplicate_image_id(self, tmp_path):
        rows = annotation_rows()
        rows[1]["image_id"] = "img1"
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        with pytest.raises(DuplicateIdError, match="img1"):
            load_annotations(path, self.VOCAB)

    def test_fractional_bbox_rejected(self, tmp_path):
        rows = annotation_rows()
        rows[0]["objects"][0]["bbox"] = [10.5, 20, 30, 40]
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        with pytest.raises(MalformedLineError, match="integer"):
            load_annotations(path, self.VOCAB)

    def test_no_vocabulary_accepts_any_category(self, tmp_path):
        rows = annotation_rows()
        rows[0]["objects"][0]["category"] = "dragon"
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        assert load_annotations(path)[0].objects[0].category == "dragon"

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.jsonl"
        write_lines(src, annotation_rows())
        recs = load_annotations(src, self.VOCAB)
        dst = tmp_path / "dst.jsonl"
        write_annotations(recs, dst)
        assert load_annotations(dst, self.VOCAB) == recs

    def test_bbox_touching_edge_allowed(self, tmp_path):
        rows = [
            {
                "image_id": "img1",
                "width": 640,
                "height": 512,
                "objects": [{"category": "car", "bbox": [600, 472, 40, 40]}],
            }
        ]
        path = tmp_path / "ann.jsonl"
        write_lines(path, rows)
        recs = load_annotations(path, self.VOCAB)
        assert recs[0].objects[0].bbox == BBox(600, 472, 40, 40)


class TestLoadLossLog:
    def test_basic(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(
            path,
            [
                {"id": "a", "l": 1.5, "l_prime": 1.2, "alpha": -0.2, "weight": 1.1},
                {"id": "b", "l": 0.5, "l_prime": 0.9},
            ],
        )
        log = load_loss_log(path)
        assert log == {"a": (1.5, 1.2), "b": (0.5, 0.9)}

    def test_duplicate(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, [{"id": "a", "l": 1.0, "l_prime": 1.0}] * 2)
        with pytest.raises(DuplicateIdError):
            load_loss_log(path)

    def test_integer_beyond_float_range_is_non_finite(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"id": "a", "l": 1%s, "l_prime": 1.0}\n' % ("0" * 400))
        with pytest.raises(NonFiniteValueError):
            load_loss_log(path)
