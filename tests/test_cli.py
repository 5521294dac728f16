import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ircur
from ircur import kernel_lesson
from ircur.cli import (
    PipelineConfig,
    UsageError,
    compute_histogram,
    main,
    parse_kv_config,
)
from ircur.errors import DegenerateSetError
from ircur.ingest import load_annotations
from ircur.pairgen import generate_caption, load_captions, load_qa_records, validate_qa_record


def write_config(path, **keys):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            fh.write(f"{key} = {value}\n")
    return str(path)


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")
    return str(path)


class TestParseKvConfig:
    def test_values_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\nseed = 3\n\ntiers=5   # trailing\nout = runs/a\n")
        assert parse_kv_config(cfg) == {"seed": "3", "tiers": "5", "out": "runs/a"}

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 3\n")
        with pytest.raises(UsageError, match="expected key = value"):
            parse_kv_config(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(UsageError, match="duplicate key"):
            parse_kv_config(cfg)

    def test_empty_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed =\n")
        with pytest.raises(UsageError, match="empty key or value"):
            parse_kv_config(cfg)


class TestPipelineConfig:
    def test_flag_overrides_file(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", seed=1, tiers=5)
        cfg = PipelineConfig.from_sources(cfg_path, {"seed": "2", "out": None})
        assert cfg.require_int("seed") == 2
        assert cfg.require_int("tiers") == 5

    def test_missing_required_key(self):
        cfg = PipelineConfig(values={})
        with pytest.raises(UsageError, match="seed"):
            cfg.require("seed")

    def test_non_integer_rejected(self):
        cfg = PipelineConfig(values={"seed": "abc"})
        with pytest.raises(UsageError, match="must be an integer"):
            cfg.require_int("seed")

    def test_defaults_apply(self):
        cfg = PipelineConfig(values={})
        assert cfg.get_int("batch_size", 32) == 32
        assert cfg.get_float("lr", 0.05) == 0.05


class TestComputeHistogram:
    def test_shape_and_totals(self):
        values = [float(v) for v in range(10)]
        hist = compute_histogram(values)
        assert len(hist["bin_edges"]) == 51
        assert len(hist["counts"]) == 50
        assert sum(hist["counts"]) == 10
        assert hist["bin_edges"][0] == 0.0
        assert hist["bin_edges"][-1] == 9.0

    def test_max_value_falls_in_last_bin(self):
        hist = compute_histogram([0.0, 1.0])
        assert hist["counts"][-1] == 1
        assert hist["counts"][0] == 1

    def test_single_value_widened_range(self):
        hist = compute_histogram([3.0, 3.0])
        assert hist["bin_edges"][0] == 2.5
        assert hist["bin_edges"][-1] == 3.5
        assert sum(hist["counts"]) == 2

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSetError):
            compute_histogram([])


# ---------------------------------------------------------------------------
# end-to-end fixtures

IR_VECTORS = {
    "s0": [0.0, 0.1, 0.0],
    "s1": [0.2, 0.0, 0.1],
    "s2": [0.1, 0.3, 0.0],
    "s3": [0.4, 0.1, 0.2],
    "s4": [0.0, 0.2, 0.4],
    "s5": [0.3, 0.3, 0.1],
}

VIS_VECTORS = {
    "v0": [1.0, 1.1, 0.9],
    "v1": [0.9, 1.0, 1.2],
    "v2": [1.2, 0.8, 1.0],
    "v3": [1.1, 1.2, 1.1],
    "v4": [0.8, 1.0, 0.8],
    "v5": [1.0, 0.9, 1.3],
}

TEXT_VECTORS = {
    "s0": [0.1, 0.0],
    "s1": [0.0, 0.3],
    "s2": [0.4, 0.1],
    "s3": [0.2, 0.5],
    "s4": [0.6, 0.0],
    "s5": [0.3, 0.3],
}

LABELS = {"s0": 0, "s1": 1, "s2": 0, "s3": 1, "s4": 0, "s5": 1}

PER_TASK_VALUES = {
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


def embeddings_file(tmp_path):
    rows = [
        {"id": sid, "domain": "infrared", "vector": vec}
        for sid, vec in IR_VECTORS.items()
    ] + [
        {"id": vid, "domain": "visible", "vector": vec}
        for vid, vec in VIS_VECTORS.items()
    ]
    return write_lines(tmp_path / "embeddings.jsonl", rows)


def paired_file(tmp_path):
    rows = [
        {"id": sid, "image_vector": IR_VECTORS[sid], "text_vector": TEXT_VECTORS[sid]}
        for sid in sorted(IR_VECTORS)
    ]
    return write_lines(tmp_path / "paired.jsonl", rows)


def labels_file(tmp_path):
    rows = [
        {"id": sid, "features": IR_VECTORS[sid], "label": LABELS[sid]}
        for sid in sorted(IR_VECTORS)
    ]
    return write_lines(tmp_path / "labels.jsonl", rows)


def run_pipeline(tmp_path, out_dir):
    """Score, fuse, schedule, and train over the small fixture set."""
    cfg = write_config(
        tmp_path / "run.cfg",
        embeddings=embeddings_file(tmp_path),
        paired_embeddings=paired_file(tmp_path),
        labels=labels_file(tmp_path),
        out=out_dir,
        seed=3,
        tiers=3,
        schedule="ascending-stratified-random",
        lr=0.1,
        epochs=4,
        bandwidth="median",
    )
    for sub in ("score-visual", "score-alignment", "fuse", "schedule", "train", "histogram"):
        assert main([sub, "--config", cfg]) == 0, sub
    return cfg


ARTIFACTS = (
    "visual_scores.jsonl",
    "alignment_scores.jsonl",
    "fused.jsonl",
    "plan.jsonl",
    "train_report.json",
    "model.json",
    "histogram.json",
)


class TestPipeline:
    def test_full_run_produces_artifacts(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        report = json.loads((out / "train_report.json").read_text())
        assert set(report) == {"loss_curve", "final_accuracy"}
        assert len(report["loss_curve"]) == 4
        hist = json.loads((out / "histogram.json").read_text())
        assert set(hist) == {"d", "l_prime"}
        assert sum(hist["d"]["counts"]) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        first = {name: (out / name).read_bytes() for name in ARTIFACTS}
        run_pipeline(tmp_path, out)
        for name in ARTIFACTS:
            assert (out / name).read_bytes() == first[name], name

    def test_inputs_not_mutated(self, tmp_path):
        inputs = [embeddings_file(tmp_path), paired_file(tmp_path), labels_file(tmp_path)]
        before = [open(p, "rb").read() for p in inputs]
        run_pipeline(tmp_path, tmp_path / "out")
        after = [open(p, "rb").read() for p in inputs]
        assert before == after

    def test_train_with_loss_log_weights(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(tmp_path, out)
        # alignment scores double as the (l, l_prime) loss log
        cfg2 = write_config(
            tmp_path / "weighted.cfg",
            labels=labels_file(tmp_path),
            plan=str(out / "plan.jsonl"),
            loss_log=str(out / "alignment_scores.jsonl"),
            out=str(tmp_path / "weighted"),
            seed=3,
            lr=0.1,
            epochs=4,
        )
        assert main(["train", "--config", cfg2]) == 0
        report = json.loads((tmp_path / "weighted" / "train_report.json").read_text())
        assert len(report["loss_curve"]) == 4


class TestScoreVisual:
    def test_median_bandwidth_resolved_once(self, tmp_path, monkeypatch):
        calls = []
        original = kernel_lesson.median_bandwidth

        def counting(embedding_set):
            calls.append(embedding_set)
            return original(embedding_set)

        monkeypatch.setattr(kernel_lesson, "median_bandwidth", counting)
        cfg = write_config(
            tmp_path / "run.cfg",
            embeddings=embeddings_file(tmp_path),
            out=str(tmp_path / "out"),
            bandwidth="median",
        )
        assert main(["score-visual", "--config", cfg]) == 0
        assert len(calls) == 1
        header = json.loads((tmp_path / "out" / "visual_scores.jsonl").read_text().splitlines()[0])
        assert header["bandwidth"] == original(calls[0])


class TestFuse:
    def scored(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "run.cfg",
            embeddings=embeddings_file(tmp_path),
            paired_embeddings=paired_file(tmp_path),
            out=str(out),
            seed=3,
        )
        for sub in ("score-visual", "score-alignment"):
            assert main([sub, "--config", cfg]) == 0, sub
        return cfg, out / "visual_scores.jsonl"

    def replace_first_row(self, path, key, literal):
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row[key] = "SENTINEL"
        lines[1] = json.dumps(row).replace('"SENTINEL"', literal)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("key, literal", [
        ("d", "NaN"),
        ("d", "Infinity"),
        ("projection", "-Infinity"),
        ("projection", '"0.5"'),
        ("d", "true"),
        ("d", "null"),
    ])
    def test_bad_visual_score_exits_4(self, tmp_path, key, literal):
        cfg, visual = self.scored(tmp_path)
        self.replace_first_row(visual, key, literal)
        assert main(["fuse", "--config", cfg]) == 4
        assert not (tmp_path / "out" / "fused.jsonl").exists()

    @pytest.mark.parametrize("key, literal", [
        ("l", "NaN"),
        ("l_prime", "NaN"),
        ("alpha", "Infinity"),
        ("weight", "-Infinity"),
        ("l_prime", '"0.5"'),
        ("l", "true"),
        ("weight", "null"),
    ])
    def test_bad_alignment_score_exits_4(self, tmp_path, key, literal):
        cfg, visual = self.scored(tmp_path)
        self.replace_first_row(visual.with_name("alignment_scores.jsonl"), key, literal)
        assert main(["fuse", "--config", cfg]) == 4
        assert not (tmp_path / "out" / "fused.jsonl").exists()


class TestSchedule:
    def fused_six(self, tmp_path):
        rows = [
            {"id": f"s{i}", "rank_visual": i, "rank_alignment": i, "fused_key": 2 * i}
            for i in range(6)
        ]
        return write_lines(tmp_path / "fused.jsonl", rows)

    def test_three_tiers_of_six(self, tmp_path):
        fused = self.fused_six(tmp_path)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "run.cfg",
            fused=fused,
            out=str(out),
            tiers=3,
            schedule="ascending-stratified-random",
            seed=1,
        )
        assert main(["schedule", "--config", cfg]) == 0
        lines = [json.loads(l) for l in (out / "plan.jsonl").read_text().splitlines()]
        header, rows = lines[0], lines[1:]
        assert header == {"kind": "ascending-stratified-random", "seed": 1, "M": 3}
        assert [r["position"] for r in rows] == list(range(6))
        # tier boundaries hold: two samples per tier, emitted in tier order
        assert [r["tier"] for r in rows] == [0, 0, 1, 1, 2, 2]
        assert {r["id"] for r in rows[0:2]} == {"s0", "s1"}
        assert {r["id"] for r in rows[2:4]} == {"s2", "s3"}
        assert {r["id"] for r in rows[4:6]} == {"s4", "s5"}

    def test_flag_overrides_config_seed(self, tmp_path):
        fused = self.fused_six(tmp_path)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "run.cfg",
            fused=fused,
            out=str(out),
            tiers=3,
            schedule="random",
            seed=1,
        )
        assert main(["schedule", "--config", cfg, "--seed", "2"]) == 0
        header = json.loads((out / "plan.jsonl").read_text().splitlines()[0])
        assert header["seed"] == 2

    def test_tier_count_defaults_to_five(self, tmp_path):
        fused = self.fused_six(tmp_path)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "run.cfg",
            fused=fused,
            out=str(out),
            schedule="difficulty-ascending",
            seed=0,
        )
        assert main(["schedule", "--config", cfg]) == 0
        header = json.loads((out / "plan.jsonl").read_text().splitlines()[0])
        assert header["M"] == 5

    def test_too_many_tiers_exits_6(self, tmp_path):
        fused = self.fused_six(tmp_path)
        cfg = write_config(
            tmp_path / "run.cfg",
            fused=fused,
            out=str(tmp_path / "out"),
            tiers=10,
            schedule="random",
            seed=1,
        )
        assert main(["schedule", "--config", cfg]) == 6

    def schedule_exit_code(self, tmp_path, rows):
        cfg = write_config(
            tmp_path / "run.cfg",
            fused=write_lines(tmp_path / "fused.jsonl", rows),
            out=str(tmp_path / "out"),
            tiers=3,
            schedule="difficulty-ascending",
            seed=1,
        )
        return main(["schedule", "--config", cfg])

    def test_string_ranks_exit_4(self, tmp_path):
        # "0" + "0" == "00": string ranks pass a bare rank-sum check, in sorted order
        rows = [
            {"id": f"s{i}", "rank_visual": str(i), "rank_alignment": str(i), "fused_key": str(i) * 2}
            for i in range(6)
        ]
        assert self.schedule_exit_code(tmp_path, rows) == 4
        assert not (tmp_path / "out" / "plan.jsonl").exists()

    @pytest.mark.parametrize("row", [
        {"id": "s0", "rank_visual": True, "rank_alignment": True, "fused_key": 2},
        {"id": "s0", "rank_visual": 0.0, "rank_alignment": 1, "fused_key": 1},
        {"id": "s0", "rank_visual": 0, "rank_alignment": 1, "fused_key": None},
        {"id": 7, "rank_visual": 0, "rank_alignment": 1, "fused_key": 1},
        {"id": "", "rank_visual": 0, "rank_alignment": 1, "fused_key": 1},
    ])
    def test_mistyped_fused_row_exits_4(self, tmp_path, row):
        rows = [row] + [
            {"id": f"s{i}", "rank_visual": i, "rank_alignment": i, "fused_key": 2 * i}
            for i in range(1, 6)
        ]
        assert self.schedule_exit_code(tmp_path, rows) == 4
        assert not (tmp_path / "out" / "plan.jsonl").exists()


class TestEvaluate:
    def test_benchmark_row_sums(self, tmp_path):
        per_task = tmp_path / "per_task.json"
        per_task.write_text(json.dumps(PER_TASK_VALUES))
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "run.cfg", per_task=str(per_task), out=str(out))
        assert main(["evaluate", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["psum"] == pytest.approx(485.79, abs=0.005)
        assert report["nsum"] == pytest.approx(4.39, abs=0.005)
        assert report["per_task"] == PER_TASK_VALUES


ANNOTATIONS = [
    {
        "image_id": "img-00",
        "width": 100,
        "height": 100,
        "scene": "urban road",
        "objects": [
            {"category": "person", "bbox": [10, 10, 11, 11]},
            {"category": "car", "bbox": [40, 40, 20, 10]},
        ],
    },
    {
        "image_id": "img-01",
        "width": 100,
        "height": 100,
        "scene": "campus",
        "objects": [
            {"category": "car", "bbox": [5, 5, 10, 10]},
            {"category": "truck", "bbox": [30, 8, 12, 12]},
            {"category": "car", "bbox": [60, 20, 15, 10]},
        ],
    },
    {
        "image_id": "img-02",
        "width": 100,
        "height": 100,
        "scene": "river bank",
        "objects": [],
    },
    {
        "image_id": "img-03",
        "width": 100,
        "height": 100,
        "scene": "parking lot",
        "objects": [
            {"category": "person", "bbox": [0, 0, 10, 10]},
            {"category": "person", "bbox": [50, 50, 10, 10]},
            {"category": "bus", "bbox": [20, 20, 30, 20]},
        ],
    },
    {
        "image_id": "img-04",
        "width": 100,
        "height": 100,
        "objects": [{"category": "bicycle", "bbox": [10, 10, 5, 5]}],
    },
    {
        "image_id": "img-05",
        "width": 100,
        "height": 100,
        "scene": "urban road",
        "objects": [
            {"category": "person", "bbox": [10, 10, 10, 10]},
            {"category": "person", "bbox": [12, 40, 10, 10]},
        ],
    },
]

VOCABULARY = "person,car,truck,bus,bicycle,motorcycle,van,boat"
SCENES = "urban road,campus,river bank,parking lot"


class TestGeneratePairs:
    def config(self, tmp_path, out, **extra):
        ann = write_lines(tmp_path / "annotations.jsonl", ANNOTATIONS)
        return write_config(
            tmp_path / "pairs.cfg",
            annotations=ann,
            vocabulary=VOCABULARY,
            scenes=SCENES,
            out=str(out),
            seed=7,
            **extra,
        )

    def test_records_validate_against_annotations(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.config(tmp_path, out)
        assert main(["generate-pairs", "--config", cfg]) == 0
        vocab = set(VOCABULARY.split(","))
        by_id = {
            r.image_id: r
            for r in load_annotations(tmp_path / "annotations.jsonl", vocab)
        }
        records = load_qa_records(out / "qa.jsonl")
        assert records
        for record in records:
            validate_qa_record(record, by_id[record.image_id])
        # every image with objects asks grounding and location questions
        tasks = {(r.image_id, r.task) for r in records}
        for rec in ANNOTATIONS:
            if rec["objects"]:
                assert (rec["image_id"], "grounding") in tasks
                assert (rec["image_id"], "location") in tasks
        assert ("img-02", "security") in tasks
        assert ("img-04", "scene") not in tasks
        assert ("img-05", "relationship") in tasks

    def test_captions_match_generator(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.config(tmp_path, out)
        assert main(["generate-pairs", "--config", cfg]) == 0
        vocab = set(VOCABULARY.split(","))
        records = load_annotations(tmp_path / "annotations.jsonl", vocab)
        captions = load_captions(out / "captions.jsonl")
        assert [(c.image_id, c.text) for c in captions] == [
            (r.image_id, generate_caption(r).text) for r in records
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.config(tmp_path, out)
        assert main(["generate-pairs", "--config", cfg]) == 0
        first = [(out / n).read_bytes() for n in ("qa.jsonl", "captions.jsonl")]
        assert main(["generate-pairs", "--config", cfg]) == 0
        assert [(out / n).read_bytes() for n in ("qa.jsonl", "captions.jsonl")] == first

    def test_stride_resample_keeps_alternate_frames(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.config(tmp_path, out)
        code = main(["generate-pairs", "--config", cfg, "--retain-rate", "0.5"])
        assert code == 0
        captions = load_captions(out / "captions.jsonl")
        assert [c.image_id for c in captions] == ["img-00", "img-02", "img-04"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_key_is_usage(self, tmp_path):
        fused = write_lines(
            tmp_path / "fused.jsonl",
            [{"id": "a", "rank_visual": 0, "rank_alignment": 0, "fused_key": 0}],
        )
        cfg = write_config(tmp_path / "run.cfg", fused=fused, tiers=1)
        # the seed key is absent and has no default
        assert main(["schedule", "--config", cfg, "--schedule", "random"]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["evaluate", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_missing_input_file_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg",
            embeddings=str(tmp_path / "absent.jsonl"),
            out=str(tmp_path / "out"),
        )
        assert main(["score-visual", "--config", cfg]) == 3

    def test_malformed_input_exits_4(self, tmp_path):
        bad = tmp_path / "embeddings.jsonl"
        bad.write_text("not json\n")
        cfg = write_config(
            tmp_path / "run.cfg", embeddings=str(bad), out=str(tmp_path / "out")
        )
        assert main(["score-visual", "--config", cfg]) == 4

    def test_degenerate_histogram_exits_5(self, tmp_path):
        scores = tmp_path / "visual_scores.jsonl"
        scores.write_text(
            json.dumps({"mmd": 1.0, "bandwidth": 1.0, "n_ir": 0, "n_vis": 0}) + "\n"
        )
        cfg = write_config(
            tmp_path / "run.cfg", visual_scores=str(scores), out=str(tmp_path / "out")
        )
        assert main(["histogram", "--config", cfg]) == 5

    def test_histogram_without_inputs_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", out=str(tmp_path / "empty"))
        assert main(["histogram", "--config", cfg]) == 3

    def test_bad_retain_rate_is_usage(self, tmp_path):
        out = tmp_path / "out"
        ann = write_lines(tmp_path / "annotations.jsonl", ANNOTATIONS)
        cfg = write_config(
            tmp_path / "run.cfg",
            annotations=ann,
            vocabulary=VOCABULARY,
            out=str(out),
            seed=7,
        )
        assert main(["generate-pairs", "--config", cfg, "--retain-rate", "1.5"]) == 2


def test_module_entry_point(tmp_path):
    per_task = tmp_path / "per_task.json"
    per_task.write_text(json.dumps(PER_TASK_VALUES))
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", per_task=str(per_task), out=str(out))
    # the child imports ircur from where this process did, installed or not
    package_root = str(Path(ircur.__file__).resolve().parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ircur", "evaluate", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": search_path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "report.json" in proc.stderr
    assert (out / "report.json").is_file()
