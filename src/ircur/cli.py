"""Command-line pipeline driver.

    ircur SUBCOMMAND [--config FILE] [flags]

Configuration is a flat `key = value` file named by --config; the
flags listed under --help override matching keys (flags win). Inputs
are read from the paths named in the configuration, outputs land in
the directory named by `out` (default: the working directory) under
fixed file names, so a scripted run chains subcommands without extra
plumbing. Rerunning a subcommand with the same configuration rewrites
its outputs byte for byte; inputs are never modified.

Messages go to standard error, data to files only. Exit codes: 0
success, 2 usage or configuration errors, 3 missing input files, 4
data-contract violations, 5 degenerate-geometry errors, 6 id or tier
mismatches.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .alignment_lesson import (
    AlignmentConfig,
    load_alignment_scores,
    load_paired_embeddings,
    loss_variation,
    rank_by_alignment_difficulty,
    sample_weights,
    score_alignment,
    write_alignment_scores,
)
from .bench_eval import aggregate, load_per_task, write_report
from .curriculum import (
    CurriculumPlan,
    build_schedule,
    fuse_rankings,
    load_curriculum_plan,
    load_fused_ranking,
    partition_tiers,
    write_curriculum_plan,
    write_fused_ranking,
)
from .errors import (
    DataContractError,
    DegeneracyError,
    DegenerateSetError,
    EmptyDomainError,
    MismatchError,
)
from .ingest import load_annotations, load_embeddings, load_loss_log
from .kernel_lesson import (
    KernelConfig,
    load_visual_scores,
    rank_by_visual_difficulty,
    score_visual,
    write_visual_scores,
)
from .pairgen import (
    PEDESTRIAN_CATEGORIES,
    VEHICLE_CATEGORIES,
    ResampleConfig,
    generate_caption,
    generate_mcq,
    generate_spatial,
    resample_frames,
    write_captions,
    write_qa_records,
)
from .rng import SplitMix64
from .trainer import (
    TrainConfig,
    init_softmax_model,
    load_labeled_set,
    train,
    write_train_report,
)

SUBCOMMANDS = (
    "score-visual",
    "score-alignment",
    "fuse",
    "schedule",
    "train",
    "generate-pairs",
    "evaluate",
    "histogram",
)

HISTOGRAM_BINS = 50


class UsageError(Exception):
    """Bad flags, malformed configuration, or a missing required key."""


class MissingInputError(Exception):
    """A configured input path does not exist."""


def parse_kv_config(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise UsageError(f"{path}:{line_no}: empty key or value")
            if key in values:
                raise UsageError(f"{path}:{line_no}: duplicate key {key!r}")
            values[key] = value
    return values


@dataclass(frozen=True)
class PipelineConfig:
    """Merged configuration: file values with flag overrides applied."""

    values: dict

    @classmethod
    def from_sources(cls, config_path, overrides: dict) -> "PipelineConfig":
        values: dict[str, str] = {}
        if config_path is not None:
            if not Path(config_path).is_file():
                raise MissingInputError(f"config file not found: {config_path}")
            values = parse_kv_config(config_path)
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
        return cls(values=values)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        value = self.values.get(key)
        if value is None:
            raise UsageError(f"missing required configuration key {key!r}")
        return value

    def get_int(self, key: str, default: int) -> int:
        return self._int(key, self.values.get(key, str(default)))

    def require_int(self, key: str) -> int:
        return self._int(key, self.require(key))

    def get_float(self, key: str, default: float) -> float:
        return self._float(key, self.values.get(key, str(default)))

    def require_float(self, key: str) -> float:
        return self._float(key, self.require(key))

    def _int(self, key, raw) -> int:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"key {key!r} must be an integer, got {raw!r}") from None

    def _float(self, key, raw) -> float:
        try:
            return float(raw)
        except ValueError:
            raise UsageError(f"key {key!r} must be a number, got {raw!r}") from None

    def path(self, key: str, default=None) -> Path:
        """Resolve an input path; it must exist."""
        raw = self.values.get(key)
        resolved = Path(raw) if raw is not None else default
        if resolved is None:
            raise UsageError(f"missing required configuration key {key!r}")
        if not Path(resolved).is_file():
            raise MissingInputError(f"{key}: no such file: {resolved}")
        return Path(resolved)

    def out_dir(self) -> Path:
        out = Path(self.values.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return out


def compute_histogram(values: list[float]) -> dict:
    """Fixed-width bins over [min, max] with the edges included.

    A single-valued input has zero range; it is widened to one unit
    centered on the value so the bin widths stay positive.
    """
    if not values:
        raise DegenerateSetError("no values to bin")
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    width = (hi - lo) / HISTOGRAM_BINS
    counts = [0] * HISTOGRAM_BINS
    for v in values:
        counts[min(HISTOGRAM_BINS - 1, int((v - lo) / width))] += 1
    edges = [lo + i * width for i in range(HISTOGRAM_BINS)] + [hi]
    return {"bin_edges": edges, "counts": counts}


# --------------------------------------------------------------------------
# subcommands


def _note(path, detail="") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ircur: wrote {path}{suffix}", file=sys.stderr)


def _cmd_score_visual(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    embeddings = load_embeddings(cfg.path("embeddings"))
    raw = cfg.get("bandwidth", "median")
    if raw == "median":
        kernel = KernelConfig(bandwidth=None, bandwidth_mode="median")
    else:
        kernel = KernelConfig(bandwidth=cfg.require_float("bandwidth"))
    geometry, scores = score_visual(embeddings, kernel)
    target = out / "visual_scores.jsonl"
    write_visual_scores(target, geometry, embeddings, scores)
    _note(target, f"{len(scores)} scores, mmd {geometry.mmd:.6f}")


def _cmd_score_alignment(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    data = load_paired_embeddings(cfg.path("paired_embeddings"))
    config = AlignmentConfig(
        d_shared=cfg.get_int("d_shared", 32),
        temperature=cfg.get_float("temperature", 0.07),
        epochs=cfg.get_int("warmup_epochs", 50),
        lr=cfg.get_float("warmup_lr", 0.05),
        seed=cfg.require_int("seed"),
    )
    scores = score_alignment(data, config)
    target = out / "alignment_scores.jsonl"
    write_alignment_scores(scores, target)
    _note(target, f"{len(scores)} scores")


def _cmd_fuse(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    _, visual = load_visual_scores(cfg.path("visual_scores", out / "visual_scores.jsonl"))
    alignment = load_alignment_scores(
        cfg.path("alignment_scores", out / "alignment_scores.jsonl")
    )
    ranking = fuse_rankings(
        rank_by_visual_difficulty(visual), rank_by_alignment_difficulty(alignment)
    )
    target = out / "fused.jsonl"
    write_fused_ranking(target, ranking)
    _note(target, f"{len(ranking.entries)} ids")


def _cmd_schedule(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    ranking = load_fused_ranking(cfg.path("fused", out / "fused.jsonl"))
    tiers = partition_tiers(ranking, cfg.get_int("tiers", 5))
    plan = build_schedule(tiers, cfg.require("schedule"), cfg.require_int("seed"))
    target = out / "plan.jsonl"
    write_curriculum_plan(target, plan, ranking)
    _note(target, f"{len(plan.order)} positions, {tiers.M} tiers")


def _load_plan(path) -> CurriculumPlan:
    # the plan rows are freed on return, before training allocates
    header, rows = load_curriculum_plan(path)
    return CurriculumPlan(
        kind=header["kind"],
        seed=header["seed"],
        order=[r.id for r in rows],
        tier_of={r.id: r.tier for r in rows},
    )


def _cmd_train(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    data = load_labeled_set(cfg.path("labels"))
    plan = _load_plan(cfg.path("plan", out / "plan.jsonl"))
    if cfg.get("loss_log") is not None:
        # only the weights live on through training, not the log
        weights = sample_weights({
            i: loss_variation(l, l_prime)
            for i, (l, l_prime) in load_loss_log(cfg.path("loss_log")).items()
        })
    else:
        weights = dict.fromkeys(data.ids, 1.0)
    config = TrainConfig(
        lr=cfg.require_float("lr"),
        epochs=cfg.require_int("epochs"),
        batch_size=cfg.get_int("batch_size", 32),
        seed=cfg.require_int("seed"),
    )
    n_classes = int(data.labels.max()) + 1
    model = init_softmax_model(n_classes, data.features.shape[1], seed=config.seed)
    report = train(model, data, plan, weights, config)
    target = out / "train_report.json"
    write_train_report(report, target)
    model_target = out / "model.json"
    with open(model_target, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"W": model.W.tolist(), "b": model.b.tolist()}) + "\n")
    _note(target, f"final accuracy {report.final_accuracy:.2f}")
    _note(model_target)


def _cmd_generate_pairs(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    ann_path = cfg.path("annotations")
    raw_vocab = cfg.get("vocabulary")
    vocabulary = None
    if raw_vocab is not None:
        vocabulary = {v.strip() for v in raw_vocab.split(",") if v.strip()}
    records = load_annotations(ann_path, vocabulary)
    if not records:
        raise EmptyDomainError(f"{ann_path}: no annotation records")
    if vocabulary is None:
        vocabulary = {o.category for r in records for o in r.objects}
    seed = cfg.require_int("seed")
    resample = ResampleConfig(
        retain_rate=cfg.get_float("retain_rate", 1.0),
        mode=cfg.get("resample_mode", "stride"),
    )
    kept = set(resample_frames([r.image_id for r in records], resample, seed=seed))
    records = [r for r in records if r.image_id in kept]
    raw_scenes = cfg.get("scenes")
    if raw_scenes is not None:
        scene_vocab = {v.strip() for v in raw_scenes.split(",") if v.strip()}
    else:
        scene_vocab = {r.scene for r in records if r.scene is not None}
    mcq_ready = len(vocabulary) >= 4
    scene_ready = len(scene_vocab) >= 4
    if not mcq_ready:
        print(
            f"ircur: {len(vocabulary)} categories < 4, skipping recognition/security",
            file=sys.stderr,
        )
    if not scene_ready:
        print(
            f"ircur: {len(scene_vocab)} scenes < 4, skipping the scene task",
            file=sys.stderr,
        )
    master = SplitMix64(seed)
    captions = []
    qa = []
    for rec in records:
        captions.append(generate_caption(rec))
        present = {o.category for o in rec.objects}
        if mcq_ready and rec.objects and len(vocabulary - present) >= 3:
            qa.append(generate_mcq(rec, "recognition", vocabulary, seed=master.next_u64()))
        if scene_ready and rec.scene is not None and len(scene_vocab - {rec.scene}) >= 3:
            qa.append(generate_mcq(rec, "scene", scene_vocab, seed=master.next_u64()))
        if mcq_ready and vocabulary - present:
            qa.append(generate_mcq(rec, "security", vocabulary, seed=master.next_u64()))
        if rec.objects:
            qa.append(generate_spatial(rec, "grounding", seed=master.next_u64()))
            qa.append(generate_spatial(rec, "location", seed=master.next_u64()))
        if len({o.bbox.center() for o in rec.objects}) >= 2:
            qa.append(generate_spatial(rec, "relationship", seed=master.next_u64()))
        if present & PEDESTRIAN_CATEGORIES:
            qa.append(
                generate_spatial(rec, "pedestrian_counting", seed=master.next_u64())
            )
        if present & VEHICLE_CATEGORIES:
            qa.append(generate_spatial(rec, "aerial_counting", seed=master.next_u64()))
    qa_target = out / "qa.jsonl"
    write_qa_records(qa, qa_target)
    caption_target = out / "captions.jsonl"
    write_captions(captions, caption_target)
    _note(qa_target, f"{len(qa)} questions from {len(records)} images")
    _note(caption_target, f"{len(captions)} captions")


def _cmd_evaluate(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    report = aggregate(load_per_task(cfg.path("per_task")))
    target = out / "report.json"
    write_report(report, target)
    _note(target, f"psum {report.psum:.2f}, nsum {report.nsum:.2f}")


def _cmd_histogram(cfg: PipelineConfig) -> None:
    out = cfg.out_dir()
    parts = {}
    visual_path = _optional_input(cfg, "visual_scores", out / "visual_scores.jsonl")
    if visual_path is not None:
        _, scores = load_visual_scores(visual_path)
        parts["d"] = compute_histogram([s.d for s in scores])
    alignment_path = _optional_input(
        cfg, "alignment_scores", out / "alignment_scores.jsonl"
    )
    if alignment_path is not None:
        scores = load_alignment_scores(alignment_path)
        parts["l_prime"] = compute_histogram([s.l_prime for s in scores])
    if not parts:
        raise MissingInputError(
            "histogram needs visual_scores and/or alignment_scores"
        )
    target = out / "histogram.json"
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(parts, indent=2) + "\n")
    _note(target, " and ".join(parts))


def _optional_input(cfg: PipelineConfig, key: str, default: Path) -> Path | None:
    """The configured path (which must exist), or the default only if present."""
    raw = cfg.get(key)
    if raw is not None:
        return cfg.path(key)
    return default if default.is_file() else None


_COMMANDS = {
    "score-visual": _cmd_score_visual,
    "score-alignment": _cmd_score_alignment,
    "fuse": _cmd_fuse,
    "schedule": _cmd_schedule,
    "train": _cmd_train,
    "generate-pairs": _cmd_generate_pairs,
    "evaluate": _cmd_evaluate,
    "histogram": _cmd_histogram,
}


def run_subcommand(name: str, cfg: PipelineConfig) -> None:
    """Dispatch one subcommand; exceptions carry the error class."""
    if name not in _COMMANDS:
        raise UsageError(f"unknown subcommand {name!r}")
    _COMMANDS[name](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ircur",
        description="difficulty scoring, curriculum schedules, QA generation, "
        "and benchmark aggregation",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", help="override the seed key")
    parser.add_argument("--tiers", help="override the tier count")
    parser.add_argument("--schedule", help="override the schedule kind")
    parser.add_argument("--bandwidth", help="kernel bandwidth, a number or 'median'")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--epochs", help="override the training epochs")
    parser.add_argument("--lr", help="override the training learning rate")
    parser.add_argument("--retain-rate", dest="retain_rate", help="frame retain rate")
    return parser


# error family -> exit code, first match wins; library ValueErrors from
# config validation (a rate out of range, an unknown schedule) are usage errors
_EXIT_CODES = (
    ((UsageError, ValueError), 2),
    ((MissingInputError, FileNotFoundError), 3),
    (DataContractError, 4),
    (DegeneracyError, 5),
    (MismatchError, 6),
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # every flag but these two overrides the configuration key of its name
    overrides = {k: v for k, v in vars(args).items() if k not in ("subcommand", "config")}
    try:
        cfg = PipelineConfig.from_sources(args.config, overrides)
        run_subcommand(args.subcommand, cfg)
    except Exception as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"ircur: {exc}", file=sys.stderr)
                return code
        raise
    return 0
