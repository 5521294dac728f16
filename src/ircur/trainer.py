"""Weighted-softmax reference trainer driven by a curriculum plan.

A linear softmax classifier with closed-form gradients is enough to
exercise the two mechanisms under test: the per-sample weighted
cross-entropy objective and the effect of sample ordering. Samples are
consumed in plan order, sliced into batches of batch_size, with the plan
replayed every epoch; updates are plain SGD.

Labeled-set file: {"id", "features", "label"} rows.
Train report file: one JSON object {"loss_curve", "final_accuracy"}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    DuplicateIdError,
    EmptyDomainError,
    IdSetMismatchError,
    MalformedLineError,
)
from .curriculum import CurriculumPlan
from .ingest import _read_json_lines, _require, _require_str, _require_vector


@dataclass
class SoftmaxModel:
    W: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class LabeledSample:
    id: str
    features: tuple[float, ...]
    label: int


@dataclass(frozen=True)
class LabeledSet:
    samples: tuple[LabeledSample, ...]

    def by_id(self) -> dict[str, LabeledSample]:
        return {s.id: s for s in self.samples}


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class TrainReport:
    loss_curve: list[float]
    final_accuracy: float


def init_softmax_model(n_classes: int, dim: int, seed: int) -> SoftmaxModel:
    rng = np.random.default_rng(seed)
    return SoftmaxModel(W=rng.normal(0.0, 0.01, size=(n_classes, dim)), b=np.zeros(n_classes))


def _probabilities(model: SoftmaxModel, features: np.ndarray) -> np.ndarray:
    logits = features @ model.W.T + model.b
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits")
    logits -= logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    return expz / expz.sum(axis=1, keepdims=True)


def _batch_arrays(batch: LabeledSet, weights: dict[str, float]):
    features = np.asarray([s.features for s in batch.samples], dtype=np.float64)
    labels = np.asarray([s.label for s in batch.samples], dtype=np.intp)
    try:
        w = np.asarray([weights[s.id] for s in batch.samples], dtype=np.float64)
    except KeyError as exc:
        raise IdSetMismatchError(f"no weight for sample id {exc.args[0]!r}") from exc
    return features, labels, w


def weighted_ce_loss(model: SoftmaxModel, batch: LabeledSet, weights: dict[str, float]) -> float:
    """(1/N) sum_i w_i * (-ln p_i[label_i]) with a max-subtracted softmax."""
    features, labels, w = _batch_arrays(batch, weights)
    logits = features @ model.W.T + model.b
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits")
    # log-softmax keeps the loss finite where the picked probability
    # underflows (logit gap past ~745)
    logits -= logits.max(axis=1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    picked = logp[np.arange(len(labels)), labels]
    return float(np.mean(w * -picked))


def grad_weighted_ce(model: SoftmaxModel, batch: LabeledSet, weights: dict[str, float]):
    """Analytic gradient of weighted_ce_loss w.r.t. (W, b)."""
    features, labels, w = _batch_arrays(batch, weights)
    p = _probabilities(model, features)
    p[np.arange(len(labels)), labels] -= 1.0
    scaled = p * w[:, None] / len(labels)
    return scaled.T @ features, scaled.sum(axis=0)


def predict_labels(model: SoftmaxModel, data: LabeledSet) -> list[int]:
    features = np.asarray([s.features for s in data.samples], dtype=np.float64)
    logits = features @ model.W.T + model.b
    return [int(i) for i in np.argmax(logits, axis=1)]


def accuracy(model: SoftmaxModel, data: LabeledSet) -> float:
    predicted = predict_labels(model, data)
    hits = sum(1 for p, s in zip(predicted, data.samples) if p == s.label)
    return hits / len(data.samples)


def train(model: SoftmaxModel, data: LabeledSet, plan: CurriculumPlan,
          weights: dict[str, float], cfg: TrainConfig,
          holdout: LabeledSet | None = None) -> TrainReport:
    """SGD in plan order; mutates `model` in place.

    The per-epoch loss is the sample-weighted mean of batch losses as each
    batch is visited. final_accuracy is measured on `holdout` when given,
    otherwise on the training data.
    """
    by_id = data.by_id()
    if set(plan.order) != set(by_id):
        raise IdSetMismatchError("plan ids and data ids differ")
    if len(plan.order) != len(data.samples):
        raise IdSetMismatchError("plan and data sizes differ")
    ordered = [by_id[sample_id] for sample_id in plan.order]
    n = len(ordered)
    curve = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = LabeledSet(samples=tuple(ordered[start : start + cfg.batch_size]))
            loss = weighted_ce_loss(model, batch, weights)
            g_w, g_b = grad_weighted_ce(model, batch, weights)
            model.W -= cfg.lr * g_w
            model.b -= cfg.lr * g_b
            epoch_loss += loss * len(batch.samples)
        curve.append(epoch_loss / n)
    return TrainReport(loss_curve=curve, final_accuracy=accuracy(model, holdout or data))


def load_labeled_set(path) -> LabeledSet:
    samples: list[LabeledSample] = []
    seen: set[str] = set()
    dim = None
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        if sample_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        features = _require_vector(obj, "features", path, line_no)
        if dim is None:
            dim = len(features)
        elif len(features) != dim:
            raise MalformedLineError(path, line_no, f"expected {dim} features, got {len(features)}")
        label = _require(obj, "label", path, line_no)
        if isinstance(label, bool) or not isinstance(label, int) or label < 0:
            raise MalformedLineError(path, line_no, "field 'label' must be a nonnegative integer")
        samples.append(LabeledSample(sample_id, features, label))
    if not samples:
        raise EmptyDomainError(f"{path}: no samples")
    return LabeledSet(samples=tuple(samples))


def write_labeled_set(data: LabeledSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in data.samples:
            fh.write(json.dumps({"id": s.id, "features": list(s.features), "label": s.label}) + "\n")


def write_train_report(report: TrainReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "loss_curve": report.loss_curve,
            "final_accuracy": report.final_accuracy,
        }) + "\n")
