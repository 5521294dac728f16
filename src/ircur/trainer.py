"""Weighted-softmax reference trainer driven by a curriculum plan.

A linear softmax classifier with closed-form gradients is enough to
exercise the two mechanisms under test: the per-sample weighted
cross-entropy objective and the effect of sample ordering. Samples are
consumed in plan order, sliced into batches of batch_size, with the plan
replayed every epoch; updates are plain SGD.

A LabeledSet holds its samples as arrays, in input order: `ids` (a tuple
of str), `features` (a read-only float64 matrix, one row per sample) and
`labels` (a read-only intp array). `train` permutes them into plan order
once and slices each batch from the result; one forward pass per batch
gives both the loss and the gradient.

Labeled-set file: {"id", "features", "label"} rows.
Train report file: one JSON object {"loss_curve", "final_accuracy"}.
"""

from __future__ import annotations

import json
import math
from array import array
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


class LabeledSet:
    """Samples in input order: ids, a features matrix and a labels array.

    LabeledSet(ids, features, labels) takes the arrays as they are;
    LabeledSet(samples=...) builds them once from LabeledSample records.
    """

    __slots__ = ("ids", "features", "labels")

    def __init__(self, ids=(), features=(), labels=(), *,
                 samples: tuple[LabeledSample, ...] | None = None):
        if samples is not None:
            ids = [s.id for s in samples]
            features = [s.features for s in samples]
            labels = [s.label for s in samples]
        self.ids = tuple(ids)
        # read-only views, so a caller's own arrays stay writeable
        self.features = np.asarray(features, dtype=np.float64).view()
        self.labels = np.asarray(labels, dtype=np.intp).view()
        self.features.flags.writeable = False
        self.labels.flags.writeable = False

    @property
    def samples(self) -> tuple[LabeledSample, ...]:
        """The samples as records, rebuilt from the arrays on each call."""
        return tuple(
            LabeledSample(i, tuple(f), label)
            for i, f, label in zip(self.ids, self.features.tolist(), self.labels.tolist())
        )

    def __eq__(self, other):
        if not isinstance(other, LabeledSet):
            return NotImplemented
        return (self.ids == other.ids and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels))


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and positive")
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


def _row_weights(batch: LabeledSet, weights) -> np.ndarray:
    """One weight per row: given as an array, or looked up by id in a mapping."""
    if isinstance(weights, np.ndarray):
        return weights
    try:
        return np.array([weights[sample_id] for sample_id in batch.ids], dtype=np.float64)
    except KeyError as exc:
        raise IdSetMismatchError(f"no weight for sample id {exc.args[0]!r}") from exc


def weighted_ce_loss(model: SoftmaxModel, batch: LabeledSet, weights) -> float:
    """(1/N) sum_i w_i * (-ln p_i[label_i]) with a max-subtracted softmax.

    `weights` maps each id to its weight, or is an array with one weight
    per row of `batch`.
    """
    return grad_weighted_ce(model, batch, weights, with_loss=True)[2]


def grad_weighted_ce(model: SoftmaxModel, batch: LabeledSet, weights, *, with_loss: bool = False):
    """Analytic gradient (g_W, g_b) of weighted_ce_loss w.r.t. (W, b).

    with_loss=True returns (g_W, g_b, loss): the loss and the gradient
    share one forward pass.
    """
    w = _row_weights(batch, weights)
    logits = batch.features @ model.W.T + model.b
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits")
    logits -= logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    sums = expz.sum(axis=1, keepdims=True)
    rows = np.arange(len(w))
    p = expz / sums
    p[rows, batch.labels] -= 1.0
    scaled = p * w[:, None] / len(w)
    grads = (scaled.T @ batch.features, scaled.sum(axis=0))
    if not with_loss:
        return grads
    # log-softmax keeps the loss finite where the picked probability
    # underflows (logit gap past ~745)
    picked = logits[rows, batch.labels] - np.log(sums)[:, 0]
    return (*grads, float(np.mean(w * -picked)))


def predict_labels(model: SoftmaxModel, data: LabeledSet) -> list[int]:
    logits = data.features @ model.W.T + model.b
    return np.argmax(logits, axis=1).tolist()


def accuracy(model: SoftmaxModel, data: LabeledSet) -> float:
    hits = np.count_nonzero(np.asarray(predict_labels(model, data)) == data.labels)
    return int(hits) / len(data.ids)


def train(model: SoftmaxModel, data: LabeledSet, plan: CurriculumPlan,
          weights: dict[str, float], cfg: TrainConfig,
          holdout: LabeledSet | None = None) -> TrainReport:
    """SGD in plan order; mutates `model` in place.

    The samples and their weights are put in plan order once; each batch
    is a slice of them. The per-epoch loss is the sample-weighted mean of
    batch losses as each batch is visited. final_accuracy is measured on
    `holdout` when given, otherwise on the training data.
    """
    row_of = {sample_id: row for row, sample_id in enumerate(data.ids)}
    if set(plan.order) != set(row_of):
        raise IdSetMismatchError("plan ids and data ids differ")
    if len(plan.order) != len(data.ids):
        raise IdSetMismatchError("plan and data sizes differ")
    rows = np.array([row_of[sample_id] for sample_id in plan.order], dtype=np.intp)
    ordered = LabeledSet(plan.order, data.features[rows], data.labels[rows])
    w = _row_weights(ordered, weights)
    n = len(rows)
    curve = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            batch = LabeledSet(ordered.ids[start:stop], ordered.features[start:stop],
                               ordered.labels[start:stop])
            g_w, g_b, loss = grad_weighted_ce(model, batch, w[start:stop], with_loss=True)
            model.W -= cfg.lr * g_w
            model.b -= cfg.lr * g_b
            epoch_loss += loss * len(batch.ids)
        curve.append(epoch_loss / n)
    return TrainReport(loss_curve=curve,
                       final_accuracy=accuracy(model, data if holdout is None else holdout))


def load_labeled_set(path) -> LabeledSet:
    """Rows straight into one float64 matrix and one label array; no per-sample objects."""
    ids: list[str] = []
    seen: set[str] = set()
    features = array("d")
    labels = array("q")
    dim = None
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        if sample_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        vector = _require_vector(obj, "features", path, line_no)
        if dim is None:
            dim = len(vector)
        elif len(vector) != dim:
            raise MalformedLineError(path, line_no, f"expected {dim} features, got {len(vector)}")
        label = _require(obj, "label", path, line_no)
        if isinstance(label, bool) or not isinstance(label, int) or not 0 <= label < 2**63:
            raise MalformedLineError(path, line_no, "field 'label' must be a nonnegative integer")
        ids.append(sample_id)
        features.extend(vector)
        labels.append(label)
    if not ids:
        raise EmptyDomainError(f"{path}: no samples")
    return LabeledSet(ids, np.frombuffer(features, dtype=np.float64).reshape(len(ids), dim),
                      np.frombuffer(labels, dtype=np.int64))


def write_labeled_set(data: LabeledSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, features, label in zip(data.ids, data.features.tolist(), data.labels.tolist()):
            fh.write(json.dumps({"id": sample_id, "features": features, "label": label}) + "\n")


def write_train_report(report: TrainReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "loss_curve": report.loss_curve,
            "final_accuracy": report.final_accuracy,
        }) + "\n")
