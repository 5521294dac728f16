"""Text-alignment difficulty via loss change under a contrastive warm-up.

A small two-tower linear projection stands in for a pre-warmed CLIP: both
embedding towers are projected to a shared space, L2-normalized, and
scored with the symmetric InfoNCE loss over the batch. Each sample's loss
before (l) and after (l_prime) warm-up gives the variation rate
alpha = (l_prime - l) / l and an adaptive weight: samples whose loss rose
are down-weighted below 0.5, samples whose loss fell are boosted above
1.5, each scaled by the branch median of |alpha|.

Paired embeddings file: {"id", "image_vector", "text_vector"} rows.
Alignment scores file: {"id", "l", "l_prime", "alpha", "weight"} rows.
"""

from __future__ import annotations

import json
import math
import statistics
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmallError,
    DegenerateSetError,
    DimensionMismatchError,
    DivergenceError,
    DuplicateIdError,
    EmptyDomainError,
    NonFiniteValueError,
    UndefinedRateError,
    ZeroNormError,
)
from .ingest import _read_json_lines, _require_float, _require_str, _require_vector


class LearningRateWarning(UserWarning):
    """Warm-up loss went up between epochs; the step size is too large."""


@dataclass(frozen=True)
class PairedSample:
    id: str
    image_vector: tuple[float, ...]
    text_vector: tuple[float, ...]


class PairedEmbeddingSet:
    """Pairs in input order: their ids and each tower's vectors as one
    read-only float64 matrix, one row per pair.

    PairedEmbeddingSet(dim_img, dim_txt, pairs) builds the matrices once
    from PairedSample records; the loader passes ids and matrices instead.
    """

    __slots__ = ("dim_img", "dim_txt", "ids", "image_matrix", "text_matrix")

    def __init__(self, dim_img: int, dim_txt: int, pairs: tuple[PairedSample, ...] | None = None,
                 *, ids=(), image_matrix=(), text_matrix=()):
        if pairs is not None:
            ids = [p.id for p in pairs]
            image_matrix = [p.image_vector for p in pairs]
            text_matrix = [p.text_vector for p in pairs]
        self.dim_img = dim_img
        self.dim_txt = dim_txt
        self.ids = tuple(ids)
        # read-only views, so a caller's own arrays stay writeable
        self.image_matrix = np.asarray(image_matrix, dtype=np.float64).view()
        self.text_matrix = np.asarray(text_matrix, dtype=np.float64).view()
        self.image_matrix.flags.writeable = False
        self.text_matrix.flags.writeable = False

    @property
    def pairs(self) -> tuple[PairedSample, ...]:
        """The pairs as records, rebuilt from the matrices on each call."""
        return tuple(
            PairedSample(i, tuple(a), tuple(b))
            for i, a, b in zip(self.ids, self.image_matrix.tolist(), self.text_matrix.tolist())
        )

    def __eq__(self, other):
        if not isinstance(other, PairedEmbeddingSet):
            return NotImplemented
        return ((self.dim_img, self.dim_txt, self.ids) == (other.dim_img, other.dim_txt, other.ids)
                and np.array_equal(self.image_matrix, other.image_matrix)
                and np.array_equal(self.text_matrix, other.text_matrix))

    def __hash__(self):
        return hash((self.dim_img, self.dim_txt, self.ids))


@dataclass(frozen=True, eq=False)
class TwoTowerModel:
    proj_img: np.ndarray
    proj_txt: np.ndarray
    temperature: float


@dataclass(frozen=True)
class AlignmentScore:
    id: str
    l: float
    l_prime: float
    alpha: float
    weight: float


@dataclass(frozen=True)
class AlignmentConfig:
    d_shared: int = 32
    temperature: float = 0.07
    epochs: int = 50
    lr: float = 0.05
    seed: int = 0


def init_two_tower(dim_img: int, dim_txt: int, d_shared: int = 32,
                   temperature: float = 0.07, seed: int = 0) -> TwoTowerModel:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be finite and positive")
    rng = np.random.default_rng(seed)
    proj_img = rng.normal(0.0, 1.0 / math.sqrt(dim_img), size=(dim_img, d_shared))
    proj_txt = rng.normal(0.0, 1.0 / math.sqrt(dim_txt), size=(dim_txt, d_shared))
    return TwoTowerModel(proj_img, proj_txt, float(temperature))


def _normalize_rows(a: np.ndarray):
    norms = np.sqrt(np.sum(a * a, axis=1))
    if np.any(norms == 0.0):
        raise ZeroNormError("a projected vector has zero norm; it cannot be normalized")
    return a / norms[:, None], norms


def contrastive_loss_and_grads(model: TwoTowerModel, batch: PairedEmbeddingSet, grads: bool = True):
    """Symmetric InfoNCE over the batch with analytic gradients.

    Returns (total_loss, per_sample_losses, grad_proj_img, grad_proj_txt)
    where total_loss is the mean of the per-sample losses and each
    per-sample loss averages the image-to-text and text-to-image
    cross-entropy terms with the diagonal as the positive. With
    grads=False the two gradients are None and the backward half is
    skipped.

    Both log-softmaxes and the similarity gradient work in place in three
    n x n buffers, doing the same floating-point operations in the same
    order as the textbook form, so every result is bit for bit the same.
    """
    n = len(batch.ids)
    if n < 2:
        raise BatchTooSmallError("contrastive loss needs at least 2 pairs")
    x_img, x_txt = batch.image_matrix, batch.text_matrix
    a = x_img @ model.proj_img
    b = x_txt @ model.proj_txt
    u, norm_a = _normalize_rows(a)
    v, norm_b = _normalize_rows(b)
    s = u @ v.T
    s /= model.temperature
    # row log-softmax into its own buffer; then s itself becomes the column one
    row_ls = s - np.max(s, axis=1, keepdims=True)
    expd = np.exp(row_ls)
    row_ls -= np.log(np.sum(expd, axis=1, keepdims=True))
    s -= np.max(s, axis=0, keepdims=True)
    np.exp(s, out=expd)
    s -= np.log(np.sum(expd, axis=0, keepdims=True))
    col_ls = s
    diag = np.arange(n)
    per_sample = -0.5 * (row_ls[diag, diag] + col_ls[diag, diag])
    total = float(np.mean(per_sample))
    if not grads:
        return total, per_sample, None, None

    # ds = ((exp(row_ls) - I) + (exp(col_ls) - I)) / 2n
    ds = np.exp(row_ls, out=expd)
    ds[diag, diag] -= 1.0
    col_p = np.exp(col_ls, out=row_ls)
    col_p[diag, diag] -= 1.0
    ds += col_p
    ds /= 2.0 * n
    du = (ds @ v) / model.temperature
    dv = (ds.T @ u) / model.temperature
    da = (du - np.sum(du * u, axis=1, keepdims=True) * u) / norm_a[:, None]
    db = (dv - np.sum(dv * v, axis=1, keepdims=True) * v) / norm_b[:, None]
    return total, per_sample, x_img.T @ da, x_txt.T @ db


def per_sample_loss(model: TwoTowerModel, batch: PairedEmbeddingSet) -> dict[str, float]:
    _, per_sample, _, _ = contrastive_loss_and_grads(model, batch, grads=False)
    return dict(zip(batch.ids, per_sample.tolist()))


def warmup(model: TwoTowerModel, data: PairedEmbeddingSet, epochs: int, lr: float) -> TwoTowerModel:
    """Full-batch gradient descent on the symmetric contrastive loss.

    Deterministic for a given initial model: there is no batch sampling.
    Emits LearningRateWarning if the total loss ever rises between epochs.
    """
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError("lr must be finite and positive")
    current = model
    previous_loss = None
    rose = False
    for _ in range(epochs):
        total, _, g_img, g_txt = contrastive_loss_and_grads(current, data)
        if not math.isfinite(total):
            raise DivergenceError("warm-up loss became non-finite")
        if previous_loss is not None and total > previous_loss + 1e-12 * max(1.0, abs(previous_loss)):
            rose = True
        previous_loss = total
        current = TwoTowerModel(
            proj_img=current.proj_img - lr * g_img,
            proj_txt=current.proj_txt - lr * g_txt,
            temperature=current.temperature,
        )
    if epochs > 0:
        final, _, _, _ = contrastive_loss_and_grads(current, data, grads=False)
        if not math.isfinite(final):
            raise DivergenceError("warm-up loss became non-finite")
        if final > previous_loss + 1e-12 * max(1.0, abs(previous_loss)):
            rose = True
        if rose:
            warnings.warn("loss rose during warm-up; lower the learning rate", LearningRateWarning)
    return current


def loss_variation(l: float, l_prime: float) -> float:
    if l <= 0:
        raise UndefinedRateError(f"loss variation rate needs l > 0, got {l}")
    return (l_prime - l) / l


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


# sigmoid(x) rounds to exactly 1.0 near x = 37, which would park weights on
# the open ends of their branch intervals; cap the median ratio below that.
_RATIO_CAP = 36.0


def sample_weights(alphas: dict[str, float]) -> dict[str, float]:
    """Adaptive weights from loss variation rates.

    Rates above zero (loss rose) map to 1 - sigmoid(alpha / Med+), rates
    at or below zero map to 1 + sigmoid(-alpha / Med-), where Med+ and
    Med- are the medians of the positive rates and of the magnitudes of
    the non-positive rates. A degenerate median (all-zero branch) pins the
    ratio to 0, giving 0.5 or 1.5.
    """
    if not alphas:
        raise ValueError("no rates to weight")
    for key, alpha in alphas.items():
        if not math.isfinite(alpha):
            raise NonFiniteValueError(f"rate for {key!r} is not finite")
    positives = [a for a in alphas.values() if a > 0]
    negatives = [-a for a in alphas.values() if a <= 0]
    med_pos = statistics.median(positives) if positives else 0.0
    med_neg = statistics.median(negatives) if negatives else 0.0
    weights = {}
    for key, alpha in alphas.items():
        if alpha > 0:
            ratio = alpha / med_pos if med_pos > 0 else 0.0
            weights[key] = 1.0 - _sigmoid(min(ratio, _RATIO_CAP))
        else:
            ratio = -alpha / med_neg if med_neg > 0 else 0.0
            weights[key] = 1.0 + _sigmoid(min(ratio, _RATIO_CAP))
    return weights


def rank_by_alignment_difficulty(scores) -> list[str]:
    """Easy-to-hard order: ascending post-warm-up loss, ties by id."""
    if not scores:
        raise DegenerateSetError("cannot rank an empty score list")
    return [s.id for s in sorted(scores, key=lambda s: (s.l_prime, s.id))]


def score_alignment(data: PairedEmbeddingSet, cfg: AlignmentConfig) -> list[AlignmentScore]:
    """Warm up from a seeded init and score every pair, in input order."""
    model = init_two_tower(data.dim_img, data.dim_txt, cfg.d_shared, cfg.temperature, cfg.seed)
    before = per_sample_loss(model, data)
    warmed = warmup(model, data, cfg.epochs, cfg.lr)
    after = per_sample_loss(warmed, data)
    alphas = {i: loss_variation(before[i], after[i]) for i in data.ids}
    weights = sample_weights(alphas)
    return [AlignmentScore(i, before[i], after[i], alphas[i], weights[i]) for i in data.ids]


def load_paired_embeddings(path) -> PairedEmbeddingSet:
    ids: list[str] = []
    seen: set[str] = set()
    images, texts = array("d"), array("d")
    dim_img = dim_txt = None
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        if sample_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        image = _require_vector(obj, "image_vector", path, line_no)
        text = _require_vector(obj, "text_vector", path, line_no)
        if dim_img is None:
            dim_img, dim_txt = len(image), len(text)
        elif len(image) != dim_img or len(text) != dim_txt:
            raise DimensionMismatchError(
                f"{path}:{line_no}: expected dims ({dim_img}, {dim_txt}), "
                f"got ({len(image)}, {len(text)})"
            )
        ids.append(sample_id)
        images.extend(image)
        texts.extend(text)
    if not ids:
        raise EmptyDomainError(f"{path}: no pairs")
    n = len(ids)
    return PairedEmbeddingSet(
        dim_img, dim_txt, ids=ids,
        image_matrix=np.frombuffer(images, dtype=np.float64).reshape(n, dim_img),
        text_matrix=np.frombuffer(texts, dtype=np.float64).reshape(n, dim_txt),
    )


def write_paired_embeddings(data: PairedEmbeddingSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, image, text in zip(data.ids, data.image_matrix.tolist(),
                                          data.text_matrix.tolist()):
            fh.write(json.dumps({
                "id": sample_id,
                "image_vector": image,
                "text_vector": text,
            }) + "\n")


def write_alignment_scores(scores, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in scores:
            fh.write(json.dumps({
                "id": s.id, "l": s.l, "l_prime": s.l_prime,
                "alpha": s.alpha, "weight": s.weight,
            }) + "\n")


def load_alignment_scores(path) -> list[AlignmentScore]:
    scores: list[AlignmentScore] = []
    seen: set[str] = set()
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        if sample_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        values = {key: _require_float(obj, key, path, line_no)
                  for key in ("l", "l_prime", "alpha", "weight")}
        scores.append(AlignmentScore(sample_id, **values))
    return scores
