"""Visual-gap difficulty scores from kernel geometry.

Treats each domain of an embedding set as a point cloud, forms the two
kernel mean embeddings, and measures how far each infrared sample sits
along the infrared-to-visible axis in the induced feature space. The
feature map is never materialized; every quantity reduces to averages of
kernel evaluations.

The squared gap between the two mean embeddings equals the biased MMD
V-statistic, so the per-sample projection denominator is exact.

Scores file: one header line {"mmd", "bandwidth", "n_ir", "n_vis"}
followed by {"id", "projection", "d"} rows in input order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSetError,
    DimensionMismatchError,
    EmptyDomainError,
    IndistinguishableDomainsError,
    MalformedLineError,
)
from .ingest import INFRARED, VISIBLE, EmbeddingSet, _read_json_lines, _require, _require_float

KERNEL_KINDS = ("gaussian", "linear")
BANDWIDTH_MODES = ("fixed", "median")

# Gram blocks are accumulated in fixed index order so results do not
# depend on how work is scheduled.
_BLOCK = 256
# Differences are formed a strip of rows at a time, each strip holding at
# most this many bytes, so they stay in cache; every distance is the same
# float whatever the strip height.
_STRIP_BYTES = 1 << 20


@dataclass(frozen=True)
class KernelConfig:
    bandwidth: float | None = None
    bandwidth_mode: str = "fixed"
    kind: str = "gaussian"
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.bandwidth_mode not in BANDWIDTH_MODES:
            raise ValueError(
                f"bandwidth_mode must be one of {BANDWIDTH_MODES}, got {self.bandwidth_mode!r}"
            )
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.kind == "gaussian" and self.bandwidth_mode == "fixed":
            if self.bandwidth is None or not math.isfinite(self.bandwidth) or self.bandwidth <= 0:
                raise ValueError("fixed-mode Gaussian kernel needs a positive bandwidth")


@dataclass(frozen=True)
class DomainGeometry:
    gram_ir_ir_mean: float
    gram_vis_vis_mean: float
    gram_cross_mean: float
    mmd: float
    bandwidth: float | None  # resolved Gaussian bandwidth; None for the linear kernel


@dataclass(frozen=True)
class VisualScore:
    id: str
    projection: float
    d: float


def _resolve_bandwidth(embedding_set: EmbeddingSet, cfg: KernelConfig) -> float | None:
    if cfg.kind == "linear":
        return None
    if cfg.bandwidth_mode == "median":
        return median_bandwidth(embedding_set)
    return float(cfg.bandwidth)


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b.

    Direct differences, not the GEMM form, keep the diagonal exactly 0.
    """
    out = np.empty((len(a), len(b)))
    strip = max(1, _STRIP_BYTES // (8 * b.size))
    for i in range(0, len(a), strip):
        out[i : i + strip] = np.sum((a[i : i + strip, None, :] - b[None, :, :]) ** 2, axis=2)
    return out


def _kernel_block(a: np.ndarray, b: np.ndarray, cfg: KernelConfig, bandwidth: float | None):
    if cfg.kind == "linear":
        return a @ b.T
    # direct differences keep k(x, x) exactly 1
    return np.exp(-_sq_distances(a, b) / (2.0 * bandwidth * bandwidth))


def gaussian_kernel(x, y, cfg: KernelConfig) -> float:
    """Evaluate exp(-||x - y||^2 / (2 bandwidth^2)) for a single pair."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"vectors have dimensions {len(x)} and {len(y)}")
    if cfg.bandwidth is None:
        raise ValueError("gaussian_kernel needs a resolved bandwidth")
    sq = float(np.sum((np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)) ** 2))
    return float(np.exp(-sq / (2.0 * cfg.bandwidth * cfg.bandwidth)))


def median_bandwidth(embedding_set: EmbeddingSet) -> float:
    """Median pairwise Euclidean distance over the whole set, zeros excluded."""
    vectors = np.asarray(embedding_set.vectors(), dtype=np.float64)
    if len(vectors) < 2:
        raise DegenerateSetError("median bandwidth needs at least two samples")
    distances = []
    for i in range(0, len(vectors), _BLOCK):
        block = vectors[i : i + _BLOCK]
        for j in range(i, len(vectors), _BLOCK):
            other = vectors[j : j + _BLOCK]
            sq = _sq_distances(block, other)
            if i == j:
                sq = sq[np.triu_indices_from(sq, k=1)]
            else:
                sq = sq.ravel()
            distances.append(sq[sq > 0.0])
    nonzero = np.concatenate(distances)
    if nonzero.size == 0:
        raise DegenerateSetError("all samples identical; pairwise distances are zero")
    return float(np.median(np.sqrt(nonzero)))


def _gram_pass(a: np.ndarray, b: np.ndarray, cfg: KernelConfig, bandwidth: float | None):
    """Mean of the a-by-b Gram matrix and the mean of each of its rows.

    Both sides are tiled at _BLOCK, so memory is bounded by one kernel
    block and one strip of differences whatever the set sizes. The total
    adds block sums in (i, j) order and each row adds its j-block sums in
    order, so every value is the same float as from whole-row blocks.
    """
    total = 0.0
    row_sums = np.zeros(len(a))
    for i in range(0, len(a), _BLOCK):
        for j in range(0, len(b), _BLOCK):
            block = _kernel_block(a[i : i + _BLOCK], b[j : j + _BLOCK], cfg, bandwidth)
            total += float(np.sum(block))
            row_sums[i : i + _BLOCK] += np.sum(block, axis=1)
    return total / (len(a) * len(b)), row_sums / len(b)


def _domain_matrices(embedding_set: EmbeddingSet):
    ir = np.asarray(embedding_set.vectors(INFRARED), dtype=np.float64)
    vis = np.asarray(embedding_set.vectors(VISIBLE), dtype=np.float64)
    if len(ir) == 0 or len(vis) == 0:
        raise EmptyDomainError("both domains must be non-empty")
    return ir, vis


def _geometry_pass(embedding_set: EmbeddingSet, cfg: KernelConfig):
    """One Gram pass per pair of domains: the geometry and each infrared
    sample's mean kernel value against IR and against VIS."""
    ir, vis = _domain_matrices(embedding_set)
    bandwidth = _resolve_bandwidth(embedding_set, cfg)
    kii, row_ir = _gram_pass(ir, ir, cfg, bandwidth)
    kiv, row_vis = _gram_pass(ir, vis, cfg, bandwidth)
    kvv, _ = _gram_pass(vis, vis, cfg, bandwidth)
    mmd = math.sqrt(max(0.0, kii + kvv - 2.0 * kiv))
    return DomainGeometry(kii, kvv, kiv, mmd, bandwidth), row_ir, row_vis


def domain_geometry(embedding_set: EmbeddingSet, cfg: KernelConfig) -> DomainGeometry:
    """Mean-embedding geometry of the two domains: three Gram means and the MMD."""
    return _geometry_pass(embedding_set, cfg)[0]


def score_visual(embedding_set: EmbeddingSet,
                 cfg: KernelConfig) -> tuple[DomainGeometry, list[VisualScore]]:
    """Domain geometry and every infrared sample's score, from one pass.

    The bandwidth is resolved once and each Gram block is computed once.
    For infrared sample x the offset of phi(x) - c_ir along the unit vector
    from c_ir to c_vis is

        projection = (<phi(x), c_vis> - <phi(x), c_ir>
                      - <c_ir, c_vis> + ||c_ir||^2) / mmd

    and the reported distance is d = projection + mmd. Visible samples are
    not scored.
    """
    geo, row_ir, row_vis = _geometry_pass(embedding_set, cfg)
    if geo.mmd <= cfg.epsilon:
        raise IndistinguishableDomainsError(
            f"mmd {geo.mmd:.3e} is below epsilon {cfg.epsilon:.3e}; ranking is undefined"
        )
    numerator = row_vis - row_ir - geo.gram_cross_mean + geo.gram_ir_ir_mean
    ids = embedding_set.ids(INFRARED)
    scores = []
    for sample_id, value in zip(ids, numerator):
        projection = float(value) / geo.mmd
        scores.append(VisualScore(sample_id, projection, projection + geo.mmd))
    return geo, scores


def projection_scores(embedding_set: EmbeddingSet, cfg: KernelConfig) -> list[VisualScore]:
    """Score each infrared sample by its signed offset along the domain axis
    (see `score_visual`)."""
    return score_visual(embedding_set, cfg)[1]


def rank_by_visual_difficulty(scores) -> list[str]:
    """Easy-to-hard order: descending d, ties by ascending id."""
    if not scores:
        raise ValueError("cannot rank an empty score list")
    return [s.id for s in sorted(scores, key=lambda s: (-s.d, s.id))]


def write_visual_scores(path, geo: DomainGeometry, embedding_set: EmbeddingSet, scores) -> None:
    header = {
        "mmd": geo.mmd,
        "bandwidth": geo.bandwidth,
        "n_ir": embedding_set.count(INFRARED),
        "n_vis": embedding_set.count(VISIBLE),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in scores:
            fh.write(json.dumps({"id": s.id, "projection": s.projection, "d": s.d}) + "\n")


def load_visual_scores(path):
    header = None
    scores: list[VisualScore] = []
    for line_no, obj in _read_json_lines(path):
        if header is None:
            if "mmd" not in obj:
                raise MalformedLineError(path, line_no, "first line must be the header")
            header = obj
            continue
        scores.append(VisualScore(
            _require(obj, "id", path, line_no),
            _require_float(obj, "projection", path, line_no),
            _require_float(obj, "d", path, line_no),
        ))
    if header is None:
        raise MalformedLineError(path, 1, "empty scores file")
    return header, scores
