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
    DuplicateIdError,
    EmptyDomainError,
    IndistinguishableDomainsError,
    MalformedLineError,
)
from .ingest import (
    INFRARED,
    VISIBLE,
    EmbeddingSet,
    _read_json_lines,
    _require,
    _require_float,
    _require_int,
    _require_str,
)

KERNEL_KINDS = ("gaussian", "linear")
BANDWIDTH_MODES = ("fixed", "median")

# Gram blocks are accumulated in fixed index order so results do not
# depend on how work is scheduled.
_BLOCK = 256
# Differences are formed a strip of rows at a time, each strip holding at
# most this many bytes, so they stay in cache; every distance is the same
# float whatever the strip height.
_STRIP_BYTES = 1 << 20
# The median's bracket is read off the pairs of at most this many evenly
# strided rows, this share of their pairs either side of the middle rank;
# a subsample's middle sat within 0.06 of the whole set's on the inputs
# tried, so one pass usually finds the middle inside.
_MEDIAN_SAMPLE_ROWS = 128
_MEDIAN_MARGIN = 0.1
# A median pass keeps at most this many squared distances (1 MiB); a wider
# bracket is first narrowed by counting them in bit-pattern bins.
_MEDIAN_KEEP = 1 << 17
_MEDIAN_BINS = 1 << 12
_INF_BITS = 0x7FF0000000000000  # +inf, the largest non-negative float64 pattern


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


def _sq_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b, written
    to `out` when given.

    Direct differences, not the GEMM form, keep the diagonal exactly 0.
    """
    if out is None:
        out = np.empty((len(a), len(b)))
    strip = max(1, _STRIP_BYTES // (8 * b.size))
    diff = np.empty((min(strip, len(a)), *b.shape))
    for i in range(0, len(a), strip):
        rows = diff[: len(a) - i]
        np.subtract(a[i : i + strip, None, :], b, out=rows)
        rows *= rows
        np.sum(rows, axis=2, out=out[i : i + strip])
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


def _upper_sq_distances(vectors: np.ndarray):
    """Every squared distance between rows i < j, one flat block at a time.

    Off-diagonal blocks are views of one buffer, valid until the next block.
    """
    buffer = np.empty(min(_BLOCK, len(vectors)) ** 2)
    for i in range(0, len(vectors), _BLOCK):
        block = vectors[i : i + _BLOCK]
        for j in range(i, len(vectors), _BLOCK):
            other = vectors[j : j + _BLOCK]
            out = buffer[: len(block) * len(other)].reshape(len(block), len(other))
            sq = _sq_distances(block, other, out)
            yield sq[np.triu(np.ones(sq.shape, dtype=bool), k=1)] if i == j else sq.ravel()


def _to_bits(value) -> int:
    return int(np.float64(value).view(np.int64))


def _from_bits(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _median_bracket(vectors: np.ndarray) -> tuple[int, int, float]:
    """Bit patterns [lo, hi] of squared distances around the middle rank,
    read off a strided subsample's pairs, and the number of pairs of the
    whole set expected inside."""
    sample = vectors[:: -(-len(vectors) // _MEDIAN_SAMPLE_ROWS)]
    sq = _sq_distances(sample, sample)[np.triu_indices(len(sample), k=1)]
    sq = np.sort(sq[sq > 0.0])
    pairs = len(vectors) * (len(vectors) - 1) / 2
    if sq.size == 0:
        return 1, _INF_BITS, pairs
    lo = int((0.5 - _MEDIAN_MARGIN) * (sq.size - 1))
    hi = math.ceil((0.5 + _MEDIAN_MARGIN) * (sq.size - 1))
    return _to_bits(sq[lo]), _to_bits(sq[hi]), pairs * (hi - lo + 1) / sq.size


def _median_pass(vectors: np.ndarray, lo: int, hi: int, width: int):
    """One blocked pass over the non-zero squared distances, with [lo, hi]
    given as float64 bit patterns, which order non-negative floats as
    their values do.

    Returns how many there are, how many lie below lo and inside, the
    smallest above hi, and what is found inside: with a bin `width`, the
    count in each of _MEDIAN_BINS bit-pattern bins from lo; otherwise the
    values themselves, or None once there are more than _MEDIAN_KEEP.
    """
    lo_value, hi_value = _from_bits(lo), _from_bits(hi)
    total = below = inside = 0
    above_min = math.inf
    counts = np.zeros(_MEDIAN_BINS, dtype=np.int64)
    kept = []
    for sq in _upper_sq_distances(vectors):
        zeros = sq.size - np.count_nonzero(sq)
        total += sq.size - zeros
        # lo is positive, so the zeros are among the values below it
        below += np.count_nonzero(sq < lo_value) - zeros
        above = sq > hi_value
        above_min = min(above_min, float(np.min(sq, where=above, initial=math.inf)))
        values = sq[(sq >= lo_value) & ~above]
        inside += values.size
        if width:
            counts += np.bincount((values.view(np.int64) - lo) // width, minlength=_MEDIAN_BINS)
        elif inside <= _MEDIAN_KEEP:
            kept.append(values)
    if width:
        return total, below, inside, above_min, counts
    found = np.concatenate(kept) if kept and inside <= _MEDIAN_KEEP else None
    return total, below, inside, above_min, found


def median_bandwidth(embedding_set: EmbeddingSet) -> float:
    """Median pairwise Euclidean distance over the whole set, zeros excluded.

    `sqrt` is monotone, so this is the square root of the middle non-zero
    squared distance, or the mean of the square roots of the two middle
    ones: the same float as `np.median(np.sqrt(nonzero))` over all
    N(N-1)/2 of them, which are never stored. The pairs of a strided
    subsample bracket the middle rank; one blocked pass then counts the
    squared distances below and above the bracket and keeps those inside.
    A bracket expected to hold more than _MEDIAN_KEEP values is first
    narrowed by counting passes over bit-pattern bins, and one that missed
    the middle rank is moved to the side it lies on, so every path holds
    one block and at most _MEDIAN_KEEP values.
    """
    vectors = np.asarray(embedding_set.vectors(), dtype=np.float64)
    if len(vectors) < 2:
        raise DegenerateSetError("median bandwidth needs at least two samples")
    lo, hi, expected = _median_bracket(vectors)
    while True:
        width = -(-(hi - lo + 1) // _MEDIAN_BINS) if expected > _MEDIAN_KEEP and lo < hi else 0
        total, below, inside, above_min, found = _median_pass(vectors, lo, hi, width)
        if total == 0:
            raise DegenerateSetError("all samples identical; pairwise distances are zero")
        # the middle ranks, counted from the first value inside the bracket
        first, second = (total - 1) // 2 - below, total // 2 - below
        if first < 0:
            lo, hi, expected = 1, lo - 1, below
        elif first >= inside:
            lo, hi, expected = hi + 1, _INF_BITS, total - below - inside
        elif width:
            index = int(np.searchsorted(np.cumsum(found), first, side="right"))
            lo, hi, expected = (lo + index * width, min(hi, lo + (index + 1) * width - 1),
                                int(found[index]))
        elif found is None and lo < hi:
            expected = inside
        else:
            ranks = [r for r in sorted({first, second}) if r < inside]
            if found is None:
                # lo == hi: every value inside is the same float
                middle = [_from_bits(lo)] * len(ranks)
            else:
                found.partition(ranks)
                middle = [found[r] for r in ranks]
            if second >= inside:
                middle.append(above_min)
            return float(np.median(np.sqrt(np.array(middle))))


def _gram_pass(a: np.ndarray, b: np.ndarray, cfg: KernelConfig, bandwidth: float | None):
    """Mean of the a-by-b Gram matrix and the mean of each of its rows.

    Both sides are tiled at _BLOCK, so memory is bounded by one kernel
    block and one strip of differences whatever the set sizes. The total
    adds block sums in (i, j) order and each row adds its j-block sums in
    order, so every value is the same float as from whole-row blocks.

    A Gaussian Gram matrix of a set with itself (`b is a`) is symmetric
    float for float, as its differences only change sign, so each block
    above the diagonal is computed once and a contiguous copy of its
    transpose gives the sum and row sums of the block below. Linear blocks
    are always computed: they are one GEMM each, whose transpose need not
    match bit for bit.
    """
    symmetric = b is a and cfg.kind == "gaussian"
    starts_a, starts_b = range(0, len(a), _BLOCK), range(0, len(b), _BLOCK)
    block_sums = np.empty((len(starts_a), len(starts_b)))
    row_sums = np.zeros(len(a))
    for bi, i in enumerate(starts_a):
        for bj, j in enumerate(starts_b):
            if symmetric and bj < bi:
                continue
            block = _kernel_block(a[i : i + _BLOCK], b[j : j + _BLOCK], cfg, bandwidth)
            block_sums[bi, bj] = np.sum(block)
            row_sums[i : i + _BLOCK] += np.sum(block, axis=1)
            if symmetric and bj > bi:
                # row block bj takes column blocks 0..bi here, before its
                # own row of blocks, so each row still adds them in order
                mirror = np.ascontiguousarray(block.T)
                block_sums[bj, bi] = np.sum(mirror)
                row_sums[j : j + _BLOCK] += np.sum(mirror, axis=1)
    total = 0.0
    for block_sum in block_sums.flat:
        total += float(block_sum)
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
        raise DegenerateSetError("cannot rank an empty score list")
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
    """The header {"mmd", "bandwidth", "n_ir", "n_vis"} and the score rows,
    checked against the contract: a finite mmd, a finite positive
    bandwidth or null, integer counts with n_ir equal to the number of
    rows, and distinct non-empty string ids with finite scores."""
    header = None
    scores: list[VisualScore] = []
    seen: set[str] = set()
    for line_no, obj in _read_json_lines(path):
        if header is None:
            if "mmd" not in obj:
                raise MalformedLineError(path, line_no, "first line must be the header")
            header_line = line_no
            bandwidth = _require(obj, "bandwidth", path, line_no)
            if bandwidth is not None:
                bandwidth = _require_float(obj, "bandwidth", path, line_no)
                if bandwidth <= 0.0:
                    raise MalformedLineError(path, line_no, "field 'bandwidth' must be positive")
            header = {
                "mmd": _require_float(obj, "mmd", path, line_no),
                "bandwidth": bandwidth,
                "n_ir": _require_int(obj, "n_ir", path, line_no),
                "n_vis": _require_int(obj, "n_vis", path, line_no),
            }
            continue
        sample_id = _require_str(obj, "id", path, line_no)
        if sample_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        scores.append(VisualScore(
            sample_id,
            _require_float(obj, "projection", path, line_no),
            _require_float(obj, "d", path, line_no),
        ))
    if header is None:
        raise MalformedLineError(path, 1, "empty scores file")
    if header["n_ir"] != len(scores):
        raise MalformedLineError(
            path, header_line, f"header n_ir is {header['n_ir']}, the file has {len(scores)} rows"
        )
    return header, scores
