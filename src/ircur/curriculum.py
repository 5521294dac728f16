"""Rank fusion, baby-step tiers, and sample-order schedules.

The two lesson rankings are fused by Borda rank-sum (position in each
ranking, summed; lower is easier), split into M contiguous tiers whose
sizes differ by at most one, and turned into one of six emission orders.
All randomness comes from the portable generator in `rng`, so a
(plan, kind, seed) triple produces the same order on any platform.

Plan file: header {"kind", "seed", "M"} then one
{"position", "id", "tier", "fused_key"} row per sample in emitted order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import IdSetMismatchError, MalformedLineError, TierCountError
from .ingest import _read_json_lines, _require_int, _require_str
from .rng import SplitMix64, shuffled

SCHEDULE_KINDS = (
    "difficulty-ascending",
    "difficulty-descending",
    "bidirectional",
    "random",
    "descending-stratified-random",
    "ascending-stratified-random",
)


@dataclass(frozen=True)
class FusedEntry:
    id: str
    rank_visual: int
    rank_alignment: int
    fused_key: int


@dataclass(frozen=True)
class FusedRanking:
    entries: tuple[FusedEntry, ...]

    def order(self) -> list[str]:
        return [e.id for e in self.entries]


@dataclass(frozen=True)
class TierPlan:
    M: int
    tiers: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CurriculumPlan:
    kind: str
    seed: int
    order: list[str]
    tier_of: dict[str, int]


def fuse_rankings(visual: list[str], alignment: list[str]) -> FusedRanking:
    """Borda rank-sum fusion; ascending (fused_key, id) order."""
    if len(set(visual)) != len(visual) or len(set(alignment)) != len(alignment):
        raise IdSetMismatchError("rankings must not contain duplicate ids")
    if set(visual) != set(alignment):
        only_v = sorted(set(visual) - set(alignment))[:3]
        only_a = sorted(set(alignment) - set(visual))[:3]
        raise IdSetMismatchError(
            f"rankings cover different ids (e.g. visual-only {only_v}, alignment-only {only_a})"
        )
    rank_v = {sample_id: i for i, sample_id in enumerate(visual)}
    rank_a = {sample_id: i for i, sample_id in enumerate(alignment)}
    entries = [
        FusedEntry(sample_id, rank_v[sample_id], rank_a[sample_id],
                   rank_v[sample_id] + rank_a[sample_id])
        for sample_id in visual
    ]
    entries.sort(key=lambda e: (e.fused_key, e.id))
    return FusedRanking(tuple(entries))


def partition_tiers(ranking: FusedRanking, m: int) -> TierPlan:
    """Contiguous slices of the fused order; the first N mod M tiers get the extra element."""
    n = len(ranking.entries)
    if m < 1:
        raise ValueError("tier count must be positive")
    if m > n:
        raise TierCountError(f"cannot split {n} samples into {m} tiers")
    base, rem = divmod(n, m)
    order = ranking.order()
    tiers = []
    start = 0
    for t in range(m):
        size = base + (1 if t < rem else 0)
        tiers.append(tuple(order[start : start + size]))
        start += size
    return TierPlan(M=m, tiers=tuple(tiers))


def _bidirectional(order: list[str]) -> list[str]:
    out = []
    lo, hi = 0, len(order) - 1
    take_easy = True
    while lo <= hi:
        if take_easy:
            out.append(order[lo])
            lo += 1
        else:
            out.append(order[hi])
            hi -= 1
        take_easy = not take_easy
    return out


def build_schedule(plan: TierPlan, kind: str, seed: int) -> CurriculumPlan:
    """Emit the sample order for one schedule kind.

    Stratified kinds shuffle inside each tier with one generator seeded by
    `seed`, consuming tiers in emission order; `random` shuffles the whole
    set. Tier labels in the result always use ascending-difficulty
    numbering regardless of emission direction.
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    flat = [sample_id for tier in plan.tiers for sample_id in tier]
    rng = SplitMix64(seed)
    if kind == "difficulty-ascending":
        order = list(flat)
    elif kind == "difficulty-descending":
        order = list(reversed(flat))
    elif kind == "bidirectional":
        order = _bidirectional(flat)
    elif kind == "random":
        order = shuffled(flat, rng)
    elif kind == "ascending-stratified-random":
        order = [sample_id for tier in plan.tiers for sample_id in shuffled(list(tier), rng)]
    else:
        order = [sample_id for tier in reversed(plan.tiers) for sample_id in shuffled(list(tier), rng)]
    tier_of = {sample_id: t for t, tier in enumerate(plan.tiers) for sample_id in tier}
    return CurriculumPlan(kind=kind, seed=seed, order=order, tier_of=tier_of)


def write_fused_ranking(path, ranking: FusedRanking) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in ranking.entries:
            fh.write(json.dumps({
                "id": e.id,
                "rank_visual": e.rank_visual,
                "rank_alignment": e.rank_alignment,
                "fused_key": e.fused_key,
            }) + "\n")


def load_fused_ranking(path) -> FusedRanking:
    entries: list[FusedEntry] = []
    for line_no, obj in _read_json_lines(path):
        sample_id = _require_str(obj, "id", path, line_no)
        rank_visual, rank_alignment, fused_key = (
            _require_int(obj, key, path, line_no)
            for key in ("rank_visual", "rank_alignment", "fused_key")
        )
        if fused_key != rank_visual + rank_alignment:
            raise MalformedLineError(path, line_no, "fused_key must be the rank sum")
        entries.append(FusedEntry(sample_id, rank_visual, rank_alignment, fused_key))
    if not entries:
        raise MalformedLineError(path, 1, "empty fused ranking")
    if len({e.id for e in entries}) != len(entries):
        raise MalformedLineError(path, 1, "duplicate ids in fused ranking")
    if [(e.fused_key, e.id) for e in entries] != sorted((e.fused_key, e.id) for e in entries):
        raise MalformedLineError(path, 1, "rows must be in ascending (fused_key, id) order")
    return FusedRanking(tuple(entries))


def write_curriculum_plan(path, plan: CurriculumPlan, ranking: FusedRanking) -> None:
    keys = {e.id: e.fused_key for e in ranking.entries}
    m = max(plan.tier_of.values()) + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": plan.kind, "seed": plan.seed, "M": m}) + "\n")
        for position, sample_id in enumerate(plan.order):
            fh.write(json.dumps({
                "position": position,
                "id": sample_id,
                "tier": plan.tier_of[sample_id],
                "fused_key": keys[sample_id],
            }) + "\n")


@dataclass(frozen=True)
class PlanRow:
    position: int
    id: str
    tier: int
    fused_key: int


def load_curriculum_plan(path):
    header = None
    rows: list[PlanRow] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            if header is None:
                if "kind" not in obj or "seed" not in obj or "M" not in obj:
                    raise MalformedLineError(path, line_no, "first line must be the plan header")
                header = obj
                continue
            for key in ("position", "id", "tier", "fused_key"):
                if key not in obj:
                    raise MalformedLineError(path, line_no, f"missing field {key!r}")
            rows.append(PlanRow(obj["position"], obj["id"], obj["tier"], obj["fused_key"]))
    if header is None:
        raise MalformedLineError(path, 1, "empty plan file")
    if [r.position for r in rows] != list(range(len(rows))):
        raise MalformedLineError(path, 1, "plan positions must be 0..N-1 in order")
    if len({r.id for r in rows}) != len(rows):
        raise MalformedLineError(path, 1, "plan rows contain duplicate ids")
    return header, rows
