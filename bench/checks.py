"""Output checks, computed apart from the program.

Each check reads what one operation wrote and compares it with a value
the benchmark computes itself from its own inputs, or with a property
the method must have. A check returns a list of problems; an empty list
means the output holds up. Reference computations here share no code
with the program: the only program call is `init_two_tower`, for the
initial projection matrices whose loss the alignment check recomputes.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

import numpy as np

from gen import PEDESTRIANS, VEHICLES

D_SHARED = 32        # documented score-alignment defaults
TEMPERATURE = 0.07
REL = 1e-9           # tolerance for recomputed floating-point results
MIN_SPEARMAN = 0.8
MIN_AUC = 0.8
MIN_TRAIN_ACCURACY = 0.9
# the documented psum and nsum task groups
POSITIVE_TASKS = ("scene", "recognition", "grounding", "relationship", "reid", "security")
NEGATIVE_TASKS = ("location", "aerial_counting", "pedestrian_counting")


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, rel=REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-3)


def _ranks(x: np.ndarray) -> np.ndarray:
    r = np.empty(len(x))
    r[np.argsort(x, kind="stable")] = np.arange(len(x))
    return r


def spearman(x, y) -> float:
    return float(np.corrcoef(_ranks(np.asarray(x)), _ranks(np.asarray(y)))[0, 1])


def auc(high, low) -> float:
    """Probability that a draw from `high` exceeds one from `low` (ties count half)."""
    high, low = np.asarray(high)[:, None], np.asarray(low)[None, :]
    return float(np.mean((high > low) + 0.5 * (high == low)))


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum(a * a, 1)[:, None] + np.sum(b * b, 1)[None, :] - 2.0 * a @ b.T
    return np.maximum(sq, 0.0)


def median_distance(x: np.ndarray) -> float:
    sq = _sq_dist(x, x)[np.triu_indices(len(x), k=1)]
    return float(np.median(np.sqrt(sq[sq > 0.0])))


def mmd_squared(ir: np.ndarray, vis: np.ndarray, bandwidth: float) -> float:
    """Biased V-statistic: mean k(ir, ir) + mean k(vis, vis) - 2 mean k(ir, vis)."""
    gram = lambda a, b: float(np.mean(np.exp(-_sq_dist(a, b) / (2.0 * bandwidth ** 2))))
    return gram(ir, ir) + gram(vis, vis) - 2.0 * gram(ir, vis)


# --------------------------------------------------------------------------
# visual-gap and text-align


def visual_scores(out, truth) -> list[str]:
    header, *rows = read_jsonl(out / "visual_scores.jsonl")
    ir, vis = truth["ir"], truth["vis"]
    problems = []
    if truth["bandwidth"] == "median":
        bandwidth = median_distance(np.vstack([ir, vis]))
    else:
        bandwidth = float(truth["bandwidth"])
    if not _close(header["bandwidth"], bandwidth):
        problems.append(f"bandwidth {header['bandwidth']} != own {bandwidth}")
    own = mmd_squared(ir, vis, bandwidth)
    if not _close(header["mmd"] ** 2, own):
        problems.append(f"mmd^2 {header['mmd'] ** 2!r} != own V-statistic {own!r}")
    if (header["n_ir"], header["n_vis"]) != (len(ir), len(vis)):
        problems.append("header counts differ from the inputs")
    if [r["id"] for r in rows] != truth["ids"]:
        return problems + ["rows are not the infrared ids in input order"]
    projection = np.array([r["projection"] for r in rows])
    d = np.array([r["d"] for r in rows])
    if abs(projection.mean()) > 1e-9 * max(1.0, np.abs(projection).max()):
        problems.append(f"mean projection {projection.mean()!r} is not 0")
    if np.any(np.abs(d - projection - header["mmd"]) > 1e-12 * (1.0 + np.abs(d))):
        problems.append("d - projection != mmd on some row")
    rho = spearman(d, truth["shift"])
    if rho < MIN_SPEARMAN:
        problems.append(f"rank correlation of d with the planted shift is {rho:.3f}")
    return problems


def _infonce(img, txt, proj_img, proj_txt) -> np.ndarray:
    u = img @ proj_img
    v = txt @ proj_txt
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = u @ v.T / TEMPERATURE
    top_r = s.max(axis=1, keepdims=True)
    top_c = s.max(axis=0, keepdims=True)
    row = (top_r + np.log(np.exp(s - top_r).sum(axis=1, keepdims=True)))[:, 0]
    col = (top_c + np.log(np.exp(s - top_c).sum(axis=0, keepdims=True)))[0]
    diag = np.diag(s)
    return 0.5 * ((row - diag) + (col - diag))


def alignment_scores(out, truth, init_two_tower) -> list[str]:
    rows = read_jsonl(out / "alignment_scores.jsonl")
    if [r["id"] for r in rows] != truth["ids"]:
        return ["rows are not the pair ids in input order"]
    img, txt = truth["img"], truth["txt"]
    model = init_two_tower(img.shape[1], txt.shape[1], D_SHARED, TEMPERATURE, truth["seed"])
    own = _infonce(img, txt, model.proj_img, model.proj_txt)
    l = np.array([r["l"] for r in rows])
    l_prime = np.array([r["l_prime"] for r in rows])
    problems = []
    bad = [r["id"] for r, o in zip(rows, own) if not _close(r["l"], float(o))]
    if bad:
        problems.append(f"l differs from own InfoNCE on {len(bad)} rows, e.g. {bad[0]}")
    for r in rows:
        if not _close(r["alpha"], (r["l_prime"] - r["l"]) / r["l"], 1e-12):
            problems.append(f"{r['id']}: alpha != (l' - l) / l")
            break
        inside = 0.0 < r["weight"] < 0.5 if r["alpha"] > 0 else 1.5 <= r["weight"] < 2.0
        if not inside:
            problems.append(f"{r['id']}: weight {r['weight']} outside its branch")
            break
    if not l_prime.mean() < l.mean():
        problems.append(f"mean l' {l_prime.mean():.4f} is not below mean l {l.mean():.4f}")
    mis = truth["misaligned"]
    area = auc(l_prime[mis], l_prime[~mis])
    if area < MIN_AUC:
        problems.append(f"misaligned pairs have l' AUC {area:.3f}")
    return problems


# --------------------------------------------------------------------------
# fusion and schedule


def fused_order(d: dict, l_prime: dict) -> list[tuple]:
    """(fused_key, id, rank_visual, rank_alignment), sorted as the ranking file is."""
    visual = sorted(d, key=lambda i: (-d[i], i))
    alignment = sorted(l_prime, key=lambda i: (l_prime[i], i))
    rank_v = {i: r for r, i in enumerate(visual)}
    rank_a = {i: r for r, i in enumerate(alignment)}
    return sorted((rank_v[i] + rank_a[i], i, rank_v[i], rank_a[i]) for i in visual)


def fused(out, d: dict, l_prime: dict) -> list[str]:
    rows = read_jsonl(out / "fused.jsonl")
    got = [(r["fused_key"], r["id"], r["rank_visual"], r["rank_alignment"]) for r in rows]
    if got != fused_order(d, l_prime):
        return ["fused ranking differs from the recomputed rank sums"]
    return []


def fused_from_outputs(out) -> list[str]:
    """Fusion check for the scoring workloads, whose d and l' come from the program."""
    d = {r["id"]: r["d"] for r in read_jsonl(out / "visual_scores.jsonl")[1:]}
    l_prime = {r["id"]: r["l_prime"] for r in read_jsonl(out / "alignment_scores.jsonl")}
    return fused(out, d, l_prime)


def schedule(out, truth) -> list[str]:
    header, *rows = read_jsonl(out / "plan.jsonl")
    m = truth["tiers"]
    problems = []
    if header != {"kind": "ascending-stratified-random", "seed": truth["seed"], "M": m}:
        problems.append(f"plan header {header}")
    ranking = fused_order(*_corpus_scores(truth))
    order = [i for _key, i, _rv, _ra in ranking]
    keys = {i: k for k, i, _rv, _ra in ranking}
    if [r["position"] for r in rows] != list(range(len(rows))):
        problems.append("positions are not 0..N-1")
    if sorted(r["id"] for r in rows) != sorted(order):
        return problems + ["plan is not a permutation of the ids"]
    tiers = [r["tier"] for r in rows]
    if tiers != sorted(tiers):
        problems.append("tiers are not emitted in ascending order")
    base, rem = divmod(len(order), m)
    start = 0
    for t in range(m):
        size = base + (t < rem)
        members = {r["id"] for r in rows if r["tier"] == t}
        if members != set(order[start:start + size]):
            problems.append(f"tier {t} is not its contiguous slice of the fused order")
        start += size
    if any(r["fused_key"] != keys[r["id"]] for r in rows):
        problems.append("plan fused_key differs from the recomputed rank sum")
    return problems


def _corpus_scores(truth):
    return (dict(zip(truth["ids"], truth["d"].tolist())),
            dict(zip(truth["ids"], truth["l_prime"].tolist())))


def corpus_fused(out, truth) -> list[str]:
    return fused(out, *_corpus_scores(truth))


# --------------------------------------------------------------------------
# training


def training(out, truth) -> list[str]:
    report = read_json(out / "train_report.json")
    model = read_json(out / "model.json")
    problems = []
    curve = report["loss_curve"]
    if len(curve) != truth["epochs"] or not all(map(math.isfinite, curve)):
        problems.append(f"loss curve {curve}")
    w, b = np.array(model["W"]), np.array(model["b"])
    if w.shape != (truth["n_classes"], truth["features"].shape[1]):
        return problems + [f"model shape {w.shape}"]
    own = float(np.mean(np.argmax(truth["features"] @ w.T + b, axis=1) == truth["labels"]))
    if not _close(report["final_accuracy"], own, 1e-12):
        problems.append(f"accuracy {report['final_accuracy']} != own {own}")
    if own < MIN_TRAIN_ACCURACY:
        problems.append(f"training accuracy {own:.3f} near chance")
    return problems


# --------------------------------------------------------------------------
# QA generation


MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """The documented seed stream: seed 0 starts 0xE220A8397B1DCDAF."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def _center(box):
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


def eligible_tasks(records) -> list[tuple[str, str]]:
    """(image_id, task) in the order the generator must emit them."""
    vocab = {o["category"] for r in records for o in r["objects"]}
    scenes = {r["scene"] for r in records if "scene" in r}
    mcq, scene_ok = len(vocab) >= 4, len(scenes) >= 4
    expected = []
    for r in records:
        present = {o["category"] for o in r["objects"]}
        tasks = []
        if mcq and present and len(vocab - present) >= 3:
            tasks.append("recognition")
        if scene_ok and "scene" in r and len(scenes - {r["scene"]}) >= 3:
            tasks.append("scene")
        if mcq and vocab - present:
            tasks.append("security")
        if present:
            tasks += ["grounding", "location"]
        if len({_center(o["bbox"]) for o in r["objects"]}) >= 2:
            tasks.append("relationship")
        if present & PEDESTRIANS:
            tasks.append("pedestrian_counting")
        if present & VEHICLES:
            tasks.append("aerial_counting")
        expected += [(r["image_id"], t) for t in tasks]
    return expected


_GROUND = re.compile(r"Return the bounding box of the (leftmost|rightmost|topmost) (\S+) in the image\.")
_LOCATE = re.compile(r"Give the coordinate locations of all (\S+)s in the image\.")
_LEFT_RIGHT = re.compile(
    r"True or false: the (\S+) at x=(\S+) is to the (left|right) of the (\S+) at x=(\S+)\.")
_ABOVE_BELOW = re.compile(
    r"True or false: the (\S+) at y=(\S+) is (above|below) the (\S+) at y=(\S+)\.")


def _grounding_box(objects, qualifier, category):
    members = [(i, o["bbox"]) for i, o in enumerate(objects) if o["category"] == category]
    if qualifier == "leftmost":
        key = lambda m: (_center(m[1])[0], m[0])
    elif qualifier == "rightmost":
        key = lambda m: (-_center(m[1])[0], m[0])
    else:
        key = lambda m: (_center(m[1])[1], m[0])
    return min(members, key=key)[1]


def _relationship_ok(objects, question, answer) -> bool:
    for pattern, axis, first, second in ((_LEFT_RIGHT, 0, "left", "right"),
                                         (_ABOVE_BELOW, 1, "above", "below")):
        match = pattern.fullmatch(question)
        if match is None:
            continue
        cat_a, coord_a, stated, cat_b, coord_b = match.groups()
        pa, pb = float(coord_a), float(coord_b)
        found = any(
            a["category"] == cat_a and b["category"] == cat_b and i != j
            and _center(a["bbox"])[axis] == pa and _center(b["bbox"])[axis] == pb
            and (axis == 0 or _center(a["bbox"])[0] == _center(b["bbox"])[0])
            for i, a in enumerate(objects) for j, b in enumerate(objects)
        )
        actual = first if pa < pb else second
        return found and pa != pb and answer == ("true" if stated == actual else "false")
    return False


def _answer_ok(row, rec, vocab, scenes) -> bool:
    objects = rec["objects"]
    present = {o["category"] for o in objects}
    task, answer, options = row["task"], row["answer"], row.get("options")
    if task in ("recognition", "scene", "security"):
        pool = scenes if task == "scene" else vocab
        if not (isinstance(options, list) and len(set(options)) == 4 and set(options) <= pool):
            return False
    elif "options" in row:
        return False
    if task == "recognition":
        return answer in options and answer in present and not (set(options) - {answer}) & present
    if task == "scene":
        return answer == rec.get("scene") and answer in options
    if task == "security":
        absent = sorted(o for o in options if o not in present)
        return bool(absent) and answer == absent
    if task == "grounding":
        match = _GROUND.fullmatch(row["question"])
        return (match is not None and match.group(2) in present
                and answer == _grounding_box(objects, *match.groups()))
    if task == "location":
        match = _LOCATE.fullmatch(row["question"])
        return match is not None and answer == [
            o["bbox"] for o in objects if o["category"] == match.group(1)]
    if task == "relationship":
        return _relationship_ok(objects, row["question"], answer)
    if task == "pedestrian_counting":
        return answer == sum(o["category"] in PEDESTRIANS for o in objects)
    if task == "aerial_counting":
        return answer == sum(o["category"] in VEHICLES for o in objects)
    return False


def caption_text(rec) -> str:
    counts = Counter(o["category"] for o in rec["objects"])
    parts = [f"{n} {c}" + ("s" if n != 1 else "")
             for c, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    body = ", ".join(parts) if parts else "no annotated objects"
    return f"An infrared image of {rec.get('scene', 'a scene')} containing {body}."


def pairs(out, truth) -> list[str]:
    records = truth["records"]
    by_id = {r["image_id"]: r for r in records}
    vocab = {o["category"] for r in records for o in r["objects"]}
    scenes = {r["scene"] for r in records if "scene" in r}
    rows = read_jsonl(out / "qa.jsonl")
    problems = []
    expected = eligible_tasks(records)
    got = [(r["image_id"], r["task"]) for r in rows]
    if got != expected:
        want, have = Counter(t for _i, t in expected), Counter(t for _i, t in got)
        return [f"QA tasks per image differ from the eligibility rules: want {dict(want)}, "
                f"got {dict(have)}"]
    stream = splitmix64(truth["seed"])
    if any(r["seed"] != next(stream) for r in rows):
        problems.append("QA seeds are not the master SplitMix64 stream")
    wrong = [(r["image_id"], r["task"]) for r in rows
             if not _answer_ok(r, by_id[r["image_id"]], vocab, scenes)]
    if wrong:
        problems.append(f"{len(wrong)} QA answers do not follow from the annotations, "
                        f"e.g. {wrong[0]}")
    captions = read_jsonl(out / "captions.jsonl")
    if [(c["image_id"], c["text"]) for c in captions] != [
            (r["image_id"], caption_text(r)) for r in records]:
        problems.append("captions differ from the annotation counts")
    return problems


def report(out, per_task: dict) -> list[str]:
    got = read_json(out / "report.json")
    problems = []
    if got["per_task"] != per_task:
        problems.append("report per_task differs from the input")
    if not _close(got["psum"], sum(per_task[t] for t in POSITIVE_TASKS)):
        problems.append(f"psum {got['psum']}")
    if not _close(got["nsum"], sum(per_task[t] for t in NEGATIVE_TASKS)):
        problems.append(f"nsum {got['nsum']}")
    return problems


# --------------------------------------------------------------------------
# benchmark scoring


def _iou(a, b) -> float:
    ix = max(0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def mean_ap(truths: list, preds: list) -> float:
    """All-point AP at IoU 0.5, averaged over the truth's categories, x100."""
    gt = {r["image_id"]: r["predicted"] for r in truths}
    categories = sorted({b["category"] for boxes in gt.values() for b in boxes})
    total = 0.0
    for cat in categories:
        entries = sorted(
            (-b["confidence"], r["image_id"], k, b["bbox"])
            for r in preds for k, b in enumerate(r["predicted"]) if b["category"] == cat
        )
        boxes = {i: [b["bbox"] for b in v if b["category"] == cat] for i, v in gt.items()}
        n_gt = sum(map(len, boxes.values()))
        taken = set()
        hits = np.zeros(len(entries), dtype=bool)
        for e, (_c, image_id, _k, box) in enumerate(entries):
            best, best_g = 0.0, None
            for g, truth_box in enumerate(boxes.get(image_id, [])):
                v = _iou(box, truth_box)
                if (image_id, g) not in taken and v > best:
                    best, best_g = v, g
            if best_g is not None and best >= 0.5:
                taken.add((image_id, best_g))
                hits[e] = True
        tp = np.cumsum(hits)
        recall = tp / n_gt
        precision = tp / np.arange(1, len(entries) + 1)
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        steps = np.diff(np.concatenate([[0.0], recall])) > 0
        prev = np.concatenate([[0.0], recall[:-1]])
        total += 100.0 * float(np.sum((recall - prev)[steps] * envelope[steps]))
    return total / len(categories)


def score(value, expected) -> list[str]:
    return [] if _close(value, expected) else [f"score {value!r} != own {expected!r}"]
