"""Seeded synthetic inputs for the three benchmark workloads.

Every generator takes the run's seed, writes the workload's input files
and its `ircur` configuration into a work directory, and returns the
planted truth that the output checks need. The seed is also the
program's own `seed` key. The same seed gives byte-identical files.
Nothing here calls the program.
"""

from __future__ import annotations

import json

import numpy as np

# Sizes per workload. The README explains why each is what it is.
VISUAL_GAP = dict(
    n_ir=500, n_vis=500, dim=64, gap=8.0, bandwidth="median",
    dim_img=32, dim_txt=24, latent=8, misaligned=0.2, warmup_epochs=5,
)
TEXT_ALIGN = dict(
    n_ir=800, n_vis=200, dim=4, gap=10.0, bandwidth="5.0",
    dim_img=64, dim_txt=48, latent=16, misaligned=0.2, warmup_epochs=None,
)
CORPUS = dict(
    n_ids=20000, n_classes=4, feature_dim=8, class_gap=4.0,
    n_images=3000, width=640, height=512,
    scene_wrong=0.2, count_off=0.25, ground_hit=0.8, false_positive=0.3,
)

# Annotation vocabulary. Counting tasks use the program's documented
# category families; only these members occur here.
CATEGORIES = ("person", "car", "truck", "bus", "bicycle", "van", "dog", "boat")
CATEGORY_P = (0.34, 0.26, 0.08, 0.06, 0.08, 0.06, 0.06, 0.06)
PEDESTRIANS = frozenset({"person"})
VEHICLES = frozenset({"car", "truck", "bus", "bicycle", "van"})
SCENES = ("road", "street", "highway", "parking_lot", "campus", "bridge")

# Planted per-task scores for `ircur evaluate`.
PER_TASK = {
    "scene": 71.25, "recognition": 64.5, "grounding": 38.75,
    "relationship": 55.0, "reid": 42.5, "security": 60.25,
    "location": 12.5, "aerial_counting": 1.75, "pedestrian_counting": 2.25,
}


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_config(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            if value is not None:
                fh.write(f"{key} = {value}\n")


def visual(work, seed, p) -> dict:
    """Embeddings with a planted shift, and paired embeddings with planted misalignment.

    Infrared sample i sits at (1 - t_i) * gap * u plus unit noise, so a
    larger t_i moves it toward the visible cloud around the origin. Paired
    sample i shares a latent between its image and text vectors unless it
    is one of the planted misaligned pairs, whose text comes from a fresh
    latent. Infrared ids and pair ids are the same, so the two rankings fuse.
    """
    rng = np.random.default_rng(seed)
    n_ir, n_vis, dim = p["n_ir"], p["n_vis"], p["dim"]
    u = rng.normal(size=dim)
    u *= p["gap"] / np.linalg.norm(u)
    shift = rng.uniform(0.0, 1.0, size=n_ir)
    ir = (1.0 - shift)[:, None] * u[None, :] + rng.normal(size=(n_ir, dim))
    vis = rng.normal(size=(n_vis, dim))
    ids = [f"ir{i:05d}" for i in range(n_ir)]
    rows = [{"id": i, "domain": "infrared", "vector": v} for i, v in zip(ids, ir.tolist())]
    rows += [{"id": f"vis{j:05d}", "domain": "visible", "vector": v}
             for j, v in enumerate(vis.tolist())]
    write_jsonl(work / "embeddings.jsonl", rows)

    a = rng.normal(size=(p["latent"], p["dim_img"]))
    b = rng.normal(size=(p["latent"], p["dim_txt"]))
    z = rng.normal(size=(n_ir, p["latent"]))
    misaligned = np.zeros(n_ir, dtype=bool)
    misaligned[rng.permutation(n_ir)[: round(p["misaligned"] * n_ir)]] = True
    z_txt = np.where(misaligned[:, None], rng.normal(size=z.shape), z)
    img = z @ a + 0.3 * rng.normal(size=(n_ir, p["dim_img"]))
    txt = z_txt @ b + 0.3 * rng.normal(size=(n_ir, p["dim_txt"]))
    write_jsonl(work / "paired.jsonl", (
        {"id": i, "image_vector": x, "text_vector": y}
        for i, x, y in zip(ids, img.tolist(), txt.tolist())
    ))
    write_config(work / "run.cfg", {
        "embeddings": work / "embeddings.jsonl",
        "paired_embeddings": work / "paired.jsonl",
        "out": work / "out",
        "seed": seed,
        "bandwidth": p["bandwidth"],
        "warmup_epochs": p["warmup_epochs"],
    })
    return {"ids": ids, "ir": ir, "vis": vis, "shift": shift, "img": img, "txt": txt,
            "misaligned": misaligned, "bandwidth": p["bandwidth"], "seed": seed}


def _weights(alpha: np.ndarray) -> np.ndarray:
    """The documented loss-variation weights, so the supplied file is consistent."""
    pos, neg = alpha > 0, alpha <= 0
    med_pos = np.median(alpha[pos]) if pos.any() else 0.0
    med_neg = np.median(-alpha[neg]) if neg.any() else 0.0
    ratio = np.where(pos, alpha / (med_pos or 1.0), -alpha / (med_neg or 1.0))
    sig = 1.0 / (1.0 + np.exp(-np.minimum(ratio, 36.0)))
    return np.where(pos, 1.0 - sig, 1.0 + sig)


def _box(rng, width, height):
    w = int(rng.integers(8, 121))
    h = int(rng.integers(8, 121))
    return [int(rng.integers(0, width - w + 1)), int(rng.integers(0, height - h + 1)), w, h]


def _annotations(rng, p) -> list[dict]:
    records = []
    for i in range(p["n_images"]):
        n_obj = int(rng.choice(6, p=(0.08, 0.2, 0.28, 0.22, 0.14, 0.08)))
        cats = rng.choice(len(CATEGORIES), size=n_obj, p=CATEGORY_P)
        objects = [{"category": CATEGORIES[c], "bbox": _box(rng, p["width"], p["height"])}
                   for c in cats]
        rec = {"image_id": f"img{i:05d}", "width": p["width"], "height": p["height"],
               "objects": objects}
        if rng.random() < 0.9:
            rec["scene"] = SCENES[int(rng.integers(len(SCENES)))]
        records.append(rec)
    return records


def _jitter(rng, box, width, height):
    x, y, w, h = (b + int(rng.integers(-1, 2)) for b in box)
    w, h = max(w, 1), max(h, 1)
    x, y = min(max(x, 0), width - w), min(max(y, 0), height - h)
    return [x, y, w, h]


def _grounding(rng, records, p):
    truths, preds = [], []
    for rec in records:
        truth, pred = [], []
        for obj in rec["objects"]:
            x, y, w, h = obj["bbox"]
            truth.append({"bbox": obj["bbox"], "category": obj["category"]})
            if rng.random() < p["ground_hit"]:
                box, conf = _jitter(rng, obj["bbox"], p["width"], p["height"]), rng.uniform(0.2, 1.0)
            else:
                # a box moved by its own size overlaps the truth by less than half
                box = [x + w if x + 2 * w <= p["width"] else x - w, y, w, h]
                if box[0] < 0:
                    box = [x, y + h if y + 2 * h <= p["height"] else y - h, w, h]
                conf = rng.uniform(0.0, 0.8)
            pred.append({"bbox": box, "category": obj["category"], "confidence": conf})
        if rng.random() < p["false_positive"]:
            cat = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
            pred.append({"bbox": _box(rng, p["width"], p["height"]), "category": cat,
                         "confidence": rng.uniform(0.0, 0.6)})
        truths.append({"image_id": rec["image_id"], "task": "grounding", "predicted": truth})
        preds.append({"image_id": rec["image_id"], "task": "grounding", "predicted": pred})
    return truths, preds, None


def _scene_answers(rng, records, p):
    rows = [r for r in records if "scene" in r]
    wrong = set(rng.permutation(len(rows))[: round(p["scene_wrong"] * len(rows))].tolist())
    truths, preds = [], []
    for k, rec in enumerate(rows):
        scene = rec["scene"]
        guess = SCENES[(SCENES.index(scene) + 1) % len(SCENES)] if k in wrong else scene
        truths.append({"image_id": rec["image_id"], "task": "scene", "predicted": scene})
        preds.append({"image_id": rec["image_id"], "task": "scene", "predicted": guess})
    return truths, preds, 100.0 * (len(rows) - len(wrong)) / len(rows)


def _count_answers(rng, records, p):
    rows = [(r["image_id"], sum(o["category"] in PEDESTRIANS for o in r["objects"]))
            for r in records]
    rows = [(i, n) for i, n in rows if n > 0]
    off = rng.permutation(len(rows))[: round(p["count_off"] * len(rows))]
    error = np.zeros(len(rows), dtype=int)
    error[off] = rng.choice([1, 2], size=len(off))
    truths, preds = [], []
    for (image_id, n), e in zip(rows, error.tolist()):
        truths.append({"image_id": image_id, "task": "pedestrian_counting", "predicted": n})
        preds.append({"image_id": image_id, "task": "pedestrian_counting", "predicted": n + e})
    return truths, preds, int(error.sum()) / len(rows)


def corpus(work, seed, p) -> dict:
    """Score files, labels, annotations and planted predictions for the corpus chain."""
    rng = np.random.default_rng(seed)
    n = p["n_ids"]
    ids = [f"c{i:05d}" for i in range(n)]
    d = rng.normal(0.5, 0.2, size=n)
    mmd = 0.3
    write_jsonl(work / "visual_scores.jsonl", [
        {"mmd": mmd, "bandwidth": 1.0, "n_ir": n, "n_vis": n},
        *({"id": i, "projection": dv - mmd, "d": dv} for i, dv in zip(ids, d.tolist())),
    ])
    l = rng.uniform(2.0, 6.0, size=n)
    l_prime = l * (1.0 + rng.normal(-0.1, 0.15, size=n))
    alpha = (l_prime - l) / l
    write_jsonl(work / "alignment_scores.jsonl", (
        {"id": i, "l": a, "l_prime": b, "alpha": c, "weight": w}
        for i, a, b, c, w in zip(ids, l.tolist(), l_prime.tolist(), alpha.tolist(),
                                 _weights(alpha).tolist())
    ))
    labels = rng.integers(p["n_classes"], size=n)
    centers = p["class_gap"] * np.eye(p["n_classes"], p["feature_dim"])
    features = centers[labels] + rng.normal(size=(n, p["feature_dim"]))
    write_jsonl(work / "labels.jsonl", (
        {"id": i, "features": f, "label": c}
        for i, f, c in zip(ids, features.tolist(), labels.tolist())
    ))
    records = _annotations(rng, p)
    write_jsonl(work / "annotations.jsonl", records)
    planted = {"grounding": _grounding(rng, records, p),
               "scene": _scene_answers(rng, records, p),
               "pedestrian_counting": _count_answers(rng, records, p)}
    for task, (truths, preds, _expected) in planted.items():
        write_jsonl(work / f"{task}_truth.jsonl", truths)
        write_jsonl(work / f"{task}_pred.jsonl", preds)
    with open(work / "per_task.json", "w", encoding="utf-8") as fh:
        json.dump(PER_TASK, fh)
    write_config(work / "run.cfg", {
        "visual_scores": work / "visual_scores.jsonl",
        "alignment_scores": work / "alignment_scores.jsonl",
        "labels": work / "labels.jsonl",
        "loss_log": work / "alignment_scores.jsonl",
        "annotations": work / "annotations.jsonl",
        "per_task": work / "per_task.json",
        "out": work / "out",
        "seed": seed,
        "tiers": 5,
        "schedule": "ascending-stratified-random",
        "lr": 0.1,
        "epochs": 4,
    })
    return {"ids": ids, "d": d, "l_prime": l_prime, "labels": labels, "features": features,
            "records": records, "planted": planted, "per_task": PER_TASK, "seed": seed,
            "tiers": 5, "epochs": 4, "n_classes": p["n_classes"]}


GENERATORS = {"visual-gap": (visual, VISUAL_GAP), "text-align": (visual, TEXT_ALIGN),
              "corpus": (corpus, CORPUS)}


def make(workload: str, work, seed: int) -> dict:
    """Write one workload's inputs into `work`; the planted truth."""
    generate, sizes = GENERATORS[workload]
    work.mkdir(parents=True, exist_ok=True)
    return generate(work, seed, sizes)
