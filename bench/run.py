"""Benchmark of the ircur pipeline on seeded synthetic inputs.

    python3 bench/run.py --workload visual-gap --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory. One process runs one workload: it imports the program,
has a fresh interpreter generate and write the workload's inputs, then
repeats the workload's chain of `cli.main` subcommands and library calls in
whole rounds for about `--seconds` seconds, with one more timed set-up
after every round. The first round's outputs are checked against the
benchmark's own computations, and every later round must rewrite them byte
for byte.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
chain_s, peak_rss_mb and setup_s; with `--trace 1` they are the per-layer
metrics of the spans in tracer.py. A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread: the runs share a 2-core machine, and one thread keeps
# the GEMM-bound steps from competing with the rest of the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("visual-gap", "text-align", "corpus")


@dataclass
class Op:
    """One operation of a round: a subcommand or a library call."""

    name: str
    run: Callable[[], object]
    outputs: tuple[str, ...]              # files in the out directory it writes
    check: Callable[[object, dict], list[str]]  # problems, given the result and the truth
    exit_code: bool = True                # result is a cli exit code


def import_program() -> bool:
    """Import the program from this checkout's `src`; False if it is not there."""
    if not (SRC / "ircur" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import ircur.cli  # noqa: F401  (loads every module cli uses)
    import ircur.bench_eval  # noqa: F401
    return Path(ircur.__file__).resolve().parent == (SRC / "ircur").resolve()


def cli_op(name, work, check, outputs) -> Op:
    from ircur import cli
    argv = [name, "--config", str(work / "run.cfg")]
    # look `main` up at call time, so the traced run sees its wrapper
    return Op(name, lambda: cli.main(argv), outputs, check)


def visual_ops(work) -> list[Op]:
    import checks
    from ircur import alignment_lesson
    out = work / "out"
    return [
        cli_op("score-visual", work, lambda _r, truth: checks.visual_scores(out, truth),
               ("visual_scores.jsonl",)),
        cli_op("score-alignment", work, lambda _r, truth: checks.alignment_scores(
                   out, truth, alignment_lesson.init_two_tower),
               ("alignment_scores.jsonl",)),
        cli_op("fuse", work, lambda _r, _t: checks.fused_from_outputs(out), ("fused.jsonl",)),
    ]


def corpus_ops(work) -> list[Op]:
    import checks
    from ircur import bench_eval
    out = work / "out"

    def score(task):
        preds = bench_eval.load_predictions(work / f"{task}_pred.jsonl", task)
        truths = bench_eval.load_predictions(work / f"{task}_truth.jsonl", task, scored=False)
        return bench_eval.evaluate_records(task, preds, truths)

    def check_grounding(value, truth):
        truths, preds, _ = truth["planted"]["grounding"]
        loaded = bench_eval.load_predictions(work / "grounding_truth.jsonl", "grounding",
                                             scored=False)
        as_predictions = [
            bench_eval.PredictionRecord(r.image_id, r.task, tuple(
                bench_eval.ScoredBox(b.bbox, 1.0, b.category) for b in r.predicted))
            for r in loaded
        ]
        perfect = bench_eval.evaluate_records("grounding", as_predictions, loaded)
        problems = [] if perfect == 100.0 else [f"truth scored against itself: {perfect}"]
        return problems + checks.score(value, checks.mean_ap(truths, preds))

    def check_planted(task):
        return lambda value, truth: checks.score(value, truth["planted"][task][2])

    def library_op(task, check):
        return Op(f"evaluate_records {task}", lambda: score(task), (), check, exit_code=False)

    return [
        cli_op("fuse", work, lambda _r, truth: checks.corpus_fused(out, truth), ("fused.jsonl",)),
        cli_op("schedule", work, lambda _r, truth: checks.schedule(out, truth), ("plan.jsonl",)),
        cli_op("train", work, lambda _r, truth: checks.training(out, truth),
               ("train_report.json", "model.json")),
        cli_op("generate-pairs", work, lambda _r, truth: checks.pairs(out, truth),
               ("qa.jsonl", "captions.jsonl")),
        cli_op("evaluate", work, lambda _r, truth: checks.report(out, truth["per_task"]),
               ("report.json",)),
        library_op("grounding", check_grounding),
        library_op("scene", check_planted("scene")),
        library_op("pedestrian_counting", check_planted("pedestrian_counting")),
    ]


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def set_up(workload, work, seed) -> tuple[float, str]:
    """One set-up in a fresh interpreter; its time and the digest of the inputs."""
    child = subprocess.run(
        [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed), str(work)],
        capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"make_inputs.py failed:\n{child.stderr}")
    parts = json.loads(child.stdout.splitlines()[-1])
    return parts["import_s"] + parts["inputs_s"], input_digest(work)


def input_digest(work) -> str:
    return digest_files(sorted(p for p in work.iterdir() if p.is_file()))


def run_round(ops) -> tuple[list, list, list]:
    """Run every op once in order; the time each took, the results and their errors."""
    marks, results, errors = [time.perf_counter()], [], []
    for op in ops:
        try:
            results.append(op.run())
            errors.append(None)
        except Exception:  # a crash is a failed operation; the run goes on
            results.append(None)
            errors.append(traceback.format_exc())
        marks.append(time.perf_counter())
    return [b - a for a, b in zip(marks, marks[1:])], results, errors


def outcome(op, result, error, out) -> tuple[bool, str]:
    """Whether the op ran to completion, and the digest of what it produced."""
    if error is not None or (op.exit_code and result != 0):
        return False, ""
    if op.outputs:
        return True, digest_files(out / name for name in op.outputs)
    return True, hashlib.sha256(repr(result).encode()).hexdigest()


def run_check(op, result, truth) -> list[str]:
    try:
        return op.check(result, truth)
    except Exception:  # an unreadable output is a failed check
        return [traceback.format_exc()]


def regenerate(workload, work, seed, digest) -> dict:
    """The planted truth, from the generator run again in this process."""
    import gen
    truth = gen.make(workload, work, seed)
    if input_digest(work) != digest:
        raise RuntimeError("inputs regenerated for the checks differ from the set-up's")
    return truth


def measure(workload, ops, work, seed, seconds, tracer):
    """Set-ups and whole rounds for about `seconds` of rounds.

    One set-up comes before the first round and one after every round, so
    the set-up times sample the same stretch of time as the rounds. Every
    set-up must write the same bytes. The first round is checked against
    the planted truth; every later round must reproduce its outputs byte
    for byte.
    """
    setup_s, digest = set_up(workload, work, seed)
    setups = [setup_s]
    (work / "out").mkdir()
    times, per_op, traces = [], [], []
    failed = 0
    reference = None
    correct = True
    peak_rss_mb = None
    while not times or sum(times) + times[-1] <= seconds:
        gc.collect()
        if tracer is not None:
            tracer.active = True
        op_times, results, errors = run_round(ops)
        if tracer is not None:
            tracer.active = False
            traces.append(tracer.round_metrics())
        times.append(sum(op_times))
        per_op.append(op_times)
        outcomes = [outcome(op, r, e, work / "out") for op, r, e in zip(ops, results, errors)]
        if reference is None:
            # the chain's peak: the inputs were made in child processes, and
            # the truth and the checks below allocate only after this point
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            truth = regenerate(workload, work, seed, digest)
            reference = []
            for op, result, error, (ran, digest_out) in zip(ops, results, errors, outcomes):
                problems = (run_check(op, result, truth) if ran
                            else [error or f"exit code {result}"])
                for problem in problems:
                    print(f"bench: {op.name}: {problem}", file=sys.stderr)
                correct = correct and (not ran or not problems)
                reference.append(digest_out if ran and not problems else None)
            del truth
        for op, (ran, digest_out), ref in zip(ops, outcomes, reference):
            if not ran or ref is None or digest_out != ref:
                failed += 1
            if ran and ref is not None and digest_out != ref:
                correct = False
                print(f"bench: {op.name}: output differs from the first round", file=sys.stderr)
        setup_s, again = set_up(workload, work, seed)
        if again != digest:
            raise RuntimeError("the same seed generated different inputs")
        setups.append(setup_s)
    for op, op_times in zip(ops, zip(*per_op)):
        print(f"bench: {op.name}: {steady(list(op_times)):.4f} s", file=sys.stderr)
    print(f"bench: set-ups {' '.join(f'{t:.3f}' for t in setups)}", file=sys.stderr)
    return times, setups, traces, failed, correct, peak_rss_mb


def steady(values: list):
    """Median of the rounds after the first, which fills caches and warms allocators."""
    return statistics.median(values[1:] if len(values) > 1 else values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_program():
        print(f"bench: no ircur package under {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    seed = args.seed % 2**32
    ops = (corpus_ops if args.workload == "corpus" else visual_ops)(work)
    try:
        times, setups, traces, failed, correct, peak_rss_mb = measure(
            args.workload, ops, work, seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    chain_s = steady(times)
    setup_s = statistics.median(setups)
    print(f"bench: {args.workload} seed {args.seed}: {len(times)} rounds of {len(ops)} ops, "
          f"chain_s {chain_s:.4f} (rounds {' '.join(f'{t:.3f}' for t in times)}), "
          f"setup_s {setup_s:.3f}, peak RSS {peak_rss_mb:.1f} MB, "
          f"BLAS threads {BLAS_THREADS}, trace {args.trace}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": steady([t["metrics"][name] for t in traces]),
                          "unit": tracing.unit_of(name)}
                   for name in tracing.METRICS}
        trace_dir = HERE / ".traces"
        trace_dir.mkdir(exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "chain_s": times,
                       "blas_threads": BLAS_THREADS, "rounds": traces}, fh)
    else:
        metrics = {"chain_s": {"value": chain_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    print(json.dumps({"correct": correct, "attempted": len(times) * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
