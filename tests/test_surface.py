"""Every top-level name in the package is used by other package code.

A function, class or constant that only tests or the benchmark reach is
surface no subcommand drives. The few kept on purpose are listed in KEPT
with the reason; the list must match the unreferenced names exactly, so
a dead name fails this test and so does a stale entry.
"""

import ast
from pathlib import Path

import ircur

PACKAGE = Path(ircur.__file__).resolve().parent

FIXTURE_WRITER = "writer of a documented library format, used to build test inputs"

KEPT = {
    "alignment_lesson.write_paired_embeddings": FIXTURE_WRITER,
    "ingest.write_annotations": FIXTURE_WRITER,
    "ingest.write_embeddings": FIXTURE_WRITER,
    "trainer.write_labeled_set": FIXTURE_WRITER,
    "bench_eval.evaluate_records": "called by bench/run.py",
    "bench_eval.load_predictions": "called by bench/run.py",
    "kernel_lesson.domain_geometry": "a span in bench/tracer.py; the geometry oracle of the tests",
    "kernel_lesson.projection_scores": "a span in bench/tracer.py",
    "kernel_lesson.gaussian_kernel": "test oracle: the pairwise kernel the Gram blocks must match",
    "pairgen.validate_qa_record": "test oracle: re-derives a QA record from its annotation",
    "pairgen.load_qa_records": "test oracle: round-trip reader of qa.jsonl",
    "pairgen.load_captions": "test oracle: round-trip reader of captions.jsonl",
    "bench_eval.load_report": "test oracle: round-trip reader of report.json",
    "trainer.weighted_ce_loss": "check 5 loss oracle: the loss its central differences differentiate",
}


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _referenced(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unreferenced_names() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    # name -> ids of the AST nodes that refer to it, over the whole package
    uses: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _referenced(node)
            if name is not None:
                uses.setdefault(name, set()).add(id(node))
    dead = set()
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not uses.get(name, set()) - inside:
                dead.add(f"{module}.{name}")
    return dead


def test_every_top_level_name_is_used_or_kept_for_a_reason():
    dead = unreferenced_names()
    assert sorted(dead - set(KEPT)) == [], "referenced nowhere else in the package"
    assert sorted(set(KEPT) - dead) == [], "kept names now in use, or gone"
