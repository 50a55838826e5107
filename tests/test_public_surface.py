"""Every public name in the package has a caller in the package.

A public module-level function or class that only tests call is test code
shipped in ``src/``: oracles and fixture writers belong in ``tests/helpers.py``.
The scan parses each module with ``ast`` and counts a name as called when
some package module other than ``__init__.py`` refers to it, as a bare name
or as an attribute, outside the name's own definition.
"""

import ast
from pathlib import Path

import blockspectra

PACKAGE = Path(blockspectra.__file__).parent

# bench/workloads.py writes the toynet-scaled input with save_dataset_csv and
# reads the slq-heatmap output with load_heatmap_csv, and bench/layertrace.py
# wraps gd_run, adam_fixed_run, adam_ema_run and slq.lanczos; the package
# itself calls none of them: it runs every lone run through quadlab.runs and
# every Lanczos recursion through slq.lanczos_stack.
BENCH_ONLY = {
    ("toynet", "save_dataset_csv"),
    ("heterogeneity", "load_heatmap_csv"),
    ("quadlab", "gd_run"),
    ("quadlab", "adam_fixed_run"),
    ("quadlab", "adam_ema_run"),
    ("slq", "lanczos"),
}


def _refers_to(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def uncalled_public_names(package: Path) -> set:
    """(module, name) of each public definition nothing else in ``package`` refers to."""
    trees = [(p.stem, ast.parse(p.read_text())) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    uncalled = set()
    for module, tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            refs = (n for _, t in trees for n in ast.walk(t) if id(n) not in own)
            if not any(_refers_to(n, node.name) for n in refs):
                uncalled.add((module, node.name))
    return uncalled


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled_public_names(PACKAGE) == BENCH_ONLY


def test_the_scan_finds_a_name_only_its_own_body_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from a import only_tests\n")
    (tmp_path / "a.py").write_text(
        "def only_tests(n):\n    return only_tests(n - 1) if n else 0\n\n"
        "def called():\n    return 1\n\n"
        "class Used:\n    pass\n\n"
        "def _private():\n    return 2\n"
    )
    (tmp_path / "b.py").write_text("import a\n\nx = a.called() + len([Used])\n")
    assert uncalled_public_names(tmp_path) == {("a", "only_tests")}
