"""Guards on the package as a whole: every public function, class and
method of invsen has a user, and importing it stays lean.

Walks the syntax trees of the package, the benchmark harness and the
demos, and fails on any public name defined in invsen that no code there
refers to. Import statements are not uses, so a re-export in __init__.py
does not keep a name alive; neither do the tests. A name meant for users
needs a demo or a caller.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "invsen"
USER_CODE = (PACKAGE, ROOT / "bench", ROOT / "demos")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions():
    """(qualified name, name) of each public module-level function and class
    of the package, and of each public method of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def used_names() -> set:
    """Every name read as a variable or an attribute in the given trees."""
    names = set()
    for d in USER_CODE:
        for path in sorted(d.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_user():
    defined = list(public_definitions())
    used = used_names()
    # the scan sees functions, classes and methods, and their uses
    assert {("trainer.fit", "fit"), ("trainer.TrainConfig", "TrainConfig"),
            ("evalmetrics.MetricsReport.to_dict", "to_dict")} <= set(defined)
    assert {"fit", "TrainConfig", "to_dict"} <= used
    unused = [qual for qual, name in defined if name not in used]
    assert not unused, (
        "public names of invsen that nothing in src/invsen, bench/ or demos/ "
        f"uses: {unused}")


def test_import_leaves_scipy_out():
    # scipy.linalg and scipy.sparse.linalg alone would more than double every
    # process's start-up
    child = ("import sys, invsen; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_pipeline_runs_without_scipy(tmp_path):
    # with scipy unimportable, gen-data -> train -> evaluate -> report still run
    child = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from invsen.cli import main
        d = sys.argv[1]
        for argv in (
                ["gen-data", "--k", "2", "--d", "10", "--rank", "2", "--n-per", "20",
                 "--seed", "1", "--out", d + "/data"],
                ["train", "--data", d + "/data/train.csv", "--epochs", "2",
                 "--batch-size", "16", "--widths", "8", "--embed-dim", "4",
                 "--bias-widths", "6", "--seed", "1", "--out", d + "/run"],
                ["evaluate", "--checkpoint", d + "/run/checkpoint.invsen", "--data",
                 d + "/data/train.csv", d + "/data/test.csv", "--k", "2",
                 "--out", d + "/eval"],
                ["report", d + "/eval/metrics.json", "--out", d + "/report"]):
            if main(argv) != 0:
                sys.exit(f"{argv[0]} failed")
        """)
    proc = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eval" / "metrics.json").exists()
    assert any((tmp_path / "report").iterdir())
