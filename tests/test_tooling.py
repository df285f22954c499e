import ast
import builtins
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import meanfield_hmc

TESTS = Path(__file__).resolve().parent
PACKAGE = sorted(Path(meanfield_hmc.__file__).parent.glob("*.py"))

# Every bad input is refused with ValueError, which the CLI turns into exit 2
# as it does OSError (open's error); a divergence raises the package's one
# exception class (exit 3), and assigning to a value class AttributeError.
RAISED = {"ValueError", "OSError", "IntegrationDivergedError", "AttributeError"}


def test_a_failing_property_test_reports_as_one_failure(tmp_path):
    # under the repository's pytest config ("error" warning filter) and
    # conftest, hypothesis's failure report must not end the session
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS)])),
        capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}


def test_the_package_has_one_exception_class_and_raises_four():
    trees = _package_trees()
    classes = [node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    own = set()
    while True:
        found = {c.name for c in classes if {_name(b) for b in c.bases} & (exceptions | own)}
        if found == own:
            break
        own = found
    assert own == {"IntegrationDivergedError"}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert isinstance(raised, ast.Name) and raised.id in RAISED, (
                    f"{file}:{node.lineno} raises {ast.unparse(node.exc) if node.exc else 'again'}")


def test_every_private_module_name_is_read_in_the_package():
    # a private module-level function, class or constant that no package
    # module reads is dead code, even when a test still imports it
    trees = _package_trees()
    defined = {}
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((name, f"{file}:{node.lineno}") for name in names
                           if name[:1] == "_" and not name[:2] == name[-2:] == "__")
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}
    assert defined, "no private module-level names found"
    assert sorted(f"{defined[name]} {name}" for name in set(defined) - read) == []
