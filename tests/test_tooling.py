import ast
import builtins
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import meanfield_hmc
from meanfield_hmc.cli import main

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


def _readme_block(after):
    """The lines of README's first fenced block after the line holding ``after``."""
    lines = (TESTS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if after in line)
    opening = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    closing = next(i for i in range(opening + 1, len(lines)) if lines[i].startswith("```"))
    return lines[opening + 1:closing]


def test_readme_csv_layout_quotes_its_golden_file():
    # the block shortens the file: "..." for cut rows and a cut config line
    golden = (TESTS / "golden" / "contraction_multiwell_2d.csv").read_text(
        encoding="utf-8").splitlines()
    block = _readme_block("## CSV layout")
    config = [line for line in block if line.startswith("# config:")]
    assert len(config) == 1 and config[0].endswith("...}")
    assert any(line.startswith(config[0][:-4]) for line in golden)
    quoted = [line for line in block if line != "..." and line not in config]
    assert [line for line in quoted if line not in golden] == []
    assert len(quoted) >= 10


def test_readme_json_line_is_what_its_command_prints(tmp_path, monkeypatch, capsys):
    argv = ["order-check", "--h-list", "0.5,0.25,0.125", "--N", "2", "--out", "o.csv"]
    block = _readme_block("example above with `--json` prints")
    assert f"`{' '.join(argv)}`" in (TESTS.parent / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out.splitlines() == block


def test_every_name_the_tracer_keys_on_is_a_public_package_function():
    # the benchmark's tracer finds its spans by these names; one renamed,
    # bypassed or made private reads as a layer of 0 in the trace.  The
    # tracer's source is read, never imported or edited
    source = (TESTS.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    constants = {_name(target): node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign) for target in node.targets}
    layers = ast.literal_eval(constants["LAYERS"])
    particle_axis = ast.literal_eval(constants["PARTICLE_AXIS"])
    hooked = ("couple_velocities_batch", "gaussian_kde_on_grid", "write_csv")
    assert all(f'"{name}"' in source for name in hooked)
    public = {}
    for layer in layers:
        module = importlib.import_module(f"meanfield_hmc.{layer}")
        public.update((name, obj) for name, obj in vars(module).items()
                      if inspect.isfunction(obj) and obj.__module__ == module.__name__
                      and not name.startswith("_"))
    assert sorted({*particle_axis, *hooked} - set(public)) == []
    # the tracer reads these fields of a coupling's result and write_csv's path
    fields = inspect.signature(meanfield_hmc.CoupleResult).parameters
    assert {"synchronous", "coalescing"} <= set(fields)
    assert next(iter(inspect.signature(public["write_csv"]).parameters)) == "path"
