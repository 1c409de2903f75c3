"""The demos and the README quickstart, which import each public name from its defining module, the export lists
and the use of each exported name, and the import graph."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zenobell

ROOT = Path(__file__).resolve().parent.parent

# demo script -> a line fragment its output must contain
DEMOS = {
    "01_entangling_pulse": "pulse sweep at |Omega|",
    "02_zeno_subspace": "environment-measurement timescale",
    "03_dissipative_cnot": "fidelity vs swapped superposition",
    "04_band_gap_pair": "conditional fidelity",
    "05_bell_verification": "Mermin combination",
    "06_jump_unraveling": "deterministic P0",
}


# exported names that no run, demo or quickstart uses yet, and why each stays
UNUSED_EXPORTS = {
    "zenobell.dfs.pair_dfs_vectors": "the DFS-leakage field of a run manifest (ROADMAP item 2) needs it",
    "zenobell.dfs.lambda_dfs_vectors": "the DFS-leakage field of a run manifest (ROADMAP item 2) needs it",
}


def _run_python(*args):
    """Run Python on ``args`` with ``src`` importable; runs do not warn, so a warning fails it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _readme_quickstart() -> str:
    """The one ```python block of README.md."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1, "README.md should hold one python block"
    return blocks[0].split("```")[0]


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    assert DEMOS[demo] in _run_python(str(ROOT / "demos" / f"{demo}.py"))


def test_readme_quickstart_runs():
    b_s, violated = _run_python("-c", _readme_quickstart()).splitlines()[-1].split()
    assert abs(float(b_s)) > 2.0 and violated == "True"


def test_demo_list_is_complete():
    assert sorted(DEMOS) == sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"zenobell.{info.name}") for info in pkgutil.iter_modules(zenobell.__path__)]
    for module in modules:
        names = module.__all__
        assert len(set(names)) == len(names), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names what it does not define: {missing}"
        # one import path per name: a module exports only what it defines
        defined = [v for v in map(module.__dict__.get, names) if inspect.isfunction(v) or inspect.isclass(v)]
        borrowed = [v.__name__ for v in defined if v.__module__ != module.__name__]
        assert not borrowed, f"{module.__name__}.__all__ re-exports {borrowed}"
    # the root defines no public name; its attributes are the submodules once they are imported
    assert not hasattr(zenobell, "__all__")
    public = [name for name, value in vars(zenobell).items() if not (name.startswith("_") or inspect.ismodule(value))]
    assert not public, public


def test_every_exported_name_is_used():
    """Each name in an ``__all__``, and each public method or property of an exported class, has a user.

    A user is a reference in the package, the demos or the README
    quickstart (an ``ast.Name`` or ``ast.Attribute`` for a module-level
    name, an ``ast.Attribute`` for a member), or a name the benchmark
    tracer looks up; tests alone do not count.  What has none goes, or is
    listed in ``UNUSED_EXPORTS`` with its reason.
    """
    trees = [ast.parse(path.read_text()) for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")]]
    trees.append(ast.parse(_readme_quickstart()))
    attributes = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    assigned = {node.targets[0].id: node.value for node in tracer.body if isinstance(node, ast.Assign)}
    attributes |= {attr for pairs in ast.literal_eval(assigned["TARGETS"]).values() for _, attr in pairs}
    names = attributes | {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = []
    for info in pkgutil.iter_modules(zenobell.__path__):
        module = importlib.import_module(f"zenobell.{info.name}")
        for name in module.__all__:
            exported.append((f"{module.__name__}.{name}", name in names))
            value = getattr(module, name)
            if inspect.isclass(value):
                exported += [
                    (f"{module.__name__}.{name}.{attr}", attr in attributes)
                    for attr, member in vars(value).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(member) or isinstance(member, (property, classmethod, staticmethod)))
                ]
    unused = {qualified for qualified, used in exported if not used}
    # a name only tests use, or a listed name that is now used or gone
    assert unused == set(UNUSED_EXPORTS), sorted(unused ^ set(UNUSED_EXPORTS))


def test_import_graph():
    """``import zenobell`` loads nothing else, and the CLI loads only the modules its commands run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'zenobell'))\n"
        "import zenobell\n"
        "root = loaded()\n"
        "import zenobell.cli\n"
        "print(json.dumps([root, loaded()]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    root, cli = json.loads(out.stdout)
    assert root == ["zenobell"]
    assert "zenobell.cli" in cli
    assert "zenobell.dfs" not in cli
    assert "zenobell.selftest" not in cli
