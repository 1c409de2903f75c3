"""The demos, which import each public name from its defining module, the export lists and the import graph."""

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


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        # runs do not warn: a warning in a demo fails it
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert DEMOS[demo] in result.stdout


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
