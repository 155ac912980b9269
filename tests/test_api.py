"""The public surface: what `logdec` exports, and the README that shows it."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import logdec

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(logdec.__all__) == len(set(logdec.__all__))
    for name in logdec.__all__:
        assert hasattr(logdec, name), name


def test_all_is_exactly_the_public_namespace():
    # a name deleted from its home module but left in the export table, a
    # name exported from a module that only imports it, or a public name
    # bound in the package and never exported, shows up here
    assert logdec.__all__ == sorted(logdec._HOME)
    for name, module in logdec._HOME.items():
        home = importlib.import_module(f"logdec.{module}")
        assert getattr(vars(home)[name], "__module__", None) == home.__name__, name
        assert getattr(logdec, name) is vars(home)[name]
    # every export is resolved now, so the package namespace is complete
    public = {
        name
        for name, value in vars(logdec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(logdec.__all__) == public
    assert set(logdec.__all__) <= set(dir(logdec))


def test_import_loads_no_submodule_and_every_export_resolves():
    code = (
        "import json, sys, logdec\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('logdec.'))\n"
        "missing = [name for name in logdec.__all__ if not hasattr(logdec, name)]\n"
        "print(json.dumps([loaded, missing]))\n"
    )
    env = dict(os.environ)
    src = str(Path(logdec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    ).stdout
    assert json.loads(out) == [[], []]


def test_readme_quick_tour_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_benchmark_binds_these_parameters_by_name():
    # perfbench/spans.py reads these arguments by name from traced calls
    assert {"ideal", "budget"} <= set(inspect.signature(logdec.classify_parity).parameters)
    assert "samples" in inspect.signature(logdec.sign_survey).parameters
    # The benchmark tracer skips a layer it cannot find and reports zero
    # for it, so every traced (module, attribute) must resolve here.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for module_name, attr, name in spans.LAYERS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name
