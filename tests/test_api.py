"""The public surface: what `logdec` exports, and the README that shows it."""

import importlib
import importlib.util
import inspect
import re
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
    # a name deleted from a module but left in __all__, or imported into
    # the package and never exported, shows up here
    public = {
        name
        for name, value in vars(logdec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(logdec.__all__) == public


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
