"""Process start-up: logdec loads numpy only for the table, surveys and
the census, and then with one BLAS thread; no command outside the
census loads `secrets` (with `hmac`, `hashlib` and `base64`) or
`inspect` (with `ast`, `dis` and `tokenize`), and no command loads
`dataclasses`.  Each command loads only the logdec modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logdec

SRC = str(Path(logdec.__file__).resolve().parents[1])
PROBE = (
    "import json, os, logdec; logdec.mu_table([0.5, 0.5]); print(json.dumps({"
    "'env': os.environ.get('OPENBLAS_NUM_THREADS'), "
    "'threads': len(os.listdir('/proc/self/task'))}))"
)
# Runs the CLI, then reports on stderr which of these modules were ever
# imported, and which logdec modules.
PROBED = ("numpy", "secrets", "inspect", "dataclasses")
CLI_PROBE = (
    "import sys\n"
    "from logdec.cli import main\n"
    "try:\n"
    "    main(sys.argv[1:])\n"
    "except SystemExit:\n"
    "    pass\n"
    f"sys.stderr.write(' '.join(f'{{m}}={{m in sys.modules}}' for m in {PROBED!r}))\n"
    "sys.stderr.write(' logdec=' + ','.join(sorted(m for m in sys.modules if m.startswith('logdec'))))\n"
)
GOLDEN = Path(__file__).resolve().parent / "golden"
# a strongly mixed system, so that witness runs to the end
MIXED = str(GOLDEN / "system-20x4.json")
FRONT = {"logdec", "logdec.cli"}
ANALYSIS = FRONT | {"logdec.core", "logdec.ideals", "logdec.measure", "logdec.contents"}
STRUCTURE = ANALYSIS | {"logdec.parity"}
EVERY = STRUCTURE | {"logdec.gates"}


def _blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return ""


uses_openblas = "openblas" in _blas_name().lower()
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc to count threads"
)


def _run(code: str, *args: str, **env_overrides) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )


def probe(**env_overrides) -> dict:
    return json.loads(_run(PROBE, **env_overrides).stdout)


def probe_cli(*argv: str) -> dict:
    report = _run(CLI_PROBE, *argv).stderr.rsplit("\n", 1)[-1]  # after the command's own lines
    return dict(item.split("=") for item in report.split())


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["--version"], False),
        (["coinfo", "--gate", "or:2x2", "--structure"], False),
        (["witness", "--gate", "or:2x2"], False),
        (["decompose", "--gate", "or:2x2"], False),
        (["census", "--nx", "2", "--ny", "2", "--samples", "10", "--seed", "1"], True),
    ],
)
def test_only_the_census_imports_numpy(argv, loads_numpy):
    loaded = probe_cli(*argv)
    assert loaded["numpy"] == str(loads_numpy)
    # the census needs numpy, whose core imports inspect and whose random imports secrets
    if not loads_numpy:
        assert loaded["secrets"] == loaded["inspect"] == "False"
    assert loaded["dataclasses"] == "False"


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--version"], FRONT),
        (["--help"], FRONT),
        (["coinfo", "--bogus"], FRONT),
        (["coinfo", "--file", MIXED], ANALYSIS),
        (["coinfo", "--file", MIXED, "--structure"], STRUCTURE),
        (["witness", "--file", MIXED], STRUCTURE),
        (["decompose", "--file", str(GOLDEN / "system-12x2.json"), "--variable", "X"], ANALYSIS),
        (["coinfo", "--gate", "or:2x2"], EVERY),
        (["census", "--nx", "2", "--ny", "2", "--samples", "10", "--seed", "1"], EVERY),
    ],
    ids=["version", "help", "bad-argument", "coinfo", "coinfo-structure", "witness",
         "decompose", "inline-gate", "census"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # no library module before the arguments parse, gates only for the
    # census and inline gates, parity only for the structure and witnesses
    assert set(probe_cli(*argv)["logdec"].split(",")) == modules


class TestBlasThreads:
    def test_environment_is_left_as_it_was(self):
        assert probe()["env"] is None
        assert probe(OPENBLAS_NUM_THREADS="2")["env"] == "2"

    @needs_proc
    @pytest.mark.skipif(not uses_openblas, reason="numpy is not built on OpenBLAS")
    def test_one_thread_by_default(self):
        assert probe()["threads"] == 1

    @needs_proc
    @pytest.mark.skipif(not uses_openblas, reason="numpy is not built on OpenBLAS")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps threads at the cores")
    def test_user_setting_is_respected(self):
        assert probe(OPENBLAS_NUM_THREADS="2")["threads"] == 2
