"""Benchmark of the `logdec` command line.

Usage, from the root of a logdec checkout:

    python3 perfbench/run.py --workload census|decompose|structure \
        --seed N --seconds S --trace 0|1

With --trace 0 every operation is one `python -m logdec.cli ...` process
(PYTHONPATH=src, LOGDEC_THREADS=1), run one at a time in a closed loop.
The run repeats whole passes over the workload's command list: at least
two, then more while fewer than S seconds have passed.  It reports the
end-to-end metrics items_per_s, cpu_ms_per_item, setup_s and peak_rss_mb.
Times are in reference seconds: each operation's wall and CPU time is
scaled by the machine's speed during it, read from a reference loop
timed on the other core (see Sampler), so machine drift does not read as
a change in the program.  The unscaled figures go to stderr.

With --trace 1 the same pass runs three times in this process through
logdec.cli.main: plain, with spans around each layer, and plain again.
It reports the per-layer metrics of the traced pass and the tracing
overhead against the second plain pass.

Every output is checked against references computed in checks.py; an
operation that exits non-zero, prints a traceback or disagrees with a
reference counts as failed, and a disagreement also makes `correct`
false.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "_out")
MIN_PASSES = 2
SETUP_LAUNCHES_PER_PASS = 3
OP_TIMEOUT_S = 150
# Reference-loop speed, in iterations per CPU second, that defines one
# reference second (about this loop's median on the 2-core machine the
# README's figures come from).  Only the ratio to it matters.
REF_RATE = 1.0e7
# Wall time of `python -c "import numpy"` at reference speed (its median
# on that machine); start-up times are scaled by it over the measured one.
REF_IMPORT_S = 0.15
SAMPLE_EVERY_S = 0.02


def ref_loop_rate(n: int = 20_000) -> float:
    """Iterations per CPU second of a fixed pure-Python loop: the machine's current speed."""
    start = time.thread_time()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return n / max(time.thread_time() - start, 1e-9)


class Sampler(threading.Thread):
    """Times a short reference loop every 20 ms while CLI processes run.

    The machine's speed drifts by 20% within tens of seconds, and the
    drift is common to both cores, so a loop timed on the idle core while
    an operation runs tells how fast the machine was during it.  The loop
    is timed in thread CPU time, so being descheduled does not read as a
    slow machine.  It keeps about 2% of one core busy.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (wall time, rate)
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(SAMPLE_EVERY_S):
            t = time.perf_counter()
            self.samples.append((t, ref_loop_rate(5000)))

    def stop(self):
        self._halt.set()
        self.join()

    def speed(self, start: float, end: float) -> float:
        """Mean machine speed over [start, end], relative to REF_RATE."""
        inside = [r for t, r in self.samples if start <= t <= end]
        if not inside:  # an operation shorter than the sampling period
            inside = [min(self.samples, key=lambda s: abs(s[0] - end), default=(0.0, REF_RATE))[1]]
        return statistics.fmean(inside) / REF_RATE


class Result:
    """Outcome of one operation."""

    def __init__(self, rc: int, stdout: str, stderr: str, start: float, wall: float,
                 cpu: float = 0.0):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.start = start
        self.wall = wall
        self.cpu = cpu
        self.speed = 1.0  # machine speed during the operation, relative to REF_RATE
        self.report = None
        self.errors: list[str] = []  # disagreements with a reference
        self.fault = ""  # non-zero exit, traceback or unreadable output

    def parse(self) -> None:
        """Read the JSON report, or record why there is none."""
        if self.rc != 0 or "Traceback" in self.stderr:
            self.fault = f"exit {self.rc}: {self.stderr.strip()[-300:]}"
            return
        try:
            self.report = json.loads(self.stdout)
        except ValueError as e:
            self.fault = f"unreadable output: {e}"

    @property
    def failed(self) -> bool:
        return bool(self.fault or self.errors)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["LOGDEC_THREADS"] = "1"
    return env


def run_process(argv: list[str], env: dict, module: bool = True) -> Result:
    """Run `python -m logdec.cli argv` (or `python argv`) and time it."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *(["-m", "logdec.cli"] if module else []), *argv],
            capture_output=True, text=True, env=env, timeout=OP_TIMEOUT_S,
        )
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, out, err = -1, "", f"timed out after {OP_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Result(rc, out, err, start, wall, cpu)


def run_inprocess(main, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        rc = 1
        err.write(traceback.format_exc())
    return Result(rc, out.getvalue(), err.getvalue(), start, time.perf_counter() - start)


def check_pass(workload, results: list[Result], first: list[Result] | None) -> None:
    """Run every reference check on one pass; record mismatches on the results."""
    for op, res in zip(workload.ops, results):
        res.parse()
        if res.report is None:
            continue
        try:
            res.errors += op.check(res.report)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            res.errors.append(f"malformed report: {e!r}")
    if first is not None:
        for op, res, ref in zip(workload.ops, results, first):
            if res.report is not None and ref.report is not None and res.stdout != ref.stdout:
                res.errors.append(f"output of {' '.join(op.argv[:1])} differs between passes")
    reports = [r.report if not r.failed else None for r in results]
    for idx, errs in workload.pass_check(reports).items():
        results[idx].errors += errs


def tally(workload, passes: list[list[Result]]) -> dict:
    flat = [(op, r) for results in passes for op, r in zip(workload.ops, results)]
    errors = [e for _, r in flat for e in r.errors]
    faults = [r.fault for _, r in flat if r.fault]
    for msg in (errors + faults)[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(flat),
        "failed": sum(1 for _, r in flat if r.failed),
        "items": sum(op.items(r.report) for op, r in flat if not r.failed),
        "wall": sum(r.wall for _, r in flat),
        "cpu": sum(r.cpu for _, r in flat),
        "ref_wall": sum(r.wall * r.speed for _, r in flat),
        "ref_cpu": sum(r.cpu * r.speed for _, r in flat),
    }


def setup_launch(env: dict) -> float:
    """Seconds to start `logdec --version`, in reference seconds.

    Process start-up speed drifts by more than the reference loop shows
    (file mapping and page faults), so each launch is scaled by a launch
    of `python -c "import numpy"` made just before it.
    """
    ref = run_process(["-c", "import numpy"], env, module=False)
    res = run_process(["--version"], env)
    if res.rc != 0 or not res.stdout.startswith("logdec "):
        raise SystemExit(f"logdec --version failed: {res.stderr.strip()[-300:]}")
    return res.wall * REF_IMPORT_S / ref.wall


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seconds: float) -> dict:
    """Whole passes of CLI processes; times are scaled to reference seconds."""
    env = cli_env()
    sampler = Sampler()
    sampler.start()
    try:
        setup = [setup_launch(env) for _ in range(SETUP_LAUNCHES_PER_PASS)]
        passes: list[list[Result]] = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            results = [run_process(op.argv, env) for op in workload.ops]
            for r in results:
                r.speed = sampler.speed(r.start, r.start + r.wall)
            check_pass(workload, results, passes[0] if passes else None)
            passes.append(results)
            setup += [setup_launch(env) for _ in range(SETUP_LAUNCHES_PER_PASS)]
    finally:
        sampler.stop()
    t = tally(workload, passes)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    items = max(t["items"], 1)
    print(
        f"passes={len(passes)} ops={t['attempted']} items={t['items']} "
        f"wall_s={t['wall']:.3f} cpu_s={t['cpu']:.3f} ref_wall_s={t['ref_wall']:.3f} "
        f"unscaled_items_per_s={t['items'] / t['wall']:.4g} "
        f"host.ref_loop_per_s={statistics.median(r for _, r in sampler.samples):.4g}",
        file=sys.stderr,
    )
    t["metrics"] = {
        "items_per_s": metric(t["items"] / t["ref_wall"], "1/s"),
        "cpu_ms_per_item": metric(1000.0 * t["ref_cpu"] / items, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }
    return t


def run_traced(workload, workload_name: str, seed: int) -> dict:
    import logdec.cli
    import spans

    os.environ["LOGDEC_THREADS"] = "1"
    tracer = spans.Tracer()
    refs = []
    passes = []
    durations = []
    # Plain, traced, plain: the first plain pass also warms imports and
    # caches, so the overhead is taken against the second.
    for traced in (False, True, False):
        if traced:
            tracer.install()
        results = []
        for idx, op in enumerate(workload.ops):
            refs.append(ref_loop_rate())
            tracer.begin_op(idx)
            results.append(run_inprocess(logdec.cli.main, op.argv))
        tracer.uninstall()
        durations.append(sum(r.wall for r in results))
        check_pass(workload, results, passes[0] if passes else None)
        passes.append(results)
    t = tally(workload, passes)
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload_name}-{seed}.jsonl"))

    totals = tracer.layer_totals()

    def get(layer: str, key: str) -> float:
        return totals[layer][key] if layer in totals else 0.0

    parity = "parity.classify_parity"
    calls = get(parity, "calls")
    m = {
        "cli.main.s": metric(get("cli.main", "s"), "s"),
        "cli.main.self_s": metric(get("cli.main", "self_s"), "s"),
        "gates.canonical_classes.s": metric(get("gates.canonical_classes", "s"), "s"),
        "gates.classify_gate.calls": metric(get("gates.classify_gate", "calls"), "count"),
        "gates.classify_gate.self_s": metric(get("gates.classify_gate", "self_s"), "s"),
        f"{parity}.calls": metric(calls, "count"),
        f"{parity}.s": metric(get(parity, "s"), "s"),
        f"{parity}.undetermined": metric(get(parity, "undetermined"), "count"),
        f"{parity}.decided_ratio": metric(get(parity, "decided") / calls if calls else 0.0, "ratio"),
        f"{parity}.repeat_share": metric(get(parity, "repeats") / calls if calls else 0.0, "ratio"),
        "parity.sign_survey.s": metric(get("parity.sign_survey", "s"), "s"),
        "parity.sign_survey.samples": metric(get("parity.sign_survey", "samples"), "count"),
    }
    for layer, keys in (
        ("parity.witness_distributions", ("calls", "s")),
        ("measure.mu_atom", ("calls", "s")),
        ("measure.mu_table", ("calls", "s")),
        ("measure.mu_ideal", ("calls", "s")),
        ("contents.coinformation_content", ("calls", "s")),
        ("contents.coinformation_numeric", ("s",)),
        ("contents.content", ("s",)),
        ("ideals.Ideal.intersection", ("calls", "s")),
        ("ideals.Ideal.enumerate", ("s",)),
    ):
        for key in keys:
            m[f"{layer}.{key}"] = metric(get(layer, key), "count" if key == "calls" else "s")
    m["host.ref_loop_per_s"] = metric(statistics.median(refs), "1/s")
    m["trace.untraced_pass_s"] = metric(durations[2], "s")
    m["trace.traced_pass_s"] = metric(durations[1], "s")
    m["trace.overhead_share"] = metric(durations[1] / durations[2] - 1.0, "ratio")
    t["metrics"] = m
    return t


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "logdec", "cli.py")):
        print("no logdec source under src/: run from the root of a logdec checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            t = run_traced(workload, args.workload, args.seed)
        else:
            t = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {k: t[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
