"""In-memory spans around logdec's layer functions, for the traced run.

The tracer replaces each layer function by a wrapper in every loaded
logdec module that binds it, so calls between modules go through the
wrapper.  A span is (name, start, end, parent span, operation id, info).
Spans stay in memory until the run writes them out; per-layer calls,
total time and self time are derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function, and its span name.
LAYERS = (
    ("logdec.cli", "main", "cli.main"),
    ("logdec.gates", "canonical_classes", "gates.canonical_classes"),
    ("logdec.gates", "classify_gate", "gates.classify_gate"),
    ("logdec.parity", "classify_parity", "parity.classify_parity"),
    ("logdec.parity", "sign_survey", "parity.sign_survey"),
    ("logdec.parity", "witness_distributions", "parity.witness_distributions"),
    ("logdec.measure", "mu_atom", "measure.mu_atom"),
    ("logdec.measure", "mu_table", "measure.mu_table"),
    ("logdec.measure", "mu_ideal", "measure.mu_ideal"),
    ("logdec.contents", "coinformation_content", "contents.coinformation_content"),
    ("logdec.contents", "coinformation_numeric", "contents.coinformation_numeric"),
    ("logdec.contents", "content", "contents.content"),
    ("logdec.ideals", "Ideal.intersection", "ideals.Ideal.intersection"),
    ("logdec.ideals", "Ideal.enumerate", "ideals.Ideal.enumerate"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._parity_keys: set = set()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._parity_keys = set()

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = info(args, kwargs, result) if info and result is not None else None
                self.spans[idx] = (name, start, end, parent, self.op_id, extra)

        return wrapper

    def _parity_info(self, fn):
        sig = inspect.signature(fn)

        def info(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (bound.arguments["ideal"].generators, bound.arguments["budget"])
            repeat = key in self._parity_keys
            self._parity_keys.add(key)
            return {"tag": result.tag, "repeat": repeat}

        return info

    @staticmethod
    def _survey_info(fn):
        sig = inspect.signature(fn)
        return lambda args, kwargs, result: {"samples": sig.bind(*args, **kwargs).arguments["samples"]}

    def install(self) -> None:
        """Wrap every layer function wherever a logdec module binds it.

        A layer a later version of logdec no longer has is skipped, and its
        metrics read zero.
        """
        for module_name, attr, name in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                continue
            info = None
            if name == "parity.classify_parity":
                info = self._parity_info(fn)
            elif name == "parity.sign_survey":
                info = self._survey_info(fn)
            wrapper = self._wrap(name, fn, info)
            targets = [owner] if owner_name else [
                m for key, m in sys.modules.items()
                if key == "logdec" or key.startswith("logdec.")
            ]
            for target in targets:
                if vars(target).get(fn_name) is fn:
                    self._patches.append((target, fn_name, fn))
                    setattr(target, fn_name, wrapper)

    def uninstall(self) -> None:
        for target, fn_name, fn in reversed(self._patches):
            setattr(target, fn_name, fn)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _, _, extra) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[idx]
            if extra:
                if "tag" in extra:
                    t["undetermined"] += extra["tag"] == "Undetermined"
                    t["decided"] += extra["tag"] != "Undetermined"
                    t["repeats"] += extra["repeat"]
                if "samples" in extra:
                    t["samples"] += extra["samples"]
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
