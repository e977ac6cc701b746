"""Outside-in span recorder for the traced runs.

The recorder wraps public functions of the fockbox modules from here, in the
benchmark's own files, and rebinds every name that points at the original,
including the copies sibling modules took with ``from .x import y``.  A span
is (id, parent id, name, start, end); the parent is the span open when the
call began, so a layer's self time is its duration minus the time its child
spans cover.  Spans stay in memory and are written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced layer entry point.
TARGETS = (
    ("fockbox.fockspace", "displacement_block"),
    ("fockbox.fockspace", "expectation"),
    ("fockbox.ladderalg", "realize"),
    ("fockbox.model", "build_H"),
    ("fockbox.displace", "displacement"),
    ("fockbox.displace", "Displacement.apply"),
    ("fockbox.displace", "InterchangeChecker.__init__"),
    ("fockbox.displace", "InterchangeChecker.run"),
    ("fockbox.displace", "check_ladder_shifts"),
    ("fockbox.displace", "check_free_hamiltonian_shift"),
    ("fockbox.displace", "check_field_shift"),
    ("fockbox.displace", "check_unitarity"),
    ("fockbox.displace", "check_composition"),
    ("fockbox.coeffs", "reference_state"),
    ("fockbox.coeffs", "coefficients"),
    ("fockbox.coeffs", "central_identity_checks"),
    ("fockbox.probe", "run_verification"),
    ("fockbox.probe", "run_sweep"),
    ("fockbox.probe", "write_report_csv"),
    ("fockbox.probe", "write_coefficients_csv"),
    ("fockbox.probe", "write_sweep_csv"),
)

CHECK_FAMILIES = (
    "check_ladder_shifts",
    "check_free_hamiltonian_shift",
    "check_field_shift",
    "check_unitarity",
    "check_composition",
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr}"


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count()
        self._open: list[list] = []  # [id, name, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.block_keys: set = set()
        self.order_cubed_sum = 0
        self.failed: dict[str, int] = defaultdict(int)
        self.joint_dim = 0
        self.bytes_written: dict[str, int] = defaultdict(int)

    def _observe(self, name: str, bind, result) -> None:
        """Counts taken where the work happens, from arguments and results."""
        short = name.split(".", 1)[1]
        if short == "displacement_block":
            args = bind()
            cutoff = args["cutoff"]
            self.block_keys.add((cutoff, args["amplitude"]))
            self.order_cubed_sum += (cutoff + 1) ** 3
        elif short in CHECK_FAMILIES:
            checks = result if isinstance(result, list) else [result]
            self.failed[name] += sum(1 for c in checks if not c.passed)
        elif short == "build_H":
            self.joint_dim = max(self.joint_dim, result.layout.dimension)
        elif short.startswith("write_") and short.endswith("_csv"):
            self.bytes_written[name] += os.path.getsize(bind()["path"])

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, name, time.perf_counter(), 0.0]
            self._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                duration = end - frame[2]
                self.spans.append((span_id, parent, name, frame[2], end))
                self.self_s[name] += duration - frame[3]
                self.calls[name] += 1
                if self._open:
                    self._open[-1][3] += duration
            self._observe(name, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind each fockbox name bound to it."""
        import fockbox  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "fockbox" or n.startswith("fockbox.")]
        for module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            traced = self.wrap(span_name(module_name, attr), original)
            setattr(owner, leaf, traced)
            if not path:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)

    def metrics(self) -> dict[str, float]:
        """calls and self_s for every target plus the per-layer extras."""
        out: dict[str, float] = {}
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            short = name.split(".", 1)[1]
            if short in CHECK_FAMILIES:
                out[f"{name}.failed"] = self.failed[name]
            elif short.startswith("write_"):
                out[f"{name}.bytes"] = self.bytes_written[name]
        calls = self.calls["fockspace.displacement_block"]
        out["fockspace.displacement_block.distinct"] = len(self.block_keys)
        out["fockspace.displacement_block.useful_ratio"] = len(self.block_keys) / calls if calls else 0.0
        out["fockspace.displacement_block.order_cubed_sum"] = self.order_cubed_sum
        out["model.build_H.joint_dim"] = self.joint_dim
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}, fh
            )
