"""Span tracing around decosim's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper:
on its defining module or class, and on every ``decosim`` module that
bound the same object with ``from ... import`` (``decosim.cli`` binds
``evolve``, ``unravel``, ``write_csv``; ``decosim.pointer`` binds
``evolve``).  ``uninstall`` puts the originals back.

Calls are only recorded inside an open root span (``Tracer.root``) and on
the thread that installed the tracer; the trajectory worker threads call
no traced function.  Each layer-entry call becomes a span with its parent.
Hot calls (generator ``rhs``, ``DensityMatrix`` validation, ``entropy``)
are folded into a call count and self time per root span, so memory stays
bounded however many steps an op takes.  Counters on private step
functions count work without timing it, so they leave the self time of
their caller intact.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute path, hot).  The metric name is the module path
# without the package prefix, plus the attribute path.
TRACED = (
    ("decosim.cli", "main", False),
    ("decosim.serialize", "write_csv", False),
    ("decosim.serialize", "write_coordinate_matrix", False),
    ("decosim.serialize", "write_json", False),
    ("decosim.dynamics", "unravel", False),
    ("decosim.dynamics", "evolve", False),
    ("decosim.dynamics", "LindbladSpec.rhs", True),
    ("decosim.core", "DensityMatrix.__post_init__", True),
    ("decosim.core", "entropy", True),
    ("decosim.models.qbm", "CaldeiraLeggettGenerator.rhs", True),
    ("decosim.models.qbm", "wigner_from_fock", False),
    ("decosim.baths", "spin_boson_coefficients", False),
    ("decosim.baths", "bath_kernels", False),
    ("decosim.models.spinboson", "spin_boson_exact_dephasing", False),
    ("decosim.models.spinboson", "SpinBosonBornMarkovGenerator.rhs", True),
    ("decosim.models.collisional", "localization_rate", False),
    ("decosim.models.spinspin", "spin_spin_exact", False),
    ("decosim.pointer", "predictability_sieve", False),
    ("decosim.pointer", "collective_dfs", False),
)

# private per-step functions whose calls are counted, not timed
COUNTED = (
    ("decosim.dynamics", "_rk4_step", "dynamics.evolve.rk4_steps"),
    ("decosim.models.spinboson", "_mode_coherence", "models.spinboson.mode_solves"),
)

WRITERS = {"serialize.write_csv", "serialize.write_coordinate_matrix", "serialize.write_json"}


def metric_name(module: str, attr: str) -> str:
    name = module.split(".", 1)[1] + "." + attr
    return name.removesuffix(".__post_init__")


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float
    self_s: float


class _Frame:
    __slots__ = ("id", "start", "child_s")

    def __init__(self, span_id: int, start: float):
        self.id, self.start, self.child_s = span_id, start, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.roots: dict[int, str] = {}  # root span id -> kind
        self.hot: dict[tuple[int, str], list[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def root(self, kind: str):
        """Open a root span; traced calls inside it become its descendants."""
        frame = _Frame(self._new_id(), time.perf_counter())
        self.roots[frame.id] = kind
        self._stack.append(frame)
        try:
            yield frame.id
        finally:
            self._stack.pop()
            end = time.perf_counter()
            self.spans.append(
                Span(frame.id, None, frame.id, kind, frame.start, end,
                     end - frame.start - frame.child_s)
            )

    def _active(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    def _count(self, name: str, amount: float) -> None:
        self.counts[(self._stack[0].id, name)] += amount

    def _wrap(self, fn, name: str, hot: bool):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = _Frame(0 if hot else tracer._new_id(), time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                duration = end - frame.start
                stack[-1].child_s += duration
                self_s = duration - frame.child_s
                if hot:
                    entry = tracer.hot[(stack[0].id, name)]
                    entry[0] += 1
                    entry[1] += self_s
                else:
                    tracer.spans.append(
                        Span(frame.id, stack[-1].id, stack[0].id, name,
                             frame.start, end, self_s)
                    )
            tracer._after(name, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str, args, kwargs) -> None:
        if name in WRITERS:
            path = args[0] if args else kwargs["path"]
            self._count("serialize.bytes_written", os.path.getsize(path))
        elif name == "dynamics.unravel":
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            self._count("dynamics.unravel.traj_steps", cfg.n_trajectories * cfg.n_steps)

    def _counter(self, fn, name: str):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._active():
                tracer._count(name, 1)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "decosim" or mod_name.startswith("decosim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, path, hot in TRACED:
            name = metric_name(module_name, path)
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name, hot)
            if outer:  # a method: patch the class that every instance shares
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        for module_name, attr, name in COUNTED:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._replace_everywhere(original, self._counter(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting

    def root_ids(self, kind: str) -> set[int]:
        return {span_id for span_id, k in self.roots.items() if k == kind}

    def totals(self, roots: set[int]) -> dict[str, dict[str, float]]:
        """Calls, self time, and duration per traced name over the given roots."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "duration_s": 0.0}
        )
        for span in self.spans:
            if span.root in roots and span.parent is not None:
                entry = out[span.name]
                entry["calls"] += 1
                entry["self_s"] += span.self_s
                entry["duration_s"] += span.end - span.start
        for (root, name), (calls, self_s) in self.hot.items():
            if root in roots:
                entry = out[name]
                entry["calls"] += calls
                entry["self_s"] += self_s
                entry["duration_s"] += self_s
        return out

    def counted(self, roots: set[int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (root, name), amount in self.counts.items():
            if root in roots:
                out[name] += amount
        return out

    def dump(self, path: str) -> None:
        payload = {
            "roots": {str(k): v for k, v in self.roots.items()},
            "spans": [asdict(s) for s in self.spans],
            "hot": [
                {"root": root, "name": name, "calls": calls, "self_s": self_s}
                for (root, name), (calls, self_s) in self.hot.items()
            ],
            "counts": [
                {"root": root, "name": name, "amount": amount}
                for (root, name), amount in self.counts.items()
            ],
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
