"""In-memory call tracer for the public functions of the axial modules.

The tracer replaces every binding of a traced function object across the
loaded ``axial`` modules by one wrapper, because modules import functions by
name (``search`` and ``axet`` hold their own references to ``buchberger``,
``check_axis`` and others).  Methods are wrapped on their class, under every
name the class binds them to (``MPoly.__rmul__`` is ``MPoly.__mul__``).

Each call records a span (name, parent span, start, end).  Spans stay in
memory until ``collect`` folds them into per-name call counts and self time,
where self time is a span's duration minus the durations of its child spans.
``uninstall`` puts every original binding back, so untraced runs measure the
unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced callable.

    `module` is importable; `path` is the attribute chain from it to the
    callable, e.g. ``kernels.normal_form`` on ``axial._backend`` or
    ``Algebra.product`` on ``axial.algebra``.  `observe(args, result)`, when
    given, returns a number added to the name's tally after each call that
    returns.
    """

    name: str
    module: str
    path: str
    observe: Optional[Callable[[tuple, object], float]] = None


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    tally: float = 0.0


def _axial_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "axial" or name.startswith("axial."))
    ]


class Tracer:
    """Wraps the targets on `install` and restores them on `uninstall`."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        self.spans: list[tuple[int, int, float, float]] = []
        self.tallies = [0.0] * len(self.targets)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for index, target in enumerate(self.targets):
                self._install_one(index, target)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_one(self, index: int, target: Target):
        owner = importlib.import_module(target.module)
        *chain, attr = target.path.split(".")
        for part in chain:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(index, target, raw.__func__))
            else:
                replacement = self._wrap(index, target, raw)
            bindings = [(owner, key) for key, value in vars(owner).items() if value is raw]
        else:
            raw = getattr(owner, attr)
            replacement = self._wrap(index, target, raw)
            bindings = [
                (module, key)
                for module in _axial_modules()
                for key, value in vars(module).items()
                if value is raw
            ]
        if not bindings:
            raise LookupError(f"no binding found for {target.module}:{target.path}")
        for holder, key in bindings:
            self._patches.append((holder, key, raw))
            setattr(holder, key, replacement)

    def _wrap(self, index: int, target: Target, fn):
        spans = self.spans
        stack = self._stack
        tallies = self.tallies
        observe = target.observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append((index, -1, 0.0, 0.0))
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, parent, start, end)
            if observe is not None:
                tallies[index] += observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def collect(self) -> dict[str, LayerStats]:
        """Fold the recorded spans into per-name stats and start afresh."""
        child = [0.0] * len(self.spans)
        for index, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: LayerStats() for name in self.names}
        for slot, (index, _parent, start, end) in enumerate(self.spans):
            entry = stats[self.names[index]]
            entry.calls += 1
            entry.self_s += end - start - child[slot]
        for index, name in enumerate(self.names):
            stats[name].tally = self.tallies[index]
            self.tallies[index] = 0.0
        self.spans.clear()
        return stats
