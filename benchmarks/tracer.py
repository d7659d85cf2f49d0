"""Span tracer for the benchmark's traced run.

The tracer wraps calls into each lmmss layer from the benchmark's own code.
While it is installed, a shim replaces a module or class attribute, and every
alias of that attribute inside the ``lmmss`` package, so that calls made
through ``from .x import f`` are seen too.  Each call opens a span on a stack;
when the span closes, its duration is added to the caller's child time, which
makes ``self = duration - time covered by child spans`` exact.  Per span name
the tracer aggregates calls, busy (inclusive, outermost call only) time, self
time, calls that raised, and the dense factorizations made while the span was
open.

Dense factorization entry points of ``numpy.linalg`` and ``scipy.linalg`` are
wrapped as counters, not spans.  ``numpy.linalg.norm(A, 2)`` reaches ``svd``
through the module globals of ``numpy.linalg._linalg``, so that binding is
wrapped as well.  A factorization called from inside another one (``pinv``
calling ``svd``) counts once.

A target that does not exist at the traced commit is listed in ``absent`` and
reports zero calls.  The tracer assumes one thread: spans opened on another
thread would corrupt the stack.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: Dense factorizations counted per span.  Both libraries are listed so that
#: moving a factorization from one to the other does not change the count.
#: Banded and triangular solves (``solveh_banded``, ``solve_triangular``) are
#: O(n) or O(n^2) and excluded.
FACTORIZATIONS = {
    "numpy.linalg": (
        "svd", "svdvals", "qr", "eig", "eigh", "eigvals", "eigvalsh", "cholesky",
        "lstsq", "inv", "pinv", "solve", "det", "slogdet", "matrix_rank",
    ),
    "scipy.linalg": (
        "svd", "svdvals", "qr", "rq", "eig", "eigh", "eigvals", "eigvalsh",
        "cholesky", "cho_factor", "lu", "lu_factor", "lstsq", "inv", "pinv",
        "solve", "schur", "null_space", "orth",
    ),
}

#: Modules whose globals the public numpy.linalg functions call each other through.
_NUMPY_INTERNAL = ("numpy.linalg._linalg", "numpy.linalg.linalg")


@dataclass(frozen=True)
class Target:
    """A wrapped callable.

    ``name`` is the span name, ``"<module>.<function>"``; ``module`` and
    ``attr`` locate the callable (``attr`` may be ``"Class.method"``).
    ``observe(counters, fn, args, kwargs, result)`` runs after each call that
    returned, to count outcomes read from the result.
    """

    name: str
    module: str
    attr: str
    observe: Callable | None = None


@dataclass
class SpanStats:
    calls: int = 0
    fail: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    factorizations: int = 0


class Tracer:
    """Aggregating span tracer; use ``with tracer.active(): ...`` around a pass."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [name, child_seconds]
        self._depth: Counter = Counter()
        self._fact_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self):
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self):
        self.absent = []
        for target in self.targets:
            found = _resolve(target.module, target.attr)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, attr, original = found
            self._patch_aliases(owner, attr, original, self._span(target, original))
        for module_name, names in FACTORIZATIONS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._factorization(original)
                self._patch(module, attr, wrapper)
                if module_name == "numpy.linalg":
                    for internal in _NUMPY_INTERNAL:
                        inner = sys.modules.get(internal)
                        if inner is not None and getattr(inner, attr, None) is original:
                            self._patch(inner, attr, wrapper)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_aliases(self, owner, attr, original, wrapper):
        self._patch(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "lmmss" or name.startswith("lmmss.")):
                continue
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def _span(self, target: Target, fn):
        name = target.name
        stats = self.stats[name]
        stack, depth, counters = self._stack, self._depth, self.counters
        observe = target.observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = depth[name] == 0
            depth[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if outermost:
                    stats.busy_s += duration
                if raised:
                    stats.fail += 1
            if observe is not None:
                observe(counters, fn, args, kwargs, result)
            return result

        return wrapper

    def _factorization(self, fn):
        stack, all_stats = self._stack, self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._fact_depth == 0:
                self.counters["factorizations"] += 1
                for name in {frame[0] for frame in stack}:
                    all_stats[name].factorizations += 1
            self._fact_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._fact_depth -= 1

        return wrapper


def _resolve(module_name: str, attr: str):
    """Return (owner, attribute, callable) or None when any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, last, None)
    if not callable(value):
        return None
    return owner, last, value
