"""Span recording for the traced run, installed from outside the library.

A :class:`Boundary` names one public entry point of a layer.  Installing
it replaces the function on its defining module or class and on every
``repro`` module that imported the name, with a wrapper that records one
span per call: name, start, end, parent span and the id of the request
or solve in flight.  Spans stay in memory; :func:`write_spans` writes them
out when the run ends.  Uninstalling puts the original objects back, and
:func:`assert_untraced` proves that no wrapper is left.

A span's self time is its duration minus the time its direct children
cover.  Calls are synchronous on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Attribute that marks a wrapper, so a leftover one can be detected.
MARK = "__perfbench_span__"

#: ``hook(store, args, kwargs, result)`` adds counts after a call returns.
Hook = Callable[["SpanStore", tuple, dict, object], None]


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``"module:attr"`` or ``"module:Class.attr"``."""

    span: str
    target: str
    hook: Optional[Hook] = None

    def owner_and_attr(self):
        module_name, path = self.target.split(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        return owner, attr


class SpanStore:
    """Spans and counts of one traced pass, in parallel lists."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        #: True when a span of the same name was already open (recursion).
        self.nested: List[bool] = []
        self.counts: Dict[str, float] = {}
        self.op_id = -1
        self._stack: List[int] = []
        self._open_names: Dict[int, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        depth = self._open_names.get(name_id, 0)
        self.nested.append(depth > 0)
        self._open_names[name_id] = depth + 1
        self._stack.append(index)
        self.end.append(float("nan"))
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()
        self._open_names[self.name[index]] -= 1

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def __len__(self) -> int:
        return len(self.name)


def _wrap(original, boundary: Boundary, store: SpanStore):
    name_id = store.intern(boundary.span)
    hook = boundary.hook

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = store.open(name_id)
        try:
            result = original(*args, **kwargs)
        finally:
            store.close(index)
        if hook is not None:
            hook(store, args, kwargs, result)
        return result

    setattr(wrapper, MARK, boundary.span)
    return wrapper


def _bindings(owner, attr: str, original) -> List[Tuple[object, str]]:
    """Every place the original is bound: its owner and importing modules."""
    places = [(owner, attr)]
    for module_name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                places.append((module, name))
    return places


@contextmanager
def traced(boundaries: Sequence[Boundary], store: SpanStore) -> Iterator[SpanStore]:
    """Wrap every boundary for the duration of the block."""
    patches: List[Tuple[object, str, object]] = []
    try:
        for boundary in boundaries:
            owner, attr = boundary.owner_and_attr()
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = _wrap(original, boundary, store)
            for holder, name in _bindings(owner, attr, original):
                patches.append((holder, name, original))
                setattr(holder, name, wrapper)
        yield store
    finally:
        for holder, name, original in reversed(patches):
            setattr(holder, name, original)


def assert_untraced(boundaries: Sequence[Boundary]) -> int:
    """Raise unless no wrapper is left anywhere; returns bindings checked.

    Checks each boundary's owner and every attribute of every loaded
    ``repro`` module, so a module that imported a wrapper while tracing
    was on is caught too.
    """
    holders = [boundary.owner_and_attr()[0] for boundary in boundaries]
    holders += [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    checked = 0
    for holder in holders:
        for name, value in list(vars(holder).items()):
            if hasattr(value, MARK):
                raise RuntimeError(f"{holder!r}.{name} is still a span wrapper")
            checked += 1
    return checked


@dataclass(frozen=True)
class LayerTime:
    calls: int
    inclusive_s: float
    self_s: float


def layer_times(store: SpanStore) -> Dict[str, LayerTime]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a recursion, so a
    layer that calls itself is not counted twice.
    """
    if not len(store):
        return {}
    name = np.asarray(store.name, dtype=np.int64)
    duration = np.asarray(store.end) - np.asarray(store.start)
    parent = np.asarray(store.parent, dtype=np.int64)
    nested = np.asarray(store.nested, dtype=bool)
    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_s = duration - covered
    k = len(store.names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=np.where(nested, 0.0, duration), minlength=k)
    own = np.bincount(name, weights=self_s, minlength=k)
    return {
        store.names[i]: LayerTime(int(calls[i]), float(incl[i]), float(own[i]))
        for i in range(k)
    }


def write_spans(store: SpanStore, path) -> None:
    """Write every span of the store as gzip-compressed JSON columns."""
    payload = {
        "names": store.names,
        "columns": ["name", "start", "end", "parent", "op"],
        "name": store.name,
        "start": store.start,
        "end": store.end,
        "parent": store.parent,
        "op": store.op,
    }
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)
