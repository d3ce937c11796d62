"""Outside-in span tracing: wrap a layer's entry points, account self time.

A *target* names one callable of the program (``module:Class.method`` or
``module:function``) and the layer it belongs to. :meth:`SpanRecorder.install`
replaces each target, and every other module attribute bound to the same
function object (``from .onion import peel`` leaves a second reference in
the importing module), with a wrapper that opens a span around the call.
:meth:`SpanRecorder.remove` puts the original objects back.

Accounting is online: per target the recorder keeps the call count, the
total (inclusive) time and the *self* time — the span minus the time its
child spans cover — so the self times of all targets add up to the time
spent inside outermost spans. Code that is not wrapped is charged to the
nearest wrapped caller. Full span trees (name, start, end, parent) are
kept only for one in ``sample_every`` *root* spans (and at most
``max_tree_spans`` spans each) and written as JSONL by
:meth:`write_trees`.

Wrappers must be installed before the program binds its callbacks
(``transport.attach(node_id, node.on_message)`` captures the function it
finds at that moment), and only synchronous callables can be targets: a
coroutine function returns before its body runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "SpanRecorder"]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point."""

    layer: str
    path: str  # "package.module:Class.attr" or "package.module:function"
    #: Root spans are the sampling unit for full trees (one engine event,
    #: one received frame, one shard-epoch cell).
    root: bool = False
    #: Positional argument whose ``len()`` is summed into ``units``.
    sized_arg: "Optional[int]" = None
    #: Sum the return value ("value") or its length ("len") instead.
    sized_result: "Optional[str]" = None

    @property
    def entry(self) -> str:
        return self.path.split(":", 1)[1]


def _resolve(path: str) -> "Tuple[Any, str, Any]":
    """(owner object, attribute name, current value) of a target path."""
    module_name, attr_path = path.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    # vars() sees the raw staticmethod/function object; getattr would
    # hand back an unwrapped or bound view of it.
    raw = vars(owner).get(parts[-1])
    if raw is None:
        raise AttributeError(f"{path}: {owner!r} defines no {parts[-1]!r}")
    return owner, parts[-1], raw


class SpanRecorder:
    """Installs span wrappers and accumulates the per-target ledger."""

    def __init__(self, sample_every: int = 1000, max_tree_spans: int = 2000) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self.sample_every = sample_every
        #: A sampled root that opens more spans than this (a whole
        #: shard-epoch cell holds hundreds of thousands) keeps only the
        #: first ``max_tree_spans``; the ledger still counts all of them.
        self.max_tree_spans = max_tree_spans
        self.targets: "List[Target]" = []
        self.calls: "List[int]" = []
        self.total: "List[float]" = []
        self.self_time: "List[float]" = []
        self.units: "List[int]" = []
        #: Calls that left through an exception (a failed trial unseal).
        self.raised: "List[int]" = []
        #: Seconds spent inside outermost spans.
        self.outer = [0.0]
        #: One float per open span: time covered by its children so far.
        self._stack: "List[float]" = []
        self._roots_seen = [0]
        #: The tree being recorded, or None; rows are
        #: [target index, start, end, parent row or -1].
        self._tree: "List[Optional[List[list]]]" = [None]
        self._tree_parent = [-1]
        self.trees: "List[List[list]]" = []
        self._installed: "List[Tuple[Any, str, Any]]" = []

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn: "Callable", target: Target) -> "Callable":
        """A span-opening wrapper around ``fn`` (also usable on its own,
        which is how the self-tests build synthetic span nests)."""
        index = len(self.targets)
        self.targets.append(target)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.units.append(0)
        self.raised.append(0)

        stack, outer = self._stack, self.outer
        calls, total, self_time, units = self.calls, self.total, self.self_time, self.units
        raised = self.raised
        tree_box, parent_box, roots_seen = self._tree, self._tree_parent, self._roots_seen
        trees, sample_every, max_tree_spans = self.trees, self.sample_every, self.max_tree_spans
        clock = time.perf_counter
        is_root, sized_arg, sized_result = target.root, target.sized_arg, target.sized_result

        def span(*args, **kwargs):
            tree = tree_box[0]
            opened_tree = False
            if tree is None and is_root:
                roots_seen[0] += 1
                if roots_seen[0] % sample_every == 1 or sample_every == 1:
                    tree = tree_box[0] = []
                    opened_tree = True
            if tree is not None and len(tree) >= max_tree_spans:
                tree = None
            if tree is not None:
                row = len(tree)
                tree.append([index, 0.0, 0.0, parent_box[0]])
                previous_parent = parent_box[0]
                parent_box[0] = row
            stack.append(0.0)
            returned = False
            started = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                ended = clock()
                if not returned:
                    raised[index] += 1
                elif sized_result == "value":
                    units[index] += result
                elif sized_result == "len":
                    units[index] += len(result)
                elif sized_arg is not None and len(args) > sized_arg:
                    units[index] += len(args[sized_arg])
                duration = ended - started
                children = stack.pop()
                calls[index] += 1
                total[index] += duration
                self_time[index] += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    outer[0] += duration
                if tree is not None:
                    tree[row][1] = started
                    tree[row][2] = ended
                    parent_box[0] = previous_parent
                    if opened_tree:
                        trees.append(tree)
                        tree_box[0] = None

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span

    def install(self, targets: "List[Target]") -> None:
        """Replace every target, at its definition and at every module
        that imported it by name, with its span wrapper."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for target in targets:
            owner, name, raw = _resolve(target.path)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = self.wrap(raw.__func__, target)
                self._replace(owner, name, raw, type(raw)(wrapper))
                continue
            wrapper = self.wrap(raw, target)
            self._replace(owner, name, raw, wrapper)
            if not isinstance(owner, type):
                # A module-level function: find the by-name imports.
                for module in list(sys.modules.values()):
                    if module is None or module is owner:
                        continue
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for other_name, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, other_name, raw, wrapper)

    def _replace(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def remove(self) -> None:
        """Put every original object back (identity, not equality)."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def reset(self) -> None:
        """Zero the ledger and drop sampled trees; wrappers stay installed.
        Only valid between outermost spans."""
        if self._stack:
            raise RuntimeError("cannot reset the ledger inside an open span")
        for column in (self.calls, self.units, self.raised):
            column[:] = [0] * len(column)
        for column in (self.total, self.self_time):
            column[:] = [0.0] * len(column)
        self.outer[0] = 0.0
        self._roots_seen[0] = 0
        del self.trees[:]

    # -- reading -----------------------------------------------------------
    def ledger(self) -> "Dict[str, Dict[str, Dict[str, float]]]":
        """layer -> entry -> {calls, raised, total_s, self_s, units}."""
        table: "Dict[str, Dict[str, Dict[str, float]]]" = {}
        for index, target in enumerate(self.targets):
            row = table.setdefault(target.layer, {}).setdefault(
                target.entry, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0, "units": 0}
            )
            row["calls"] += self.calls[index]
            row["raised"] += self.raised[index]
            row["total_s"] += self.total[index]
            row["self_s"] += self.self_time[index]
            row["units"] += self.units[index]
        return table

    def write_trees(self, path: str) -> int:
        """One JSON line per span of every sampled tree; returns the
        number of spans written. ``trace`` numbers the tree, ``span`` and
        ``parent`` are row numbers within it (-1: the root)."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for trace_id, tree in enumerate(self.trees):
                for row, (index, started, ended, parent) in enumerate(tree):
                    target = self.targets[index]
                    fh.write(
                        json.dumps(
                            {
                                "trace": trace_id,
                                "span": row,
                                "parent": parent,
                                "layer": target.layer,
                                "name": target.entry,
                                "start": started,
                                "end": ended,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written
