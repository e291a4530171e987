"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``installed()`` wraps the
public functions named in SPANS and rebinds each wrapper in every loaded
``mqa_lab`` module namespace (and module-level dict) that holds the
original, then restores the originals on exit.  A target that does not
exist in the code under test is skipped, so its span reports 0 calls.

Each span keeps its name, start, end and parent.  Spans live in memory
until ``write``.  Self time is a span's duration minus the time its direct
children cover; calls are strictly nested because the program is
single-threaded and synchronous.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "mqa_lab"


def _cache_bytes(args, cache) -> int:
    return cache.keys.nbytes + cache.values.nbytes


def _array_bytes(args, array) -> int:
    return array.nbytes


def _dir_bytes(args, result) -> int:
    return sum(f.stat().st_size for f in Path(args[0]).rglob("*") if f.is_file())


# span name -> (targets as (module, attribute), bytes of one call or None).
# Bytes are computed from what a call returns or leaves on disk, not
# measured from memory traffic.
SPANS = {
    "decoding.encode_source": ((("decoding", "encode_source"),), None),
    "decoding.start_state": ((("decoding", "start_state"),), None),
    "decoding.decoder_step": ((("decoding", "decoder_step"),), None),
    "decoding.decode": ((("decoding", "decode"),), None),
    "attention.self_step": ((("attention", "multihead_self_attention_incremental"),
                             ("attention", "multiquery_self_attention_incremental")),
                            None),
    "attention.attend_cache": ((("attention", "attend_cache"),), None),
    "tensor.contract": ((("tensor", "contract"),), None),
    "tensor.masked_softmax": ((("tensor", "masked_softmax"),), None),
    "tensor.concat_last_but_one": ((("tensor", "concat_last_but_one"),),
                                   _array_bytes),
    "cache.append": ((("cache", "append"),),
                     _cache_bytes),
    "cache.select_rows": ((("cache", "select_rows"),),
                          _cache_bytes),
    "model.layer_norm": ((("model", "layer_norm"),), None),
    "model.feed_forward": ((("model", "feed_forward"),), None),
    "model.attention_forward": ((("model", "attention_forward"),), None),
    "model.attention_backward": ((("model", "attention_backward"),), None),
    "model.layer_norm_bwd": ((("model", "layer_norm_bwd"),), None),
    "model.feed_forward_bwd": ((("model", "feed_forward_bwd"),), None),
    "model.loss_and_grads": ((("model", "loss_and_grads"),), None),
    "training.adam_update": ((("training", "adam_update"),), None),
    "training.make_task_batch": ((("training", "make_task_batch"),), None),
    "training.teacher_forced_accuracy": ((("training", "teacher_forced_accuracy"),),
                                         None),
    "training.train": ((("training", "train"),), None),
    "checkpoint.save_checkpoint": ((("checkpoint", "save_checkpoint"),),
                                   _dir_bytes),
    "checkpoint.load_checkpoint": ((("checkpoint", "load_checkpoint"),),
                                   _dir_bytes),
}

# Spans that run during set-up rather than inside a timed operation; their
# per-layer figures are per set-up.
SETUP_SPANS = frozenset({"checkpoint.load_checkpoint"})


class Tracer:
    """In-memory span store.  Spans are recorded only inside ``region``;
    each region belongs to one operation, keyed (phase, kind, index)."""

    def __init__(self, spans=SPANS):
        self.spans_spec = spans
        self.records: list[tuple] = []
        self._key: tuple | None = None
        self._stack: list[list] = []

    @contextlib.contextmanager
    def region(self, phase: str, kind: str, index: int):
        """Attribute every span recorded inside to operation
        (phase, kind, index); several regions may share one operation."""
        self._key = (phase, kind, index)
        try:
            yield
        finally:
            self._key = None

    def _wrap(self, name: str, fn, sizer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = self._key
            if key is None:
                return fn(*args, **kwargs)
            slot = len(self.records)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [slot, 0]
            self.records.append(None)
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.records[slot] = (name, key, start, end, parent,
                                      end - start - frame[1], 0)
            if sizer is not None:
                self.records[slot] = self.records[slot][:6] + (int(sizer(args, result)),)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded mqa_lab namespace;
        restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        swaps = []  # (namespace dict, key, original)
        for name, (targets, sizer) in self.spans_spec.items():
            for module, attr in targets:
                home = sys.modules.get(f"{PACKAGE}.{module}")
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, sizer)
                for mod in modules:
                    for space in [vars(mod)] + [v for v in vars(mod).values()
                                                if isinstance(v, dict)]:
                        for key, value in list(space.items()):
                            if value is original:
                                swaps.append((space, key, original))
                                space[key] = wrapper
        try:
            yield
        finally:
            for space, key, original in reversed(swaps):
                space[key] = original

    def layer_figures(self, kinds) -> dict[str, dict[str, float]]:
        """Per span and kind, the median over operations of calls, self ms,
        inclusive ms and bytes.  Set-up spans take the median over set-up
        operations instead.  An operation without the span counts zeros."""
        per_op: dict[tuple, dict[str, list]] = {}
        for name, key, start, end, _, self_ns, nbytes in self.records:
            acc = per_op.setdefault(key, {}).setdefault(name, [0, 0, 0, 0])
            acc[0] += 1
            acc[1] += self_ns
            acc[2] += end - start
            acc[3] += nbytes
        out = {}
        for kind in kinds:
            for name in self.spans_spec:
                phase = "setup" if name in SETUP_SPANS else "op"
                rows = [spans.get(name, [0, 0, 0, 0]) for key, spans in per_op.items()
                        if key[0] == phase and key[1] == kind] or [[0, 0, 0, 0]]
                calls, self_ns, total_ns, nbytes = np.median(
                    np.array(rows, dtype=float), axis=0)
                out[f"{name}.{kind}"] = {"calls": calls, "self_ms": self_ns / 1e6,
                                         "total_ms": total_ns / 1e6, "bytes": nbytes}
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: id, name, phase, kind, operation index,
        start ns, end ns, parent id (-1 for none), self ns, bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, key, start, end, parent, self_ns, nbytes) in \
                    enumerate(self.records):
                fh.write(json.dumps([i, name, *key, start, end, parent,
                                     self_ns, nbytes]) + "\n")
