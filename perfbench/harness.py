"""Binding patches, span tracing and output checks for the benchmark.

Everything here wraps the library's public functions at the module bindings
where they are called (``nm_sparse_kit.training.forward_mask`` is the name
``train`` looks up, ``nm_sparse_kit.masks.forward_mask`` the one the
benchmark's own matrix workloads look up). The library itself is never
edited; a patch lasts only for the ``with`` block that installs it.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import nm_sparse_kit as kit
from nm_sparse_kit import experiment, masks, permute, training


@contextmanager
def patched(replacements):
    """Install ``(module, attribute, make_wrapper)`` patches for the block.

    ``make_wrapper`` receives the binding's current value, so patches stack:
    a tracer installed over a checker wraps the checker's wrapper.
    """
    saved = []
    try:
        for module, attr, make_wrapper in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _transposable_span(args, kwargs) -> str:
    method = args[2] if len(args) > 2 else kwargs.get("method", masks.TransposableMethod.TWO_APPROX)
    return "masks.transposable_exact" if method is masks.TransposableMethod.EXACT else "masks.transposable_approx"


def _refresh_iteration(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["iteration"]


# (module, attribute, span name or a function of the call's arguments).
# The matrix workloads call masks.* and permute.* through their module
# attributes; train() and run_experiment() reach the same functions through
# the training and experiment bindings.
TRACED_BINDINGS = [
    (masks, "matrix", "tensorops.matrix"),
    (permute, "matrix", "tensorops.matrix"),
    (training, "matrix", "tensorops.matrix"),
    (masks, "Mask", "masks.Mask"),
    (masks, "forward_mask", "masks.forward_mask"),
    (training, "forward_mask", "masks.forward_mask"),
    (masks, "backward_mask", "masks.backward_mask"),
    (training, "backward_mask", "masks.backward_mask"),
    (masks, "transposable_mask", _transposable_span),
    (training, "transposable_mask", _transposable_span),
    (permute, "search_permutation", "permute.search_permutation"),
    (training, "search_permutation", "permute.search_permutation"),
    (permute, "count_eligible_blocks", "permute.count_eligible_blocks"),
    (training, "count_eligible_blocks", "permute.count_eligible_blocks"),
    (training, "refresh_masks", "training.refresh_masks"),
    (training, "sparse_forward", "training.sparse_forward"),
    (training, "backward_bimask", "training.backward_bimask"),
    (training, "backward_exact", "training.backward_exact"),
    (training, "weight_gradient", "training.weight_gradient"),
    (experiment, "train", "training.train"),
    (experiment, "run_experiment", "experiment.run_experiment"),
    (experiment, "generate_synthetic", "data.generate_synthetic"),
]


class Tracer:
    """In-memory spans (name, start, end, parent, run id, tag) plus counters.

    ``parent`` is the index of the enclosing span, -1 at top level; ``run``
    is the pass the span belongs to; ``tag`` is the iteration number on
    ``training.refresh_masks`` spans, from which step times are derived.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, attr):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            tag = _refresh_iteration(args, kwargs) if label == "training.refresh_masks" else None
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [label, 0.0, 0.0, parent, self.run, tag]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self._count(attr, args, kwargs, result)
            return result

        return traced

    def _count(self, attr, args, kwargs, result):
        if attr == "search_permutation":
            current = args[3] if len(args) > 3 else kwargs.get("current")
            rows = result.chosen.shape[0]
            incumbent = np.arange(rows) if current is None else np.asarray(current)
            self.counters["searches"] += 1
            self.counters["candidates"] += result.candidates_evaluated
            # ties keep the incumbent, so a different choice is a strict gain
            self.counters["improved"] += not np.array_equal(result.chosen, incumbent)
        elif attr == "train":
            self.counters["mask_flips"] += sum(s.mask_flip_count for s in result[1])

    def bindings(self):
        return [
            (module, attr, lambda fn, name=name, attr=attr: self._wrap(name, fn, attr))
            for module, attr, name in TRACED_BINDINGS
        ]

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: [calls, total self seconds].

        Self time is a span's duration minus the durations of its direct
        children, which nest strictly inside it.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child[i]
        return totals

    def step_seconds(self) -> list[float]:
        """Duration of every training iteration seen inside a train() span.

        An iteration starts at its first mask refresh and ends where the next
        one starts, or where train() returns.
        """
        starts: dict[int, dict[int, float]] = defaultdict(dict)
        for name, start, _, parent, _, tag in self.spans:
            if name == "training.refresh_masks" and parent >= 0:
                starts[parent].setdefault(tag, start)
        steps = []
        for train_index, by_iteration in starts.items():
            times = sorted(by_iteration.values()) + [self.spans[train_index][2]]
            steps.extend(b - a for a, b in zip(times, times[1:]))
        return steps

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run,tag\n")
            for name, start, end, parent, run, tag in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{run},{'' if tag is None else tag}\n")


class Checker:
    """Correctness checks on every mask the library hands back.

    Failures are collected, never raised, so a broken kernel shows up as
    failed operations in the benchmark result instead of aborting the run.
    """

    # float sums of a tile's kept magnitudes may differ in the last bits
    RELATIVE_SLACK = 1e-12

    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def mask(self, mask, where: str) -> None:
        violations = kit.validate_mask(mask)
        self.expect(
            not violations,
            f"{where}: {mask.direction.value} {mask.pattern} mask breaks {len(violations)} block budget(s)",
        )

    def backward_within_forward(self, bwd, fwd, perm, where: str) -> None:
        rows = fwd.shape[0]
        perm = np.arange(rows) if perm is None else np.asarray(perm)
        self.expect(
            bool(np.all(bwd.bits <= fwd.bits[perm])),
            f"{where}: backward mask keeps an entry the permuted forward mask drops",
        )

    def approx_within_exact(self, w, approx, exact, where: str) -> None:
        """The greedy keeps at least half, and at most all, of each tile's optimum."""
        a = kit.tile_kept_magnitudes(w, approx, approx.pattern)
        e = kit.tile_kept_magnitudes(w, exact, exact.pattern)
        slack = 1.0 - self.RELATIVE_SLACK
        self.expect(bool(np.all(a >= 0.5 * e * slack)), f"{where}: approx tile below half the exact optimum")
        self.expect(bool(np.all(e >= a * slack)), f"{where}: exact tile below the approx tile")

    def _validating(self, fn, where):
        def checked(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.mask(result, where)
            return result

        return checked

    def _validating_backward(self, fn, where):
        def checked(w, fwd, perm, *args, **kwargs):
            result = fn(w, fwd, perm, *args, **kwargs)
            self.mask(result, where)
            self.backward_within_forward(result, fwd, perm, where)
            return result

        return checked

    def bindings(self):
        out = []
        for module in (masks, training):
            prefix = module.__name__.rsplit(".", 1)[1]
            out += [
                (module, "forward_mask", lambda fn, p=prefix: self._validating(fn, f"{p}.forward_mask")),
                (module, "transposable_mask", lambda fn, p=prefix: self._validating(fn, f"{p}.transposable_mask")),
                (module, "backward_mask", lambda fn, p=prefix: self._validating_backward(fn, f"{p}.backward_mask")),
            ]
        return out
