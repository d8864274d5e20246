#!/usr/bin/env python3
"""Interleaved timing of the benchmark's matrix operations in two checkouts, in one process.

    python3 tools/ops_ab.py <src-a> <src-b> [rounds]

Loads ``<src-a>/nm_sparse_kit`` and ``<src-b>/nm_sparse_kit`` side by side,
as ``tools/step_ab.py`` does, and times one pass of each matrix workload of
the benchmark at its full sizes:

* ``search_large``: per matrix, one Bi-Mask refresh through the public
  functions: the forward mask, the masked weights, a permutation search of
  k = 100 candidates, the backward mask and the eligible blocks of the
  chosen rows, on two 512 x 512 matrices at 2:8 and two 256 x 256 at 1:16;
* ``transposable_large``: ``transposable_mask`` at 512 x 512 1:8 and 2:8
  (approx), 256 x 256 1:16 (approx), and 128 x 128 2:4, exact then approx.

The matrices are standard normal draws from a fixed seed, one per
operation, in the benchmark's order. Before any timing, both checkouts run
every operation once, and the tool exits 1 unless the digests of their
outputs (masks, chosen permutation, eligible count) agree.

Each round times one pass of every workload in each checkout, and the
checkout that runs first alternates from round to round. Prints one line
per round, then per workload the median milliseconds per pass of each
checkout, the median ratio B / A and the number of rounds in which B was
faster.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from step_ab import load_kit, parse_args

ROUNDS = 10
USAGE = "usage: python3 tools/ops_ab.py <src-a> <src-b> [rounds]"
SEED = 2024


@dataclass(frozen=True)
class MatrixOps:
    """One workload's operations: ``(shape, pattern)`` for a search, ``(shape, pattern, method)`` for a mask."""

    name: str
    ops: tuple
    k: int = 0


# the benchmark's FULL sizes, in its order
FULL = (
    MatrixOps(
        "search_large",
        (((512, 512), "2:8"), ((512, 512), "2:8"), ((256, 256), "1:16"), ((256, 256), "1:16")),
        k=100,
    ),
    MatrixOps(
        "transposable_large",
        (
            ((512, 512), "1:8", "approx"),
            ((512, 512), "2:8", "approx"),
            ((256, 256), "1:16", "approx"),
            ((128, 128), "2:4", "exact"),
            ((128, 128), "2:4", "approx"),
        ),
    ),
)


def inputs(workloads=FULL, seed: int = SEED) -> list[list[np.ndarray]]:
    """One fixed standard normal matrix per operation of each workload."""
    rng = np.random.default_rng(seed)
    return [[rng.normal(size=op[0]) for op in workload.ops] for workload in workloads]


def run_pass(kit, workload: MatrixOps, matrices) -> list[bytes]:
    """Run every operation of ``workload`` once in the package ``kit``; one output digest per operation."""
    digests = []
    for i, (op, w) in enumerate(zip(workload.ops, matrices)):
        pattern = kit.NmPattern.parse(op[1])
        h = hashlib.sha256()
        if workload.k:
            fwd = kit.forward_mask(w, pattern)
            masked = fwd.apply(w)
            report = kit.search_permutation(masked, pattern, workload.k, seed=i)
            bwd = kit.backward_mask(w, fwd, report.chosen, pattern)
            eligible = kit.count_eligible_blocks(masked[report.chosen], pattern)
            for a in (fwd.bits, report.chosen, bwd.bits):
                h.update(a.tobytes())
            h.update(repr(eligible).encode())
        else:
            h.update(kit.transposable_mask(w, pattern, op[2]).bits.tobytes())
        digests.append(h.digest())
    return digests


def compare(src_a, src_b, rounds: int = ROUNDS, workloads=FULL, out=sys.stdout) -> dict | None:
    """Check, then time both checkouts; per workload the medians and B's win count, or None on a mismatch."""
    kits = (load_kit(src_a, "nm_sparse_kit_a"), load_kit(src_b, "nm_sparse_kit_b"))
    matrices = inputs(workloads)
    for workload, mats in zip(workloads, matrices):
        a, b = (run_pass(kit, workload, mats) for kit in kits)
        differ = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        if differ:
            print(f"{workload.name}: outputs differ at operation(s) {differ}; not timed", file=out)
            return None
    ms = {w.name: ([], []) for w in workloads}
    print("round  " + "  ".join(f"{w.name} A ms, B ms, B/A" for w in workloads), file=out)
    for r in range(rounds):
        cells = []
        for workload, mats in zip(workloads, matrices):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                start = perf_counter()
                run_pass(kits[side], workload, mats)
                ms[workload.name][side].append(1e3 * (perf_counter() - start))
            a, b = ms[workload.name][0][-1], ms[workload.name][1][-1]
            cells.append(f"{a:9.2f} {b:9.2f} {b / a:.3f}")
        print(f"{r + 1:5d}  " + "  ".join(cells), file=out)
    result = {}
    for name, (a_ms, b_ms) in ms.items():
        ratios = [b / a for a, b in zip(a_ms, b_ms)]
        result[name] = {
            "a_ms": statistics.median(a_ms),
            "b_ms": statistics.median(b_ms),
            "ratio": statistics.median(ratios),
            "b_wins": sum(ratio < 1.0 for ratio in ratios),
            "rounds": rounds,
        }
        s = result[name]
        print(
            f"{name}: median ms/pass A {s['a_ms']:.2f}, B {s['b_ms']:.2f}; "
            f"median B/A {s['ratio']:.3f}; B faster in {s['b_wins']} of {rounds} rounds",
            file=out,
        )
    return result


def main(argv) -> int:
    args = parse_args(argv, USAGE, ROUNDS)
    if args is None:
        return 2
    return 0 if compare(*args) is not None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
