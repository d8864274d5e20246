#!/usr/bin/env python3
"""Interleaved per-step timing of ``train()`` in two checkouts, in one process.

    python3 tools/step_ab.py <src-a> <src-b> [rounds]

Loads ``<src-a>/nm_sparse_kit`` and ``<src-b>/nm_sparse_kit`` under the
package names ``nm_sparse_kit_a`` and ``nm_sparse_kit_b`` (the library's
imports are relative, so both load side by side) and times ``train()`` on
the benchmark's desk configs: an MLP [32, 128, 16] on 16-class blobs in 32
dimensions (40 per class), batch 32, delta_t 50, k 100, 10 epochs, Bi-Mask
at 2:4 and 1:16, training seeds 0 and 1. Data and layers are built outside
the timed call. Each round times every config once in each checkout, and
the checkout that runs first alternates from round to round, so a drift in
the host's speed falls on both. A round's figure is its total train() time
over its total steps.

Prints one line per round, then the median microseconds per step of each
checkout, the median ratio B / A and the number of rounds in which B was
faster. Two copies of the same code read a ratio near 1 with B faster in
about half of the rounds; a host whose speed swings between runs moves both
checkouts of a round alike, which separate benchmark runs cannot promise.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROUNDS = 20
USAGE = "usage: python3 tools/step_ab.py <src-a> <src-b> [rounds]"


@dataclass(frozen=True)
class StepConfig:
    pattern: str
    seed: int
    hidden: int = 128
    per_class: int = 40
    epochs: int = 10
    delta_t: int = 50
    k: int = 100


DESK = tuple(StepConfig(pattern, seed) for seed in (0, 1) for pattern in ("2:4", "1:16"))


def load_kit(src: str | Path, name: str):
    """``<src>/nm_sparse_kit`` imported afresh as the package ``name``.

    Modules left under ``name`` by an earlier load are dropped first: the
    relative imports would find them and leave them unbound in the new package.
    """
    for loaded in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[loaded]
    root = Path(src) / "nm_sparse_kit"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    kit = importlib.util.module_from_spec(spec)
    sys.modules[name] = kit  # the relative imports of its modules look the package up here
    spec.loader.exec_module(kit)
    return kit


def timed_steps(kit, config: StepConfig) -> tuple[float, int]:
    """(seconds inside train(), steps) of one desk run in the package ``kit``."""
    training = kit.training
    data = kit.generate_synthetic(16, 32, config.per_class, 0.35, config.seed)  # the experiment's default spread
    layers = training.init_layers(
        [32, config.hidden, 16], kit.NmPattern.parse(config.pattern), training.Strategy.BI_MASK, config.seed
    )
    train_config = training.TrainConfig(
        epochs=config.epochs, batch_size=32, delta_t=config.delta_t, k=config.k, seed=config.seed
    )
    start = perf_counter()
    _, trace = training.train(layers, data, train_config)
    return perf_counter() - start, len(trace)


def compare(src_a, src_b, rounds: int = ROUNDS, configs=DESK, out=sys.stdout) -> dict:
    """Time both checkouts for ``rounds`` rounds; returns the medians and B's win count."""
    kits = (load_kit(src_a, "nm_sparse_kit_a"), load_kit(src_b, "nm_sparse_kit_b"))
    per_step: tuple[list[float], list[float]] = ([], [])
    print("round   A us/step   B us/step   B/A", file=out)
    for r in range(rounds):
        totals = [[0.0, 0], [0.0, 0]]
        for config in configs:
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                seconds, steps = timed_steps(kits[side], config)
                totals[side][0] += seconds
                totals[side][1] += steps
        a, b = (1e6 * seconds / steps for seconds, steps in totals)
        per_step[0].append(a)
        per_step[1].append(b)
        print(f"{r + 1:5d}   {a:9.1f}   {b:9.1f}   {b / a:.3f}", file=out)
    ratios = [b / a for a, b in zip(*per_step)]
    result = {
        "a_us": statistics.median(per_step[0]),
        "b_us": statistics.median(per_step[1]),
        "ratio": statistics.median(ratios),
        "b_wins": sum(ratio < 1.0 for ratio in ratios),
        "rounds": rounds,
    }
    print(
        f"median us/step: A {result['a_us']:.1f}, B {result['b_us']:.1f}; "
        f"median B/A {result['ratio']:.3f}; B faster in {result['b_wins']} of {rounds} rounds",
        file=out,
    )
    return result


def parse_args(argv, usage: str = USAGE, default_rounds: int = ROUNDS):
    """``(src_a, src_b, rounds)`` of a command line, or None once the reason is printed."""
    if len(argv) not in (2, 3):
        print(usage, file=sys.stderr)
        return None
    rounds = argv[2] if len(argv) == 3 else str(default_rounds)
    if not rounds.isdecimal() or int(rounds) < 1:  # isdigit() takes '²', which int() refuses
        print(f"rounds must be an integer >= 1, got {rounds!r}", file=sys.stderr)
        return None
    for src in argv[:2]:
        if not (Path(src) / "nm_sparse_kit" / "__init__.py").is_file():
            print(f"no nm_sparse_kit package under {src}", file=sys.stderr)
            return None
    return argv[0], argv[1], int(rounds)


def main(argv) -> int:
    args = parse_args(argv)
    if args is None:
        return 2
    compare(*args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
