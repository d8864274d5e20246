"""The benchmark reaches the library through module bindings patched by name.

``perfbench/harness.py`` wraps attributes such as ``training.forward_mask``
and ``training.count_eligible_blocks``. These ``training.*`` names are the
refresh's dispatch points: they may bind unchecked entry points (today
``masks._forward_mask`` and the like), and the harness wraps whatever they
bind. A refactor that drops one of those names would make the traced
benchmark run crash, and one that stops calling through them would let
masks escape the benchmark's checks. These tests read the harness as it is
and never change it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nm_sparse_kit import experiment
from nm_sparse_kit.data import generate_synthetic
from nm_sparse_kit.tensorops import NmPattern
from nm_sparse_kit.training import Strategy, TrainConfig, init_layers, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return load("harness")


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling as ``harness``, as run.py leaves it on the path
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield load("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_binding_resolves(harness):
    for module, attr, _ in harness.TRACED_BINDINGS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_every_checked_binding_resolves(harness):
    for module, attr, _ in harness.Checker().bindings():
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize(
    "strategy, checks_per_layer_refresh",
    # a forward or transposable mask is one check; a backward mask two: its
    # block budgets and its containment in the permuted forward mask
    [(Strategy.VANILLA, 1), (Strategy.TRANSPOSABLE, 1), (Strategy.BI_MASK, 3)],
)
def test_checker_sees_every_mask_train_makes(harness, strategy, checks_per_layer_refresh):
    data = generate_synthetic(classes=4, dim=8, per_class=16, spread=0.3, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=16, delta_t=3, k=4, warmup_epochs=0, seed=1)
    checker = harness.Checker()
    with harness.patched(checker.bindings()):
        layers = init_layers([8, 8, 4], NmPattern(2, 4), strategy, seed=1)
        _, trace = train(layers, data, cfg)
    # one set of masks at construction, then one per layer per iteration
    assert checker.checks == len(layers) * (len(trace) + 1) * checks_per_layer_refresh
    assert checker.failures == []


def test_gradient_probe_reads_the_gaps_train_reports(harness, workloads):
    # the probe recomputes each backward product's gap from the arrays train()
    # hands its bindings, so it agrees only if train() leaves them intact
    data = generate_synthetic(classes=4, dim=8, per_class=16, spread=0.3, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=16, delta_t=3, k=4, warmup_epochs=0, seed=1)
    probe = workloads.GradientProbe()
    with harness.patched(probe.bindings()):
        layers = init_layers([8, 8, 4], NmPattern(2, 4), Strategy.BI_MASK, seed=1)
        _, trace = experiment.train(layers, data, cfg)
    assert any(s.grad_gap_l2 > 0 for s in trace)
    assert probe.gaps == [s.grad_gap_l2 for s in trace]


@pytest.mark.parametrize("strategy", [Strategy.BI_MASK, Strategy.VANILLA], ids=lambda s: s.value)
def test_tracer_sees_each_binding_once_per_layer_per_step(harness, strategy):
    # the benchmark's step clock and per-layer metrics count on these calls
    data = generate_synthetic(classes=4, dim=8, per_class=16, spread=0.3, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=16, delta_t=3, k=4, warmup_epochs=0, seed=1)
    layers = init_layers([8, 8, 4], NmPattern(2, 4), strategy, seed=1)
    tracer = harness.Tracer()
    with harness.patched(tracer.bindings()):
        _, trace = experiment.train(layers, data, cfg)
    calls = {name: int(count) for name, (count, _) in tracer.self_times().items()}
    per_step = len(layers) * len(trace)
    for name in ("refresh_masks", "sparse_forward", "weight_gradient", "backward_exact"):
        assert calls[f"training.{name}"] == per_step, name
    bimask = strategy is Strategy.BI_MASK
    assert calls.get("training.backward_bimask", 0) == (per_step if bimask else 0)
    searches = len(layers) * (len(trace) // cfg.delta_t) if bimask else 0
    assert calls.get("permute.search_permutation", 0) == searches
    assert calls["training.train"] == 1
    assert len(tracer.step_seconds()) == len(trace)
