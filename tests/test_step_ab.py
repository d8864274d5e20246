"""Tests of ``tools/step_ab.py``: a smoke run on a tiny config, its argument
checks, and its desk configs against the benchmark's ``train_bimask``."""

import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def step_ab():
    spec = importlib.util.spec_from_file_location("step_ab", ROOT / "tools" / "step_ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling as ``harness``, as run.py leaves it on the path
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


def test_desk_configs_are_the_benchmarks(step_ab, workloads, tmp_path, monkeypatch):
    # the tool restates train_bimask's configs (its own training seeds aside);
    # what it hands train() must be what the benchmark trains
    bench = workloads.make("train_bimask", 1, False, str(tmp_path)).configs
    assert [desk.pattern for desk in step_ab.DESK] == [str(cfg.pattern) for cfg in bench]
    kit = step_ab.load_kit(ROOT / "src", "nm_sparse_kit_desk")
    calls = []
    monkeypatch.setattr(kit.training, "train", lambda *args: calls.append(args) or (args[0], []))
    for desk, cfg in zip(step_ab.DESK, bench):
        step_ab.timed_steps(kit, desk)
        layers, data, config = calls.pop()
        # the tool's package is a copy, so its enums and patterns compare by value
        kinds = {(layer.strategy.value, str(layer.pattern)) for layer in layers}
        assert kinds == {(cfg.strategy.value, str(cfg.pattern))}
        assert [layer.w.shape for layer in layers] == [(cfg.hidden_dims[0], cfg.dim), (cfg.classes, cfg.hidden_dims[0])]
        blobs = kit.generate_synthetic(cfg.classes, cfg.dim, cfg.per_class, cfg.spread, desk.seed)
        assert np.array_equal(data.x_train, blobs.x_train) and np.array_equal(data.y_train, blobs.y_train)
        bench_train = (cfg.train.epochs, cfg.train.batch_size, cfg.train.delta_t, cfg.train.k)
        assert (config.epochs, config.batch_size, config.delta_t, config.k) == bench_train


def test_one_round_times_both_checkouts(step_ab):
    # 16 classes x 2 samples is one batch of 32, so one step, which also searches
    tiny = (step_ab.StepConfig("2:4", seed=0, hidden=8, per_class=2, epochs=1, delta_t=1, k=2),)
    out = io.StringIO()
    result = step_ab.compare(ROOT / "src", ROOT / "src", rounds=1, configs=tiny, out=out)
    assert result["rounds"] == 1 and result["b_wins"] in (0, 1)
    assert result["a_us"] > 0 and result["b_us"] > 0
    assert result["ratio"] == pytest.approx(result["b_us"] / result["a_us"])
    lines = out.getvalue().splitlines()
    assert len(lines) == 3 and lines[1].split()[0] == "1"
    assert lines[-1].endswith(f"B faster in {result['b_wins']} of 1 rounds")
    # the two checkouts load as separate packages
    assert sys.modules["nm_sparse_kit_a"] is not sys.modules["nm_sparse_kit_b"]
    assert sys.modules["nm_sparse_kit_a"].training is not sys.modules["nm_sparse_kit_b"].training


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "usage: python3 tools/step_ab.py <src-a> <src-b>"),
        (["src"], "usage: python3 tools/step_ab.py <src-a> <src-b>"),
        (["src", "src", "0"], "rounds must be an integer >= 1, got '0'"),
        (["src", "src", "2.5"], "rounds must be an integer >= 1, got '2.5'"),
        (["src", "src", "²"], "rounds must be an integer >= 1, got '²'"),
        (["src", "tests", "1"], "no nm_sparse_kit package under tests"),
    ],
    ids=["none", "one-path", "zero-rounds", "fractional-rounds", "superscript-rounds", "no-package"],
)
def test_bad_arguments_exit_2_without_timing(step_ab, argv, message, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert step_ab.main(argv) == 2
    assert message in capsys.readouterr().err
