"""Tests of the benchmark itself, on its tiny smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
from nm_sparse_kit import Mask, MaskDirection, NmPattern, experiment, permute, training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_metrics_the_code_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
    if not trace:
        assert all(v["value"] != 0 for v in out["metrics"].values())


def test_same_seed_same_quality_metrics():
    runs = [result_of(bench("--workload", "search_large", "--seed", "9", "--seconds", "0", "--smoke")) for _ in range(2)]
    quality = ("train_acc", "grad_gap_mean", "eligible_ratio", "kept_ratio")
    assert [runs[0]["metrics"][q] for q in quality] == [runs[1]["metrics"][q] for q in quality]


def test_pass_times_are_host_corrected_medians():
    args = run.parse_args(["--workload", "search_large", "--seed", "2", "--seconds", "1", "--smoke"])
    manifest, out = run.run(args)
    hosts = manifest["pass_host_s"]
    assert len(hosts) == manifest["passes"] >= 2
    assert all(h > 0 for p in hosts for h in p)
    corrected = [
        sum(w * run.CALIBRATION_REFERENCE_S / h for w, h in zip(walls, p))
        for walls, p in zip(manifest["op_wall_s"], hosts)
    ]
    assert out["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(corrected))


def _forward_2of4(bits):
    return Mask(MaskDirection.FORWARD, np.array(bits, dtype=np.uint8), NmPattern(2, 4))


def test_checker_trips_on_an_invalid_mask():
    checker = harness.Checker()
    checker.mask(_forward_2of4([[1, 1, 0, 0]]), "valid")
    assert checker.failures == []
    checker.mask(_forward_2of4([[1, 1, 1, 0]]), "three of four kept")
    assert len(checker.failures) == 1 and checker.checks == 2


def test_checker_trips_on_a_backward_mask_outside_the_forward_mask():
    w = np.arange(1.0, 17.0).reshape(4, 4)
    pattern = NmPattern(2, 4)
    fwd = training.forward_mask(w, pattern)
    perm = np.array([3, 2, 1, 0])
    checker = harness.Checker()
    checker.backward_within_forward(training.backward_mask(w, fwd, perm, pattern), fwd, perm, "library")
    assert checker.failures == []
    stray = Mask(MaskDirection.BACKWARD, 1 - fwd.bits[perm], pattern)
    checker.backward_within_forward(stray, fwd, perm, "complement")
    assert len(checker.failures) == 1


def test_checker_trips_when_approx_falls_below_half_the_exact_tile():
    w = np.diag([4.0, 3.0, 2.0, 1.0])
    pattern = NmPattern(1, 4)
    exact = Mask(MaskDirection.TRANSPOSABLE, np.eye(4, dtype=np.uint8), pattern)
    checker = harness.Checker()
    checker.approx_within_exact(w, exact, exact, "same")
    assert checker.failures == []
    poor = Mask(MaskDirection.TRANSPOSABLE, np.eye(4, dtype=np.uint8)[::-1].copy(), pattern)
    checker.approx_within_exact(w, poor, exact, "anti-diagonal")
    assert len(checker.failures) == 1


def test_a_corrupted_mask_kernel_counts_as_failed_operations(monkeypatch):
    real = training.forward_mask

    def corrupted(w, pattern):
        mask = real(w, pattern)
        mask.bits[0, : pattern.m] = 1
        return mask

    monkeypatch.setattr(training, "forward_mask", corrupted)
    args = run.parse_args(["--workload", "train_bimask", "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"])
    _, out = run.run(args)
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"]


def _diverging_train(*args, **kwargs):
    raise training.DivergenceError("loss is not finite")


def _search_failing_at_1_of_16(real):
    def search(w, pattern, *args, **kwargs):
        if pattern.m == 16:
            raise ValueError("search refused 1:16")
        return real(w, pattern, *args, **kwargs)

    return search


@pytest.mark.parametrize(
    "workload, module, attr, replacement",
    [
        ("train_bimask", experiment, "train", lambda real: _diverging_train),
        ("search_large", permute, "search_permutation", _search_failing_at_1_of_16),
    ],
    ids=["train-diverges", "search-raises"],
)
@pytest.mark.parametrize("trace", [0, 1])
def test_an_operation_that_raises_is_counted_and_a_result_is_still_printed(
    workload, module, attr, replacement, trace, monkeypatch, capsys
):
    monkeypatch.setattr(module, attr, replacement(getattr(module, attr)))
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())


def test_tracer_self_time_subtracts_direct_children():
    tracer = harness.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, 1, None],
        ["inner", 1.0, 4.0, 0, 1, None],
        ["leaf", 2.0, 3.0, 1, 1, None],
        ["inner", 5.0, 6.0, 0, 1, None],
    ]
    times = tracer.self_times()
    assert times["outer"] == [1, 6.0]
    assert times["inner"] == [2, 3.0]
    assert times["leaf"] == [1, 1.0]


def test_fails_without_printing_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train_bimask", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
