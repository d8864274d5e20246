"""Tests of ``tools/ops_ab.py``: its operations against the benchmark's matrix
workloads, a one-round smoke run, the output check and its argument checks."""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TOOLS = ROOT / "tools"


@pytest.fixture(scope="module")
def ops_ab():
    sys.path.insert(0, str(TOOLS))  # the tool imports its sibling step_ab, as its own directory allows
    try:
        spec = importlib.util.spec_from_file_location("ops_ab", TOOLS / "ops_ab.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(TOOLS))


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling as ``harness``, as run.py leaves it on the path
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads_ops", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


def tiny_workloads(ops_ab):
    return (
        ops_ab.MatrixOps("search_large", (((16, 16), "2:8"), ((16, 16), "1:16")), k=4),
        ops_ab.MatrixOps("transposable_large", (((8, 8), "2:4", "exact"), ((8, 8), "2:4", "approx"))),
    )


def test_operations_are_the_benchmarks(ops_ab, workloads, tmp_path):
    # the tool restates the FULL sizes; they must be what the benchmark runs, in its order
    search, transposable = ops_ab.FULL
    assert search.name == workloads.make("search_large", 1, False, str(tmp_path)).name
    assert transposable.name == workloads.make("transposable_large", 1, False, str(tmp_path)).name
    assert search.ops == workloads.FULL.search_shapes
    assert search.k == workloads.FULL.k
    assert transposable.ops == workloads.FULL.transposable_ops
    assert transposable.k == 0  # a mask per matrix, no search


def test_one_round_times_both_checkouts(ops_ab):
    out = io.StringIO()
    result = ops_ab.compare(ROOT / "src", ROOT / "src", rounds=1, workloads=tiny_workloads(ops_ab), out=out)
    assert set(result) == {"search_large", "transposable_large"}
    for stats in result.values():
        assert stats["rounds"] == 1 and stats["b_wins"] in (0, 1)
        assert stats["a_ms"] > 0 and stats["b_ms"] > 0
        assert stats["ratio"] == pytest.approx(stats["b_ms"] / stats["a_ms"])
    lines = out.getvalue().splitlines()
    assert len(lines) == 4 and lines[1].split()[0] == "1"
    assert lines[2].startswith("search_large: median ms/pass")
    assert lines[3].endswith(f"B faster in {result['transposable_large']['b_wins']} of 1 rounds")


def test_differing_outputs_stop_before_timing(ops_ab, monkeypatch):
    run_pass = ops_ab.run_pass

    def altered(kit, workload, matrices):
        digests = run_pass(kit, workload, matrices)
        return digests[:-1] + [b"other"] if kit.__name__ == "nm_sparse_kit_b" else digests

    monkeypatch.setattr(ops_ab, "run_pass", altered)
    out = io.StringIO()
    assert ops_ab.compare(ROOT / "src", ROOT / "src", rounds=1, workloads=tiny_workloads(ops_ab), out=out) is None
    assert out.getvalue() == "search_large: outputs differ at operation(s) [1]; not timed\n"


def test_the_pass_digests_every_output(ops_ab):
    # each operation's digest changes with its matrix, so the check compares real outputs
    kit = ops_ab.load_kit(ROOT / "src", "nm_sparse_kit_ops_digest")
    tiny = tiny_workloads(ops_ab)
    first, second = ops_ab.inputs(tiny, seed=1), ops_ab.inputs(tiny, seed=2)
    for workload, a, b in zip(tiny, first, second):
        once, again, other = (ops_ab.run_pass(kit, workload, m) for m in (a, a, b))
        assert once == again
        assert all(x != y for x, y in zip(once, other))


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "usage: python3 tools/ops_ab.py <src-a> <src-b>"),
        (["src", "src", "0"], "rounds must be an integer >= 1, got '0'"),
        (["src", "src", "2.5"], "rounds must be an integer >= 1, got '2.5'"),
        (["src", "tests", "1"], "no nm_sparse_kit package under tests"),
    ],
    ids=["none", "zero-rounds", "fractional-rounds", "no-package"],
)
def test_bad_arguments_exit_2_without_timing(ops_ab, argv, message, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert ops_ab.main(argv) == 2
    assert message in capsys.readouterr().err
