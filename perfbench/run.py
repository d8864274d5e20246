"""Benchmark of nm_sparse_kit's public API, one workload per run.

    python3 perfbench/run.py --workload train_bimask --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else. One process, one BLAS thread.

A run sets the workload up from ``--seed``, makes one checked pass (every
mask validated, every output digested), then repeats unchecked passes for
``--seconds`` and requires each to reproduce the checked pass's digests.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split. Times in the
end-to-end metrics are corrected for the host's speed, see
``CALIBRATION_REFERENCE_S``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run manifest.
Artifacts (run directories, spans, manifest) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The benchmark measures the library on one core, not the BLAS thread pool.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("train_bimask", "train_transposable", "search_large", "transposable_large")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("train_acc", "ratio"),
    ("grad_gap_mean", "ratio"),
    ("eligible_ratio", "ratio"),
    ("kept_ratio", "ratio"),
]

TIMED_LAYERS = [
    "tensorops.matrix",
    "masks.forward_mask",
    "masks.backward_mask",
    "masks.transposable_approx",
    "masks.transposable_exact",
    "masks.Mask",
    "permute.search_permutation",
    "permute.count_eligible_blocks",
    "training.refresh_masks",
    "training.sparse_forward",
    "training.backward_bimask",
    "training.backward_exact",
    "training.weight_gradient",
    "data.generate_synthetic",
]

# The host's speed swings by up to 1.8x in phases that last from seconds to
# minutes. Every time in the end-to-end metrics is therefore taken next to a
# fixed calibration kernel, run in the same process, that does not touch the
# library, and scaled to the speed at which that kernel takes
# CALIBRATION_REFERENCE_S: the kernel's fast-phase time on a 2-core x86-64
# virtual machine with Python 3.11 and numpy 2.4. Over 80 s of train_bimask
# passes there, the median pass time of 25-second windows moved by 5%
# corrected and by 70% raw.
CALIBRATION_REFERENCE_S = 0.0135

PER_LAYER = [m for name in TIMED_LAYERS for m in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))] + [
    ("permute.candidates", "count"),
    ("permute.improved_ratio", "ratio"),
    ("training.train.self_s", "s"),
    ("training.step_ms_p50", "ms"),
    ("training.step_ms_p99", "ms"),
    ("training.mask_flips", "count"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="how long the repeated passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def import_library():
    """Import nm_sparse_kit from this checkout's src/, refusing any other copy."""
    if not (SRC / "nm_sparse_kit" / "__init__.py").is_file():
        raise ImportError(f"no nm_sparse_kit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nm_sparse_kit

    if not Path(nm_sparse_kit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nm_sparse_kit was imported from {nm_sparse_kit.__file__}, not {SRC}")


@functools.cache
def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.normal(size=(128, 32)), rng.normal(size=(32, 128)), rng.normal(size=(128, 128))


def calibration_s() -> float:
    """Time of a fixed kernel of the kinds of work the library does.

    Small matrix products, per-block sorts into a 2:4 mask and a Python
    loop; it measures the host's speed at the moment it runs.
    """
    import numpy as np

    a, b, w = _calibration_inputs()
    start = perf_counter()
    total = 0.0
    for _ in range(25):
        y = a @ b
        blocks = np.abs(w).reshape(128, 32, 4)
        keep = np.argsort(blocks, axis=2)[:, :, 2:]
        mask = np.zeros(blocks.shape, dtype=np.uint8)
        np.put_along_axis(mask, keep, 1, axis=2)
        total += float((mask.reshape(128, 128) * y).sum())
        for i in range(32):
            total += float(w[i, i])
            for j in range(40):
                total += j
    return perf_counter() - start


def host_corrected(seconds: float, host_s: float) -> float:
    """A time measured next to a calibration of ``host_s``, at reference speed."""
    return seconds * CALIBRATION_REFERENCE_S / host_s


def setup_probe(args) -> None:
    """Child-process body: time the library import and the workload's set-up, cold.

    numpy is imported before the clock starts: its import is a third-party
    cost that would otherwise make up most of the figure. The calibration
    kernel runs once to warm up, then once on each side of the set-up.
    """
    calibration_s()
    before = calibration_s()
    start = perf_counter()
    import_library()
    import workloads

    workloads.make(args.workload, args.seed, args.smoke, str(out_root(args) / "runs")).setup()
    seconds = perf_counter() - start
    print(repr(seconds), repr((before + calibration_s()) / 2))


def probe_setup(args) -> tuple[float, float]:
    """(set-up seconds, calibration seconds) in a fresh interpreter, so the import is cold each time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    seconds, host_s = out.stdout.split()[-2:]
    return float(seconds), float(host_s)


def out_root(args) -> Path:
    return ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"


def git_revision() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)


def run_pass(workload, tally: Tally, reference=None, checker=None, calibrate=False):
    """Run every operation once; a failing operation is counted, never fatal.

    With a ``checker`` each operation must pass its mask checks; with a
    ``reference`` pass each must reproduce that pass's output digest. With
    ``calibrate`` the calibration kernel runs before the first operation,
    after every operation and inside long training operations; each
    result's ``host_s`` is the mean of the calibrations around and inside it.
    """
    results = []
    host_before = calibration_s() if calibrate else 0.0
    for i in range(workload.op_count):
        seen = len(checker.failures) if checker else 0
        try:
            result = workload.run_op(i, calibration_s if calibrate else None)
        except Exception as exc:  # the benchmark reports broken operations instead of stopping
            tally.record(f"{workload.name} op {i}: {type(exc).__name__}: {exc}")
            results.append(None)
            continue
        results.append(result)
        if calibrate:
            host_after = calibration_s()
            result.host_s = statistics.mean([host_before, *result.host_samples, host_after])
            host_before = host_after
        problem = None
        if checker is not None:
            workload.check_op(i, results, checker)
            if len(checker.failures) > seen:
                problem = "; ".join(checker.failures[seen:])
        if reference is not None:
            # only the checked pass keeps outputs; later passes keep their digest
            result.outputs = None
            if reference[i] is not None and result.digest != reference[i].digest:
                problem = f"{workload.name} op {i}: output differs from the checked pass of the same seed"
        tally.record(problem)
    return results


def pass_wall(results) -> float:
    """Time of one pass, over the operations that ran to the end."""
    return sum(r.wall_s for r in results if r is not None)


def corrected_wall(results) -> float:
    return sum(host_corrected(r.wall_s, r.host_s) for r in results if r is not None)


def corrected_rate(results) -> float:
    done = [r for r in results if r is not None]
    busy = sum(host_corrected(r.busy_s, r.host_s) for r in done)
    return sum(r.units for r in done) / busy if busy > 0 else 0.0


def end_to_end(workload, reference, passes, setups) -> dict:
    # Medians of host-corrected times. An operation that raised is left out
    # of its pass; the run then reports correct: false, so its times are not
    # comparable anyway.
    values = {
        "setup_s": statistics.median(host_corrected(s, h) for s, h in setups),
        "wall_s": statistics.median(corrected_wall(p) for p in passes),
        "ops_per_s": statistics.median(corrected_rate(p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(workload.quality(reference))
    return values


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) with Python's default quantile method."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer(tracer, untraced, traced) -> dict:
    n = len(traced)
    counts = tracer.counters
    times = tracer.self_times()
    values = {}
    for name in TIMED_LAYERS:
        calls, self_s = times.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
    steps_ms = [s * 1e3 for s in tracer.step_seconds()]
    values.update({
        "permute.candidates": counts["candidates"] / n,
        "permute.improved_ratio": counts["improved"] / counts["searches"] if counts["searches"] else 0.0,
        "training.train.self_s": times.get("training.train", (0, 0.0))[1] / n,
        "training.step_ms_p50": percentile(steps_ms, 50),
        "training.step_ms_p99": percentile(steps_ms, 99),
        "training.mask_flips": counts["mask_flips"] / n,
        "experiment.run_experiment.self_s": times.get("experiment.run_experiment", (0, 0.0))[1] / n,
        "experiment.bytes_written": sum(r.bytes_written for p in traced for r in p if r is not None) / n,
        "trace.overhead_s": min(pass_wall(p) for p in traced) - min(pass_wall(p) for p in untraced),
    })
    return values


def run(args) -> tuple[dict, dict]:
    import numpy as np

    import harness
    import workloads

    out = out_root(args)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.smoke, str(out / "runs"))
    workload.setup()
    tally = Tally()

    checker = harness.Checker()
    with harness.patched(checker.bindings() + workload.check_bindings()):
        reference = run_pass(workload, tally, checker=checker)

    tracer = harness.Tracer()
    untraced, traced, setups = [], [], []
    # set-up probes are spread over the run, between passes, so that they
    # sample the same machine conditions as the passes do
    probes = 0 if args.trace else workload.sizes.setup_probes
    start = perf_counter()
    while not untraced or perf_counter() - start < args.seconds:
        untraced.append(run_pass(workload, tally, reference=reference, calibrate=not args.trace))
        if args.trace:
            tracer.run += 1
            with harness.patched(tracer.bindings()):
                traced.append(run_pass(workload, tally, reference=reference))
        elif len(setups) < probes * (perf_counter() - start) / max(args.seconds, 1e-9):
            setups.append(probe_setup(args))
    while len(setups) < probes:
        setups.append(probe_setup(args))

    if args.trace:
        tracer.write(out / "spans.csv")
        spec, values = PER_LAYER, per_layer(tracer, untraced, traced)
    else:
        spec, values = END_TO_END, end_to_end(workload, reference, untraced, setups)

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(untraced),
        "op_wall_s": [[r.wall_s for r in p if r is not None] for p in untraced],
        "pass_host_s": [[r.host_s for r in p if r is not None] for p in untraced],
        "setup_probe_s": [seconds for seconds, _ in setups],
        "setup_probe_host_s": [host_s for _, host_s in setups],
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "checks": checker.checks,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_revision": git_revision(),
        "failures": tally.failures[:20],
    }
    if workload.dense_reference is not None and not args.trace:
        try:
            host_before = calibration_s()
            dense = workload.dense_reference(3)
            host_s = (host_before + calibration_s()) / 2
        except Exception as exc:  # a reference only; it is not gated
            dense = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            # ops_per_s of the sparse run is host-corrected; correct the dense one alike
            dense_rate = dense["ops_per_s"] / host_corrected(1.0, host_s)
            dense["sparse_over_dense_time"] = dense_rate / values["ops_per_s"] if values["ops_per_s"] else None
        manifest["dense_reference"] = dense
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")

    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    return manifest, result


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    manifest, result = run(args)
    print("manifest: " + json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
