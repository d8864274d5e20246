import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nm_sparse_kit.experiment import (
    ABLATION_LABELS,
    ExperimentConfig,
    ExperimentSummary,
    build_dataset,
    csv_row,
    load_config,
    parse_config,
    run_ablation,
    run_experiment,
    save_config,
    serialize_config,
)
from nm_sparse_kit.data import DatasetKind, save_idx_images, save_idx_labels
from nm_sparse_kit.masks import BinarizationCriterion, load_mask, validate_mask
from nm_sparse_kit.tensorops import NmPattern, load_matrix
from nm_sparse_kit.training import Strategy, TrainConfig


def small_config(out_dir, strategy=Strategy.BI_MASK, **train_kw):
    train = dict(epochs=4, batch_size=16, delta_t=10, k=10, warmup_epochs=1,
                 peak_lr=0.1, momentum=0.9, weight_decay=1e-4, seed=2)
    train.update(train_kw)
    return ExperimentConfig(
        strategy=strategy,
        pattern=NmPattern(2, 4),
        dataset="synthetic",
        out_dir=str(out_dir),
        hidden_dims=(16,),
        train=TrainConfig(**train),
        classes=4,
        dim=8,
        per_class=16,
        spread=0.3,
    )


class TestConfigRoundTrip:
    def test_parse_of_serialize_is_identity(self, tmp_path):
        cfg = small_config(tmp_path / "run", strategy=Strategy.TRANSPOSABLE)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        path = tmp_path / "cfg.txt"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# hello\n\nstrategy = vanilla  # trailing\npattern = 2:4\n")
        assert cfg.strategy is Strategy.VANILLA
        assert cfg.pattern == NmPattern(2, 4)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2.*mystery"):
            parse_config("strategy = vanilla\nmystery = 42\npattern = 2:4\n")

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="strategy"):
            parse_config("pattern = 2:4\n")

    def test_criterion_key(self):
        cfg = parse_config("strategy = bimask\npattern = 2:4\ncriterion = multinomial\n")
        assert cfg.criterion is BinarizationCriterion.MULTINOMIAL_SAMPLING

    def test_serialized_text_is_pinned(self):
        # keys follow the record fields in declaration order, train's in place
        cfg = ExperimentConfig(
            Strategy.BI_MASK,
            NmPattern(1, 8),
            criterion=BinarizationCriterion.RANDOM,
            dataset="idx:data/mnist",
            out_dir="runs/pinned",
            hidden_dims=(32, 16),
            train=TrainConfig(epochs=7, batch_size=8, delta_t=20, k=30, warmup_epochs=2,
                              peak_lr=0.05, momentum=0.5, weight_decay=1e-05, seed=11),
            classes=10,
            dim=24,
            per_class=5,
            spread=1.5,
        )
        assert serialize_config(cfg) == (
            "# nm-sparse-kit experiment config v1\n"
            "strategy = bimask\n"
            "pattern = 1:8\n"
            "criterion = random\n"
            "dataset = idx:data/mnist\n"
            "out_dir = runs/pinned\n"
            "hidden_dims = 32,16\n"
            "epochs = 7\n"
            "batch_size = 8\n"
            "delta_t = 20\n"
            "k = 30\n"
            "warmup_epochs = 2\n"
            "peak_lr = 0.05\n"
            "momentum = 0.5\n"
            "weight_decay = 1e-05\n"
            "seed = 11\n"
            "classes = 10\n"
            "dim = 24\n"
            "per_class = 5\n"
            "spread = 1.5\n"
        )

    def test_comment_marker_in_value_rejected(self, tmp_path):
        cfg = ExperimentConfig(Strategy.DENSE, NmPattern(2, 4), out_dir="runs/#1")
        with pytest.raises(ValueError, match="'out_dir' cannot hold '#'"):
            serialize_config(cfg)
        with pytest.raises(ValueError, match="'out_dir' cannot hold '#'"):
            run_experiment(small_config(tmp_path / "#1"))
        assert not (tmp_path / "#1").exists()

    def test_defaults_fill_missing_keys(self):
        cfg = parse_config("strategy = dense\npattern = 1:2\n")
        assert cfg == ExperimentConfig(Strategy.DENSE, NmPattern(1, 2))
        assert (cfg.train.epochs, cfg.train.batch_size) == (40, 32)


PATTERNS = st.integers(2, 64).flatmap(lambda m: st.integers(1, m).map(lambda n: NmPattern(n, m)))
# values without outer whitespace; serialize_config rejects a comment marker
TEXTS = st.text(string.ascii_letters + string.digits + "/._-:=# ", min_size=1).filter(lambda t: t == t.strip())
COUNTS = st.integers(1, 2**63)


def finite_floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


CONFIGS = st.builds(
    ExperimentConfig,
    strategy=st.sampled_from(Strategy),
    pattern=PATTERNS,
    criterion=st.sampled_from(BinarizationCriterion),
    dataset=TEXTS,
    out_dir=TEXTS,
    hidden_dims=st.lists(st.integers(1, 10**6), max_size=4).map(tuple),
    train=st.builds(
        TrainConfig,
        epochs=COUNTS,
        batch_size=COUNTS,
        delta_t=COUNTS,
        k=COUNTS,
        warmup_epochs=st.integers(0, 2**63),
        peak_lr=finite_floats(min_value=0.0, exclude_min=True),
        momentum=finite_floats(min_value=0.0, max_value=1.0, exclude_max=True),
        weight_decay=finite_floats(min_value=0.0),
        seed=st.integers(0, 2**63),
    ),
    classes=st.integers(-(2**63), 2**63),
    dim=st.integers(-(2**63), 2**63),
    per_class=st.integers(-(2**63), 2**63),
    spread=finite_floats(),
)


class TestConfigRoundTripProperties:
    @given(CONFIGS)
    def test_parse_of_serialize_is_identity(self, cfg):
        marked = [key for key in ("dataset", "out_dir") if "#" in getattr(cfg, key)]
        if marked:
            # the first offending key in file order is the one named
            with pytest.raises(ValueError, match=f"config key '{marked[0]}' cannot hold '#'"):
                serialize_config(cfg)
            return
        text = serialize_config(cfg)
        back = parse_config(text)
        assert back == cfg
        assert serialize_config(back) == text

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.7976931348623157e308, -1e308]
    )
    def test_extreme_floats_are_exact(self, value):
        cfg = ExperimentConfig(Strategy.VANILLA, NmPattern(2, 4), spread=value)
        back = parse_config(serialize_config(cfg)).spread
        assert np.float64(back).tobytes() == np.float64(value).tobytes()


class TestBuildDataset:
    def test_synthetic(self, tmp_path):
        data = build_dataset(small_config(tmp_path))
        assert data.input_dim == 8
        assert data.num_classes == 4

    def test_idx_pair_with_test_split(self, tmp_path):
        rng = np.random.default_rng(0)
        root = tmp_path / "mnist"
        root.mkdir()
        save_idx_images(root / "train-images-idx3-ubyte", rng.integers(0, 255, (6, 2, 4), dtype=np.uint8))
        save_idx_labels(root / "train-labels-idx1-ubyte", np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8))
        save_idx_images(root / "t10k-images-idx3-ubyte", rng.integers(0, 255, (2, 2, 4), dtype=np.uint8))
        # label 3 appears only in the test split, so num_classes must cover it
        save_idx_labels(root / "t10k-labels-idx1-ubyte", np.array([1, 3], dtype=np.uint8))
        cfg = small_config(tmp_path / "run")
        cfg = ExperimentConfig(**{**cfg.__dict__, "dataset": f"idx:{root}"})
        data = build_dataset(cfg)
        assert data.train_count == 6
        assert data.test_count == 2
        assert data.input_dim == 8
        assert data.num_classes == 4
        assert data.kind is DatasetKind.IDX_PAIR
        assert data.y_test.tolist() == [1, 3]

    def test_unknown_descriptor(self, tmp_path):
        cfg = ExperimentConfig(Strategy.VANILLA, NmPattern(2, 4), dataset="csv:wat")
        with pytest.raises(ValueError, match="descriptor"):
            build_dataset(cfg)


class TestRunExperiment:
    def test_smoke_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        summary = run_experiment(small_config(out))
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "config.txt").exists()
        assert np.isfinite(summary.final_train_accuracy)
        assert np.isfinite(summary.mean_grad_gap_l2)
        assert np.isfinite(summary.mean_eligible_block_ratio)
        assert np.isfinite(summary.search_seconds_total)
        # masks on disk are valid and weight files parse
        for i in range(2):
            w = load_matrix(out / f"layer{i}_weights.txt")
            fwd = load_mask(out / f"layer{i}_forward_mask.txt")
            bwd = load_mask(out / f"layer{i}_backward_mask.txt")
            assert validate_mask(fwd) == []
            assert validate_mask(bwd) == []
            # returned weights are already masked: support within the mask
            assert ((w != 0) <= (fwd.bits == 1)).all()

    def test_metrics_rows_match_iteration_count(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(out)
        run_experiment(cfg)
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "iteration,loss,grad_gap_l2,eligible_block_ratio,mask_flip_count"
        batches = (cfg.classes * cfg.per_class) // cfg.train.batch_size
        assert len(lines) - 2 == cfg.train.epochs * batches

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(small_config(a))
        run_experiment(small_config(b))
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_csv_header_lines_are_pinned(self, tmp_path):
        # columns are the record fields in declaration order
        out = tmp_path / "run"
        run_experiment(small_config(out))
        metrics = (out / "metrics.csv").read_text().splitlines()
        summary = (out / "summary.csv").read_text().splitlines()
        assert metrics[:2] == [
            "# nm-sparse-kit metrics v1",
            "iteration,loss,grad_gap_l2,eligible_block_ratio,mask_flip_count",
        ]
        assert summary[0] == (
            "strategy,pattern,criterion,final_train_accuracy,final_test_accuracy,"
            "mean_grad_gap_l2,mean_eligible_block_ratio,search_seconds_total"
        )
        assert len(summary) == 2

    def test_csv_row_cells(self):
        summary = ExperimentSummary("bimask", "2:4", "random", 1.0, None, 0.1, 2.5e-320, 3.0)
        assert csv_row(summary) == "bimask,2:4,random,1.0,,0.1,2.5e-320,3.0"

    def test_dense_strategy_smoke(self, tmp_path):
        summary = run_experiment(small_config(tmp_path / "dense", strategy=Strategy.DENSE))
        assert summary.mean_grad_gap_l2 == 0.0


class TestAblation:
    def test_three_rows_in_order(self, tmp_path):
        results = run_ablation(small_config(tmp_path / "ablate"))
        assert [label for label, _ in results] == list(ABLATION_LABELS)
        baseline, backward, permutation = (summary for _, summary in results)
        assert baseline.strategy == "vanilla"
        assert backward.strategy == "bimask"
        assert permutation.strategy == "bimask"
        # the identity-permutation variant never searches
        assert backward.search_seconds_total == 0.0
        assert permutation.search_seconds_total >= 0.0
        assert (tmp_path / "ablate" / "baseline" / "metrics.csv").exists()
        assert (tmp_path / "ablate" / "backward_mask" / "metrics.csv").exists()
        assert (tmp_path / "ablate" / "permutation" / "metrics.csv").exists()
