import subprocess
import sys
import time

import numpy as np
import pytest

from nm_sparse_kit.cli import main
from nm_sparse_kit.data import save_idx_images, save_idx_labels
from nm_sparse_kit.experiment import load_config
from nm_sparse_kit.masks import forward_mask, load_mask, validate_mask
from nm_sparse_kit.tensorops import NmPattern, save_matrix


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "w.txt"
    save_matrix(path, rng.normal(size=(8, 8)))
    return path


class TestMaskCommand:
    def test_vanilla(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "mask.txt"
        assert main(["mask", "--pattern", "2:4", "--family", "vanilla",
                     str(matrix_file), str(out)]) == 0
        mask = load_mask(out)
        assert mask.direction.value == "forward"
        assert validate_mask(mask) == []

    def test_transposable_exact(self, tmp_path, matrix_file):
        out = tmp_path / "mask.txt"
        assert main(["mask", "--pattern", "2:4", "--family", "transposable",
                     "--method", "exact", str(matrix_file), str(out)]) == 0
        assert load_mask(out).direction.value == "transposable"

    def test_transposable_exact_above_m4(self, tmp_path, matrix_file):
        out = tmp_path / "mask.txt"
        assert main(["mask", "--pattern", "2:8", "--family", "transposable",
                     "--method", "exact", str(matrix_file), str(out)]) == 0
        mask = load_mask(out)
        assert mask.direction.value == "transposable"
        assert str(mask.pattern) == "2:8"
        assert validate_mask(mask) == []

    def test_bimask_with_sampling_criterion(self, tmp_path, matrix_file):
        out = tmp_path / "mask.txt"
        assert main(["mask", "--pattern", "2:4", "--family", "bimask",
                     "--criterion", "multinomial", "--seed", "7",
                     str(matrix_file), str(out)]) == 0
        mask = load_mask(out)
        assert mask.direction.value == "backward"
        assert validate_mask(mask) == []

    def test_bimask_gradient_criterion(self, tmp_path, matrix_file):
        grad = tmp_path / "grad.txt"
        save_matrix(grad, np.random.default_rng(1).normal(size=(8, 8)))
        out = tmp_path / "mask.txt"
        assert main(["mask", "--pattern", "2:4", "--family", "bimask",
                     "--criterion", "gradient-magnitude", "--gradient", str(grad),
                     str(matrix_file), str(out)]) == 0
        assert validate_mask(load_mask(out)) == []

    def test_gradient_criterion_without_matrix_exit_2(self, tmp_path, matrix_file, capsys):
        rc = main(["mask", "--pattern", "2:4", "--family", "bimask",
                   "--criterion", "gradient-magnitude",
                   str(matrix_file), str(tmp_path / "out.txt")])
        assert rc == 2
        assert "gradient" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, rc",
        [
            (["--family", "vanilla"], 0),
            (["--family", "transposable"], 0),
            (["--family", "bimask", "--criterion", "weight-magnitude"], 0),
            (["--family", "bimask", "--criterion", "multinomial"], 1),
        ],
        ids=["vanilla", "transposable", "weight-magnitude", "multinomial"],
    )
    def test_env_seed_read_only_by_seeded_criteria(self, tmp_path, matrix_file, capsys, monkeypatch, flags, rc):
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "abc")
        out = tmp_path / "mask.txt"
        assert main(["mask", "--pattern", "2:4", *flags, str(matrix_file), str(out)]) == rc
        if rc:
            assert "must be an integer" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert validate_mask(load_mask(out)) == []

    def test_runtime_error_exit_2(self, tmp_path):
        rc = main(["mask", "--pattern", "2:4", "--family", "vanilla",
                   str(tmp_path / "absent.txt"), str(tmp_path / "out.txt")])
        assert rc == 2


class TestDiversityCommand:
    def test_vanilla_count(self, capsys):
        assert main(["diversity", "--pattern", "2:4", "--family", "vanilla",
                     "--tile-rows", "1"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_vanilla_count_defaults_to_one_tile_row(self, capsys):
        assert main(["diversity", "--pattern", "2:4"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_neither_pattern_nor_table_exit_1(self, capsys):
        assert main(["diversity"]) == 1
        assert capsys.readouterr().err == "usage error: diversity needs --pattern (or --table)\n"

    def test_transposable_count(self, capsys):
        assert main(["diversity", "--pattern", "2:4", "--family", "transposable"]) == 0
        assert capsys.readouterr().out.strip() == "90"

    def test_count_longer_than_the_int_string_limit_exit_2(self, capsys):
        # 6**6000 has 4669 digits; Python refuses to print more than 4300
        assert main(["diversity", "--pattern", "2:4", "--tile-rows", "6000"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: the vanilla count over 6000 tile rows has 4669 digits, "
            f"above Python's integer string limit of {sys.get_int_max_str_digits()} digits\n"
        )

    def test_huge_tile_rows_exit_2_before_computing(self, capsys):
        start = time.perf_counter()
        assert main(["diversity", "--pattern", "2:4", "--tile-rows", str(10**12)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "778151250384 digits" in capsys.readouterr().err

    def test_table(self, capsys):
        assert main(["diversity", "--table"]) == 0
        out = capsys.readouterr().out
        for pattern in ("1:4", "2:4", "1:8", "2:8", "4:8", "1:16"):
            assert pattern in out
        # the 2:4 row carries the vanilla vs transposable comparison
        row = next(line for line in out.splitlines() if line.strip().startswith("2:4"))
        assert "1296" in row and "90" in row


class TestPermuteCommand:
    def test_search_row(self, matrix_file, capsys):
        assert main(["permute", "--pattern", "2:4", "--k", "10", "--seed", "3",
                     str(matrix_file)]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert len(fields) == 5
        assert int(fields[0]) <= int(fields[1])
        assert int(fields[2]) == 11

    def test_oracle(self, tmp_path, capsys):
        path = tmp_path / "small.txt"
        save_matrix(path, np.random.default_rng(1).normal(size=(4, 4)))
        assert main(["permute", "--pattern", "2:4", "--oracle", str(path)]) == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert int(fields[2]) == 24  # 4!

    def test_env_seed_used_when_flag_absent(self, matrix_file, capsys, monkeypatch):
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "42")

        def deterministic_fields():
            main(["permute", "--pattern", "2:4", "--k", "5", str(matrix_file)])
            fields = capsys.readouterr().out.strip().split(",")
            del fields[3]  # elapsed wall time varies between runs
            return fields

        assert deterministic_fields() == deterministic_fields()

    def test_seed_precedence_flag_env_zero(self, tmp_path, capsys, monkeypatch):
        w = np.random.default_rng(0).normal(size=(16, 16))
        path = tmp_path / "masked.txt"
        save_matrix(path, forward_mask(w, NmPattern(2, 4)).apply(w))

        def chosen(*flags):
            assert main(["permute", "--pattern", "2:4", "--k", "5", *flags, str(path)]) == 0
            return capsys.readouterr().out.strip().split(",")[4]

        seeded = {seed: chosen("--seed", str(seed)) for seed in (0, 3, 42)}
        assert len(set(seeded.values())) == 3  # the seeds pick different permutations
        monkeypatch.delenv("NM_SPARSE_KIT_SEED", raising=False)
        assert chosen() == seeded[0]
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "42")
        assert chosen() == seeded[42]
        assert chosen("--seed", "3") == seeded[3]

    def test_non_integer_env_seed_exit_1(self, matrix_file, capsys, monkeypatch):
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "4.2")
        assert main(["permute", "--pattern", "2:4", "--k", "5", str(matrix_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "must be an integer" in err


def write_config(path, out_dir, extra="", seed_line="seed = 5\n"):
    path.write_text(
        "strategy = bimask\n"
        "pattern = 2:4\n"
        "dataset = synthetic\n"
        f"out_dir = {out_dir}\n"
        "hidden_dims = 16\n"
        "epochs = 3\n"
        "batch_size = 16\n"
        "delta_t = 8\n"
        "k = 10\n"
        "warmup_epochs = 1\n"
        "peak_lr = 0.1\n"
        "momentum = 0.9\n"
        "weight_decay = 0.0001\n"
        f"{seed_line}"
        "classes = 4\n"
        "dim = 8\n"
        "per_class = 16\n"
        "spread = 0.3\n" + extra
    )


class TestTrainCommand:
    def test_train_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "metrics.csv").exists()
        assert "train_acc=" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        write_config(cfg, tmp_path / "ignored")
        out = tmp_path / "flagged"
        assert main(["train", "--config", str(cfg), "--strategy", "vanilla",
                     "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert "vanilla" in capsys.readouterr().out

    def test_flag_supplies_a_key_the_config_leaves_out(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out)
        cfg.write_text(cfg.read_text().replace("pattern = 2:4\n", ""))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "'strategy' and 'pattern'" in capsys.readouterr().err
        assert main(["train", "--config", str(cfg), "--pattern", "1:4"]) == 0
        assert load_config(out / "config.txt").pattern == NmPattern(1, 4)

    def test_key_declared_twice_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out)
        cfg.write_text(cfg.read_text() + "pattern = 1:4\n")
        for flags in ([], ["--pattern", "1:4"]):  # a flag overrides a value, not a malformed file
            assert main(["train", "--config", str(cfg), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "key 'pattern' already declared on line" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new", [("epochs = 3", "epochs = 1.0"), ("criterion = weight-magnitude", "criterion = foo"),
                     ("hidden_dims = 16", "hidden_dims = a")],
        ids=["epochs", "criterion", "hidden_dims"],
    )
    def test_value_error_names_line_and_key_exit_2(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out, extra="criterion = weight-magnitude\n")
        lines = cfg.read_text().splitlines()
        lineno = lines.index(old) + 1
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["train", "--config", str(cfg)]) == 2
        key = new.split(" = ")[0]
        assert capsys.readouterr().err.startswith(f"error: config line {lineno}: key {key!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, recorded", [([], 5), (["--seed", "7"], 7)], ids=["config", "flag"])
    def test_seed_precedence_flag_config_env(self, tmp_path, capsys, monkeypatch, flags, recorded):
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "42")
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out)  # seed = 5
        assert main(["train", "--config", str(cfg), *flags]) == 0
        assert load_config(out / "config.txt").train.seed == recorded

    @pytest.mark.parametrize("flags, recorded", [([], 42), (["--seed", "7"], 7)], ids=["env", "flag"])
    def test_seed_of_a_config_without_seed(self, tmp_path, capsys, monkeypatch, flags, recorded):
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "42")
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out, seed_line="")
        assert main(["train", "--config", str(cfg), *flags]) == 0
        assert load_config(out / "config.txt").train.seed == recorded

    def test_non_integer_env_seed_with_a_seedless_config_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NM_SPARSE_KIT_SEED", "abc")
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "run"
        write_config(cfg, out, seed_line="")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "must be an integer" in err
        assert not out.exists()
        write_config(cfg, out)  # seed = 5: the environment is not read
        assert main(["train", "--config", str(cfg)]) == 0
        assert load_config(out / "config.txt").train.seed == 5

    @pytest.mark.parametrize("name", ["a\nb", "a\u2028b", "run "], ids=["newline", "separator", "space"])
    def test_unreadable_out_dir_exit_1(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert main(["train", "--strategy", "dense", "--pattern", "2:4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "'out_dir'" in err
        assert not out.exists()

    def test_usage_error_without_config_or_flags(self, capsys):
        assert main(["train"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_comment_marker_in_out_dir_exit_1(self, tmp_path, capsys):
        out = tmp_path / "#1"
        assert main(["train", "--strategy", "dense", "--pattern", "2:4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "'out_dir'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edits",
        [
            {"peak_lr = 0.1": "peak_lr = 1e25"},
            # one layer: its weights overflow while the loss is still finite
            {"hidden_dims = 16": "hidden_dims =", "peak_lr = 0.1": "peak_lr = 1e100",
             "weight_decay = 0.0001": "weight_decay = 1.0"},
        ],
        ids=["hidden", "single-layer"],
    )
    def test_divergence_exit_3(self, tmp_path, capsys, edits):
        cfg = tmp_path / "cfg.txt"
        write_config(cfg, tmp_path / "run", extra="")
        text = cfg.read_text().replace("warmup_epochs = 1", "warmup_epochs = 0")
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [("spread = 0.3", "spread = nan"), ("peak_lr = 0.1", "peak_lr = inf")])
    def test_non_finite_hyperparameter_exit_2(self, tmp_path, capsys, edit):
        cfg = tmp_path / "cfg.txt"
        write_config(cfg, tmp_path / "run")
        cfg.write_text(cfg.read_text().replace(*edit))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "train-labels-idx1-ubyte"])
    @pytest.mark.parametrize("keep", [6, -1])
    def test_truncated_idx_pair_exit_2(self, tmp_path, capsys, name, keep):
        root = tmp_path / "idx"
        root.mkdir()
        save_idx_images(root / "train-images-idx3-ubyte", np.zeros((4, 2, 4), dtype=np.uint8))
        save_idx_labels(root / "train-labels-idx1-ubyte", np.array([0, 1, 0, 1], dtype=np.uint8))
        path = root / name
        path.write_bytes(path.read_bytes()[:keep])
        rc = main(["train", "--strategy", "vanilla", "--pattern", "2:4", "--dataset", f"idx:{root}",
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "truncated" in err

    def test_zero_pixel_idx_images_exit_2(self, tmp_path, capsys):
        root = tmp_path / "idx"
        root.mkdir()
        save_idx_images(root / "train-images-idx3-ubyte", np.zeros((4, 0, 0), dtype=np.uint8))
        save_idx_labels(root / "train-labels-idx1-ubyte", np.array([0, 1, 0, 1], dtype=np.uint8))
        rc = main(["train", "--strategy", "vanilla", "--pattern", "2:4", "--dataset", f"idx:{root}",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "layer dimensions must be at least 1, got [0, 64, 2]" in err

    def test_idx_test_split_of_another_width_exit_2(self, tmp_path, capsys):
        root = tmp_path / "idx"
        root.mkdir()
        save_idx_images(root / "train-images-idx3-ubyte", np.zeros((4, 2, 2), dtype=np.uint8))
        save_idx_labels(root / "train-labels-idx1-ubyte", np.array([0, 1, 0, 1], dtype=np.uint8))
        save_idx_images(root / "t10k-images-idx3-ubyte", np.zeros((2, 1, 5), dtype=np.uint8))
        save_idx_labels(root / "t10k-labels-idx1-ubyte", np.array([0, 1], dtype=np.uint8))
        rc = main(["train", "--strategy", "vanilla", "--pattern", "2:4", "--dataset", f"idx:{root}",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "test features have shape (2, 5), expected (2, 4)" in err

    @pytest.mark.parametrize("lone", ["t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"])
    def test_lone_test_split_file_exit_2(self, tmp_path, capsys, lone):
        # half a test pair is not silently dropped: the missing partner fails on its path
        root = tmp_path / "idx"
        root.mkdir()
        save_idx_images(root / "train-images-idx3-ubyte", np.zeros((4, 2, 2), dtype=np.uint8))
        save_idx_labels(root / "train-labels-idx1-ubyte", np.array([0, 1, 0, 1], dtype=np.uint8))
        save_idx_images(root / "t10k-images-idx3-ubyte", np.zeros((2, 2, 2), dtype=np.uint8))
        save_idx_labels(root / "t10k-labels-idx1-ubyte", np.array([0, 1], dtype=np.uint8))
        missing = next(name for name in ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte") if name != lone)
        (root / missing).unlink()
        rc = main(["train", "--strategy", "vanilla", "--pattern", "2:4", "--dataset", f"idx:{root}",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(root / missing) in err

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["train", "--nope"]) == 1


class TestAblateCommand:
    def test_three_row_table(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        write_config(cfg, tmp_path / "ablate")
        assert main(["ablate", "--config", str(cfg)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == 3
        assert lines[0].startswith("baseline")
        assert lines[1].startswith("+backward-mask")
        assert lines[2].startswith("+permutation-updating")


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "nm_sparse_kit.cli", "diversity", "--pattern", "1:4",
             "--family", "transposable"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "24"
