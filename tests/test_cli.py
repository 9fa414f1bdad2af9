import os
import struct
import subprocess
import sys
import warnings

import pytest

import simpnet
from conftest import write_idx_pair
from simpnet import archdsl
from simpnet import train as T
from simpnet.cli import main
from simpnet.network import save_checkpoint

TOY_ARCH = (
    "input 1 28 28\n"
    "group g1\n"
    "conv 3 6 s1 p1\n"
    "bn\n"
    "relu\n"
    "conv 3 8 s1 p1\n"
    "bn\n"
    "relu\n"
    "conv 3 8 s1 p1\n"
    "bn\n"
    "relu\n"
    "safpool 2 p0.1\n"
    "group head\n"
    "gap\n"
    "flatten\n"
    "dense 10\n"
)


@pytest.fixture
def toy_arch_file(tmp_path):
    path = tmp_path / "toy.arch"
    path.write_text(TOY_ARCH)
    return str(path)


def train_args(toy_arch_file, mnist_dir, tmp_path, *extra):
    return [
        "train",
        "--arch",
        toy_arch_file,
        "--dataset",
        "mnist",
        "--data-dir",
        str(mnist_dir),
        "--epochs",
        "1",
        "--batch-size",
        "64",
        "--out-metrics",
        str(tmp_path / "metrics.csv"),
        "--out-ckpt",
        str(tmp_path / "model.snpk"),
        *extra,
    ]


class TestTrainCommand:
    def test_missing_data_dir_exits_2(self, toy_arch_file, monkeypatch):
        monkeypatch.delenv("SIMPNET_DATA_DIR", raising=False)
        code = main(["train", "--arch", toy_arch_file, "--dataset", "mnist"])
        assert code == 2

    def test_unknown_flag_exits_2(self):
        assert main(["train", "--frobnicate"]) == 2

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--batch-size", "0", "batch_size must be >= 1"),
            ("--lr", "nan", "lr must be finite"),
            ("--lr", "inf", "lr must be finite"),
            ("--wd", "nan", "weight_decay must be finite"),
        ],
    )
    def test_bad_training_option_exits_2_before_writing(
        self, toy_arch_file, mnist_dir, tmp_path, capsys, flag, value, message
    ):
        assert main(train_args(toy_arch_file, mnist_dir, tmp_path, flag, value)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.snpk").exists()

    def test_toy_run_writes_metrics_and_checkpoint(self, toy_arch_file, mnist_dir, tmp_path):
        code = main(train_args(toy_arch_file, mnist_dir, tmp_path))
        assert code == 0
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) - 1 >= 1  # at least epochs rows beyond the header
        assert (tmp_path / "model.snpk").exists()

    def test_deterministic_runs_byte_identical(self, toy_arch_file, mnist_dir, tmp_path):
        blobs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            out.mkdir()
            code = main(
                train_args(toy_arch_file, mnist_dir, out, "--deterministic", "--seed", "7")
            )
            assert code == 0
            blobs.append(
                ((out / "metrics.csv").read_bytes(), (out / "model.snpk").read_bytes())
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_dataset_arch_shape_mismatch_exits_2(self, toy_arch_file, cifar_dir, tmp_path):
        code = main(
            [
                "train",
                "--arch",
                toy_arch_file,
                "--dataset",
                "cifar10",
                "--data-dir",
                str(cifar_dir),
                "--out-metrics",
                str(tmp_path / "m.csv"),
                "--out-ckpt",
                str(tmp_path / "m.snpk"),
            ]
        )
        assert code == 2

    def test_missing_files_exit_3(self, toy_arch_file, tmp_path):
        code = main(
            train_args(toy_arch_file, tmp_path / "empty", tmp_path)
        )
        assert code == 3

    def test_unknown_preset_exits_2_listing_names(self, mnist_dir, tmp_path, capsys):
        code = main(
            [
                "train",
                "--preset",
                "nope",
                "--dataset",
                "mnist",
                "--data-dir",
                str(mnist_dir),
                "--out-metrics",
                str(tmp_path / "m.csv"),
                "--out-ckpt",
                str(tmp_path / "m.snpk"),
            ]
        )
        assert code == 2
        assert "simpnet-tiny" in capsys.readouterr().err

    def test_max_steps_and_subset(self, toy_arch_file, mnist_dir, tmp_path):
        code = main(
            train_args(toy_arch_file, mnist_dir, tmp_path, "--subset", "128", "--max-steps", "1")
        )
        assert code == 0

    def test_a_non_finite_test_loss_exits_4_keeping_the_last_good_checkpoint(self, tmp_path, capsys):
        # lr 1e30 leaves finite weights whose logits overflow, so the train loss of the one step is
        # finite and the epoch's test loss is not
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_idx_pair(data_dir, "train", 64, seed=1)
        write_idx_pair(data_dir, "t10k", 32, seed=2)
        first = tmp_path / "first.snpk"
        save_checkpoint(T.init_model(archdsl.build(archdsl.builder_presets()["simpnet-tiny"]), 0), first)
        argv = ["train", "--preset", "simpnet-tiny", "--dataset", "mnist", "--data-dir", str(data_dir)]
        argv += ["--epochs", "1", "--max-steps", "1", "--batch-size", "32", "--lr", "1e30", "--deterministic"]
        argv += ["--out-metrics", str(tmp_path / "metrics.csv"), "--out-ckpt", str(tmp_path / "model.snpk")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 4
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: numerical abort: test loss became non-finite at epoch 1"]
        assert "final test top1" not in captured.out
        assert (tmp_path / "model.snpk").read_bytes() == first.read_bytes()
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1,1,train,")  # the rows before the abort


class TestEvalCommand:
    def test_eval_roundtrip(self, toy_arch_file, mnist_dir, tmp_path, capsys):
        assert main(train_args(toy_arch_file, mnist_dir, tmp_path)) == 0
        code = main(
            [
                "eval",
                "--arch",
                toy_arch_file,
                "--ckpt",
                str(tmp_path / "model.snpk"),
                "--dataset",
                "mnist",
                "--data-dir",
                str(mnist_dir),
            ]
        )
        assert code == 0
        assert "top1" in capsys.readouterr().out

    def test_eval_without_normalization_reads_no_train_split(self, toy_arch_file, mnist_dir, tmp_path, capsys):
        assert main(train_args(toy_arch_file, mnist_dir, tmp_path, "--no-normalize")) == 0
        for path in mnist_dir.glob("train-*"):
            path.unlink()
        args = ["eval", "--arch", toy_arch_file, "--ckpt", str(tmp_path / "model.snpk")]
        args += ["--dataset", "mnist", "--data-dir", str(mnist_dir)]
        assert main([*args, "--no-normalize"]) == 0
        assert "top1" in capsys.readouterr().out
        assert main(args) != 0  # normalized eval takes its statistics from the train split
        assert "train-images-idx3-ubyte" in capsys.readouterr().err


GAP_ONLY_ARCH = "input 1 28 28\ngroup g1\nconv 3 10 s1 p1\nbn\nrelu\ngroup head\ngap\n"


class TestClassifierWidth:
    def test_a_gap_only_tail_trains_and_evaluates(self, mnist_dir, tmp_path, capsys):
        arch = tmp_path / "gap.arch"
        arch.write_text(GAP_ONLY_ARCH)
        assert main(train_args(str(arch), mnist_dir, tmp_path, "--epochs", "2", "--subset", "128")) == 0
        eval_args = ["eval", "--arch", str(arch), "--ckpt", str(tmp_path / "model.snpk")]
        assert main([*eval_args, "--dataset", "mnist", "--data-dir", str(mnist_dir)]) == 0
        assert "top1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "arch, width",
        [
            (TOY_ARCH.replace("dense 10", "dense 5"), 5),
            (TOY_ARCH.replace("dense 10", "dense 12"), 12),
            (GAP_ONLY_ARCH.replace("conv 3 10", "conv 3 7"), 7),
        ],
        ids=["dense-5", "dense-12", "gap-7"],
    )
    def test_a_class_count_mismatch_exits_2_before_any_file(self, mnist_dir, tmp_path, capsys, command, arch, width):
        path = tmp_path / "head.arch"
        path.write_text(arch)
        if command == "train":
            argv = train_args(str(path), mnist_dir, tmp_path)
        else:  # the checkpoint does not exist: the check comes before it is read
            argv = ["eval", "--arch", str(path), "--ckpt", str(tmp_path / "model.snpk"), "--dataset", "mnist"]
            argv += ["--data-dir", str(mnist_dir)]
        assert main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1
        assert f"{width} outputs but the dataset has 10 classes" in errors[0]
        assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.snpk").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_an_input_shape_mismatch_names_the_arch_file(self, mnist_dir, tmp_path, capsys, command):
        path = tmp_path / "narrow.arch"
        path.write_text("input 1 28 2\ngroup g1\nconv 3 4 s1 p1\nrelu\ngroup head\ngap\nflatten\ndense 10\n")
        if command == "train":
            argv = train_args(str(path), mnist_dir, tmp_path)
        else:
            argv = ["eval", "--arch", str(path), "--ckpt", str(tmp_path / "model.snpk"), "--dataset", "mnist"]
            argv += ["--data-dir", str(mnist_dir)]
        assert main(argv) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {path}: ")
        assert "architecture input (1, 28, 2) does not match dataset samples (1, 28, 28)" in errors[0]
        assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.snpk").exists()


class TestAnalyzeCommand:
    def test_default_preset_reports_totals(self, capsys):
        code = main(["analyze", "--preset", "simpnet-300k"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total params" in out

    def test_early_1x1_fixture_contains_r2_fail(self, tmp_path, capsys):
        path = tmp_path / "bad.arch"
        path.write_text(
            "input 3 32 32\ngroup g1\nconv 1 8 s1 p0\nrelu\nconv 3 16 s1 p1\nrelu\n"
            "conv 3 24 s1 p1\nrelu\ngroup head\ngap\nflatten\ndense 10\n"
        )
        code = main(["analyze", "--arch", str(path)])
        assert code == 0  # warnings and fails still audit cleanly
        out = capsys.readouterr().out
        assert "R2" in out and "fail" in out

    def test_records_format(self, tmp_path, capsys):
        path = tmp_path / "bad.arch"
        path.write_text(
            "input 3 32 32\ngroup g1\nconv 5 8 s1 p2\nrelu\ngroup head\ngap\nflatten\ndense 10\n"
        )
        code = main(["analyze", "--arch", str(path), "--format", "records"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert all(len(l.split("\t")) == 5 for l in lines)

    def test_shape_collapse_exits_5(self, tmp_path):
        lines = ["input 1 28 28", "group g1"]
        for _ in range(6):
            lines += ["conv 3 4 s1 p1", "maxpool 2"]
        lines += ["group head", "flatten", "dense 10"]
        path = tmp_path / "collapse.arch"
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--arch", str(path)]) == 5

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.arch"
        path.write_text("input 1 28 28\ngroup g1\nconv 4 8\ngap\n")
        assert main(["analyze", "--arch", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["maxpool 2 s0", "safpool 2 s0 p0.1", "conv 3 8 s0", "conv 3 0 s1 p1", "dense 0", "dropout p0.3 s1"]
    )
    def test_zero_sizes_and_foreign_flags_exit_2(self, tmp_path, capsys, line):
        path = tmp_path / "broken.arch"
        path.write_text(f"input 1 28 28\ngroup g1\nconv 3 8 s1 p1\n{line}\ngroup head\nflatten\ndense 10\n")
        assert main(["analyze", "--arch", str(path)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_zero_stride_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "broken.arch"
        path.write_text("input 1 28 28\ngroup g1\nconv 3 8 s1 p1\nmaxpool 2 s0\ngroup head\ngap\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simpnet.__file__)))
        cmd = [sys.executable, "-m", "simpnet.cli", "analyze", "--arch", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "line 4, col 11" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("conv 3 8 s1 p1\nfoo\n", 2, "architecture parse failed: line 4, col 1: unknown keyword 'foo'"),
            ("conv 3 8 s1 p1\nrelu\n", 5, "architecture invalid: no classifier tail (need gap, or flatten + dense)"),
        ],
        ids=["parse", "validation"],
    )
    def test_an_arch_file_error_names_the_file(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "bad.arch"
        path.write_text("input 1 28 28\ngroup g1\n" + text)
        assert main(["analyze", "--arch", str(path)]) == code
        assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")] == [
            f"error: {path}: {message}"
        ]

    def test_input_override(self, capsys):
        assert main(["analyze", "--preset", "simpnet-300k", "--input", "3", "64", "64"]) == 0


class TestGradcheckCommand:
    def test_layer_filter_runs_quickly(self, capsys):
        code = main(["gradcheck", "--layer", "relu", "--instances", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relu" in out and "conv" not in out

    def test_unknown_layer_exits_2(self):
        assert main(["gradcheck", "--layer", "transformer", "--instances", "1"]) == 2

    def test_broken_backward_exits_1_naming_layer(self, monkeypatch, capsys):
        import simpnet.gradcheck as gc

        monkeypatch.setitem(gc.CASES, "poisoned", lambda rng: 1.0)
        code = main(["gradcheck", "--layer", "poisoned", "--instances", "2"])
        assert code == 1
        err = capsys.readouterr()
        assert "poisoned" in err.out or "poisoned" in err.err


class TestAblateCommand:
    def test_unknown_preset_exits_2_with_names(self, mnist_dir, capsys):
        code = main(
            ["ablate", "--preset", "bogus", "--dataset", "mnist", "--data-dir", str(mnist_dir)]
        )
        assert code == 2
        assert "maxpool-vs-sconv" in capsys.readouterr().err

    def test_two_arm_table_and_records(self, mnist_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "ablate",
                "--preset",
                "maxpool-vs-sconv",
                "--dataset",
                "mnist",
                "--data-dir",
                str(mnist_dir),
                "--subset",
                "32",
                "--epochs",
                "1",
                "--batch-size",
                "16",
                "--out-records",
                str(tmp_path / "records.tsv"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "maxpool" in out and "sconv" in out
        records = (tmp_path / "records.tsv").read_text().strip().splitlines()
        assert len(records) == 6

    def test_an_unwritable_records_path_fails_before_any_training(self, mnist_dir, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        argv = ["ablate", "--preset", "maxpool-vs-sconv", "--dataset", "mnist", "--data-dir", str(mnist_dir)]
        assert main([*argv, "--subset", "32", "--epochs", "1", "--out-records", str(records)]) == 3
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error: ")]
        assert len(errors) == 1 and str(records) in errors[0]
        assert not any("training" in line for line in err if not line.startswith("resolved config"))
        assert "records.tmp" not in os.listdir(tmp_path)


def _data_dir(root, n_train=64, train_images=None):
    """An MNIST-format directory; train_images, if given, replaces the
    bytes of its train image file. Returns the directory and that file."""
    root.mkdir()
    img, _ = write_idx_pair(root, "train", n_train, seed=1)
    write_idx_pair(root, "t10k", 16, seed=2)
    if train_images is not None:
        with open(img, "wb") as f:
            f.write(train_images)
    return root, img


def _eval_args(tmp_path, arch, ckpt):
    data_dir, _ = _data_dir(tmp_path / "data")
    return ["eval", "--arch", arch, "--ckpt", str(ckpt), "--dataset", "mnist", "--data-dir", str(data_dir)]


def _eval_with_checkpoint(tmp_path, arch, payload):
    ckpt = tmp_path / "bad.snpk"
    ckpt.write_bytes(b"SNPK\x01" + payload)
    return _eval_args(tmp_path, arch, ckpt), ckpt


def _train_on(tmp_path, arch, data_dir, *extra):
    return train_args(arch, data_dir, tmp_path, "--subset", "64", "--max-steps", "1", *extra)


def _case_analyze_arch_dir(tmp_path, arch):
    return ["analyze", "--arch", str(tmp_path)], tmp_path


def _case_eval_missing_ckpt(tmp_path, arch):
    missing = tmp_path / "missing.snpk"
    return _eval_args(tmp_path, arch, missing), missing


def _case_train_out_metrics_dir(tmp_path, arch):
    data_dir, _ = _data_dir(tmp_path / "data")
    return _train_on(tmp_path, arch, data_dir, "--out-metrics", str(data_dir)), data_dir


def _case_arch_not_utf8(tmp_path, arch):
    bad = tmp_path / "bad.arch"
    bad.write_bytes(b"\xff\xfe")
    return ["analyze", "--arch", str(bad)], bad


def _case_idx_header_exceeds_file(tmp_path, arch):
    header = struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFF, 0xFFFF)
    data_dir, img = _data_dir(tmp_path / "data", train_images=header + bytes(100))
    return _train_on(tmp_path, arch, data_dir), img


def _case_ckpt_size_exceeds_file(tmp_path, arch):
    payload = struct.pack("<H", 1) + b"w" + struct.pack("<BB2I", 0, 2, 0xFFFFFFFF, 0xFFFFFFFF)
    return _eval_with_checkpoint(tmp_path, arch, payload)


def _case_ckpt_ndim(ndim):
    def case(tmp_path, arch):
        dims = struct.pack(f"<BB{ndim}I", 0, ndim, *[1] * ndim)
        return _eval_with_checkpoint(tmp_path, arch, struct.pack("<H", 1) + b"w" + dims + bytes(4))

    return case


def _case_ckpt_name_not_utf8(tmp_path, arch):
    return _eval_with_checkpoint(tmp_path, arch, struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BB", 0, 0))


def _case_empty_train_split(tmp_path, arch):
    data_dir, img = _data_dir(tmp_path / "data", n_train=0)
    return _train_on(tmp_path, arch, data_dir), img


def _case_ablate_subset_0(tmp_path, arch):
    data_dir, _ = _data_dir(tmp_path / "data")
    argv = ["ablate", "--preset", "maxpool-vs-sconv", "--dataset", "mnist", "--data-dir", str(data_dir)]
    return argv + ["--subset", "0", "--out-records", str(tmp_path / "records.tsv")], "subset"


def _train_setting(setting, *flags):
    def case(tmp_path, arch):
        data_dir, _ = _data_dir(tmp_path / "data")
        return train_args(arch, data_dir, tmp_path, *flags), setting

    return case


def _setting(setting, *argv):
    return lambda tmp_path, arch: (list(argv), setting)


@pytest.mark.parametrize(
    "make_case, code",
    [
        pytest.param(_case_analyze_arch_dir, 3, id="analyze-arch-dir"),
        pytest.param(_case_eval_missing_ckpt, 3, id="eval-missing-ckpt"),
        pytest.param(_case_train_out_metrics_dir, 3, id="train-out-metrics-dir"),
        pytest.param(_case_arch_not_utf8, 3, id="arch-not-utf8"),
        pytest.param(_case_idx_header_exceeds_file, 3, id="idx-header-exceeds-file"),
        pytest.param(_case_ckpt_size_exceeds_file, 3, id="ckpt-size-exceeds-file"),
        pytest.param(_case_ckpt_ndim(65), 3, id="ckpt-ndim-65"),
        pytest.param(_case_ckpt_ndim(255), 3, id="ckpt-ndim-255"),
        pytest.param(_case_ckpt_name_not_utf8, 3, id="ckpt-name-not-utf8"),
        pytest.param(_case_empty_train_split, 3, id="empty-train-split"),
        pytest.param(_train_setting("subset", "--subset", "0"), 2, id="train-subset-0"),
        pytest.param(_case_ablate_subset_0, 2, id="ablate-subset-0"),
        pytest.param(_train_setting("max_steps", "--max-steps", "0"), 2, id="train-max-steps-0"),
        pytest.param(_train_setting("epochs", "--epochs", "0"), 2, id="train-epochs-0"),
        pytest.param(_setting("instances", "gradcheck", "--instances", "0"), 2, id="gradcheck-instances-0"),
        pytest.param(
            _setting("--input", "analyze", "--preset", "simpnet-300k", "--input", "3", "0", "0"),
            2,
            id="analyze-input-3-0-0",
        ),
        pytest.param(
            _setting("--input", "analyze", "--preset", "simpnet-300k", "--input", "0", "32", "32"),
            2,
            id="analyze-input-0-32-32",
        ),
        pytest.param(
            _setting(
                "'maxpool-vs-sconv' is a multi-arm experiment preset; run it with the ablate command",
                "train", "--preset", "maxpool-vs-sconv", "--dataset", "mnist", "--data-dir", "unread",
            ),
            2,
            id="train-experiment-preset",
        ),
        pytest.param(
            _setting("valid: simpnet-300k, simpnet-5m, simpnet-600k, simpnet-tiny", "analyze", "--preset", "nope"),
            2,
            id="analyze-unknown-preset",
        ),
    ],
)
def test_malformed_input_exits_with_a_message_naming_it(tmp_path, toy_arch_file, capsys, make_case, code):
    argv, named = make_case(tmp_path, toy_arch_file)
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("error: ")]
    assert len(errors) == 1
    assert str(named) in errors[0]
    assert not any(line.startswith("epoch 1 train") for line in err)  # each fails before the first step


@pytest.mark.parametrize("command, code", [("train", 2), ("analyze", 5)])
def test_a_width_over_the_cap_fails_before_any_file_is_written(tmp_path, capsys, command, code):
    huge = tmp_path / "huge.arch"
    huge.write_text(TOY_ARCH.replace("conv 3 8 s1 p1", "conv 3 99999999999 s1 p1", 1))
    if command == "train":
        argv = _train_on(tmp_path, str(huge), _data_dir(tmp_path / "data")[0])
    else:
        argv = ["analyze", "--arch", str(huge)]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == [
        f"error: {huge}: architecture invalid: width 99999999999 is over the cap of 4096 channels or units"
    ]
    assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.snpk").exists()


def test_arch_directory_exits_3_without_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simpnet.__file__)))
    cmd = [sys.executable, "-m", "simpnet.cli", "analyze", "--arch", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert str(tmp_path) in proc.stderr and "Traceback" not in proc.stderr


def test_every_package_module_is_reachable_from_the_cli():
    """A library module that only its own tests import is dead code."""
    probe = (
        "import pkgutil, sys\n"
        "import simpnet.cli\n"
        "loaded = {name.split('.')[1] for name in sys.modules if name.startswith('simpnet.')}\n"
        "print(' '.join(sorted(m.name for m in pkgutil.iter_modules(simpnet.__path__) if m.name not in loaded)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simpnet.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [], f"modules the CLI never imports: {proc.stdout.strip()}"
