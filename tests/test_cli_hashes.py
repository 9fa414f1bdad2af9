"""scripts/cli_hashes.py at toy size: two runs in this checkout print the same lines."""

from conftest import ROOT, load_script


def test_two_runs_print_the_same_hashes(monkeypatch, capsys):
    script = load_script("cli_hashes")
    monkeypatch.setattr(script, "TRAIN_IMAGES", 32)
    monkeypatch.setattr(script, "TEST_IMAGES", 16)
    monkeypatch.setattr(script, "CIFAR_RECORDS", 8)
    monkeypatch.setattr(script, "CIFAR_SUBSET", 16)
    monkeypatch.setattr(script, "CIFAR_STEPS", 1)
    monkeypatch.setattr(script, "TRAIN_FLAGS", ["--epochs", "1", "--batch-size", "16", "--seed", "3", "--deterministic"])
    monkeypatch.setattr(script, "ABLATE_PRESET", "balanced-vs-wide-end-128k")
    monkeypatch.setattr(script, "ABLATE_STEPS", 1)
    monkeypatch.setattr(script, "GRADCHECK_INSTANCES", 1)
    monkeypatch.setattr(script, "GRADCHECK_SEEDS", (0,))
    runs = []
    for _ in range(2):
        assert script.main([ROOT]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split("  ")[1] for line in runs[0]] == [
        "train-tiny/stdout", "train-tiny/tiny.csv", "train-tiny/tiny.snpk", "eval-tiny/stdout",
        "train-no-bn/stdout", "train-no-bn/no-bn.csv", "train-no-bn/no-bn.snpk", "eval-no-bn/stdout",
        "eval-tiny-no-normalize/stdout",
        "train-cifar/stdout", "train-cifar/cifar.csv", "train-cifar/cifar.snpk", "eval-cifar/stdout",
        "ablate/stdout", "ablate/ablate.tsv",
        "analyze-table/stdout", "analyze-records/stdout", "analyze-no-bn/stdout", "gradcheck-seed0/stdout",
    ]
    assert all(len(line.split("  ")[0]) == 64 for line in runs[0])
