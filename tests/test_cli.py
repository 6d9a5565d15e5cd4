"""Command-line interface: workflows, determinism, config files, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tensorfm
from tensorfm import auc, logloss, read_dataset, score_dataset
from tensorfm import cli, scoring
from tensorfm.cli import main
from tensorfm.params import load_bundle, save_bundle

# The flags each sub-command cannot run without, in the order its help lists them.
REQUIRED_FLAGS = {
    "synth": ["--out-prefix"],
    "prep": ["--csv", "--fields", "--label", "--out-prefix"],
    "train": ["--train", "--model", "--out"],
    "eval": ["--model", "--data"],
    "grid": ["--train", "--valid", "--model", "--out"],
    "bench-flops": ["--out"],
    "bench-latency": ["--data", "--out"],
    "interpret": ["--model", "--data", "--out-prefix"],
}
SEEDED = ("synth", "prep", "train", "grid", "bench-latency")


def run_cli(args, cwd):
    """Run the command line in a fresh interpreter, as a user would."""
    env = {**os.environ, "PYTHONPATH": str(Path(tensorfm.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "tensorfm.cli", *args], capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture()
def synth_files(tmp_path):
    prefix = str(tmp_path / "s")
    rc = main(
        [
            "synth", "--fields", "3", "--card", "6", "--order", "2",
            "--samples", "3000", "--seed", "5", "--out-prefix", prefix,
        ]
    )
    assert rc == 0
    return prefix


class TestSynth:
    def test_single_sample_gives_one_line_dataset(self, tmp_path):
        prefix = str(tmp_path / "one")
        rc = main(["synth", "--fields", "2", "--card", "3", "--order", "1", "--samples", "1",
                   "--seed", "0", "--out-prefix", prefix])
        assert rc == 0
        lines = (tmp_path / "one.train.txt").read_text().splitlines()
        assert len(lines) == 2  # header + the single instance
        assert lines[0].startswith("#schema")

    def test_hundred_field_dataset(self, tmp_path):
        prefix = str(tmp_path / "big")
        rc = main(["synth", "--fields", "4", "--card", "4", "--order", "4", "--noise", "96",
                   "--samples", "50", "--seed", "1", "--out-prefix", prefix])
        assert rc == 0
        header = (tmp_path / "big.train.txt").read_text().splitlines()[0]
        assert len(header.split(" ")[1].split(",")) == 100

    def test_splits_partition_the_samples(self, synth_files):
        sizes = [len(read_dataset(f"{synth_files}.{t}.txt")) for t in ("train", "valid", "test")]
        assert sum(sizes) == 3000
        assert sizes == [2100, 450, 450]


class TestTrainEval:
    def test_train_writes_model_and_log(self, synth_files, tmp_path, capsys):
        model = str(tmp_path / "m.txt")
        log = str(tmp_path / "log.csv")
        rc = main(["train", "--train", f"{synth_files}.train.txt", "--valid", f"{synth_files}.valid.txt",
                   "--model", "tensorfm", "--d", "2", "--rank", "2", "--lr", "0.1",
                   "--epochs", "2", "--out", model, "--log", log])
        assert rc == 0
        bundle = load_bundle(model)
        assert bundle.kind == "tensorfm"
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0].startswith("#")  # wall-clock columns flagged as nondeterministic
        assert lines[1] == "epoch,train_loss,valid_logloss,valid_auc,wall_seconds"
        assert len(lines) == 4

    def test_eval_matches_library_metrics(self, synth_files, tmp_path, capsys):
        model = str(tmp_path / "m.txt")
        main(["train", "--train", f"{synth_files}.train.txt", "--model", "fm",
              "--lr", "0.1", "--epochs", "2", "--out", model])
        capsys.readouterr()
        rc = main(["eval", "--model", model, "--data", f"{synth_files}.test.txt"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "test_logloss,test_auc"
        ll, auc_pct = (float(tok) for tok in out[1].split(","))
        test_set = read_dataset(f"{synth_files}.test.txt")
        scores = score_dataset(load_bundle(model), test_set)
        assert abs(ll - logloss(scores, test_set.labels)) < 1e-6
        assert abs(auc_pct - 100 * auc(scores, test_set.labels)) < 1e-3

    def test_zero_epochs_is_usage_error(self, synth_files, tmp_path):
        rc = main(["train", "--train", f"{synth_files}.train.txt", "--model", "lr",
                   "--epochs", "0", "--out", str(tmp_path / "m.txt")])
        assert rc == 2

    def test_epoch_log_deterministic_apart_from_wall_clock(self, synth_files, tmp_path):
        logs = []
        for tag in ("a", "b"):
            main(["train", "--train", f"{synth_files}.train.txt", "--valid", f"{synth_files}.valid.txt",
                  "--model", "fm", "--lr", "0.1", "--epochs", "2", "--seed", "3",
                  "--out", str(tmp_path / f"m{tag}.txt"), "--log", str(tmp_path / f"l{tag}.csv")])
            rows = (tmp_path / f"l{tag}.csv").read_text().splitlines()[2:]
            logs.append([",".join(row.split(",")[:-1]) for row in rows])  # drop wall_seconds
        assert logs[0] == logs[1]
        assert (tmp_path / "ma.txt").read_bytes() == (tmp_path / "mb.txt").read_bytes()


class TestGridCommand:
    def test_grid_report(self, synth_files, tmp_path):
        report = tmp_path / "grid.csv"
        rc = main(["grid", "--train", f"{synth_files}.train.txt", "--valid", f"{synth_files}.valid.txt",
                   "--model", "fm", "--grid-lr", "0.05,0.1", "--grid-l2", "0",
                   "--epochs", "2", "--out", str(tmp_path / "best.txt"), "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "learning_rate,l2,valid_auc,valid_logloss,status"
        assert len(lines) == 3

    @pytest.mark.parametrize("command, lr, code", [("grid", ["--grid-lr", "0.05,1e160,0.1"], 0),
                                                   ("train", ["--lr", "1e160"], 4)])
    def test_diverging_learning_rate_writes_no_numpy_warning(self, synth_files, tmp_path, command, lr, code):
        argv = [command, "--train", f"{synth_files}.train.txt", "--valid", f"{synth_files}.valid.txt",
                "--model", "fm", *lr, "--out", str(tmp_path / "m.txt")]
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == code
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == ("" if code == 0 else "error: training loss became non-finite in epoch 1; last completed epoch: 0\n")

    def test_eval_of_a_diverged_model_is_numeric_error(self, synth_files, tmp_path, capsys, monkeypatch):
        # One batch, no validation set: training ends before the overflow shows.
        model = tmp_path / "m.txt"
        assert main(["train", "--train", f"{synth_files}.train.txt", "--model", "fm", "--lr", "1e160",
                     "--batch-size", "5000", "--epochs", "1", "--out", str(model)]) == 0
        capsys.readouterr()
        # the suite turns a numpy RuntimeWarning into an exception, in a scoring thread too;
        # the test file is one scoring batch, the training file two, one of them a helper's
        monkeypatch.setattr(scoring, "WORKERS", 2)
        assert len(read_dataset(f"{synth_files}.train.txt")) > scoring.SCORE_BATCH
        for part in ("test", "train"):
            rc = main(["eval", "--model", str(model), "--data", f"{synth_files}.{part}.txt"])
            assert rc == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {model}: non-finite score for row 0 of {synth_files}.{part}.txt")

    @pytest.mark.parametrize("keep, message", [("1", "AUC is undefined"), ("", "{valid}: no data rows")],
                             ids=["one-class", "empty"])
    def test_undefined_validation_auc_is_data_error(self, synth_files, tmp_path, capsys, monkeypatch, keep, message):
        header, *rows = Path(f"{synth_files}.valid.txt").read_text().splitlines()
        valid = tmp_path / "v.txt"
        valid.write_text("\n".join([header, *(r for r in rows if keep and r.startswith(keep + " "))]) + "\n")
        monkeypatch.setattr("tensorfm.training.train", lambda *args: pytest.fail("a grid point trained"))
        rc = main(["grid", "--train", f"{synth_files}.train.txt", "--valid", str(valid),
                   "--model", "fm", "--out", str(tmp_path / "best.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: " + message.format(valid=valid))
        assert not (tmp_path / "best.txt").exists()


class TestBenchCommands:
    def test_flops_sweep_row_count(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        rc = main(["bench-flops", "--sweep-n", "10:200:10", "--kinds", "lr,fm,fwfm,tensorfm",
                   "--d", "3", "--rank", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,n,k,d,r,flops"
        assert len(lines) == 1 + 4 * 20  # 20 sweep points per kind

    def test_fwfm_lr_flag_trains_tensorfm_of_order_two(self, synth_files, tmp_path):
        model = tmp_path / "m.txt"
        rc = main(["train", "--train", f"{synth_files}.train.txt", "--model", "fwfm-lr",
                   "--d", "3", "--rank", "2", "--epochs", "1", "--out", str(model)])
        assert rc == 0
        bundle = load_bundle(model)
        assert (bundle.kind, bundle.d, bundle.r_vec) == ("tensorfm", 2, (2,))

    def test_fwfm_lr_flops_equal_tensorfm_of_order_two(self, tmp_path):
        out = {}
        for token, d in (("fwfm-lr", "3"), ("tensorfm", "2")):
            path = tmp_path / f"{token}.csv"
            assert main(["bench-flops", "--sweep-n", "10:20:10", "--kinds", token,
                         "--d", d, "--rank", "3", "--out", str(path)]) == 0
            out[token] = [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]
        assert out["fwfm-lr"] == out["tensorfm"]  # the alias always has d=2

    def test_both_alias_spellings_train_the_same_model(self, synth_files, tmp_path):
        models = []
        for alias in ("fwfm-lowrank", "fwfm-lr"):
            model = tmp_path / f"{alias}.txt"
            assert main(["train", "--train", f"{synth_files}.train.txt", "--model", alias,
                         "--rank", "2", "--epochs", "1", "--out", str(model)]) == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize("bad", [["--kinds", "hofm", "--sweep-n", "1:3:1"], ["--kinds", "fm", "--k", "-3"]])
    def test_flops_of_a_model_that_cannot_exist_is_usage_error(self, tmp_path, capsys, bad):
        out = tmp_path / "flops.csv"
        assert main(["bench-flops", *bad, "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_latency_command(self, tmp_path, capsys):
        prefix = str(tmp_path / "lat")
        main(["synth", "--fields", "3", "--card", "4", "--order", "2", "--samples", "500",
              "--seed", "2", "--out-prefix", prefix])
        out = tmp_path / "lat.csv"
        rc = main(["bench-latency", "--data", f"{prefix}.train.txt", "--kinds",
                   "lr,tensorfm:2:2", "--repeats", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "kind,ms_per_instance,std_ms,repeats"
        assert len(lines) == 4


class TestInterpretCommand:
    def test_emits_tables_and_summary(self, synth_files, tmp_path):
        model = str(tmp_path / "m.txt")
        main(["train", "--train", f"{synth_files}.train.txt", "--model", "tensorfm",
              "--d", "2", "--rank", "2", "--lr", "0.1", "--epochs", "2", "--out", model])
        rc = main(["interpret", "--model", model, "--data", f"{synth_files}.train.txt",
                   "--order", "2", "--topk", "1,3", "--out-prefix", str(tmp_path / "rep")])
        assert rc == 0
        table = (tmp_path / "rep.interactions.csv").read_text().splitlines()
        assert table[0] == "tuple,learned_strength,mutual_info"
        assert len(table) == 4  # 3 field pairs
        top = (tmp_path / "rep.top3.csv").read_text().splitlines()
        assert len(top) == 4
        summary = json.loads((tmp_path / "rep.summary.json").read_text())
        assert {"pearson", "overlap", "order", "n_tuples"} <= set(summary)

    def test_interpret_deterministic(self, synth_files, tmp_path):
        model = str(tmp_path / "m.txt")
        main(["train", "--train", f"{synth_files}.train.txt", "--model", "tensorfm",
              "--d", "2", "--rank", "2", "--lr", "0.1", "--epochs", "1", "--out", model])
        outputs = []
        for tag in ("a", "b"):
            main(["interpret", "--model", model, "--data", f"{synth_files}.train.txt",
                  "--order", "2", "--topk", "2", "--out-prefix", str(tmp_path / f"r{tag}")])
            outputs.append((tmp_path / f"r{tag}.interactions.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fields=2\ncard=4\norder=2\nsamples=100\nseed=9\n")
        prefix = str(tmp_path / "c")
        rc = main(["synth", "--config", str(cfg), "--samples", "50", "--out-prefix", prefix])
        assert rc == 0
        total = sum(len(read_dataset(f"{prefix}.{t}.txt")) for t in ("train", "valid", "test"))
        assert total == 50  # command line beat the config file
        header = (tmp_path / "c.train.txt").read_text().splitlines()[0]
        assert header == "#schema 4,4"  # config supplied the rest

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        rc = main(["synth", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("line", ["k=x", "fractions=0.5,0.3,0.3", "samples=0"])
    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\n{line}\n")
        command = "train" if line.startswith("k=") else "synth"
        assert main([command, "--config", str(cfg)]) == 2
        key, _, value = line.partition("=")
        err = capsys.readouterr().err
        assert f"{cfg}:2: {line}" in err and f"--{key}" in err


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path / "no.txt"), "--data", "also-no.txt"]) == 3

    def test_bad_flag_value_is_usage_error(self, synth_files, tmp_path):
        rc = main(["train", "--train", f"{synth_files}.train.txt", "--model", "tensorfm",
                   "--d", "2", "--rank", "99", "--out", str(tmp_path / "m.txt")])
        assert rc == 2

    @pytest.mark.parametrize("where", ["command line", "config file"])
    def test_malformed_value_is_usage_error(self, tmp_path, where):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=x\n")
        bad = ["--k", "x"] if where == "command line" else ["--config", str(cfg)]
        proc = run_cli(["train", "--train", "t.txt", "--model", "fm", "--out", "m.txt", *bad], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--k" in proc.stderr and "'x'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, bad", [
        ("synth", ["--samples", "0"]),
        ("synth", ["--fractions", "0.5,0.3,0.3"]),
        ("prep", ["--fractions", "0.5,0.3,0.3"]),
        ("prep", ["--fractions", "0.9,0.1,0"]),
        ("synth", ["--noise", "-1"]),
        ("prep", ["--bins", "0"]),
        ("prep", ["--delimiter", ""]),
        ("interpret", ["--topk", "0"]),
        ("interpret", ["--topk", "3,-1"]),
    ])
    def test_bad_count_or_fractions_is_usage_error(self, tmp_path, capsys, command, bad):
        with pytest.raises(SystemExit) as exc:
            main([command, *bad, "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert bad[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("train", ["--batch-size", "0"]),
        ("grid", ["--batch-size", "0"]),
        ("bench-latency", ["--batch-size", "0"]),
        ("bench-flops", ["--sweep-n", "0:2:1"]),
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--l2", "nan"]),
        ("train", ["--init-scale", "-1"]),
        ("train", ["--init-scale", "nan"]),
        ("grid", ["--grid-lr", "0.1,nan"]),
        ("grid", ["--grid-l2", "0,-1"]),
        ("grid", ["--init-scale", "inf"]),
        ("bench-latency", ["--repeats", "0"]),
    ])
    def test_size_below_one_is_usage_error(self, tmp_path, capsys, command, bad):
        with pytest.raises(SystemExit) as exc:
            main([command, *bad, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert bad[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_order_above_fields_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--order", "4", "--fields", "3", "--out-prefix", str(tmp_path / "x")])
        assert code == 2
        assert "--order" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus", "1"])
        assert exc.value.code == 2

    def test_schema_mismatch_is_data_error(self, synth_files, tmp_path, capsys):
        model = str(tmp_path / "m.txt")
        main(["train", "--train", f"{synth_files}.train.txt", "--model", "lr",
              "--epochs", "1", "--out", model])
        other = str(tmp_path / "o")
        main(["synth", "--fields", "2", "--card", "9", "--order", "2", "--samples", "100",
              "--seed", "1", "--out-prefix", other])
        # mismatch surfaces as a clean nonzero exit, not a crash
        rc = main(["eval", "--model", model, "--data", f"{other}.test.txt"])
        assert rc in (2, 3)

    @pytest.mark.parametrize("token", ["abc", "nan"])
    def test_corrupt_model_value_is_data_error(self, synth_files, tmp_path, capsys, token):
        model = tmp_path / "m.txt"
        main(["train", "--train", f"{synth_files}.train.txt", "--model", "fm",
              "--epochs", "1", "--out", str(model)])
        lines = model.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("block embeddings")) + 1
        lines[row] = " ".join([token] + lines[row].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data", f"{synth_files}.test.txt"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "embeddings" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_prep_of_a_non_finite_numeric_value_is_data_error(self, tmp_path, value):
        csv = tmp_path / "t.csv"
        csv.write_text(f"x,y\n0.1,0\n{value},1\n0.9,1\n")
        proc = run_cli(["prep", "--csv", str(csv), "--fields", "x", "--label", "y", "--out-prefix", "p"], cwd=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == f"error: {csv}:3: numeric column 'x' holds a non-finite value '{value}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    @pytest.mark.parametrize("line", ["x 0:1 1:2 2:0", "1 0:a 1:2 2:0", "1 0:1 0:2 2:0", "1 0:1 1:2:nan 2:0"])
    def test_corrupt_dataset_line_is_data_error(self, synth_files, tmp_path, capsys, line):
        model = tmp_path / "m.txt"
        main(["train", "--train", f"{synth_files}.train.txt", "--model", "lr",
              "--epochs", "1", "--out", str(model)])
        data = tmp_path / "bad.txt"
        header = Path(f"{synth_files}.test.txt").read_text().splitlines()[0]
        data.write_text(f"{header}\n1 0:1 1:2 2:0\n{line}\n")
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data", str(data)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "bad.txt:3" in err and "Traceback" not in err

    def test_help_lists_flags(self, capsys):
        for command in ("synth", "prep", "train", "eval", "grid", "bench-flops", "bench-latency", "interpret"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--config" in out
            # only the commands that draw random numbers take a seed
            assert ("--seed" in out) == (command in SEEDED)


def test_readme_command_line_examples_parse():
    # the fenced block under "## Command line", one example per sub-command
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    examples = [line.split()[1:] for line in block.replace("\\\n", " ").splitlines() if line.startswith("tensorfm ")]
    assert sorted(argv[0] for argv in examples) == sorted(cli.COMMANDS)
    for argv in examples:
        args = cli.build_parser().parse_args(argv)
        missing = [key for key, _, default, _ in args.options if default is cli.REQUIRED and getattr(args, key) is None]
        assert not missing, (argv, missing)


def test_python_dash_m_runs_the_command_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(tensorfm.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "tensorfm", "--help"], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: tensorfm") and "eval" in proc.stdout


class TestRequiredOptions:
    @pytest.mark.parametrize("command", list(REQUIRED_FLAGS))
    def test_missing_required_flags_are_named(self, capsys, command):
        assert main([command]) == 2
        assert capsys.readouterr().err == f"error: missing required option(s): {', '.join(REQUIRED_FLAGS[command])}\n"

    def test_config_file_supplies_a_required_option(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out_prefix={tmp_path / 'c'}\nfields=2\ncard=3\norder=2\nsamples=40\n")
        assert main(["synth", "--config", str(cfg)]) == 0
        assert len(read_dataset(tmp_path / "c.train.txt")) == 28

    @pytest.mark.parametrize("command", list(REQUIRED_FLAGS))
    def test_help_describes_every_option_and_marks_the_required(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        entries = re.split(r"\n\s+(?=--)", capsys.readouterr().out)[1:]  # one per option
        assert len(entries) == len(cli.COMMANDS[command][2]) + 1  # with --config
        for entry in entries:
            flag, _metavar, *text = entry.split()
            assert text, flag
        required = [entry.split()[0] for entry in entries if "(required)" in entry]
        assert required == REQUIRED_FLAGS[command]


class TestUnusablePaths:
    """A path that names a directory, a file that is not UTF-8 text, or a
    dataset with no rows where a command needs rows, is a data error (exit
    3) that names the path, whichever option gave it. A dataset whose schema
    is not the model's is a usage error (exit 2) that names the dataset."""

    CASES = {
        "eval --model <dir>": ["eval", "--model", "{dir}", "--data", "{tmp}/d.txt"],
        "train --train <dir>": ["train", "--train", "{dir}", "--model", "fm", "--out", "{tmp}/m.txt"],
        "train --out <dir>": ["train", "--train", "{train}", "--model", "fm", "--epochs", "1", "--out", "{dir}"],
        "train --out <missing dir>/m.txt": ["train", "--train", "{train}", "--model", "fm", "--epochs", "1",
                                            "--out", "{missing}"],
        "--config <dir>": ["eval", "--config", "{dir}"],
        "model not UTF-8": ["eval", "--model", "{bad}", "--data", "{train}"],
        "dataset not UTF-8": ["train", "--train", "{bad}", "--model", "fm", "--out", "{tmp}/m.txt"],
        "config not UTF-8": ["eval", "--config", "{bad}"],
        "prep --csv not UTF-8": ["prep", "--csv", "{bad}", "--fields", "a", "--label", "y", "--out-prefix", "{tmp}/p"],
        "bench-latency --data <empty>": ["bench-latency", "--data", "{empty}", "--out", "{tmp}/lat.csv"],
        "interpret --data <empty>": ["interpret", "--model", "{model}", "--data", "{empty}", "--order", "2",
                                     "--out-prefix", "{tmp}/ip"],
        "eval --data <empty>": ["eval", "--model", "{model}", "--data", "{empty}"],
        "train --train <empty>": ["train", "--train", "{empty}", "--model", "fm", "--out", "{tmp}/m.txt"],
        "train --valid <empty>": ["train", "--train", "{train}", "--valid", "{empty}", "--model", "fm",
                                  "--epochs", "1", "--out", "{tmp}/m.txt"],
        "grid --valid <empty>": ["grid", "--train", "{train}", "--valid", "{empty}", "--model", "fm",
                                 "--epochs", "1", "--out", "{tmp}/m.txt"],
        # a missing output directory is named before any input is read (the inputs are missing too)
        "synth --out-prefix <missing dir>/p": ["synth", "--samples", "200", "--out-prefix", "{prefix}"],
        "prep --out-prefix <missing dir>/p": ["prep", "--csv", "{tmp}/in.csv", "--fields", "a", "--label", "y",
                                              "--out-prefix", "{prefix}"],
        "interpret --out-prefix <missing dir>/p": ["interpret", "--model", "{tmp}/in.txt", "--data", "{tmp}/in.txt",
                                                   "--out-prefix", "{prefix}"],
        "bench-latency --out <missing dir>/m.txt": ["bench-latency", "--data", "{tmp}/in.txt", "--out", "{missing}"],
        "bench-flops --out <missing dir>/m.txt": ["bench-flops", "--out", "{missing}"],
    }
    OTHER_SCHEMA = {
        "eval --data <other schema>": ["eval", "--model", "{model}", "--data", "{other}"],
        "interpret --data <other schema>": ["interpret", "--model", "{model}", "--data", "{other}", "--order", "2",
                                            "--out-prefix", "{tmp}/ip"],
        "train --valid <other schema>": ["train", "--train", "{train}", "--valid", "{other}", "--model", "fm",
                                         "--epochs", "1", "--out", "{tmp}/m.txt"],
    }
    FILES = ["bad.txt", "dir", "empty.txt", "model.txt", "other.txt", "train.txt"]

    def _argv(self, tmp_path, case):
        paths = {"dir": tmp_path / "dir", "bad": tmp_path / "bad.txt", "missing": tmp_path / "missing" / "m.txt",
                 "prefix": tmp_path / "missing" / "p",
                 "empty": tmp_path / "empty.txt", "other": tmp_path / "other.txt", "model": tmp_path / "model.txt"}
        train = tmp_path / "train.txt"
        paths["dir"].mkdir()
        (paths["dir"] / "kept.txt").write_text("kept\n")
        paths["bad"].write_bytes("caf\u00e9 1\n".encode("latin-1"))
        train.write_text("#schema 2,2\n1 0:1 1:0\n0 0:0 1:1\n")
        paths["empty"].write_text("#schema 2,2\n")
        # more values per field than the model's schema has: rows the model has no embeddings for
        paths["other"].write_text("#schema 3,3\n1 0:2 1:0\n0 0:0 1:2\n")
        save_bundle(tensorfm.init("tensorfm", tensorfm.build_schema([2, 2]), k=2, d=2, r_vec=1), paths["model"])
        template = self.CASES.get(case) or self.OTHER_SCHEMA[case]
        path = next(p for key, p in paths.items() if f"{{{key}}}" in template)
        return [arg.format(train=train, tmp=tmp_path, **paths) for arg in template], path

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_3_naming_the_path(self, tmp_path, capsys, case):
        argv, path = self._argv(tmp_path, case)
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert ".tmp" not in err  # the path given, not the temporary file beside it
        assert [p.name for p in (tmp_path / "dir").iterdir()] == ["kept.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FILES

    @pytest.mark.parametrize("case", list(OTHER_SCHEMA))
    def test_other_schema_exits_2_naming_the_dataset(self, tmp_path, capsys, case):
        argv, path = self._argv(tmp_path, case)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: schema of 2 fields and 6 features does not match")
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FILES

    @pytest.mark.parametrize("case", ["eval --model <dir>", "dataset not UTF-8", "bench-latency --data <empty>",
                                      "interpret --data <empty>", "eval --data <empty>", "train --train <empty>",
                                      "train --valid <empty>", "grid --valid <empty>", *OTHER_SCHEMA])
    def test_no_traceback(self, tmp_path, case):
        argv, path = self._argv(tmp_path, case)
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == (2 if case in self.OTHER_SCHEMA else 3)
        assert proc.stderr.startswith("error: ") and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("command,option", [("train", "--out"), ("train", "--log"), ("grid", "--out"),
                                            ("grid", "--report")])
def test_missing_output_directory_is_reported_before_reading_data(tmp_path, capsys, command, option):
    # the datasets do not exist either: reading one first would name it instead
    missing = tmp_path / "missing" / "out.txt"
    options = {"--train": tmp_path / "train.txt", "--valid": tmp_path / "valid.txt", "--model": "fm",
               "--out": tmp_path / "m.txt", option: missing}
    assert main([command, *(str(v) for item in options.items() for v in item)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_csv_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), ["a", "b"], [[1, 2]])
    before = path.read_bytes()
    assert before == b"a,b\r\n1,2\r\n"

    def rows_failing_at_row_2():
        yield [3, 4]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._write_csv(str(path), ["a", "b"], rows_failing_at_row_2())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
