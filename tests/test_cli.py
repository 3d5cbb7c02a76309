import contextlib
import contextvars
import hashlib
import math
import os
import pkgutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import srslab
import srslab.cli
import srslab.counting
import srslab.training
from srslab.cli import CompareRow, main, records_table, run_grid
from srslab.config import parse_config, parse_grid_config
from srslab.coverage import expected_untouched_replacement
from srslab.csvio import read_csv, write_csv
from srslab.nets import init_mlp
from srslab.training import lr_at, train

TINY_TRAIN = (
    "classes = 2\nipc_train = 10\nipc_test = 5\ndim = 2\n"
    "sigma_means = 3.0\nsigma_noise = 0.3\nhidden = 8\nbatch_size = 5\n"
    "lr_milestones = 2\nepochs = 4\nseed = 0\n"
)
# Schedules that share prefixes as a tree: the second and third part
# from the first at epoch 2 and from each other at epoch 3; the fourth
# steps at the first one's rates throughout, and its last row differs.
PREFIX_GRID = TINY_TRAIN + (
    "samplers = epoch, srs, replacement\n"
    "schedules = 4@0.1 | 2,4@0.1 | 2,3@0.1 | 5@0.1\nseeds = 0, 1\n"
)
# The second and third schedules part from the first at epoch 2, and
# from each other there too, so both resume from one saved state.
FORK_GRID = TINY_TRAIN + (
    "samplers = epoch, srs\n"
    "schedules = 4@0.1 | 2@0.1 | 2@0.5\nseeds = 0, 1\n"
)
# The first two schedules step at the same rates through all 4 epochs,
# so the second resumes from the first after its last epoch; the third
# parts from both at epoch 2 and resumes from the first.
TWIN_GRID = TINY_TRAIN + (
    "samplers = epoch, srs\n"
    "schedules = 10@0.1 | 11@0.1 | 2@0.1\nseeds = 0, 1\n"
)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_python(*args, cwd, timeout=120):
    """Run a fresh interpreter with the package source on its path."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(srslab.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestCount:
    def test_five_two(self, capsys):
        assert main(["count", "5", "2"]) == 0
        out = capsys.readouterr().out
        assert "configs_one_epoch 13 digits 2" in out
        assert "configs_without 13 digits 2" in out
        assert "configs_with 20 digits 2" in out

    def test_four_two_three_epochs(self, capsys):
        assert main(["count", "4", "2", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "configs_without 21 digits 2" in out
        assert "configs_with 36 digits 2" in out

    def test_equal_sizes_collapse_to_epochs(self, capsys):
        assert main(["count", "9", "9", "--epochs", "5"]) == 0
        out = capsys.readouterr().out
        assert "configs_without 5 digits 1" in out
        assert "configs_with 5 digits 1" in out

    def test_large_sizes_print_exact_decimals(self, capsys):
        assert main(["count", "50000", "64", "--epochs", "200"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines()
                    if l.startswith("configs_with "))
        value = line.split()[1]
        assert len(value) == int(line.split()[3]) > 200
        assert value.isdigit()

    def test_values_past_the_int_string_limit_print_in_full(self, capsys):
        # The counts have 5,076 and 5,077 digits, past CPython's default
        # limit of 4,300 on str(int); the caller's limit is left as it was.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["count", "100000", "2500"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if " digits " in line]
        assert len(rows) == 3
        for _, value, _, digits in rows:
            assert value.isdigit() and len(value) == int(digits)
        assert max(int(digits) for *_, digits in rows) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_report_never_sets_the_int_string_limit(self, monkeypatch,
                                                    capsys):
        # The limit is interpreter-wide: other code in the process keeps
        # its protection while a report prints.
        def refuse(limit):
            raise AssertionError("count_report set the int string limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse,
                            raising=False)
        assert main(["count", "100000", "2500"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if " digits " in line]
        assert [int(digits) for *_, digits in rows] == [5076, 5076, 5077]
        for _, value, _, digits in rows:
            assert value.isdigit() and len(value) == int(digits)

    @pytest.mark.parametrize("argv, expected", [
        (["5", "2"],
         "N 5\nB 2\nbatches_per_epoch 2\nepochs 1\n"
         "configs_one_epoch 13 digits 2\nconfigs_without 13 digits 2\n"
         "configs_with 20 digits 2\n"),
        (["4", "2", "--epochs", "3"],
         "N 4\nB 2\nbatches_per_epoch 2\nepochs 3\n"
         "configs_one_epoch 7 digits 1\nconfigs_without 21 digits 2\n"
         "configs_with 36 digits 2\n"),
    ], ids=["5-2", "4-2-epochs-3"])
    def test_one_epoch_sum_is_evaluated_once(self, monkeypatch, capsys,
                                             argv, expected):
        # Spy on the sum under both names it is reachable by, so a second
        # evaluation through configs_without would count too.
        calls = []
        one_epoch = srslab.counting.configs_one_epoch

        def counted(params):
            calls.append(params)
            return one_epoch(params)

        monkeypatch.setattr(srslab.counting, "configs_one_epoch", counted)
        monkeypatch.setattr(srslab.cli, "configs_one_epoch", counted)
        assert main(["count", *argv]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("n, b", [("100000000000000", "1"),
                                      ("100000000", "10")])
    def test_many_batches_per_epoch_finish_quickly(self, tmp_path, n, b):
        # 10^14 and 10^7 batches per epoch: a term-by-term sum never ends,
        # so the count runs in a child that the timeout kills, and the
        # child times main itself, leaving out interpreter start.
        script = (
            "import sys, time\n"
            "from srslab.cli import main\n"
            "start = time.perf_counter()\n"
            f"code = main(['count', '{n}', '{b}'])\n"
            "print(time.perf_counter() - start, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = run_python("-c", script, cwd=tmp_path, timeout=60)
        assert done.returncode == 0, done.stderr
        assert float(done.stderr) < 1.0
        assert f"batches_per_epoch {int(n) // int(b)}" in done.stdout

    def test_invalid_params_exit_nonzero(self, capsys):
        assert main(["count", "2", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line diagnostic

    def test_batch_size_past_maxsize_exits_two(self, capsys):
        # math.perm and math.comb take no k above sys.maxsize
        b = sys.maxsize + 1
        assert main(["count", str(10 * b), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: batch_size must be <= {sys.maxsize}, got {b}\n")
        assert captured.out == ""


class TestCoverage:
    def test_zero_iterations(self, tmp_path, capsys):
        out_path = tmp_path / "c.csv"
        code = main(["coverage", "replacement", "20", "4", "--iterations",
                     "0", "--replicas", "3", "--out", str(out_path)])
        assert code == 0
        table = read_csv(out_path)
        assert table.header == ["replica", "iterations", "min_count",
                                "max_count", "mean_count",
                                "untouched_fraction", "chi_square"]
        assert len(table.rows) == 4  # 3 replicas + median row
        assert all(row[5] == "1.0" for row in table.rows)
        assert table.rows[-1][0] == "median"

    def test_epoch_shuffle_full_pass_is_exhaustive(self, tmp_path):
        out_path = tmp_path / "c.csv"
        main(["coverage", "epoch", "100", "10", "--iterations", "10",
              "--replicas", "2", "--out", str(out_path)])
        table = read_csv(out_path)
        assert all(row[5] == "0.0" for row in table.rows)

    def test_replacement_matches_analytic_median(self, tmp_path, capsys):
        out_path = tmp_path / "c.csv"
        main(["coverage", "replacement", "100", "10", "--iterations", "10",
              "--seed", "7", "--replicas", "200", "--out", str(out_path)])
        table = read_csv(out_path)
        median_untouched = float(table.rows[-1][5])
        assert median_untouched == pytest.approx(0.34867844, abs=0.01)

    def test_summary_prints_replacement_closed_form(self, tmp_path, capsys):
        main(["coverage", "srs", "1000", "32", "--iterations", "31",
              "--replicas", "2", "--out", str(tmp_path / "c.csv")])
        out = capsys.readouterr().out
        closed = expected_untouched_replacement(1000, 32, 31)
        assert out.rstrip("\n").endswith(f" replacement closed form={closed}")

    def test_bad_params_exit_nonzero(self, tmp_path, capsys):
        code = main(["coverage", "srs", "4", "9", "--iterations", "1",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["srs", "replacement", "epoch"])
    def test_zero_batch_size_exits_two(self, tmp_path, capsys, kind):
        code = main(["coverage", kind, "10", "0", "--iterations", "5",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: batch_size must be >= 1, got 0\n")
        assert not (tmp_path / "c.csv").exists()

    def test_input_too_large_to_allocate_exits_two(self, tmp_path, capsys):
        # 2**50 int64 slots are 8 PiB, beyond any 47-bit address space
        out_path = tmp_path / "c.csv"
        code = main(["coverage", "srs", str(2**50), "3", "--iterations", "1",
                     "--out", str(out_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_negative_seed_names_the_seed_rule(self, tmp_path, capsys):
        code = main(["coverage", "srs", "10", "2", "--iterations", "3",
                     "--seed", "-1", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "c.csv").exists()


class TestTrain:
    def test_csv_shape_and_schedule_column(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN, encoding="utf-8")
        out_path = tmp_path / "run.csv"
        assert main(["train", str(cfg), "--out", str(out_path)]) == 0
        table = read_csv(out_path)
        assert table.header == ["effective_epoch", "learning_rate",
                                "train_loss", "test_error",
                                "wall_iterations"]
        assert len(table.rows) == 4  # one row per effective epoch
        config = parse_config(cfg)
        for row in table.rows:
            assert float(row[1]) == lr_at(config, float(row[0]))
        assert [int(r[4]) for r in table.rows] == [4, 8, 12, 16]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN, encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["train", str(cfg), "--out", str(a)]) == 0
        assert main(["train", str(cfg), "--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

    @pytest.mark.parametrize("widths, depth", [
        ("", 1), ("8", 2), ("64,64", 3)], ids=["none", "one", "two"])
    def test_hidden_lists_the_hidden_widths(self, tmp_path, capsys,
                                            monkeypatch, widths, depth):
        models = []

        def spy(*args):
            models.append(init_mlp(*args))
            return models[-1]

        monkeypatch.setattr(srslab.training, "init_mlp", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN.replace("hidden = 8", f"hidden = {widths}"),
                       encoding="utf-8")
        out_path = tmp_path / "run.csv"
        assert main(["train", str(cfg), "--out", str(out_path)]) == 0
        assert [len(m.ws) for m in models] == [depth]
        assert [w.shape[1] for w in models[0].ws[:-1]] == [
            int(w) for w in widths.split(",") if w]
        table = read_csv(out_path)
        assert len(table.rows) == 4
        assert all(math.isfinite(float(row[2])) for row in table.rows)

    @pytest.mark.parametrize("widths", ["0", "64,0"])
    def test_zero_hidden_width_exits_two(self, tmp_path, capsys, widths):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_TRAIN.replace("hidden = 8", f"hidden = {widths}"),
                       encoding="utf-8")
        out_path = tmp_path / "x.csv"
        assert main(["train", str(cfg), "--out", str(out_path)]) == 2
        assert capsys.readouterr().err == (
            "error: hidden must be >= 1, got 0\n")
        assert not out_path.exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "nope.cfg"), "--out",
                     str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_config_value_error_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("batch_size = 0\n", encoding="utf-8")
        code = main(["train", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("line, key", [
        ("lr = 0", "lr"),
        ("lr_decay = 1", "lr_decay"),
        ("lr_milestones = 0,5", "lr_milestones"),
        ("lr_milestones = 10,10", "lr_milestones"),
    ])
    def test_schedule_errors_name_their_key(self, tmp_path, capsys, line,
                                            key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        code = main(["train", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ")
        assert err.count("\n") == 1

    def test_rate_underflow_exits_two_before_training(self, tmp_path,
                                                      capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(srslab.training, "forward_loss",
                            lambda *args: calls.append(args))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lr = 1e-300\nlr_decay = 1e-30\nlr_milestones = 1,2\n",
                       encoding="utf-8")
        out_path = tmp_path / "x.csv"
        assert main(["train", str(cfg), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lr 1e-300 at lr_decay 1e-30 ")
        assert err.count("\n") == 1
        assert calls == []
        assert not out_path.exists()

    @pytest.mark.parametrize("sigma_means, error", [
        ("1e308", "sigma_means 1e+308 and sigma_noise 1.0 draw points "
                  "that are not finite"),
        # finite but huge points still train, and diverge
        ("1e307", "training diverged"),
    ], ids=["not-finite", "finite"])
    def test_blob_scales_too_large_exit_two(self, tmp_path, capsys,
                                            sigma_means, error):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(f"sigma_means = {sigma_means}\n", encoding="utf-8")
        out_path = tmp_path / "x.csv"
        assert main(["train", str(cfg), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert err.count("\n") == 1
        assert f"sigma_means {float(sigma_means)}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_batch_size_error_names_config_keys(self, tmp_path, capsys,
                                                command):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("batch_size = 10000\n", encoding="utf-8")
        code = main([command, str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "batch_size 10000 exceeds classes × ipc_train = 500" in err
        assert "dataset_size" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_input_too_large_for_numpy_exits_two(self, tmp_path, capsys):
        # np.repeat takes a C long, so 10^20 samples per class overflow
        cfg = tmp_path / "big.cfg"
        cfg.write_text("ipc_train = 99999999999999999999\n", encoding="utf-8")
        out_path = tmp_path / "x.csv"
        assert main(["train", str(cfg), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN, encoding="utf-8")
        code = main(["train", str(cfg), "--out",
                     str(tmp_path / "no_dir" / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCompare:
    def test_grid_arity_and_medians(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            TINY_TRAIN + "samplers = epoch, srs\n"
            "schedules = 2@0.1 | 1,3@0.1\nseeds = 0,1\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 0
        table = read_csv(out_path)
        assert table.header == ["sampler", "milestones", "decay", "seed",
                                "final_test_error", "best_test_error"]
        cell_rows = [r for r in table.rows if r[3] != "median"]
        median_rows = [r for r in table.rows if r[3] == "median"]
        assert len(cell_rows) == 8   # 2 samplers x 2 schedules x 2 seeds
        assert len(median_rows) == 4  # one per cell
        # row order follows grid declaration order
        assert [r[0] for r in cell_rows[:4]] == ["epoch"] * 4
        assert cell_rows[0][1] == "2" and cell_rows[2][1] == "1,3"
        # medians sit inside their seeds' range
        for sampler, milestones, decay, _, final, best in median_rows:
            finals = [float(r[4]) for r in cell_rows
                      if r[:3] == [sampler, milestones, decay]]
            bests = [float(r[5]) for r in cell_rows
                     if r[:3] == [sampler, milestones, decay]]
            assert min(finals) <= float(final) <= max(finals)
            assert min(bests) <= float(best) <= max(bests)

    def test_summary_goes_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_TRAIN + "seeds = 0\n", encoding="utf-8")
        main(["compare", str(cfg), "--out", str(tmp_path / "g.csv")])
        out = capsys.readouterr().out
        assert out.count("\n") == 2  # one line per cell
        table = read_csv(tmp_path / "g.csv")
        medians = [dict(zip(table.header, r)) for r in table.rows
                   if r[3] == "median"]
        assert out.splitlines() == [
            f"{m['sampler']} ({m['milestones']}) decay {m['decay']}: "
            f"median final={m['final_test_error']} "
            f"best={m['best_test_error']}" for m in medians]

    def test_one_train_call_per_run_row_in_row_order(self, tmp_path,
                                                     capsys, monkeypatch):
        results, real_train = [], srslab.cli.train

        def spy(config):
            results.append(real_train(config))
            return results[-1]

        monkeypatch.setattr(srslab.cli, "train", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_TRAIN + "samplers = srs, epoch\n"
                       "schedules = 2@0.1 | 1,3@0.5\nseeds = 3,1\n",
                       encoding="utf-8")
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 0
        run_rows = [r for r in read_csv(out_path).rows if r[3] != "median"]
        assert len(results) == len(run_rows) == 8
        assert [(r[0], r[3]) for r in run_rows[:2]] == [("srs", "3"),
                                                        ("srs", "1")]
        for row, result in zip(run_rows, results):
            c = result.config
            assert row == [c.sampler, ",".join(map(str, c.lr_milestones)),
                           repr(c.lr_decay), str(c.seed),
                           repr(result.final_test_error),
                           repr(result.best_test_error)]

    def test_shared_prefixes_match_standalone_runs(self, tmp_path, capsys,
                                                   monkeypatch):
        results, real_train = [], srslab.cli.train

        def spy(config):
            results.append(real_train(config))
            return results[-1]

        monkeypatch.setattr(srslab.cli, "train", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(PREFIX_GRID, encoding="utf-8")
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 0
        assert len(results) == 24
        for result in results:
            # every row, the fork epochs' learning_rate included
            assert result == train(result.config)
        # a resumed run's fork row reports its own rate, not its source's
        assert [r.learning_rate for r in results[2].rows] == [
            0.1, 0.1 * 0.1, 0.1 * 0.1, 0.1 * 0.1 ** 2]
        monkeypatch.setattr(srslab.cli, "shared_prefixes",
                            lambda runs: contextlib.nullcontext())
        expected = tmp_path / "standalone.csv"
        write_csv(records_table(CompareRow, run_grid(parse_grid_config(cfg))),
                  expected)
        assert out_path.read_bytes() == expected.read_bytes()

    def test_two_readers_of_one_state_each_match_standalone_runs(
            self, tmp_path, capsys, monkeypatch):
        results, real_train = [], srslab.cli.train

        def spy(config):
            results.append(real_train(config))
            return results[-1]

        monkeypatch.setattr(srslab.cli, "train", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(FORK_GRID, encoding="utf-8")
        runs = parse_grid_config(cfg).runs()
        with srslab.training.shared_prefixes(runs):
            sources = srslab.training._SHARED.get()[0]
        readers = [list(sources.values()).count(key)
                   for key in set(sources.values())]
        assert readers == [2] * 4  # per (sampler, seed)
        assert main(["compare", str(cfg), "--out",
                     str(tmp_path / "g.csv")]) == 0
        assert [result.config for result in results] == runs
        for result in results:
            # every row and rate, the second reader's included
            assert result == train(result.config)

    def test_shared_prefixes_are_trained_once_per_compare(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        calls, real_forward = [], srslab.training.forward_loss

        def spy(*args):
            calls.append(None)
            return real_forward(*args)

        monkeypatch.setattr(srslab.training, "forward_loss", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(PREFIX_GRID, encoding="utf-8")
        # Per (sampler, seed): 4@0.1 trains all 4 epochs, 2,4@0.1 resumes
        # at 2, 2,3@0.1 at 3 and 5@0.1 at 4; 3 samplers x 2 seeds,
        # 20 // 5 batches an epoch
        per_epoch = 4
        trained = 3 * 2 * ((4 - 0) + (4 - 2) + (4 - 3) + (4 - 4)) * per_epoch
        for _ in range(2):  # nothing carries over to the next compare
            calls.clear()
            assert main(["compare", str(cfg), "--out",
                         str(tmp_path / "g.csv")]) == 0
            assert len(calls) == trained == 168
        calls.clear()
        train(parse_grid_config(cfg).runs()[1])
        assert len(calls) == 4 * per_epoch

    def test_runs_whose_rates_never_part_share_every_epoch(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        calls, real_forward = [], srslab.training.forward_loss
        results, real_train = [], srslab.cli.train

        def spy_forward(*args):
            calls.append(None)
            return real_forward(*args)

        def spy_train(config):
            results.append(real_train(config))
            return results[-1]

        monkeypatch.setattr(srslab.training, "forward_loss", spy_forward)
        monkeypatch.setattr(srslab.cli, "train", spy_train)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TWIN_GRID, encoding="utf-8")
        shared = tmp_path / "shared.csv"
        assert main(["compare", str(cfg), "--out", str(shared)]) == 0
        # Per (sampler, seed): 10@0.1 trains all 4 epochs, 11@0.1 none
        # and 2@0.1 the last 2; 2 samplers x 2 seeds, 4 batches an epoch
        assert len(calls) == 2 * 2 * (4 + 0 + 2) * 4 == 96
        monkeypatch.setattr(srslab.cli, "shared_prefixes",
                            lambda runs: contextlib.nullcontext())
        standalone = tmp_path / "standalone.csv"
        calls.clear()
        assert main(["compare", str(cfg), "--out", str(standalone)]) == 0
        assert len(calls) == 2 * 2 * 3 * 4 * 4
        assert shared.read_bytes() == standalone.read_bytes()
        # every row of the run that trained no epoch, its rates included
        assert results[:12] == results[12:]

    @pytest.mark.parametrize("grid", [PREFIX_GRID, TWIN_GRID],
                             ids=["prefix", "twin"])
    def test_a_compare_leaves_its_plan_as_built(self, tmp_path, capsys,
                                                monkeypatch, grid):
        plans, real = [], srslab.cli.shared_prefixes

        @contextlib.contextmanager
        def spy(runs):
            with real(runs):
                plans.append((runs, srslab.training._SHARED.get()))
                yield

        monkeypatch.setattr(srslab.cli, "shared_prefixes", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(grid, encoding="utf-8")
        assert main(["compare", str(cfg), "--out",
                     str(tmp_path / "g.csv")]) == 0
        [(runs, (sources, last, states))] = plans
        with real(runs):
            fresh_sources, fresh_last, _ = srslab.training._SHARED.get()
        assert (sources, last, states) == (fresh_sources, fresh_last, {})

    def test_only_states_that_are_read_are_saved(self, tmp_path, capsys,
                                                 monkeypatch):
        events, plans, peak = [], [], [0]

        class Store(dict):
            def __setitem__(self, key, value):
                events.append(("save", key))
                super().__setitem__(key, value)
                peak[0] = max(peak[0], len(self))

            def __getitem__(self, key):
                events.append(("read", key))
                return super().__getitem__(key)

            def pop(self, key):
                events.append(("pop", key))
                return super().pop(key)

        real, real_train = srslab.training._SHARED, srslab.cli.train

        class Shared:
            """The prefix ContextVar, wrapping each store it is given."""

            def set(self, value):
                sources, last, states = value
                plans.append((sources, Store(states)))
                return real.set((sources, last, plans[-1][1]))

            def get(self):
                return real.get()

            def reset(self, token):
                real.reset(token)

        def spy(config):
            events.append(("run", config))
            return real_train(config)

        monkeypatch.setattr(srslab.training, "_SHARED", Shared())
        monkeypatch.setattr(srslab.cli, "train", spy)
        cfg = tmp_path / "grid.cfg"

        def compare(text):
            """Run the grid, then check that each state is saved by its
            run, read by each run that resumes from it in turn, and
            dropped by the last; return the keys saved."""
            events.clear()
            cfg.write_text(text, encoding="utf-8")
            assert main(["compare", str(cfg), "--out",
                         str(tmp_path / "g.csv")]) == 0
            plan, store = plans[-1]
            assert store == {}  # nothing outlives its last reader
            on_key, run = {}, None
            for event, key in events:
                if event == "run":
                    run = key
                else:
                    on_key.setdefault(key, []).append((event, run))
            assert set(on_key) == set(plan.values())
            for key, seen in on_key.items():
                readers = [r for r in plan if plan[r] == key]
                assert seen == [("save", key[0])] + [
                    ("read", r) for r in readers[:-1]] + [("pop", readers[-1])]
            return [key for event, key in events if event == "save"]

        saved = compare(PREFIX_GRID)
        # Per (sampler, seed): 4@0.1 saves at 2 for 2,4@0.1 and at 4 for
        # 5@0.1; 2,4@0.1 saves at 3 for 2,3@0.1
        assert len(set(saved)) == len(saved) == 3 * 2 * 3
        assert sorted(e for _, e in saved) == [2] * 6 + [3] * 6 + [4] * 6
        # a state lives from its save to its last read, so at most one
        # sampler's 4 are held at once, not all 18
        assert peak[0] == 4
        # 2@0.1 and 2@0.5 both part from 4@0.1 at 2, and from each other
        # at 2: one state, loaded by both
        saved = compare(TINY_TRAIN + "samplers = epoch\n"
                        "schedules = 4@0.1 | 2@0.1 | 2@0.5\nseeds = 0\n")
        assert [e for _, e in saved] == [2]
        assert [event for event, _ in events].count("read") == 1

        events.clear()
        outside = contextvars.ContextVar("spy", default=({}, {}, Store()))
        monkeypatch.setattr(srslab.training, "_SHARED", outside)
        train(parse_grid_config(cfg).runs()[0])
        assert events == []

    def test_bad_later_cell_exits_before_any_training(self, tmp_path,
                                                      capsys, monkeypatch):
        calls, real_train = [], srslab.cli.train

        def spy(config):
            calls.append(config)
            return real_train(config)

        monkeypatch.setattr(srslab.cli, "train", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_TRAIN + "samplers = epoch\n"
                       "schedules = 2@0.1 | 0,2@0.1\nseeds = 0,1\n",
                       encoding="utf-8")
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: grid cell ('epoch', (0, 2), 0.1)")
        assert calls == []
        assert not out_path.exists()

    def test_rate_underflow_exits_before_any_training(self, tmp_path,
                                                      capsys, monkeypatch):
        calls, real_train = [], srslab.cli.train

        def spy(config):
            calls.append(config)
            return real_train(config)

        monkeypatch.setattr(srslab.cli, "train", spy)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_TRAIN + "lr = 1e-300\nsamplers = epoch\n"
                       "schedules = 3@0.1 | 1,2@1e-30\nseeds = 0\n",
                       encoding="utf-8")
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: grid cell ('epoch', (1, 2), 1e-30) seed 0: "
                       "lr 1e-300 at lr_decay 1e-30 per milestone "
                       "underflows to 0 by the last epoch"]
        assert calls == []
        assert not out_path.exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["coverage", "foo", "10", "3", "--iterations", "1", "--out", "x.csv"],
        ["count", "abc", "3"],
        ["count", "10"],
        ["bogus"],
    ], ids=["bad-choice", "bad-int", "missing-arg", "bad-command"])
    def test_usage_error_is_one_error_line(self, tmp_path, capsys,
                                           monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["count", "--help"])
        assert exit_info.value.code == 0
        assert "dataset_size" in capsys.readouterr().out


class TestProcess:
    def test_module_entry_point_runs_the_cli(self, tmp_path):
        done = run_python("-m", "srslab.cli", "count", "5", "2", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "configs_one_epoch 13" in done.stdout

    def test_console_script_resolves_to_cli_main(self):
        # The installed `srslab` command; the tests run `-m srslab.cli`.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert pkgutil.resolve_name(scripts["srslab"]) is srslab.cli.main

    def test_medians_do_not_import_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma on its first call; the cross-replica
        # and per-cell medians are taken by the stdlib instead
        (tmp_path / "grid.cfg").write_text(
            TINY_TRAIN + "samplers = srs\nseeds = 0, 1\n", encoding="utf-8")
        script = (
            "import sys\n"
            "from srslab.cli import main\n"
            "assert main(['coverage', 'srs', '20', '4', '--iterations', '9',"
            " '--replicas', '2', '--out', 'cov.csv']) == 0\n"
            "assert main(['compare', 'grid.cfg', '--out', 'grid.csv']) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = run_python("-c", script, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_cli_import_adds_only_srslab_modules(self, tmp_path):
        # numpy and the stdlib modules src/srslab imports at module level
        # load first, so any other module the package pulls in shows up
        script = (
            "import sys\n"
            "import numpy, __future__, argparse, contextlib, contextvars, csv,"
            " dataclasses, decimal, fractions, io, math, pathlib, statistics,"
            " typing\n"
            "before = set(sys.modules)\n"
            "import srslab.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        done = run_python("-c", script, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        added = done.stdout.split()
        assert "srslab.cli" in added
        assert [name for name in added
                if name != "srslab" and not name.startswith("srslab.")] == []
