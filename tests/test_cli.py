import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srslab
import srslab.cli
import srslab.counting
from srslab.cli import main
from srslab.coverage import expected_untouched_replacement
from srslab.csvio import read_csv
from srslab.optim import LrSchedule, lr_at

TINY_TRAIN = (
    "classes = 2\nipc_train = 10\nipc_test = 5\ndim = 2\n"
    "sigma_means = 3.0\nsigma_noise = 0.3\nhidden = 8\nbatch_size = 5\n"
    "lr_milestones = 2\nepochs = 4\nseed = 0\n"
)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_python(*args, cwd):
    """Run a fresh interpreter with the package source on its path."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(srslab.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


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

    def test_invalid_params_exit_nonzero(self, capsys):
        assert main(["count", "2", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line diagnostic


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
        schedule = LrSchedule(0.1, (2,), 0.1)
        for row in table.rows:
            assert float(row[1]) == lr_at(schedule, float(row[0]))
        assert [int(r[4]) for r in table.rows] == [4, 8, 12, 16]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_TRAIN, encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["train", str(cfg), "--out", str(a)]) == 0
        assert main(["train", str(cfg), "--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

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


class TestProcess:
    def test_module_entry_point_runs_the_cli(self, tmp_path):
        done = run_python("-m", "srslab.cli", "count", "5", "2", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "configs_one_epoch 13" in done.stdout

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
