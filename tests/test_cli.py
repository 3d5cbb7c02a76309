import contextlib
import hashlib
import math
import os
import pkgutil
import subprocess
import sys
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import srslab
import srslab.cli
import srslab.counting
import srslab.training
from srslab.cli import main
from srslab.config import parse_config, parse_grid_config
from srslab.coverage import expected_untouched_replacement
from srslab.csvio import read_csv
from srslab.nets import init_mlp
from srslab.training import lr_at, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


@dataclass
class Sharing:
    """One compare's shared prefixes: the plan as built, each run's (source
    run, resume epoch) and each saved state's last reader; the plan and
    store in force as it ended; and per run, the result, the forward
    passes and the keys of the states then held."""

    sources: dict
    last: dict
    left: tuple
    trained: list = field(default_factory=list)


def spy_on_sharing(monkeypatch, forward_calls):
    """Log a Sharing per compare from here on; return the log and a reader
    of the plan and store in force, empty outside a compare."""
    log, read = [], srslab.training._SHARED.get
    real_plan, real_train = srslab.cli.shared_prefixes, srslab.cli.train

    @contextlib.contextmanager
    def plan(runs):
        with real_plan(runs):
            sources, last, _ = left = read()
            log.append(Sharing(dict(sources), dict(last), left))
            yield

    def train(config):
        start = len(forward_calls)
        result = real_train(config)
        log[-1].trained.append(
            (result, len(forward_calls) - start, set(read()[2])))
        return result

    monkeypatch.setattr(srslab.cli, "shared_prefixes", plan)
    monkeypatch.setattr(srslab.cli, "train", train)
    return log, read


# Each grid with what its compare trains: forward passes in all, the
# epochs of its saved states, and the most states held at once.
SHARED_PREFIX_GRIDS = pytest.mark.parametrize("grid, passes, saved, peak", [
    # Per (sampler, seed): 4@0.1 trains all 4 epochs and saves at 2 for
    # 2,4@0.1 and at 4 for 5@0.1; 2,4@0.1 resumes at 2 and saves at 3
    # for 2,3@0.1, which trains 1; 5@0.1 trains none.  A state lives
    # up to its last reader, so one sampler's 4 are held, not all 18.
    pytest.param(PREFIX_GRID, 168, [2] * 6 + [3] * 6 + [4] * 6, 4,
                 id="prefix"),
    # one state per (sampler, seed), read by both forks
    pytest.param(FORK_GRID, 128, [2] * 4, 2, id="fork"),
    # 11@0.1 trains none and 2@0.1 the last 2
    pytest.param(TWIN_GRID, 96, [2] * 4 + [4] * 4, 4, id="twin"),
    # FORK_GRID's first sampler and seed
    pytest.param(TINY_TRAIN + "samplers = epoch\n"
                 "schedules = 4@0.1 | 2@0.1 | 2@0.5\nseeds = 0\n",
                 32, [2], 1, id="one-sampler-fork"),
    # configs/desk_grid.cfg's shape: each state has one reader
    pytest.param(TINY_TRAIN + "samplers = epoch, srs\n"
                 "schedules = 3@0.1 | 2@0.1\nseeds = 0, 1\n",
                 96, [2] * 4, 2, id="desk-shaped"),
])


def compare_twice(tmp_path, monkeypatch, forward_calls, text):
    """Run the grid `text` as a compare that shares nothing, then as two
    spied compares, each writing its bytes; return the grid's runs, the
    batches per epoch and the spy's log and reader."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(text, encoding="utf-8")
    runs = parse_grid_config(cfg).runs()
    standalone, shared = tmp_path / "standalone.csv", tmp_path / "g.csv"
    with monkeypatch.context() as m:
        m.setattr(srslab.cli, "shared_prefixes",
                  lambda runs: contextlib.nullcontext())
        assert main(["compare", str(cfg), "--out", str(standalone)]) == 0
    log, read = spy_on_sharing(monkeypatch, forward_calls)
    for _ in range(2):  # nothing carries over to the next compare
        assert main(["compare", str(cfg), "--out", str(shared)]) == 0
        assert shared.read_bytes() == standalone.read_bytes()
    return runs, runs[0].train_size // runs[0].batch_size, log, read


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_python(*args, cwd, timeout=120, **env):
    """Run a fresh interpreter with the package source on its path and
    `env` added to its environment."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(srslab.__file__).parent.parent), **env)
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
        median = read_csv(tmp_path / "c.csv").rows[-1]
        assert out == (
            f"srs N=1000 B=32 T=31 replicas=2: median untouched_fraction="
            f"{median[5]} median min_count={median[2]} median chi_square="
            f"{median[6]} replacement closed form={closed}\n")


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
        cfg.write_text(TINY_TRAIN + "samplers = epoch, srs\nseeds = 0\n",
                       encoding="utf-8")
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

    def test_missing_samplers_key_is_the_base_sampler(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_TRAIN + "sampler = replacement\n",
                       encoding="utf-8")
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 0
        assert [(r[0], r[3]) for r in read_csv(out_path).rows] == [
            ("replacement", "0"), ("replacement", "median")]

    def test_one_train_call_per_run_row_in_row_order(self, tmp_path,
                                                     capsys, train_results):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY_TRAIN + "samplers = srs, epoch\n"
                       "schedules = 2@0.1 | 1,3@0.5\nseeds = 3,1\n",
                       encoding="utf-8")
        out_path = tmp_path / "grid.csv"
        assert main(["compare", str(cfg), "--out", str(out_path)]) == 0
        run_rows = [r for r in read_csv(out_path).rows if r[3] != "median"]
        assert len(train_results) == len(run_rows) == 8
        assert [(r[0], r[3]) for r in run_rows[:2]] == [("srs", "3"),
                                                        ("srs", "1")]
        for row, result in zip(run_rows, train_results):
            c = result.config
            assert row == [c.sampler, ",".join(map(str, c.lr_milestones)),
                           repr(c.lr_decay), str(c.seed),
                           repr(result.final_test_error),
                           repr(result.best_test_error)]

    @SHARED_PREFIX_GRIDS
    def test_shared_prefixes_write_standalone_rows(
            self, tmp_path, monkeypatch, forward_calls, grid, passes, saved,
            peak):
        """A compare writes the bytes of one that shares nothing, and each
        run's rows, rates included, are those of standalone `train`, which
        trains every epoch and saves nothing."""
        runs, batches, log, read = compare_twice(
            tmp_path, monkeypatch, forward_calls, grid)
        results = [result for result, _, _ in log[0].trained]
        assert [result.config for result in results] == runs
        forward_calls.clear()
        for result in results:
            assert result == train(result.config)
        assert len(forward_calls) == len(runs) * runs[0].epochs * batches
        assert read() == ({}, {}, {})

    @SHARED_PREFIX_GRIDS
    def test_shared_prefixes_take_the_planned_passes(
            self, tmp_path, monkeypatch, forward_calls, grid, passes, saved,
            peak):
        """Each run trains only the epochs past its resume epoch, the row's
        passes in all, and the next compare takes the same passes."""
        runs, batches, log, _ = compare_twice(
            tmp_path, monkeypatch, forward_calls, grid)
        first, second = log
        taken = [t for _, t, _ in first.trained]
        assert taken == [
            (run.epochs - first.sources.get(run, (None, 0))[1]) * batches
            for run in runs]
        assert sum(taken) == passes
        assert [t for _, t, _ in second.trained] == taken

    @SHARED_PREFIX_GRIDS
    def test_shared_prefixes_hold_each_state_to_its_last_reader(
            self, tmp_path, monkeypatch, forward_calls, grid, passes, saved,
            peak):
        """Each state is saved by its source run and held until its last
        reader pops it; no other state is saved, and the store is empty
        when the compare ends."""
        runs, _, log, _ = compare_twice(
            tmp_path, monkeypatch, forward_calls, grid)
        first = log[0]
        held = [h for _, _, h in first.trained]
        keys = set(first.sources.values())
        assert set().union(*held) == keys
        for key in keys:
            source = runs.index(key[0])
            end = max(runs.index(r) for r in first.sources
                      if first.sources[r] == key)
            assert [key in h for h in held] == [
                source <= i < end for i in range(len(runs))]
        assert sorted(epoch for _, epoch in keys) == saved
        assert max(map(len, held)) == peak
        assert first.left == (first.sources, first.last, {})


class TestUsage:
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

    def test_train_csv_is_byte_identical_across_hash_seeds(self, tmp_path):
        # string hashing differs per process; no output byte may follow it
        for seed in ("1", "2"):
            done = run_python("-m", "srslab.cli", "train",
                              str(CONFIGS / "train_srs.cfg"), "--out",
                              f"train_{seed}.csv", cwd=tmp_path,
                              PYTHONHASHSEED=seed)
            assert done.returncode == 0, done.stderr
        assert (tmp_path / "train_1.csv").read_bytes() == (
            tmp_path / "train_2.csv").read_bytes()

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
