"""Every input the command line rejects, one row each, and one driver that
checks the whole contract for every row.

A row is a config text, which `train` and `compare` each run, or one
argv, with the config it names.  Every run must exit with the row's code
(2 for bad input, 1 for I/O), print exactly one stderr line, `error: ` and
the row's message, and nothing on stdout, and leave no file behind, its
`--out` included.  Both commands print the same line for one config.  A
rule that fires while the file is read raises the same message from
`parse_grid_config`; a later one leaves the file readable.  No forward
pass runs unless the row trains, that is, diverges.
The suite's `error` warning filter fails a run that lets a warning escape.

`{cfg}`, `{out}` and `{tmp}` in a message or argv stand for the config
file, the output CSV and the directory the row runs in.
"""

import sys
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from srslab.cli import main
from srslab.config import parse_grid_config
from srslab.training import TrainConfig
from test_cli import TINY_TRAIN

DESK_GRID = (Path(__file__).resolve().parent.parent / "configs"
             / "desk_grid.cfg").read_text(encoding="utf-8")
KINDS = "('srs', 'epoch', 'replacement', 'once')"
FLOAT_KEYS = [f.name for f in fields(TrainConfig) if f.type == "float"]
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
              "-1e999"]
BIG = sys.maxsize + 1
TRAIN = ["train", "{cfg}", "--out", "{out}"]
COMPARE = ["compare", "{cfg}", "--out", "{out}"]
DEFAULT_CELL = "('srs', (120, 150, 175), 0.1)"


@dataclass(frozen=True)
class Row:
    message: str
    text: str | None  # the file `{cfg}`, if any
    argvs: list[list[str]]
    code: int = 2
    read: bool = True  # the rule fires while the file is read
    trains: bool = False  # forward passes run before the rule fires
    prefix: bool = False  # the line need only start with the message


def config(id, text, message, **kwargs):
    """A config's text, which `train` and `compare` each run."""
    return pytest.param(Row(message, text + "\n", [TRAIN, COMPARE], **kwargs),
                        id=id)


def argv(id, args, message, text=None, **kwargs):
    """One command line, and the text of its `{cfg}` if it names one."""
    return pytest.param(Row(message, text, [args], read=False, **kwargs),
                        id=id)


def cell(spec, seed=0):
    """The prefix of a rule that one grid run breaks."""
    return f"grid cell {spec} seed {seed}: "


ROWS = [
    # the file's lines
    config("malformed-line", "just some words",
           "line 1: expected 'key = value', got 'just some words'"),
    config("malformed-word", "nonsense",
           "line 1: expected 'key = value', got 'nonsense'"),
    config("duplicate-key", "seed = 1\nseed = 2",
           "line 2: duplicate key 'seed'"),
    config("unknown-key", "learning_rate = 0.1",
           "line 1: unknown key 'learning_rate'"),
    config("unknown-key-x", "x = 1", "line 1: unknown key 'x'"),
    config("batch-size-many", "batch_size = many",
           "line 1: batch_size: expected int, got 'many'"),
    # names
    config("sampler-shuffle", "sampler = shuffle",
           f"sampler must be one of {KINDS}, got 'shuffle'"),
    config("sampler-bogus", "sampler = bogus",
           f"sampler must be one of {KINDS}, got 'bogus'"),
    config("sequence-bogus", "sequence = bogus",
           "sequence must be one of ('identity', 'shuffled'), got 'bogus'"),
    # the task and the network
    config("classes-0", "classes = 0", "classes must be >= 1, got 0"),
    config("ipc-train-0", "ipc_train = 0", "ipc_train must be >= 1, got 0"),
    config("ipc-test-neg", "ipc_test = -2", "ipc_test must be >= 1, got -2"),
    config("dim-0", "dim = 0", "dim must be >= 1, got 0"),
    config("hidden-0", "hidden = 0", "hidden must be >= 1, got 0"),
    config("hidden-64-0", "hidden = 64,0", "hidden must be >= 1, got 0"),
    config("hidden-neg", "hidden = 32,32,-1", "hidden must be >= 1, got -1"),
    config("sigma-means-0", "sigma_means = 0",
           "sigma_means must be > 0, got 0.0"),
    config("sigma-noise-0", "sigma_noise = 0",
           "sigma_noise must be > 0, got 0.0"),
    config("sigma-noise-neg", "sigma_noise = -1.5",
           "sigma_noise must be > 0, got -1.5"),
    config("sigma-means-1e308", "sigma_means = 1e308",
           "sigma_means 1e+308 and sigma_noise 1.0 draw points that are "
           "not finite", read=False),
    config("label-noise-neg", "label_noise = -0.1",
           "label_noise must be in [0, 1), got -0.1"),
    config("label-noise-1", "label_noise = 1.0",
           "label_noise must be in [0, 1), got 1.0"),
    config("label-noise-one-class",
           "label_noise = 0.1\nclasses = 1\nbatch_size = 50",
           "label_noise must be 0 with one class: no other class to flip a "
           "label to"),
    # 10^20: more than a numpy array dimension holds
    *(config(f"{key.replace('_', '-')}-1e20", f"{key} = {10**20}",
             f"{key} must be <= {sys.maxsize}, got {10**20}")
      for key in ("classes", "ipc_train", "ipc_test", "dim", "hidden")),
    config("epochs-0", "epochs = 0", "epochs must be >= 1, got 0"),
    config("seed-neg", "seed = -1", "seed must be >= 0, got -1"),
    # the batch size
    config("batch-size-0", "batch_size = 0", "batch_size must be >= 1, got 0"),
    config("batch-size-10000", "batch_size = 10000",
           "batch_size 10000 exceeds classes × ipc_train = 500"),
    config("batch-size-501", "batch_size = 501",
           "batch_size 501 exceeds classes × ipc_train = 500"),
    config("batch-size-two-classes", "classes = 2\nbatch_size = 1000",
           "batch_size 1000 exceeds classes × ipc_train = 100"),
    # the optimizer and its schedule
    config("lr-0", "lr = 0", "lr must be > 0, got 0.0"),
    config("lr-neg", "lr = -0.1", "lr must be > 0, got -0.1"),
    config("lr-neg-3", "lr = -3", "lr must be > 0, got -3.0"),
    config("lr-nan", "lr = nan", "lr must be finite, got nan"),
    config("lr-decay-1", "lr_decay = 1",
           "lr_decay must be in (0, 1), got 1.0"),
    config("milestones-0-5", "lr_milestones = 0,5",
           "lr_milestones must be positive epochs, got (0, 5)"),
    config("milestones-10-10", "lr_milestones = 10,10",
           "lr_milestones must be strictly increasing, got (10, 10)"),
    config("momentum-1", "momentum = 1.0",
           "momentum must be in [0, 1), got 1.0"),
    config("momentum-1.5", "momentum = 1.5",
           "momentum must be in [0, 1), got 1.5"),
    config("weight-decay-neg", "weight_decay = -1e-3",
           "weight_decay must be >= 0, got -0.001"),
    # 1e-300 * 1e-30 is below the smallest subnormal double
    config("rate-underflow",
           "lr = 1e-300\nlr_decay = 1e-30\nlr_milestones = 1,2",
           "lr 1e-300 at lr_decay 1e-30 per milestone underflows to 0 by the "
           "last epoch"),
    # every float key, and every spelling of a non-finite float
    *(config(f"{key}-{text}", f"{key} = {text}",
             f"{key} must be finite, got {float(text)}")
      for key, text in zip(FLOAT_KEYS * 2, NON_FINITE)),
    # the grid keys
    config("samplers-srs-srs", "samplers = srs, srs",
           "samplers: 'srs' appears more than once, which would repeat grid "
           "cells"),
    config("samplers-srs-epoch-srs", "samplers = srs, epoch, srs",
           "samplers: 'srs' appears more than once, which would repeat grid "
           "cells"),
    config("samplers-epoch-shuffle", "samplers = epoch, shuffle",
           cell("('shuffle', (120, 150, 175), 0.1)")
           + f"sampler must be one of {KINDS}, got 'shuffle'"),
    config("samplers-srs-shuffle", "samplers = srs, shuffle",
           cell("('shuffle', (120, 150, 175), 0.1)")
           + f"sampler must be one of {KINDS}, got 'shuffle'"),
    config("seeds-blank", "seeds =", "seeds must hold at least one entry"),
    config("seeds-neg", "seeds = -1",
           cell(DEFAULT_CELL, -1) + "seed must be >= 0, got -1"),
    config("seeds-0-neg", "seeds = 0, -1",
           cell(DEFAULT_CELL, -1) + "seed must be >= 0, got -1"),
    config("seeds-0-1-0", "seeds = 0, 1, 0",
           "seeds: 0 appears more than once, which would repeat grid cells"),
    config("schedules-9-5", "schedules = 9,5@0.1",
           cell("('srs', (9, 5), 0.1)")
           + "lr_milestones must be strictly increasing, got (9, 5)"),
    config("schedules-10-10", "schedules = 10,10",
           cell("('srs', (10, 10), 0.1)")
           + "lr_milestones must be strictly increasing, got (10, 10)"),
    config("schedules-0-5", "schedules = 0,5",
           cell("('srs', (0, 5), 0.1)")
           + "lr_milestones must be positive epochs, got (0, 5)"),
    config("schedules-decay-1", "schedules = 5@1.0",
           cell("('srs', (5,), 1.0)") + "lr_decay must be in (0, 1), got 1.0"),
    # "|" splits into two empty schedules: the same cell twice
    config("schedules-bar", "schedules = |",
           "schedules: ((), 0.1) appears more than once, which would repeat "
           "grid cells"),
    config("schedules-same-decay", "lr_decay = 0.5\nschedules = 5,9 | 5,9@0.5",
           "schedules: ((5, 9), 0.5) appears more than once, which would "
           "repeat grid cells"),
    # a bad later cell stops the grid before its good first cell trains
    config("grid-later-cell", TINY_TRAIN + "samplers = epoch\n"
           "schedules = 2@0.1 | 0,2@0.1\nseeds = 0,1",
           cell("('epoch', (0, 2), 0.1)")
           + "lr_milestones must be positive epochs, got (0, 2)"),
    config("grid-rate-underflow", TINY_TRAIN + "lr = 1e-300\n"
           "samplers = epoch\nschedules = 3@0.1 | 1,2@1e-30\nseeds = 0",
           cell("('epoch', (1, 2), 1e-30)") + "lr 1e-300 at lr_decay 1e-30 "
           "per milestone underflows to 0 by the last epoch"),
    # train runs a file of one run; compare runs them all
    argv("run-count", TRAIN,
         "{cfg} describes 20 runs; train runs one, compare runs them all",
         text=DESK_GRID),
    argv("two-runs", TRAIN,
         "{cfg} describes 2 runs; train runs one, compare runs them all",
         text="seeds = 0,1\nsampler = epoch\n"),
    # training that diverges
    config("diverges", "lr = 50\nepochs = 20",
           "training diverged: the train loss is not finite in effective "
           "epoch 13 (iterations up to 91); lower lr",
           read=False, trains=True),
    # finite but huge points still train, and diverge
    config("sigma-means-1e307", "sigma_means = 1e307",
           "training diverged: the train loss is not finite in effective "
           "epoch 1 (iterations up to 7); lower lr, or check the input "
           "scale: sigma_means 1e+307 and sigma_noise 1.0",
           read=False, trains=True),
    # files
    argv("missing-config", ["train", "{tmp}/absent.cfg", "--out", "{out}"],
         "[Errno 2] No such file or directory: '{tmp}/absent.cfg'", code=1),
    # a missing --out directory fails before any work: no forward pass, and
    # no coverage of 2**50 samples, which would fail on its allocation
    *(argv(f"unwritable-out-{args[0]}", [*args, "--out", "{tmp}/no_dir/x.csv"],
           "[Errno 2] No such file or directory: '{tmp}/no_dir/x.csv'",
           text=TINY_TRAIN, code=1)
      for args in (["train", "{cfg}"], ["compare", "{cfg}"],
                   ["coverage", "srs", str(2**50), "3", "--iterations", "1"])),
    argv("out-under-a-file", ["compare", "{cfg}", "--out", "{cfg}/x.csv"],
         "[Errno 20] Not a directory: '{cfg}/x.csv'", text=TINY_TRAIN, code=1),
    # count
    argv("count-b-over-n", ["count", "2", "5"],
         "batch_size 5 exceeds dataset_size 2"),
    # math.perm and math.comb take no k above sys.maxsize
    argv("count-b-past-maxsize", ["count", str(10 * BIG), str(BIG)],
         f"batch_size must be <= {sys.maxsize}, got {BIG}"),
    # coverage
    argv("coverage-b-over-n",
         ["coverage", "srs", "4", "9", "--iterations", "1", "--out", "{out}"],
         "batch_size 9 exceeds dataset_size 4"),
    *(argv(f"coverage-b-0-{kind}", ["coverage", kind, "10", "0",
                                    "--iterations", "5", "--out", "{out}"],
           "batch_size must be >= 1, got 0")
      for kind in ("srs", "replacement", "epoch")),
    # 2**50 count slots are a PiB, beyond any 47-bit address space
    argv("coverage-too-large", ["coverage", "srs", str(2**50), "3",
                                "--iterations", "1", "--out", "{out}"],
         "Unable to allocate", prefix=True),
    argv("coverage-seed-neg", ["coverage", "srs", "10", "2", "--iterations",
                               "3", "--seed", "-1", "--out", "{out}"],
         "seed must be >= 0, got -1"),
    # usage, in one line and without argparse's usage block
    argv("bad-choice", ["coverage", "foo", "10", "3", "--iterations", "1",
                        "--out", "x.csv"],
         "argument kind: invalid choice: 'foo'", prefix=True),
    argv("bad-int", ["count", "abc", "3"],
         "argument dataset_size: invalid int value: 'abc'", prefix=True),
    argv("missing-arg", ["count", "10"],
         "the following arguments are required: batch_size", prefix=True),
    argv("bad-command", ["bogus"], "argument command: invalid choice: 'bogus'",
         prefix=True),
]


def assert_says(row, text, message):
    assert text == message or row.prefix and text.startswith(message), text


@pytest.mark.parametrize("row", ROWS)
def test_rejected_input(row, tmp_path, monkeypatch, capsys, forward_calls):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    if row.text is not None:
        cfg.write_text(row.text, encoding="utf-8")
    names = {"cfg": cfg, "out": tmp_path / "out.csv", "tmp": tmp_path}
    message = row.message.format(**names)
    files = sorted(tmp_path.rglob("*"))
    lines = []
    for args in row.argvs:
        forward_calls.clear()
        code = main([arg.format(**names) for arg in args])
        out, err = capsys.readouterr()
        assert (code, out) == (row.code, ""), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert_says(row, err[:-1], f"error: {message}")
        assert sorted(tmp_path.rglob("*")) == files
        assert bool(forward_calls) == row.trains
        lines.append(err)
    assert len(set(lines)) == 1
    if row.read:
        with pytest.raises(ValueError) as info:
            parse_grid_config(cfg)
        assert_says(row, str(info.value), message)
    elif row.text is not None:
        parse_grid_config(cfg)  # the file reads; its rule fires later
