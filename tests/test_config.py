import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srslab.cli import main
from srslab.config import (GridConfig, parse_config, parse_grid_config,
                           serialize_config)
from srslab.training import TrainConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_empty_file_gives_all_defaults(self, tmp_path):
        config = parse_config(write(tmp_path, ""))
        assert config == TrainConfig()
        assert config.sampler == "srs"
        assert config.batch_size == 64
        assert config.lr == 0.1
        assert config.momentum == 0.9
        assert config.weight_decay == 0.0005
        assert config.lr_decay == 0.1

    def test_comments_and_blank_lines_are_ignored(self, tmp_path):
        text = "# a full-line comment\n\nsampler = epoch  # trailing\n"
        assert parse_config(write(tmp_path, text)).sampler == "epoch"

    def test_custom_schedule_run(self, tmp_path):
        text = "sampler = srs\nlr_milestones = 60,75,87\n"
        config = parse_config(write(tmp_path, text))
        assert config.sampler == "srs"
        assert config.lr_milestones == (60, 75, 87)

    def test_all_value_kinds_parse(self, tmp_path):
        text = (
            "sampler = replacement\nclasses = 4\nipc_train = 9\n"
            "ipc_test = 3\ndim = 5\nsigma_means = 2.5\nsigma_noise = 0.75\n"
            "label_noise = 0.25\n"
            "hidden = 12\nbatch_size = 6\nlr = 0.05\nmomentum = 0.8\n"
            "weight_decay = 0.001\nlr_milestones = 2,4\nlr_decay = 0.5\n"
            "epochs = 7\nseed = 3\n"
        )
        config = parse_config(write(tmp_path, text))
        assert config == TrainConfig(
            sampler="replacement", classes=4, ipc_train=9, ipc_test=3,
            dim=5, sigma_means=2.5, sigma_noise=0.75, label_noise=0.25,
            hidden=12, batch_size=6, lr=0.05, momentum=0.8, weight_decay=0.001,
            lr_milestones=(2, 4), lr_decay=0.5, epochs=7, seed=3,
        )

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("parse, name", [
        (parse_config, "train_srs.cfg"), (parse_grid_config, "desk_grid.cfg")])
    def test_byte_order_mark_is_accepted(self, tmp_path, parse, name):
        plain = CONFIGS / name
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse(marked) == parse(plain)

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 1: expected 'key = value', "
                                             "got 'just some words'"):
            parse_config(write(tmp_path, "just some words\n"))

    def test_duplicate_key_is_malformed(self, tmp_path):
        with pytest.raises(ValueError, match="line 2: duplicate key 'seed'"):
            parse_config(write(tmp_path, "seed = 1\nseed = 2\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValueError,
                           match="line 1: unknown key 'learning_rate'"):
            parse_config(write(tmp_path, "learning_rate = 0.1\n"))

    def test_out_of_range_value(self, tmp_path):
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            parse_config(write(tmp_path, "batch_size = 0\n"))

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(ValueError, match="line 1: batch_size: expected "
                                             "int, got 'many'"):
            parse_config(write(tmp_path, "batch_size = many\n"))

    def test_bad_sampler_name(self, tmp_path):
        with pytest.raises(ValueError, match=r"^sampler must be one of "
                                             r"\(.*\), got 'shuffle'"):
            parse_config(write(tmp_path, "sampler = shuffle\n"))

    def test_sequence_key(self, tmp_path):
        path = write(tmp_path, "sequence = shuffled\n")
        assert parse_config(path).sequence == "shuffled"
        assert parse_config(write(tmp_path, "", name="b.cfg")).sequence == (
            "identity")

    @settings(max_examples=30, deadline=None)
    @given(key=st.sampled_from([f.name for f in fields(TrainConfig)
                                if f.type == "float"]),
           text=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf",
                                 "Infinity", "1e999", "-1e999"]))
    def test_non_finite_floats_are_rejected(self, tmp_path_factory, key,
                                            text):
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(f"{key} = {text}\nepochs = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
            parse_config(path)
        assert main(["train", str(path), "--out",
                     str(path.with_suffix(".csv"))]) == 2
        assert not path.with_suffix(".csv").exists()

    def test_errors_are_all_config_errors(self, tmp_path):
        for text, message in (
                ("x = 1\n", "line 1: unknown key 'x'"),
                ("nonsense\n", "line 1: expected 'key = value', got 'non"),
                ("lr = -3\n", r"lr must be > 0, got -3\.0")):
            with pytest.raises(ValueError, match=message):
                parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("key, value, message", [
        ("classes", "0", "classes must be >= 1, got 0"),
        ("ipc_train", "0", "ipc_train must be >= 1, got 0"),
        ("ipc_test", "-2", "ipc_test must be >= 1, got -2"),
        ("dim", "0", "dim must be >= 1, got 0"),
        ("hidden", "0", "hidden must be >= 1, got 0"),
        ("hidden", "32,32,-1", "hidden must be >= 1, got -1"),
        ("sigma_means", "0", "sigma_means must be > 0, got 0.0"),
        ("sigma_noise", "-1.5", "sigma_noise must be > 0, got -1.5"),
    ])
    def test_size_errors_name_their_key(self, tmp_path, key, value,
                                        message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config(write(tmp_path, f"{key} = {value}\n"))


class TestSerializeConfig:
    def test_round_trip_is_identity(self, tmp_path):
        original = TrainConfig(sampler="epoch", lr=0.05,
                               lr_milestones=(60, 75, 87), seed=9)
        path = write(tmp_path, serialize_config(original))
        assert parse_config(path) == original

    @pytest.mark.parametrize("hidden, line", [
        ((), "hidden ="), ((64,), "hidden = 64"), ((32, 32), "hidden = 32,32"),
        (64, "hidden = 64")])
    def test_hidden_widths_round_trip(self, tmp_path, hidden, line):
        original = TrainConfig(hidden=hidden)
        text = serialize_config(original)
        assert line in text.splitlines()
        assert " \n" not in text
        assert parse_config(write(tmp_path, text)) == original

    def test_normal_form_is_idempotent(self, tmp_path):
        text = "sampler = srs\nlr_milestones = 60,75,87\n"
        config = parse_config(write(tmp_path, text))
        normal = serialize_config(config)
        config2 = parse_config(write(tmp_path, normal, name="b.cfg"))
        assert serialize_config(config2) == normal

    @settings(max_examples=40)
    @given(
        sampler=st.sampled_from(["srs", "epoch", "replacement"]),
        classes=st.integers(min_value=2, max_value=20),
        ipc_train=st.integers(min_value=8, max_value=60),
        lr=st.floats(min_value=1e-4, max_value=5.0),
        momentum=st.floats(min_value=0.0, max_value=0.99),
        decay=st.floats(min_value=1e-3, max_value=0.999),
        milestones=st.lists(st.integers(min_value=1, max_value=400),
                            unique=True, max_size=5),
        seed=st.integers(min_value=0, max_value=2**62),
    )
    def test_round_trip_random_configs(self, tmp_path_factory, sampler,
                                       classes, ipc_train, lr, momentum,
                                       decay, milestones, seed):
        original = TrainConfig(
            sampler=sampler, classes=classes, ipc_train=ipc_train,
            batch_size=4, lr=lr, momentum=momentum, lr_decay=decay,
            lr_milestones=tuple(sorted(milestones)), seed=seed,
        )
        path = tmp_path_factory.mktemp("cfg") / "roundtrip.cfg"
        path.write_text(serialize_config(original), encoding="utf-8")
        grid = parse_grid_config(path)
        assert parse_config(path) == original == grid.base == grid.runs()[0]


class TestGridConfig:
    def test_full_grid_file(self, tmp_path):
        text = (
            "classes = 4\nipc_train = 10\nbatch_size = 5\nepochs = 3\n"
            "samplers = epoch, srs\n"
            "schedules = 60,120,160@0.2 | 120,150,175@0.1\n"
            "seeds = 0,1,2\n"
        )
        grid = parse_grid_config(write(tmp_path, text))
        assert grid.samplers == ("epoch", "srs")
        assert grid.seeds == (0, 1, 2)
        assert grid.cells() == [
            ("epoch", (60, 120, 160), 0.2),
            ("epoch", (120, 150, 175), 0.1),
            ("srs", (60, 120, 160), 0.2),
            ("srs", (120, 150, 175), 0.1),
        ]

    def test_grid_defaults_fall_back_to_base_run(self, tmp_path):
        text = ("sampler = replacement\nlr_milestones = 10,20\n"
                "lr_decay = 0.5\nseed = 4\n")
        grid = parse_grid_config(write(tmp_path, text))
        assert grid.samplers == ("replacement",)
        assert grid.schedules == (((10, 20), 0.5),)
        assert grid.seeds == (4,)
        assert grid.runs() == [grid.base]

    def test_schedule_without_decay_uses_base_decay(self, tmp_path):
        text = ("lr_decay = 0.25\nsamplers = epoch, srs\n"
                "schedules = 5,9 | 2,5@0.5\n")
        grid = parse_grid_config(write(tmp_path, text))
        assert grid.schedules == (((5, 9), 0.25), ((2, 5), 0.5))
        assert grid.cells() == [
            ("epoch", (5, 9), 0.25), ("epoch", (2, 5), 0.5),
            ("srs", (5, 9), 0.25), ("srs", (2, 5), 0.5),
        ]

    def test_single_run_keys_still_apply(self, tmp_path):
        text = "classes = 3\nipc_train = 12\nbatch_size = 4\nseeds = 1,2\n"
        grid = parse_grid_config(write(tmp_path, text))
        assert grid.base.classes == 3
        assert grid.base.batch_size == 4

    def test_grid_validation_errors(self, tmp_path):
        with pytest.raises(ValueError, match="got 'shuffle'"):
            parse_grid_config(write(tmp_path, "samplers = srs, shuffle\n"))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            parse_grid_config(write(tmp_path, "seeds = -1\n"))
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_grid_config(write(tmp_path, "schedules = 9,5@0.1\n"))

    @pytest.mark.parametrize("line", [
        "schedules = 10,10",          # milestones not increasing
        "schedules = 0,5",            # milestone before the first epoch
        "schedules = 5@1.0",          # decay that does not decay
        "seeds = 0, -1",
        "samplers = epoch, shuffle",
    ])
    def test_grid_rejects_what_a_single_run_rejects(self, tmp_path, line):
        # the values TrainConfig.validate rejects, placed in grid keys
        with pytest.raises(ValueError, match=r"^grid cell \(.*\) seed"):
            parse_grid_config(write(tmp_path, line + "\n"))

    def test_empty_schedules_would_repeat_a_cell(self, tmp_path):
        # "|" splits into two empty schedules: the same cell twice
        with pytest.raises(ValueError, match=r"^schedules: \(\(\), 0\.1\) "
                                             "appears more than once"):
            parse_grid_config(write(tmp_path, "schedules = |\n"))
        with pytest.raises(ValueError, match=r"^schedules: \(\(5, 9\), 0\.5\) "
                                             "appears more than once"):
            parse_grid_config(write(tmp_path, "lr_decay = 0.5\n"
                                    "schedules = 5,9 | 5,9@0.5\n"))

    def test_repeated_sampler_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^samplers: 'srs' appears more "
                                             "than once"):
            parse_grid_config(write(tmp_path, "samplers = srs, epoch, srs\n"))

    def test_repeated_seed_is_rejected(self, tmp_path):
        with pytest.raises(ValueError,
                           match="^seeds: 0 appears more than once"):
            parse_grid_config(write(tmp_path, "seeds = 0, 1, 0\n"))

    def test_single_run_parse_needs_exactly_one_run(self, tmp_path):
        one = write(tmp_path, "sampler = srs\nsamplers = epoch\n"
                    "schedules = 3@0.5\nseeds = 2\n")
        assert parse_config(one) == TrainConfig(
            sampler="epoch", lr_milestones=(3,), lr_decay=0.5, seed=2)
        two = write(tmp_path, "seeds = 0,1\nsampler = epoch\n", name="b.cfg")
        with pytest.raises(ValueError, match=f"^{re.escape(str(two))} "
                                             "describes 2 runs; train runs "
                                             "one, compare runs them all$"):
            parse_config(two)
        assert [run.sampler for run in parse_grid_config(two).runs()] == [
            "epoch", "epoch"]


class TestGridConfigConstruction:
    def test_bad_run_raises_when_built(self):
        message = ("grid cell ('epoch', (0, 2), 0.1) seed 0: lr_milestones "
                   "must be positive epochs, got (0, 2)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridConfig(base=TrainConfig(), samplers=("epoch",),
                       schedules=(((0, 2), 0.1),), seeds=(0,))

    def test_empty_key_raises_when_built(self):
        with pytest.raises(ValueError,
                           match="^seeds must hold at least one entry$"):
            GridConfig(base=TrainConfig(), samplers=("epoch",),
                       schedules=(((5,), 0.1),), seeds=())

    def test_fields_are_frozen(self, tmp_path):
        grid = parse_grid_config(write(tmp_path, "samplers = epoch, srs\n"
                                                 "seeds = 0, 1\n"))
        with pytest.raises(FrozenInstanceError):
            grid.seeds = (0, 0)
        assert [run.seed for run in grid.runs()] == [0, 1, 0, 1]
