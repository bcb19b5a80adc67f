import dataclasses
import json

import pytest

from opscan.config import ConfigError, RunConfig
from opscan.model import Dropouts


class TestDefaults:
    def test_constructs(self):
        cfg = RunConfig()
        assert cfg.emb_size == 64 and cfg.seed == 0

    def test_dropouts_view(self):
        cfg = RunConfig(p_emb=0.1, p_input=0.2, p_hidden=0.3, p_weight=0.4, p_head=0.5)
        assert cfg.dropouts() == Dropouts(0.1, 0.2, 0.3, 0.4, 0.5)

    def test_ratios_view(self):
        assert RunConfig().ratios() == (0.70, 0.15, 0.15)


class TestValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bptt_len"):
            RunConfig.from_dict({"bptt_len": 10})

    def test_bad_dtype(self):
        with pytest.raises(ConfigError, match="dtype"):
            RunConfig(dtype="f16")

    def test_nonpositive_sizes(self):
        with pytest.raises(ConfigError):
            RunConfig(batch_size=0)
        with pytest.raises(ConfigError):
            RunConfig(n_layers=0)

    def test_negative_epochs(self):
        with pytest.raises(ConfigError):
            RunConfig(epochs=-1)

    @pytest.mark.parametrize("bad", [
        {"emb_size": "64"}, {"emb_size": 64.0}, {"batch_size": True},
        {"tie_last": 1}, {"max_lr": "0.1"}, {"p_emb": None}, {"max_len": 2.5},
    ])
    def test_wrong_type(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            RunConfig.from_dict(bad)

    @pytest.mark.parametrize("bad", [
        {"max_lr": -1}, {"max_lr": 0}, {"lr_lo": 0}, {"lr_hi": float("inf")},
        {"max_lr": float("nan")}, {"lr_lo": 0.5, "lr_hi": 0.1}, {"p_weight": 1.0},
        {"p_emb": -0.1}, {"warmup_frac": 0}, {"seed": -1},
        {"train_ratio": 0.8}, {"valid_ratio": float("nan")},
        {"train_ratio": 1.2, "valid_ratio": -0.1, "test_ratio": -0.1},
        {"weight_decay": -1}, {"weight_decay": float("inf")}, {"weight_decay": float("nan")},
    ])
    def test_out_of_range(self, bad):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_ints_accepted_for_floats(self):
        assert RunConfig(max_lr=1, p_emb=0).max_lr == 1

    def test_max_len_zero(self):
        with pytest.raises(ConfigError):
            RunConfig(max_len=0)
        assert RunConfig(max_len=None).max_len is None


class TestFromFile:
    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"hidden_size": 128, "seed": 5}')
        cfg = RunConfig.from_file(path)
        assert cfg.hidden_size == 128 and cfg.seed == 5
        assert cfg.emb_size == 64

    def test_kwarg_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 5}')
        assert RunConfig.from_file(path).replaced(seed=9).seed == 9

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_file(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_file(path)


class TestReplaced:
    def test_none_means_keep(self):
        cfg = RunConfig(epochs=7)
        assert cfg.replaced(epochs=None, seed=None) is cfg

    def test_values_apply(self):
        assert RunConfig().replaced(epochs=3, max_lr=0.1).epochs == 3


class TestWrite:
    def test_round_trips(self, tmp_path):
        cfg = RunConfig(hidden_size=48, seed=3, max_len=200)
        cfg.write(tmp_path)
        back = RunConfig.from_dict(json.loads((tmp_path / "config.json").read_text()))
        assert back == cfg

    def test_every_field_present(self, tmp_path):
        RunConfig().write(tmp_path)
        keys = set(json.loads((tmp_path / "config.json").read_text()))
        assert keys == {f.name for f in dataclasses.fields(RunConfig)}
