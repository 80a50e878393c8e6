"""Each option has one check: a bad value gets the same error from every entry
point (flag, config file, config class, checkpoint header)."""

import json
import re
import shutil

import numpy as np
import pytest

from bisource.ada import AdaConfig
from bisource.cli import load_checkpoint, main
from bisource.data import load_dataset
from bisource.io import load_tensor_dir, save_cpt1, save_tensor_dir
from bisource.model import ABLATIONS, BiSourceModel, ModelConfig, ablation_variant

BAD_COUNTS = [(2.5, "2.5"), (True, "True"), (0, "0"), ("x", "'x'")]
COUNT_ERROR = "prototype count must be a positive integer or 'inf', got "
ABLATION_ERROR = f"unknown ablation 'CEB'; choose from {ABLATIONS}"


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("opts") / "data"
    assert main(["gen-data", "--out", str(out), "--count", "2", "--size", "32", "--seed", "1"]) == 0
    return out


def train(data, tmp_path, *flags, config=None):
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
            "--epochs", "0", "--channels", "4", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return main(argv)


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("bisource: error: ValueError: ") and err.count("\n") == 1, err
    return err


def header_with(tmp_path, **changes):
    """A checkpoint whose header's model_config has ``changes`` applied."""
    model = BiSourceModel(ModelConfig(base_channels=4, num_prototypes=2, input_hw=(32, 32)), seed=0)
    config = {**model.config.to_json(), **changes}
    save_tensor_dir(tmp_path / "bad", model.state_arrays(), extra={"model_config": config, "seed": 0})
    return tmp_path / "bad"


@pytest.mark.parametrize("value,shown", BAD_COUNTS, ids=[s for _, s in BAD_COUNTS])
def test_bad_prototype_count_fails_alike_everywhere(data, tmp_path, capsys, value, shown):
    message = COUNT_ERROR + shown
    flag_value = json.dumps(value).strip('"')  # 2.5, true, 0, x
    assert train(data, tmp_path, "--k", flag_value) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(COUNT_ERROR + repr(flag_value))
    assert train(data, tmp_path, config={"k": value}) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(message)
    for build in (ModelConfig, AdaConfig):
        with pytest.raises(ValueError) as exc:
            build(num_prototypes=value)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        load_checkpoint(header_with(tmp_path, num_prototypes=value))
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize("value", ["3", 3, 3.0, "inf", float("inf")])
def test_good_prototype_counts_become_floats(value):
    assert ModelConfig(num_prototypes=value).num_prototypes == float(value)
    assert type(ModelConfig(num_prototypes=value).num_prototypes) is float


def test_bad_ablation_fails_alike_everywhere(data, tmp_path, capsys):
    assert train(data, tmp_path, "--ablate", "dab,CEB") == 1
    assert ABLATION_ERROR in one_error_line(capsys)
    assert train(data, tmp_path, config={"ablate": ["CEB"]}) == 1
    assert ABLATION_ERROR in one_error_line(capsys)
    with pytest.raises(ValueError) as exc:
        ModelConfig(ablate=("CEB",))
    assert str(exc.value) == ABLATION_ERROR
    model = BiSourceModel(ModelConfig(base_channels=4, input_hw=(32, 32)), seed=0)
    with pytest.raises(ValueError) as exc:
        ablation_variant(model, {"CEB"})
    assert str(exc.value) == ABLATION_ERROR
    with pytest.raises(ValueError) as exc:
        load_checkpoint(header_with(tmp_path, ablate=["CEB"]))
    assert str(exc.value).endswith(ABLATION_ERROR)


@pytest.mark.parametrize("content,found", [([1, 2], "list"), ("ceb", "str"), (3, "int")])
def test_config_that_is_not_an_object_names_the_file(data, tmp_path, capsys, content, found):
    assert train(data, tmp_path, config=content) == 1
    err = one_error_line(capsys)
    assert f"{tmp_path / 'cfg.json'}: config must be a JSON object, found {found}" in err


def test_unknown_config_key_names_the_key(data, tmp_path, capsys):
    assert train(data, tmp_path, config={"epoch": 3, "channels": 4}) == 1
    err = one_error_line(capsys)
    assert "unknown config keys ['epoch']" in err and str(tmp_path / "cfg.json") in err
    # a key of another subcommand is unknown here
    assert train(data, tmp_path, config={"ckpt": "x"}) == 1
    assert "['ckpt']" in one_error_line(capsys)


def test_config_that_is_not_json_names_the_file(data, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"epochs": 1,}')
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "ckpt"),
                 "--config", str(path)]) == 1
    err = one_error_line(capsys)
    assert f"{path}: not valid JSON: Expecting property name" in err and "line 1 column 14" in err


@pytest.mark.parametrize("config,error", [
    ({"epochs": 2.5}, "config key 'epochs' must be an integer, found 2.5"),
    ({"channels": 4.5, "epochs": 0}, "config key 'channels' must be an integer, found 4.5"),
    ({"epochs": True}, "config key 'epochs' must be an integer, found True"),
    ({"lr": [0.1]}, "config key 'lr' must be a number, found [0.1]"),
    ({"lr": False}, "config key 'lr' must be a number, found False"),
    ({"epochs": "two"}, "config key 'epochs': invalid int value 'two'"),
    ({"task": "count"}, "config key 'task' must be one of ['change', 'density'], found 'count'"),
], ids=["float-for-int", "second-key", "bool-for-int", "list-for-float", "bool-for-float",
        "bad-string", "bad-choice"])
def test_config_value_of_the_wrong_kind_names_the_file_and_key(data, tmp_path, capsys, config, error):
    assert train(data, tmp_path, config=config) == 1
    err = one_error_line(capsys)
    assert f"{tmp_path / 'cfg.json'}: {error}" in err


def test_config_numbers_of_the_flags_type_pass(data, tmp_path):
    assert train(data, tmp_path, config={"epochs": 0, "lr": 1, "weight_decay": 0.5}) == 0


def test_config_strings_convert_like_flags_and_do_not_leak(data, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": "0", "k": "inf", "ablate": "dab"}))
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "ckpt"), "--channels", "4"]
    assert main(argv + ["--config", str(cfg)]) == 0
    config = load_tensor_dir(tmp_path / "ckpt")[1]["model_config"]
    assert (config["num_prototypes"], config["ablate"]) == ("inf", ["dab"])
    # the next call without --config sees the flags' own defaults again
    assert main(argv + ["--epochs", "0"]) == 0
    config = load_tensor_dir(tmp_path / "ckpt")[1]["model_config"]
    assert (config["num_prototypes"], config["ablate"]) == (4.0, [])


def test_eval_data_of_another_task_is_rejected(data, tmp_path, capsys):
    density = tmp_path / "density"
    assert main(["gen-data", "--task", "density", "--out", str(density),
                 "--count", "1", "--size", "32"]) == 0
    assert train(data, tmp_path, "--eval-data", str(density)) == 1
    assert "dataset task 'density' != requested 'change'" in one_error_line(capsys)



@pytest.mark.parametrize("flags,config,error", [
    (["--batch-size", "0"], {"batch_size": 0}, "--batch-size must be at least 1, found 0"),
    (["--epochs", "-1"], {"epochs": -1}, "--epochs must be at least 0, found -1"),
    (["--lr", "nan"], {"lr": "nan"}, "--lr must be finite, found nan"),
    (["--weight-decay", "inf"], {"weight_decay": "inf"}, "--weight-decay must be finite, found inf"),
    (["--task", "density", "--eval-data", "held-out"], {"task": "density", "eval_data": "held-out"},
     "--eval-data needs --task change, found 'density'"),
    (["--stop-f1", "0.5"], {"stop_f1": 0.5}, "--stop-f1 needs --eval-data, found 0.5"),
    (["--lr", "-1"], {"lr": -1}, "--lr must be at least 0, found -1.0"),
    (["--weight-decay", "-5"], {"weight_decay": -5}, "--weight-decay must be at least 0, found -5.0"),
    (["--stop-f1", "1.5"], {"stop_f1": 1.5}, "--stop-f1 must be in [0, 1], found 1.5"),
    (["--stop-f1", "nan"], {"stop_f1": "nan"}, "--stop-f1 must be in [0, 1], found nan"),
], ids=["batch-size", "epochs", "lr", "weight-decay", "eval-data", "stop-f1",
        "negative-lr", "negative-weight-decay", "stop-f1-above-1", "stop-f1-nan"])
def test_bad_train_flag_fails_alike_before_any_work(data, tmp_path, capsys, flags, config, error):
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "ckpt"), "--channels", "4"]
    assert main(argv + flags) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(error)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(argv + ["--config", str(path)]) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(error)
    assert not (tmp_path / "ckpt").exists()


def test_zero_lr_and_stop_f1_are_valid(data, tmp_path):
    assert train(data, tmp_path, "--lr", "0", "--stop-f1", "0") == 0


def test_config_can_give_the_required_flags(data, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": str(tmp_path / "from-file"), "count": 1, "size": 32}))
    assert main(["gen-data", "--config", str(path)]) == 0
    assert load_dataset(tmp_path / "from-file")[0]["count"] == 1
    # an explicit flag still wins
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "manifest.json").exists()
    path.write_text(json.dumps({"data": str(data), "out": str(tmp_path / "ckpt"), "epochs": 0, "channels": 4}))
    assert main(["train", "--config", str(path)]) == 0
    assert (tmp_path / "ckpt" / "checkpoint.bin").exists()
    # a required flag given in neither place, or as null, is the parser's error
    for out in ({}, {"out": None}):
        path.write_text(json.dumps({"data": str(data), **out}))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(path)])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["no-target", "small-target"])
def test_a_bad_dataset_entry_fails_train_and_eval_before_any_work(data, tmp_path, capsys, fault):
    bad = tmp_path / "bad"
    shutil.copytree(data, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    if fault == "no-target":
        del manifest["samples"][1]["target"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        error = f"{bad / 'manifest.json'}: sample 1 needs a file name at 'target', found None"
    else:
        save_cpt1(bad / manifest["samples"][1]["target"], np.zeros((16, 16), np.float32))
        error = f"{bad / manifest['samples'][1]['target']}: shape (16, 16) != the manifest's size (32, 32)"
    assert train(bad, tmp_path) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(error)
    assert not (tmp_path / "ckpt").exists()
    assert train(data, tmp_path) == 0
    assert main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(bad),
                 "--out", str(tmp_path / "m.csv")]) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(error)
    assert not (tmp_path / "m.csv").exists()


def test_negative_count_fails_alike_before_any_work(tmp_path, capsys):
    argv = ["gen-data", "--out", str(tmp_path / "data")]
    assert main(argv + ["--count", "-1"]) == 1
    assert one_error_line(capsys).rstrip("\n").endswith("--count must be at least 0, found -1")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"count": -1}))
    assert main(argv + ["--config", str(path)]) == 1
    assert one_error_line(capsys).rstrip("\n").endswith("--count must be at least 0, found -1")
    assert not (tmp_path / "data").exists()


def test_an_update_that_leaves_a_parameter_non_finite_keeps_the_last_good_checkpoint(
        data, tmp_path, capsys):
    assert train(data, tmp_path) == 0  # the init checkpoint
    ckpt = tmp_path / "ckpt" / "checkpoint.bin"
    init = ckpt.read_bytes()
    # the loss is finite, but a step of 1e300 takes the float32 parameters past their range
    with np.errstate(over="ignore", invalid="ignore"):
        assert train(data, tmp_path, "--epochs", "3", "--lr", "1e300") == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"aborting: parameter \S+ holds NaN or Inf after step 1; "
                        rf"last-good checkpoint kept at {re.escape(str(tmp_path / 'ckpt'))}\n", err), err
    assert ckpt.read_bytes() == init
    model = load_checkpoint(tmp_path / "ckpt")
    assert all(np.isfinite(p.value.data).all() for p in model.parameters())


def test_checkpoint_with_a_nan_names_the_file_and_the_tensor(data, tmp_path, capsys):
    assert train(data, tmp_path) == 0
    arrays, header = load_tensor_dir(tmp_path / "ckpt")
    model = BiSourceModel(ModelConfig.from_json(header["model_config"]), seed=1)
    name = list(model.registry.named())[-1]  # the last one a loader would set
    arrays[name] = arrays[name].copy()
    arrays[name].flat[-1] = np.nan
    save_tensor_dir(tmp_path / "bad", arrays, extra=header)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(tmp_path / "bad")
    assert str(exc.value) == f"{tmp_path / 'bad'}: {name}: NaN or Inf in the checkpoint's values"
    # a rejected checkpoint leaves the model it was loaded into as it was
    before = model.state_arrays()
    with pytest.raises(ValueError, match=re.escape(name)):
        model.load_state(arrays)
    assert all(np.array_equal(before[n], a) for n, a in model.state_arrays().items())
    assert main(["eval", "--ckpt", str(tmp_path / "bad"), "--data", str(data),
                 "--out", str(tmp_path / "m.csv")]) == 1
    assert one_error_line(capsys).rstrip("\n").endswith(str(exc.value))
