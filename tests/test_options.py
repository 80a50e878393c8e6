"""Each option has one check: a bad value gets the same error from every entry
point (flag, config file, config class, checkpoint header)."""

import json

import pytest

from bisource.ada import AdaConfig
from bisource.cli import load_checkpoint, main
from bisource.io import load_tensor_dir, save_tensor_dir
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

