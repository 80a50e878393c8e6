"""Synthetic data generators: determinism, mask semantics, density mass."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bisource.data import (
    ChangeSceneSpec,
    DensitySceneSpec,
    gen_change_pair,
    gen_density_pair,
    generate_dataset,
    load_dataset,
)
from bisource.io import save_cpt1, write_pgm
from bisource.metrics import grid_count_error

FILE_KEYS = ("img1", "img2", "target")
NOT_A_TASK_SIZE_OR_LIST = st.one_of(st.none(), st.booleans(), st.integers(-3, 0),
                                    st.floats(allow_nan=False), st.text(max_size=3))
NOT_A_NAME = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                       st.lists(st.text(max_size=3), max_size=2))
EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_change_pair_deterministic():
    a = gen_change_pair(ChangeSceneSpec(seed=42))
    b = gen_change_pair(ChangeSceneSpec(seed=42))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = gen_change_pair(ChangeSceneSpec(seed=43))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_change_prob_zero_means_no_change():
    img1, img2, mask = gen_change_pair(ChangeSceneSpec(seed=7, change_prob=0.0))
    np.testing.assert_array_equal(img1, img2)
    assert mask.sum() == 0.0


def test_change_prob_one_single_rect_mask_is_symmetric_difference():
    # with one rectangle that always changes, the mask is exactly the set of
    # pixels covered in one frame but not the other
    for seed in range(10):
        img1, img2, mask = gen_change_pair(
            ChangeSceneSpec(seed=seed, n_rects=1, change_prob=1.0)
        )
        diff = ~np.isclose(img1, img2)
        # mask covers every pixel whose value differs between frames
        assert np.all(mask.astype(bool)[diff])
        assert mask.sum() > 0


def test_change_mask_binary_and_images_in_range():
    img1, img2, mask = gen_change_pair(ChangeSceneSpec(seed=3))
    assert set(np.unique(mask)) <= {0.0, 1.0}
    for img in (img1, img2):
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.dtype == np.float32


def test_change_spec_validation():
    with pytest.raises(ValueError):
        ChangeSceneSpec(height=4, width=64)


def test_density_mass_matches_people_count():
    for n in (0, 1, 5, 12):
        _, _, density = gen_density_pair(DensitySceneSpec(seed=n, n_people=n))
        assert abs(density.sum() - n) < 1e-3
        if n == 0:
            assert density.max() == 0.0
        assert density.min() >= 0.0


def test_density_pair_deterministic_and_in_range():
    a = gen_density_pair(DensitySceneSpec(seed=11))
    b = gen_density_pair(DensitySceneSpec(seed=11))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    img1, img2, _ = a
    for img in (img1, img2):
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_density_dark_dims_first_stream():
    bright = gen_density_pair(DensitySceneSpec(seed=5, illumination="bright"))
    dark = gen_density_pair(DensitySceneSpec(seed=5, illumination="dark"))
    # same people/noise offsets, weaker blob contrast in the first stream
    assert dark[0].mean() < bright[0].mean()
    np.testing.assert_array_equal(dark[1], bright[1])
    with pytest.raises(ValueError):
        DensitySceneSpec(illumination="dusk")


def test_density_grid_error_identity():
    _, _, density = gen_density_pair(DensitySceneSpec(seed=9))
    for level in range(4):
        assert grid_count_error(density, density, level) == 0.0


def test_generate_and_load_round_trip(tmp_path):
    for task in ("change", "density"):
        out = tmp_path / task
        manifest = generate_dataset(task, out, count=3, size=64, seed=1)
        assert manifest["count"] == 3 and manifest["task"] == task
        loaded_manifest, samples = load_dataset(out)
        assert loaded_manifest == manifest
        assert len(samples) == 3
        for img1, img2, target in samples:
            assert img1.shape == (64, 64)
            assert img2.shape == (64, 64)
            assert target.shape == (64, 64)
            assert img1.dtype == np.float32
            assert 0.0 <= img1.min() and img1.max() <= 1.0


def test_generate_dataset_deterministic(tmp_path):
    m1 = generate_dataset("change", tmp_path / "a", count=2, size=64, seed=5)
    m2 = generate_dataset("change", tmp_path / "b", count=2, size=64, seed=5)
    assert m1 == m2
    _, s1 = load_dataset(tmp_path / "a")
    _, s2 = load_dataset(tmp_path / "b")
    for (a1, a2, at), (b1, b2, bt) in zip(s1, s2):
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)
        np.testing.assert_array_equal(at, bt)


def test_generate_dataset_rejects_bad_task(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset("segmentation", tmp_path / "x", count=1, size=64, seed=0)


def test_manifest_json_parses(tmp_path):
    generate_dataset("density", tmp_path / "d", count=1, size=64, seed=0)
    with open(tmp_path / "d" / "manifest.json") as fh:
        m = json.load(fh)
    assert m["task"] == "density"
    assert len(m["samples"]) == 1


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "data"
    generate_dataset("change", out, count=3, size=16, seed=2)
    return out


def load_fault(dataset, fault) -> tuple[str, str]:
    """The message of the ValueError load_dataset raises on a copy of
    ``dataset`` that ``fault(copy, manifest)`` has changed, and the message
    ``fault`` returns; the manifest is written back after the call."""
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "data"
        shutil.copytree(dataset, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        want = fault(bad, manifest)
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as exc:
            load_dataset(bad)
        return str(exc.value), want


@EXAMPLES
@given(key=st.sampled_from(["task", "size", "samples"]), value=NOT_A_TASK_SIZE_OR_LIST, drop=st.booleans())
def test_a_bad_manifest_field_names_the_manifest(dataset, key, value, drop):
    def fault(bad, manifest):
        if drop:
            del manifest[key]
        else:
            manifest[key] = value
        return f"{bad / 'manifest.json'}: {key!r} must be "

    got, want = load_fault(dataset, fault)
    assert got.startswith(want)


@EXAMPLES
@given(i=st.integers(0, 2), key=st.sampled_from(FILE_KEYS), value=NOT_A_NAME, drop=st.booleans())
def test_an_entry_without_a_file_name_names_the_manifest_and_the_entry(dataset, i, key, value, drop):
    def fault(bad, manifest):
        if drop:
            del manifest["samples"][i][key]
        else:
            manifest["samples"][i][key] = value
        return f"{bad / 'manifest.json'}: sample {i} needs a file name at {key!r}"

    got, want = load_fault(dataset, fault)
    assert got.startswith(want)


@EXAMPLES
@given(i=st.integers(0, 2), key=st.sampled_from(FILE_KEYS),
       shape=st.tuples(st.integers(1, 24), st.integers(1, 24)).filter(lambda s: s != (16, 16)))
def test_a_file_of_the_wrong_shape_is_named(dataset, i, key, shape):
    def fault(bad, manifest):
        path = bad / manifest["samples"][i][key]
        if key == "target":
            save_cpt1(path, np.zeros(shape, np.float32))
        else:
            write_pgm(path, np.zeros(shape, np.uint8))
        return f"{path}: shape {shape} != the manifest's size (16, 16)"

    got, want = load_fault(dataset, fault)
    assert got == want


@EXAMPLES
@given(i=st.integers(0, 2), at=st.integers(0, 255), value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_a_non_finite_target_is_named(dataset, i, at, value):
    def fault(bad, manifest):
        path = bad / manifest["samples"][i]["target"]
        target = np.zeros((16, 16), np.float32)
        target.flat[at] = value
        save_cpt1(path, target)
        return f"{path}: target holds NaN or Inf"

    got, want = load_fault(dataset, fault)
    assert got == want
