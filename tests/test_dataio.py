"""Dataset and model containers: the pair-count rule, version-1 files, and
properties of save/load under corruption."""
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operlab import dataio
from operlab.dataio import (
    DataFormatError,
    grid_to_dict,
    load_dataset,
    load_model,
    read_container,
    save_dataset,
    write_container,
)
from operlab.grids import Grid1D, Grid2D, OperatorDataset, stacked_shape
from operlab.numerics import RngStream
from operlab.opfit import fit_green_kernel

from helpers import MODEL_VARIANTS, fitted_model, white_noise_dataset


def random_dataset(grid, count: int, seed: int) -> OperatorDataset:
    shape = stacked_shape(grid, count)
    stream = RngStream(seed)
    return OperatorDataset(
        grid, stream.standard_normal(shape), stream.standard_normal(shape), {"seed": seed}
    )


def rewrite_header(path, changes):
    """Rewrite a container's header with keys changed; the payload and its
    checksum stay valid, so only the header edit can make a load fail."""
    header, payload = read_container(path)
    header.update(changes)
    write_container(path, header, payload)


def write_version_one(path, ds: OperatorDataset):
    """A dataset in the version-1 layout: one manifest entry per sample."""
    arrays = [(f"input{i}", v) for i, v in enumerate(ds.input_values)]
    arrays += [(f"output{i}", v) for i, v in enumerate(ds.output_values)]
    payload = b"".join(np.ascontiguousarray(v, dtype="<f8").tobytes() for _, v in arrays)
    header = {
        "container": "dataset",
        "version": 1,
        "grid": grid_to_dict(ds.grid) if ds.grid is not None else None,
        "num_pairs": len(ds),
        "provenance": ds.provenance,
        "arrays": [{"name": name, "shape": list(v.shape)} for name, v in arrays],
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    write_container(path, header, payload)


class TestPairCount:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "three.ds"
        save_dataset(path, random_dataset(Grid1D(8), 3, seed=1))
        return path

    def test_smaller_num_pairs_is_format_error(self, saved):
        rewrite_header(saved, {"num_pairs": 1})
        with pytest.raises(DataFormatError, match="3|pairs"):
            load_dataset(saved)

    def test_larger_num_pairs_is_format_error(self, saved):
        rewrite_header(saved, {"num_pairs": 5})
        with pytest.raises(DataFormatError):
            load_dataset(saved)

    def test_grid_disagreeing_with_arrays_is_format_error(self, saved):
        rewrite_header(saved, {"grid": grid_to_dict(Grid1D(9))})
        with pytest.raises(DataFormatError):
            load_dataset(saved)

    def test_renamed_array_is_format_error(self, saved):
        header, _ = read_container(saved)
        manifest = header["arrays"]
        manifest[1]["name"] = "targets"
        rewrite_header(saved, {"arrays": manifest})
        with pytest.raises(DataFormatError):
            load_dataset(saved)

    @pytest.mark.parametrize(
        "edit",
        ["num_pairs-1", "num_pairs-huge", "drop-last-output", "swap-order", "sample-shape"],
    )
    def test_version_one_manifest_must_be_exact(self, tmp_path, edit):
        path = tmp_path / "v1.ds"
        write_version_one(path, random_dataset(Grid1D(8), 3, seed=2))
        header, payload = read_container(path)
        manifest = header["arrays"]
        if edit == "num_pairs-1":
            header["num_pairs"] = 1
        elif edit == "num_pairs-huge":
            header["num_pairs"] = 10 ** 12
        elif edit == "drop-last-output":
            manifest.pop()
            payload = payload[:-64]
        elif edit == "swap-order":
            manifest[0], manifest[3] = manifest[3], manifest[0]
        else:
            manifest[0]["shape"] = [2, 4]
        header["payload_bytes"] = len(payload)
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        write_container(path, header, payload)
        with pytest.raises(DataFormatError):
            load_dataset(path)


class TestVersionOne:
    @pytest.mark.parametrize(
        "grid, count",
        [(Grid1D(16), 4), (Grid1D(12, 0.0, 2 * np.pi, periodic=True), 2), (Grid2D(5), 3),
         (None, 0)],
    )
    def test_loads_bit_identical_and_resaves_same_payload(self, tmp_path, grid, count):
        ds = random_dataset(grid, count, seed=3)
        old = tmp_path / "v1.ds"
        write_version_one(old, ds)
        loaded = load_dataset(old)
        assert len(loaded) == count
        assert np.array_equal(loaded.input_values, ds.input_values)
        assert np.array_equal(loaded.output_values, ds.output_values)
        assert loaded.provenance == ds.provenance
        new = tmp_path / "v2.ds"
        save_dataset(new, loaded)
        old_header, old_payload = read_container(old)
        new_header, new_payload = read_container(new)
        assert new_header["version"] == dataio.VERSION == 2
        assert new_payload == old_payload
        assert new_header["payload_sha256"] == old_header["payload_sha256"]
        assert [a["name"] for a in new_header["arrays"]] == ["inputs", "outputs"]

    def test_version_one_model_loads(self, tmp_path):
        grid = Grid1D(16)
        model = fit_green_kernel(
            white_noise_dataset(grid, RngStream(4).standard_normal((16, 16)), 20, seed=5), 1e-9
        )
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        rewrite_header(path, {"version": 1})
        assert path.read_bytes().startswith(b"operlab-binary 1 ")
        assert np.array_equal(load_model(path).kernel, model.kernel)

    def test_header_version_must_match_line(self, tmp_path):
        path = tmp_path / "data.ds"
        save_dataset(path, random_dataset(Grid1D(8), 2, seed=6))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"operlab-binary 2 ", b"operlab-binary 1 ", 1))
        with pytest.raises(DataFormatError, match="version"):
            load_dataset(path)


def check_flip_and_truncation(path, raw: bytes, data, load):
    """A random single-byte flip of `raw` either loads or raises a
    DataFormatError subclass; truncating it at the same position always
    raises one."""
    position = data.draw(st.integers(0, len(raw) - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="xor")
    corrupted = bytearray(raw)
    corrupted[position] ^= flip
    path.write_bytes(bytes(corrupted))
    try:
        load(path)  # a flip inside free-form header text may still load
    except DataFormatError:
        pass
    path.write_bytes(raw[:position])
    with pytest.raises(DataFormatError):
        load(path)


GRIDS = st.one_of(
    st.builds(Grid1D, st.integers(2, 12), st.just(0.0), st.sampled_from([1.0, 2 * np.pi]),
              st.booleans()),
    st.builds(Grid2D, st.integers(2, 6)),
)


class TestContainerProperties:
    @settings(max_examples=60, deadline=None)
    @given(grid=GRIDS, count=st.integers(0, 5), seed=st.integers(0, 2 ** 31))
    def test_save_load_save_is_bit_identical(self, grid, count, seed):
        ds = random_dataset(grid, count, seed)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.ds", Path(tmp) / "b.ds"
            save_dataset(first, ds)
            loaded = load_dataset(first)
            assert np.array_equal(loaded.input_values, ds.input_values)
            assert np.array_equal(loaded.output_values, ds.output_values)
            save_dataset(second, loaded)
            assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(grid=GRIDS, count=st.integers(0, 3), data=st.data())
    def test_flipped_byte_or_truncation_only_raises_format_errors(self, grid, count, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.ds"
            save_dataset(path, random_dataset(grid, count, seed=count))
            check_flip_and_truncation(path, path.read_bytes(), data, load_dataset)


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """The bytes of a saved model of every variant."""
    saved = {}
    for variant in MODEL_VARIANTS:
        path = tmp_path_factory.mktemp("models") / f"{variant}.bin"
        dataio.save_model(path, fitted_model(variant)[0])
        saved[variant] = path.read_bytes()
    return saved


class TestModelFileProperties:
    @settings(max_examples=150, deadline=None)
    @given(variant=st.sampled_from(MODEL_VARIANTS), data=st.data())
    def test_flipped_byte_or_truncation_only_raises_format_errors(
        self, saved_models, variant, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            check_flip_and_truncation(path, saved_models[variant], data, load_model)


class TestNoPartialFile:
    """A container is written under a temporary name and renamed into place,
    so a write that fails partway leaves the directory as it was."""

    def test_failed_payload_write_leaves_the_directory_as_it_was(self, tmp_path):
        (tmp_path / "other.txt").write_text("unrelated")
        header = {"version": dataio.VERSION, "container": "dataset"}
        with pytest.raises(TypeError):  # the second payload chunk is no buffer
            dataio.write_container(tmp_path / "out.ds", header, b"\0" * 64, object())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt"]

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        ds = white_noise_dataset(Grid1D(8), np.eye(8), 3, seed=1)
        path = tmp_path / "train.ds"
        save_dataset(path, ds)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            dataio.write_container(path, {"version": dataio.VERSION}, b"\0" * 64, object())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.ds"]
        assert path.read_bytes() == before
