"""Dataset and model containers: the pair-count rule, version-1 files, and
properties of save/load under corruption."""
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlab import dataio
from operlab.cli import main
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
from operlab.opfit import DenseKernelModel, fit_green_kernel, hierarchical_decompose
from operlab.structured import partition_lanes

from helpers import (
    JSON_VALUES,
    MODEL_VARIANTS,
    edit_json_field,
    fitted_model,
    white_noise_dataset,
    write_per_block,
)


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


class TestHierarchicalLayout:
    """A hierarchical model file holds one stack per lane and factor, plus
    one per leaf lane; a file of the retired per-block layout does not load."""

    @pytest.mark.parametrize("levels, arrays", [(4, 27), (6, 43)])
    def test_one_array_per_lane_and_factor(self, tmp_path, levels, arrays):
        kernel = RngStream(7).standard_normal((256, 256))
        model = hierarchical_decompose(DenseKernelModel(Grid1D(256), kernel), levels, 4)
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        header, payload = read_container(path)
        lanes, leaf_lanes = partition_lanes(256, levels, "strong")
        assert len(header["arrays"]) == 2 * len(lanes) + len(leaf_lanes) == arrays
        assert "block_meta" not in header and "leaf_meta" not in header
        assert [len(tails) for tails in header["tails"]] == [len(lane[1]) for lane in lanes]
        if levels == 4:
            assert path.stat().st_size - len(payload) <= 3 * 1024

    def test_per_block_file_is_a_format_error(self, tmp_path, capsys):
        """A file of the retired per-block layout has no tails field: loading
        it is a DataFormatError that names the file, and eval prints exactly
        one ERROR:format line."""
        model, _ = fitted_model("hierarchical")
        path, data = tmp_path / "old.bin", tmp_path / "data.ds"
        write_per_block(path, model)
        with pytest.raises(DataFormatError, match="tails") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
        save_dataset(data, random_dataset(model.grid, 2, seed=4))
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"command": "eval", "seed": 1, "model": str(path),
                                      "datasets": [{"resolution": 32, "path": str(data)}],
                                      "output": "eval.csv"}))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"ERROR:format: {info.value}"]

    def test_per_block_file_with_tails_is_a_format_error(self, tmp_path):
        """A per-block file given the tails field of its model still holds
        block and leaf arrays, not lane stacks: it does not load."""
        model, _ = fitted_model("hierarchical")
        path = tmp_path / "old.bin"
        write_per_block(path, model)
        header, payload = read_container(path)
        header["tails"] = [t.tolist() for t in model.tails]
        write_container(path, header, payload)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
            load_model(path)


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


@pytest.fixture(scope="module")
def saved_files(saved_models, tmp_path_factory):
    """The bytes and loader of a saved model of every variant, a per-block
    hierarchical model file and a dataset."""
    folder = tmp_path_factory.mktemp("files")
    write_per_block(folder / "per-block.bin", fitted_model("hierarchical")[0])
    save_dataset(folder / "data.ds", random_dataset(Grid1D(8), 2, seed=3))
    files = {variant: (raw, load_model) for variant, raw in saved_models.items()}
    files["per-block"] = ((folder / "per-block.bin").read_bytes(), load_model)
    files["dataset"] = ((folder / "data.ds").read_bytes(), load_dataset)
    return files


# the values a header field is replaced with: every JSON type, and numbers
# that json.loads reads but no field admits
HEADER_VALUES = (*JSON_VALUES, "x")


class TestModelFileProperties:
    @settings(max_examples=150, deadline=None)
    @given(variant=st.sampled_from(MODEL_VARIANTS), data=st.data())
    def test_flipped_byte_or_truncation_only_raises_format_errors(
        self, saved_models, variant, data
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.bin"
            check_flip_and_truncation(path, saved_models[variant], data, load_model)

    @settings(max_examples=400, deadline=None)
    # arrays[0].shape[0] of the dense model (keys are sorted): json reads
    # Infinity as a float, which once escaped as an OverflowError
    @example(name="dense-kernel", field=4, delete=False, value=float("inf"))
    # grid.n of the hierarchical model: 2**40 points once allocated the
    # factor arrays (a MemoryError) before any lane stack was checked
    @example(name="hierarchical", field=119, delete=False, value=2 ** 40)
    # grid.n of the multiplier model: 4 points cannot hold its 17 modes
    @example(name="fourier-multiplier", field=17, delete=False, value=4)
    @given(name=st.sampled_from(("dense-kernel", "low-rank", "fourier-multiplier", "banded",
                                 "hierarchical", "per-block", "dataset")),
           field=st.integers(0, 10 ** 4), delete=st.booleans(),
           value=st.sampled_from(HEADER_VALUES))
    def test_edited_header_field_loads_or_raises_a_format_error(
        self, saved_files, name, field, delete, value
    ):
        """Replace one header field, at any depth (arrays[i].shape[j]
        included), with null, true, false, 0, -1, 2**70, 0.5, NaN, Infinity,
        -Infinity, "x", [] or {}, or delete it, and keep the checksum valid
        (an edited payload_sha256 is a checksum error): the file then loads,
        or raises a DataFormatError whose message starts with the file's
        path.  field picks the edited path, modulo the number of paths in
        the header."""
        raw, load = saved_files[name]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.bin"
            path.write_bytes(raw)
            header, payload = read_container(path)
            edit_json_field(header, field, delete, value)
            # the container line keeps the version the file was written with
            text = json.dumps(header).encode()
            path.write_bytes(f"{dataio.MAGIC} {dataio.VERSION} {len(text)}\n".encode()
                             + text + payload)
            try:
                load(path)
            except DataFormatError as exc:
                assert str(exc).startswith(f"{path}: ")


class TestFiniteScan:
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_every_array_is_scanned_on_load(self, tmp_path, variant, monkeypatch):
        """load_model scans every saved array for finiteness; a constructor
        may scan one again (DenseOperator scans the dense and banded kernels)."""
        model, _ = fitted_model(variant)
        path = tmp_path / "model.bin"
        dataio.save_model(path, model)
        scanned = []
        isfinite = np.isfinite

        def recording(array, *args, **kwargs):
            scanned.append(np.asarray(array).tobytes())
            return isfinite(array, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recording)
        load_model(path)
        monkeypatch.undo()
        missing = [name for name, a in model.saved_arrays()
                   if np.ascontiguousarray(a, dtype=float).tobytes() not in scanned]
        assert missing == []


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
