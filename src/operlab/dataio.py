"""Portable persistence: a text header plus a checksummed float64 payload.

Layout: one ASCII line "operlab-binary <version> <header_bytes>\n", followed
by exactly header_bytes of JSON metadata, followed by the payload as raw
little-endian float64 values (row-major per array).  The header records the
payload length and its SHA-256, so loads are bitwise-verified, and repeats
the version of the container line.

A version-2 dataset holds two arrays, "inputs" and "outputs", each shaped
(num_pairs, *grid shape).  Version 1 stored one array per sample ("input0" ..
"input{N-1}", then "output0" ..); its payload bytes are the same, and it
still loads.  Model payloads are the same in both versions.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

# grids is imported inside the functions that use it, so a process that only
# writes a report through output_file does not load it
if TYPE_CHECKING:
    from .grids import OperatorDataset
    from .opfit import KernelModel

MAGIC = "operlab-binary"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
# longest container line, newline included (the magic, a version and a length fit in 40):
# a file whose first line is longer is not a container
CONTAINER_LINE_BYTES = 64

# what constructors and lookups raise on checksum-valid but malformed headers
_MALFORMED = (KeyError, TypeError, ValueError)


class DataFormatError(RuntimeError):
    """Base class for container format problems."""


class ChecksumMismatchError(DataFormatError):
    pass


class TruncatedPayloadError(DataFormatError):
    pass


class UnsupportedVersionError(DataFormatError):
    pass


def grid_to_dict(grid) -> dict:
    from .grids import Grid1D, Grid2D

    if isinstance(grid, Grid1D):
        kind = "periodic-1d" if grid.periodic else "uniform-1d"
        return {"kind": kind, "n": grid.n, "left": grid.left, "right": grid.right}
    if isinstance(grid, Grid2D):
        return {"kind": "uniform-2d", "n": grid.n, "left": grid.left, "right": grid.right}
    raise ValueError(f"unknown grid type {type(grid)!r}")


def _field(mapping: dict, key: str, kind: type):
    """mapping[key], required to have the given JSON type; a float must be
    finite and admits integers.  Callers add the file's path to the ValueError."""
    value = mapping.get(key)
    accepted = (int, float) if kind is float else kind
    # json reads NaN and Infinity as floats, a bool is an int, an int may exceed every float
    if (not isinstance(value, accepted) or isinstance(value, bool)
            or kind is float and not abs(value) <= sys.float_info.max):
        name = "finite number" if kind is float else kind.__name__
        raise ValueError(f"header field {key!r} is missing or not a JSON {name}")
    return value


def grid_from_dict(d: dict):
    from .grids import Grid1D, Grid2D

    kind = _field(d, "kind", str)
    n, left, right = _field(d, "n", int), _field(d, "left", float), _field(d, "right", float)
    if kind == "uniform-1d":
        return Grid1D(n, left, right, periodic=False)
    if kind == "periodic-1d":
        return Grid1D(n, left, right, periodic=True)
    if kind == "uniform-2d":
        return Grid2D(n, left, right)
    raise ValueError(f"unknown grid kind {kind!r}")


@contextlib.contextmanager
def output_file(path, mode: str = "w"):
    """A file to write path's contents into: a temporary next to path that
    replaces path only once the block completes.  A failed command removes
    the temporary and a killed one leaves it under a hidden name, so no
    output name ever holds a partial file."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode) as fh:
            yield fh
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)


def write_container(path, header: dict, *payload):
    """Write the container line for header["version"], the header (numpy
    arrays in it as JSON lists), then each payload buffer in order (the
    payload is their concatenation), through output_file."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              default=np.ndarray.tolist).encode()
    with output_file(path, "wb") as fh:
        fh.write(f"{MAGIC} {header['version']} {len(header_bytes)}\n".encode())
        fh.write(header_bytes)
        for chunk in payload:
            fh.write(chunk)


def read_container(path) -> tuple[dict, bytes]:
    """The verified header and payload of a container file.

    At most one byte past CONTAINER_LINE_BYTES is read for the container
    line, and a declared header length is checked against the bytes left in
    the file before it is read, so neither a file without a newline nor a
    huge declared length is buffered whole.  The payload is one exact-size
    read of the rest of the file: the only copy of it this function holds.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        first = fh.readline(CONTAINER_LINE_BYTES + 1)
        parts = first.decode(errors="replace").split()
        if len(parts) != 3 or parts[0] != MAGIC or len(first) > CONTAINER_LINE_BYTES:
            raise DataFormatError(f"{path}: not an operlab container")
        try:
            version, header_len = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed container line") from exc
        if version not in SUPPORTED_VERSIONS:
            raise UnsupportedVersionError(
                f"{path}: container version {version} is not supported "
                f"(expected one of {SUPPORTED_VERSIONS})"
            )
        if not 0 <= header_len <= size - fh.tell():
            raise TruncatedPayloadError(f"{path}: header shorter than its declared length")
        header_bytes = fh.read(header_len)
        try:
            header = json.loads(header_bytes)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise DataFormatError(f"{path}: malformed header") from exc
        if not isinstance(header, dict):
            raise DataFormatError(f"{path}: header is not a JSON object")
        if header.get("version") != version:
            raise DataFormatError(f"{path}: header version differs from the container line")
        # read() without a size joins the buffered head onto the rest: two copies
        payload = fh.read(size - fh.tell())
    declared = header.get("payload_bytes")
    if declared is None or len(payload) != declared:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(payload)} bytes, header declares {declared}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ChecksumMismatchError(f"{path}: payload checksum mismatch")
    return header, payload


def _unpack_arrays(path, manifest: list, payload: bytes) -> dict[str, np.ndarray]:
    """Read-only array views of the payload, by manifest name.

    The payload has been verified against the header, so a manifest that
    does not cover it exactly is a header fault: a DataFormatError.
    """
    out = {}
    offset = 0
    try:
        for entry in manifest:
            shape = entry["shape"]
            # json reads 16.0, NaN and Infinity as floats, and a bool is an int
            if type(shape) is not list or any(type(dim) is not int or dim < 0 for dim in shape):
                raise ValueError(f"array {entry['name']} needs nonnegative integer dimensions")
            if entry["name"] in out:
                raise ValueError(f"array {entry['name']} is named twice")
            nbytes = 8 * math.prod(shape)
            if offset + nbytes > len(payload):
                raise DataFormatError(f"{path}: array {entry['name']} runs past the payload")
            out[entry["name"]] = np.frombuffer(payload, "<f8", nbytes // 8, offset).reshape(shape)
            offset += nbytes
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: malformed array manifest: {exc!r}") from exc
    if offset != len(payload):
        raise DataFormatError(f"{path}: payload longer than the arrays it declares")
    return out


def _write(path, header: dict, arrays: list[tuple[str, np.ndarray]]):
    """Write arrays as the payload, hashing and writing each buffer in place."""
    arrays = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in arrays]
    digest = hashlib.sha256()
    for _, arr in arrays:
        digest.update(arr)
    header["version"] = VERSION
    header["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    header["payload_bytes"] = sum(arr.nbytes for _, arr in arrays)
    header["payload_sha256"] = digest.hexdigest()
    write_container(path, header, *(arr for _, arr in arrays))


def _read(path, container: str) -> tuple[dict, bytes]:
    """Header and payload of a verified container holding `container`."""
    header, payload = read_container(path)
    if header.get("container") != container:
        raise DataFormatError(
            f"{path}: container holds {header.get('container')!r}, not a {container}"
        )
    return header, payload


def save_dataset(path, ds: OperatorDataset):
    """Write a dataset: header with grid/provenance, payload inputs then outputs."""
    header = {
        "container": "dataset",
        "grid": grid_to_dict(ds.grid) if ds.grid is not None else None,
        "num_pairs": len(ds),
        "provenance": ds.provenance,
    }
    _write(path, header, [("inputs", ds.input_values), ("outputs", ds.output_values)])


def _dataset_manifest(version: int, grid, count: int) -> list[dict]:
    """The only manifest a dataset of count pairs on grid may carry."""
    from .grids import stacked_shape

    if version == 1:
        sample = list(stacked_shape(grid, 1)[1:])
        names = [f"input{i}" for i in range(count)] + [f"output{i}" for i in range(count)]
        return [{"name": name, "shape": sample} for name in names]
    stacked = list(stacked_shape(grid, count))
    return [{"name": "inputs", "shape": stacked}, {"name": "outputs", "shape": stacked}]


def load_dataset(path) -> OperatorDataset:
    from .grids import OperatorDataset

    header, payload = _read(path, "dataset")
    try:
        count = _field(header, "num_pairs", int)
        manifest = _field(header, "arrays", list)
        grid = None
        if count or header.get("grid") is not None:
            grid = grid_from_dict(_field(header, "grid", dict))
        version = header["version"]
        entries = 2 * count if version == 1 else 2  # checked first: a v1 manifest is 2N long
        if len(manifest) != entries or manifest != _dataset_manifest(version, grid, count):
            raise DataFormatError(
                f"{path}: array manifest does not hold {count} pairs on the header's grid"
            )
        # version 1 holds the same bytes one sample at a time: read both as stacked arrays
        arrays = _unpack_arrays(path, _dataset_manifest(VERSION, grid, count), payload)
        return OperatorDataset(
            grid, arrays["inputs"], arrays["outputs"], header.get("provenance", {})
        )
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: invalid dataset: {exc!r}") from exc


def model_types() -> dict:
    """Each persistable model class (each KernelModel subclass) by variant.
    opfit is imported here, so a process that only saves or loads datasets
    does not load the models."""
    from . import opfit

    return {cls.variant: cls for cls in opfit.KernelModel.__subclasses__()}


def save_model(path, model: KernelModel):
    """Write a fitted kernel model in the same container format."""
    if model_types().get(model.variant) is not type(model):
        raise ValueError(f"cannot persist model variant {model.variant!r}")
    header = {
        "container": "model",
        "variant": model.variant,
        "grid": grid_to_dict(model.grid),
    }
    header.update({name: getattr(model, name) for name in model.header_params})
    _write(path, header, model.saved_arrays())


def load_model(path) -> KernelModel:
    """The model whose constructor's arguments a file holds.  Every array is
    scanned before any constructor runs: an entry that is not finite, or an
    array the loaded model would not save again, is a DataFormatError."""
    header, payload = _read(path, "model")
    try:
        arrays = _unpack_arrays(path, _field(header, "arrays", list), payload)
        variant = _field(header, "variant", str)
        cls = model_types().get(variant)
        if cls is None:
            raise ValueError(f"unknown model variant {variant!r}")
        for name, array in arrays.items():
            if not np.isfinite(array).all():
                raise ValueError(f"array {name} holds entries that are not finite")
        grid = grid_from_dict(_field(header, "grid", dict))
        params = {name: _field(header, name, kind) for name, kind in cls.header_params.items()}
        model = cls.from_saved(grid, params, arrays)
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: invalid model: {exc!r}") from exc
    stray = set(arrays).symmetric_difference(name for name, _ in model.saved_arrays())
    if stray:
        raise DataFormatError(f"{path}: a {variant} model does not save arrays {sorted(stray)}")
    return model
