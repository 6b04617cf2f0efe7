"""Portable persistence: a text header plus a checksummed float64 payload.

Layout: one ASCII line "operlab-binary <version> <header_bytes>\n", followed
by exactly header_bytes of JSON metadata, followed by the payload as raw
little-endian float64 values (row-major per array).  The header records the
payload length and its SHA-256, so loads are bitwise-verified.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .grids import FunctionSample, Grid1D, Grid2D, OperatorDataset
from .opfit import (
    BandedKernelModel,
    DenseKernelModel,
    FourierMultiplierModel,
    HierarchicalKernelModel,
    KernelModel,
    LowRankKernelModel,
)

MAGIC = "operlab-binary"
VERSION = 1

MODEL_TYPES = {
    cls.variant: cls
    for cls in (
        DenseKernelModel,
        LowRankKernelModel,
        FourierMultiplierModel,
        BandedKernelModel,
        HierarchicalKernelModel,
    )
}

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
    if isinstance(grid, Grid1D):
        kind = "periodic-1d" if grid.periodic else "uniform-1d"
        return {"kind": kind, "n": grid.n, "left": grid.left, "right": grid.right}
    if isinstance(grid, Grid2D):
        return {"kind": "uniform-2d", "n": grid.n, "left": grid.left, "right": grid.right}
    raise ValueError(f"unknown grid type {type(grid)!r}")


def _field(mapping: dict, key: str, kind: type):
    """mapping[key], required to have the given JSON type (float admits integers)."""
    value = mapping.get(key)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise DataFormatError(f"header field {key!r} is missing or not a JSON {kind.__name__}")
    return value


def grid_from_dict(d: dict):
    kind = _field(d, "kind", str)
    n, left, right = _field(d, "n", int), _field(d, "left", float), _field(d, "right", float)
    if kind == "uniform-1d":
        return Grid1D(n, left, right, periodic=False)
    if kind == "periodic-1d":
        return Grid1D(n, left, right, periodic=True)
    if kind == "uniform-2d":
        return Grid2D(n, left, right)
    raise DataFormatError(f"unknown grid kind {kind!r}")


def write_container(path, header: dict, payload: bytes):
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {VERSION} {len(header_bytes)}\n".encode())
        fh.write(header_bytes)
        fh.write(payload)


def read_container(path) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        first = fh.readline()
        parts = first.decode(errors="replace").split()
        if len(parts) != 3 or parts[0] != MAGIC:
            raise DataFormatError(f"{path}: not an operlab container")
        try:
            version, header_len = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed container line") from exc
        if version != VERSION:
            raise UnsupportedVersionError(
                f"{path}: container version {version} is not supported (expected {VERSION})"
            )
        header_bytes = fh.read(header_len)
        if len(header_bytes) != header_len:
            raise TruncatedPayloadError(f"{path}: header shorter than its declared length")
        try:
            header = json.loads(header_bytes)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: malformed header") from exc
        if not isinstance(header, dict):
            raise DataFormatError(f"{path}: header is not a JSON object")
        payload = fh.read()
    declared = header.get("payload_bytes")
    if declared is None or len(payload) != declared:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(payload)} bytes, header declares {declared}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ChecksumMismatchError(f"{path}: payload checksum mismatch")
    return header, payload


def _pack_arrays(arrays: list[tuple[str, np.ndarray]]) -> tuple[list[dict], bytes]:
    manifest = []
    chunks = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape)})
        chunks.append(arr.tobytes())
    return manifest, b"".join(chunks)


def _unpack_arrays(manifest: list[dict], payload: bytes) -> dict[str, np.ndarray]:
    out = {}
    offset = 0
    for entry in manifest:
        shape = tuple(entry["shape"])
        nbytes = 8 * int(np.prod(shape)) if shape else 8
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise TruncatedPayloadError(f"array {entry['name']} is truncated")
        out[entry["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise TruncatedPayloadError("payload longer than the arrays it declares")
    return out


def _write(path, header: dict, arrays: list[tuple[str, np.ndarray]]):
    manifest, payload = _pack_arrays(arrays)
    header["arrays"] = manifest
    header["payload_bytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    write_container(path, header, payload)


def _read(path, container: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and named arrays of a verified container holding `container`."""
    header, payload = read_container(path)
    if header.get("container") != container:
        raise DataFormatError(
            f"{path}: container holds {header.get('container')!r}, not a {container}"
        )
    manifest = _field(header, "arrays", list)
    try:
        return header, _unpack_arrays(manifest, payload)
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: malformed array manifest: {exc!r}") from exc


def save_dataset(path, ds: OperatorDataset):
    """Write a dataset: header with grid/provenance, payload inputs then outputs."""
    grid = ds.inputs[0].grid if ds.inputs else None
    arrays = [(f"input{i}", s.values) for i, s in enumerate(ds.inputs)]
    arrays += [(f"output{i}", s.values) for i, s in enumerate(ds.outputs)]
    header = {
        "container": "dataset",
        "version": VERSION,
        "grid": grid_to_dict(grid) if grid is not None else None,
        "num_pairs": len(ds),
        "provenance": ds.provenance,
    }
    _write(path, header, arrays)


def load_dataset(path) -> OperatorDataset:
    header, arrays = _read(path, "dataset")
    count = _field(header, "num_pairs", int)
    try:
        grid = grid_from_dict(_field(header, "grid", dict)) if count else None
        inputs = [FunctionSample(grid, arrays[f"input{i}"]) for i in range(count)]
        outputs = [FunctionSample(grid, arrays[f"output{i}"]) for i in range(count)]
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: invalid dataset: {exc!r}") from exc
    return OperatorDataset(inputs, outputs, header.get("provenance", {}))


def save_model(path, model: KernelModel):
    """Write a fitted kernel model in the same container format."""
    if MODEL_TYPES.get(model.variant) is not type(model):
        raise ValueError(f"cannot persist model variant {model.variant!r}")
    header = {
        "container": "model",
        "version": VERSION,
        "variant": model.variant,
        "grid": grid_to_dict(model.grid),
    }
    header.update({name: getattr(model, name) for name in model.header_params})
    _write(path, header, model.saved_arrays())


def load_model(path) -> KernelModel:
    header, arrays = _read(path, "model")
    variant = _field(header, "variant", str)
    cls = MODEL_TYPES.get(variant)
    if cls is None:
        raise DataFormatError(f"{path}: unknown model variant {variant!r}")
    params = {name: _field(header, name, kind) for name, kind in cls.header_params.items()}
    try:
        return cls.from_saved(grid_from_dict(_field(header, "grid", dict)), params, arrays)
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: invalid {variant} model: {exc!r}") from exc
