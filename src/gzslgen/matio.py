"""Raw-matrix and archive IO.

On-disk convention: a JSON descriptor next to flat binary matrices,
row-major little-endian. Datasets use 32-bit floats / ints; checkpoints
keep 64-bit floats so a save/load round trip is exact.

Checkpoint archives are plain uncompressed zips with pinned timestamps,
so identical parameters always produce byte-identical files.
"""

from __future__ import annotations

import io
import json
import os
import zipfile

import numpy as np

from .errors import DataLoadError, FormatError

DTYPES = {"f32": "<f4", "f64": "<f8", "i32": "<i4"}
# Fixed DOS timestamp (zip epoch) keeps archive bytes reproducible.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_matrix(path: str, arr: np.ndarray, kind: str) -> None:
    arr = np.ascontiguousarray(arr)
    arr.astype(DTYPES[kind]).tofile(path)


def read_matrix(path: str, shape: tuple[int, ...], kind: str) -> np.ndarray:
    if not os.path.exists(path):
        raise DataLoadError(f"missing matrix file: {path}")
    raw = np.fromfile(path, dtype=DTYPES[kind])
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise FormatError(
            f"{path}: payload holds {raw.size} values, metadata declares "
            f"shape {tuple(shape)} ({expected} values)"
        )
    out = raw.reshape(shape)
    if kind == "i32":
        return out.astype(np.int64)
    return out.astype(np.float64)


def load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise DataLoadError(f"missing metadata file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def write_archive(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write meta + named float64 matrices into one reproducible zip."""
    entries = {"meta.json": dumps_json(meta).encode("utf-8")}
    for name, arr in arrays.items():
        buf = io.BytesIO()
        buf.write(np.ascontiguousarray(arr).astype(DTYPES["f64"]).tobytes())
        entries[name + ".f64"] = buf.getvalue()
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(entries):
            info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
            zf.writestr(info, entries[name])


def read_archive(path: str) -> tuple[dict, dict[str, bytes]]:
    if not os.path.exists(path):
        raise DataLoadError(f"missing archive: {path}")
    blobs = {}
    with zipfile.ZipFile(path, "r") as zf:
        for name in zf.namelist():
            blobs[name] = zf.read(name)
    if "meta.json" not in blobs:
        raise FormatError(f"{path}: archive has no meta.json")
    meta = json.loads(blobs.pop("meta.json").decode("utf-8"))
    return meta, blobs


def matrix_from_blob(blob: bytes, shape: tuple[int, ...], source: str) -> np.ndarray:
    """Read-only view of a float64 blob; copy it to keep or modify it."""
    raw = np.frombuffer(blob, dtype=DTYPES["f64"])
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise FormatError(
            f"{source}: payload holds {raw.size} values, metadata declares shape {tuple(shape)}"
        )
    return raw.reshape(shape)
