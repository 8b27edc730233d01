"""Raw-matrix and archive IO.

On-disk convention: a JSON descriptor next to flat binary matrices,
row-major little-endian. Datasets use 32-bit floats / ints; checkpoints
keep 64-bit floats so a save/load round trip is exact.

Checkpoint archives are plain uncompressed zips with pinned timestamps,
so identical parameters always produce byte-identical files.

``read_fields`` types every JSON document the program reads against its
dataclass: run configs and specs (``config.parse_run_config``), a dataset's
``meta.json`` (``data.load_dataset``) and checkpoint metadata
(``config.load_checkpoint``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import zipfile
from dataclasses import MISSING, Field
from typing import Any, Iterable

import numpy as np

from .errors import DataLoadError, FormatError, ValidationError

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
    _check_size(raw.size, shape, path)
    out = raw.reshape(shape)
    if kind == "i32":
        return out.astype(np.int64)
    return out.astype(np.float64)


def load_json(path: str) -> Any:
    if not os.path.exists(path):
        raise DataLoadError(f"missing metadata file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or UTF-8, or an integer too long to parse
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON values accepted for a dataclass field, by its annotation; an integer
# given for a float must convert without overflow
_JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max,
              "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def read_fields(section: str, doc: Any, declared: Iterable[Field], complete: bool = False) -> dict:
    """The entries of the JSON object ``doc`` that name the dataclass fields
    ``declared``, each checked against its annotation; errors name
    ``section.field``. A field without a default (with ``complete``, every
    field) must be present; keys naming no declared field are left alone."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{section!r} must be a JSON object, got {doc!r:.40}")
    out = {}
    for f in declared:
        if f.name not in doc:
            if complete or f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"missing {section}.{f.name}")
            continue
        value = doc[f.name]
        accepts, described = _JSON_TYPES[f.type]
        if not accepts(value):
            raise ValidationError(f"{section}.{f.name} must be {described}, got {value!r:.40}")
        out[f.name] = value
    return out


def write_archive(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write meta + named float64 matrices into one reproducible zip."""
    entries = {"meta.json": dumps_json(meta).encode("utf-8")}
    for name, arr in arrays.items():
        entries[name + ".f64"] = np.ascontiguousarray(arr, dtype=DTYPES["f64"]).tobytes()
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(entries):
            info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
            zf.writestr(info, entries[name])


def read_archive(path: str) -> tuple[dict, dict[str, bytes]]:
    if not os.path.exists(path):
        raise DataLoadError(f"missing archive: {path}")
    try:
        with zipfile.ZipFile(path, "r") as zf:
            blobs = {name: zf.read(name) for name in zf.namelist()}
    except zipfile.BadZipFile as exc:
        raise FormatError(f"{path}: not a valid zip archive ({exc})") from exc
    if "meta.json" not in blobs:
        raise FormatError(f"{path}: archive has no meta.json")
    try:
        meta = json.loads(blobs.pop("meta.json").decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise FormatError(f"{path}: meta.json is not valid JSON ({exc})") from exc
    return meta, blobs


def matrix_from_blob(blob: bytes, shape: tuple[int, ...], source: str) -> np.ndarray:
    """Read-only view of a float64 blob; copy it to keep or modify it."""
    raw = np.frombuffer(blob, dtype=DTYPES["f64"])
    _check_size(raw.size, shape, source)
    return raw.reshape(shape)


def _check_size(size: int, shape: tuple[int, ...], source: str) -> None:
    """A FormatError unless ``size`` values fill ``shape`` exactly."""
    if min(shape, default=0) < 0 or size != math.prod(shape):
        raise FormatError(
            f"{source}: payload holds {size} values, metadata declares shape {tuple(shape)}"
        )
