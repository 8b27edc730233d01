"""Raw-matrix and archive IO.

On-disk convention: a JSON descriptor next to flat binary matrices,
row-major little-endian. Datasets use 32-bit floats / ints; checkpoints
keep 64-bit floats so a save/load round trip is exact.

Checkpoint archives are plain uncompressed zips with pinned timestamps,
so identical parameters always produce byte-identical files. Their arrays
stream between the caller's buffers and the zip members with no full-size copy.
A save overwrites a file already at its path in place and then cuts it to
length, so a save killed part-way leaves the new bytes over the head of the
old file (see ``write_archive``).

``read_fields`` types every JSON document the program reads against its
dataclass: run configs and specs (``config.parse_run_config``), a dataset's
``meta.json`` (``data.load_dataset``) and checkpoint metadata
(``config.load_checkpoint``). A bounded field declares its rule once, in its
metadata (``field(default=..., metadata=AT_LEAST_1)``), and ``check_bounds``
is the one function that checks those rules, so every out-of-range setting
or network shape is reported as ``<section>.<field> must be <rule>, got
<value>``. ``check_bound`` checks one value against one such rule, for a
value passed on its own (``evaluation.sweep_samples``' ``counts``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import zipfile
from contextlib import contextmanager
from dataclasses import MISSING, Field, fields
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataLoadError, FormatError, ValidationError

DTYPES = {"f32": "<f4", "f64": "<f8", "i32": "<i4"}
# Fixed DOS timestamp (zip epoch) keeps archive bytes reproducible.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_CHUNK = 1 << 20  # bytes read from an archive member per call into the array it fills


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


# JSON values accepted for a dataclass field, by its annotation; a float is
# finite (``json`` parses NaN and Infinity), and an integer given for one must
# convert without overflow
_JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: isinstance(v, float) and math.isfinite(v)
              or _is_int(v) and abs(v) <= sys.float_info.max, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def read_fields(section: str, doc: Any, declared: Iterable[Field], complete: bool = False) -> dict:
    """The entries of the JSON object ``doc`` that name the dataclass fields
    ``declared``, each checked against its annotation, a ``float`` one returned
    as a Python float; errors name ``section.field``. A field without a default
    (with ``complete``, every field) must be present; keys naming no declared
    field are left alone."""
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
        out[f.name] = float(value) if f.type == "float" else value
    return out


# The bound of a dataclass field, as its metadata {"bound": (test, text)}: a
# value passes when ``test(value)`` is true. Each test compares, so NaN meets none.
AT_LEAST_0 = {"bound": (lambda v: v >= 0, ">= 0")}
AT_LEAST_1 = {"bound": (lambda v: v >= 1, ">= 1")}
POSITIVE = {"bound": (lambda v: v > 0, "> 0")}


def check_bounds(section: str, obj: Any) -> None:
    """A ValidationError naming ``section.field`` for the first field of the
    dataclass instance ``obj`` whose value breaks the bound in its metadata."""
    for f in fields(obj):
        if "bound" in f.metadata:
            check_bound(f"{section}.{f.name}", f.metadata, getattr(obj, f.name))


def check_bound(name: str, metadata: dict, value: Any) -> None:
    """A ValidationError ``<name> must be <rule>, got <value>`` unless ``value``
    meets the bound in ``metadata``."""
    test, text = metadata["bound"]
    if not test(value):
        raise ValidationError(f"{name} must be {text}, got {value!r:.40}")


def write_archive(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write meta + named matrices as C-order float64 into one reproducible zip.

    A file already at ``path`` is overwritten in place, then cut to the
    archive's length, so its cached pages are reused rather than freed and
    faulted in again; the bytes written do not depend on what the path held.
    A save killed part-way leaves the new bytes over the head of the old
    file, whose central directory, until it is overwritten, names the old
    members and their CRC-32s. Loading that file fails (a CRC-32 or
    structure error) unless every rewritten member payload equals the old
    one, and then the file reads as the old archive, intact."""
    entries = {"meta.json": dumps_json(meta).encode("utf-8")}
    for name, arr in arrays.items():
        entries[name + ".f64"] = np.ascontiguousarray(arr, DTYPES["f64"]).ravel().view(np.uint8)
    # created if missing, never truncated on open
    with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b") as fh:
        with zipfile.ZipFile(fh, "w", compression=zipfile.ZIP_STORED) as zf:
            for name in sorted(entries):
                info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
                zf.writestr(info, entries[name])
        fh.truncate()


@contextmanager
def open_archive(path: str) -> Iterator[tuple[Any, zipfile.ZipFile]]:
    """The parsed meta.json of the zip that ``write_archive`` wrote at ``path``, and the
    zip, open. Damage found while it is open, a CRC-32 mismatch included, is a FormatError."""
    if not os.path.exists(path):
        raise DataLoadError(f"missing archive: {path}")
    try:
        with zipfile.ZipFile(path, "r") as zf:
            try:
                meta = json.loads(zf.read("meta.json").decode("utf-8"))
            except KeyError:
                raise FormatError(f"{path}: archive has no meta.json") from None
            except ValueError as exc:  # invalid UTF-8 or JSON
                raise FormatError(f"{path}: meta.json is not valid JSON ({exc})") from exc
            yield meta, zf
    except (zipfile.BadZipFile, EOFError) as exc:
        raise FormatError(f"{path}: not a valid zip archive ({exc})") from exc


def check_member(zf: zipfile.ZipFile, name: str, shape: Sequence[int], declared_by: str) -> None:
    """A FormatError unless float64 member ``name`` holds ``shape``; run before allocating it."""
    if name + ".f64" not in zf.namelist():
        raise FormatError(f"{zf.filename}: archive is missing {name}.f64")
    size = zf.getinfo(name + ".f64").file_size
    _check_size(size / 8, shape, f"{zf.filename}:{name} ({declared_by})")


def read_member(zf: zipfile.ZipFile, name: str, out: np.ndarray) -> None:
    """Fill C-order float64 ``out`` from member ``name``, read to its end to check its CRC-32."""
    buf = memoryview(out).cast("B")
    with zf.open(name + ".f64") as fh:
        got = sum(fh.readinto(buf[i : i + _CHUNK]) for i in range(0, len(buf), _CHUNK))
    if got != len(buf):
        raise FormatError(f"{zf.filename}: {name}.f64 ends after {got} of its {len(buf)} bytes")


def _check_size(size: float, shape: Sequence[int], source: str) -> None:
    """A FormatError unless ``size`` values (a fraction for a partial one) fill ``shape``."""
    if min(shape, default=0) < 0 or size != math.prod(shape):
        raise FormatError(
            f"{source}: payload holds {size:.15g} values, metadata declares shape {tuple(shape)}"
        )
