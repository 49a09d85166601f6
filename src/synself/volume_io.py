"""Voxel volumes, synapse tables and embedding matrices, and the on-disk formats
of volumes and tables.

Volume files are a single JSON header line (``dims``, ``dtype`` which is always
``"u8"``, ``voxel_size_nm``) followed by one byte per voxel in x-fastest order:
``index(x, y, z) = x + nx * (y + ny * z)``. In-memory arrays are C-ordered with
axes ``[z, y, x]`` so that the flat memory layout matches the file payload exactly.

Synapse tables and the trainer's metrics are UTF-8 text tables: a header line
of column names, then one line per row, fields separated by commas and lines
ended by ``\n`` (``\r\n`` also reads). Nothing is quoted, since no field
written here holds a comma or a line break; a quoted field in an input table is
therefore a malformed field, not its unquoted value. An empty field stands for
``None``, and a float is written with 17 significant digits, which read back to
the same float. Embedding matrices live in memory only.
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
import secrets
import typing
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

HEADER_MAX_BYTES = 65536


class VolumeFormatError(ValueError):
    """Malformed volume or table file, or invariant violation."""


PositiveInt = typing.Annotated[int, ">= 1"]
PositiveFloat = typing.Annotated[float, "> 0"]


@dataclass(frozen=True)
class VolumeHeader:
    dims: tuple[PositiveInt, PositiveInt, PositiveInt]  # (nx, ny, nz)
    voxel_size_nm: tuple[PositiveFloat, PositiveFloat, PositiveFloat] = (8.0, 8.0, 8.0)

    def __post_init__(self):
        _check_fields(self, VolumeFormatError)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


class IntensityVolume:
    """u8 voxel grid; ``voxels`` has shape (nz, ny, nx) so voxel (x, y, z) is ``voxels[z, y, x]``.

    Voxels of another dtype are cast to u8, and VolumeFormatError is raised
    for one the cast would change (out of [0, 255], fractional or NaN)."""

    def __init__(self, header: VolumeHeader, voxels: np.ndarray):
        nx, ny, nz = header.dims
        voxels = np.asarray(voxels)
        if voxels.dtype != np.uint8:
            with np.errstate(invalid="ignore"):  # NaN or out of range: the comparison refuses it
                cast = voxels.astype(np.uint8)
            bad = cast != voxels
            if bad.any():
                raise VolumeFormatError(f"voxel value {voxels[bad][0].item()!r} is not an integer in [0, 255]")
            voxels = cast
        if voxels.shape != (nz, ny, nx):
            raise VolumeFormatError(
                f"voxel array shape {voxels.shape} does not match dims (nx,ny,nz)={header.dims}"
            )
        self.header = header
        self.voxels = np.ascontiguousarray(voxels)

    def __eq__(self, other) -> bool:
        # plane by plane, so no bool array the size of the volume is made
        return (
            type(other) is type(self)
            and other.header == self.header
            and other.voxels.shape == self.voxels.shape
            and all(map(np.array_equal, other.voxels, self.voxels))
        )


@dataclass(frozen=True)
class SynapseRecord:
    id: int
    pos: tuple[int, int, int]  # (x, y, z) voxel coordinates
    supervoxel_id: int
    class_label: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(self.pos))
        # an id below 2**63 fits numpy's int64, as the sampler stores supervoxel ids
        if type(self.id) is not int or not 0 <= self.id < 2 ** 63:
            raise VolumeFormatError(f"synapse id must be an integer in [0, 2**63), got {self.id!r}")
        if tuple(map(type, self.pos)) != (int, int, int):
            raise VolumeFormatError(f"synapse {self.id}: pos must be three integers, got {self.pos!r}")
        if type(self.supervoxel_id) is not int or not 0 < self.supervoxel_id < 2 ** 63:
            raise VolumeFormatError(
                f"synapse {self.id}: supervoxel_id must be a positive label < 2**63, got {self.supervoxel_id!r}"
            )
        label = self.class_label
        if label is not None and (type(label) is not int or not 0 <= label < 2 ** 63):
            raise VolumeFormatError(f"synapse {self.id}: class_label must be an integer in [0, 2**63), got {label!r}")


@dataclass
class EmbeddingMatrix:
    """Per-synapse representations, row-aligned with ``synapse_ids``."""

    synapse_ids: list[int]
    values: np.ndarray  # (M, D) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise VolumeFormatError(f"embedding matrix must be M x D with M,D >= 1, got shape {self.values.shape}")
        if len(self.synapse_ids) != self.values.shape[0]:
            raise VolumeFormatError(
                f"{len(self.synapse_ids)} synapse ids for {self.values.shape[0]} embedding rows"
            )
        if len(set(self.synapse_ids)) != len(self.synapse_ids):
            raise VolumeFormatError("duplicate synapse ids in embedding matrix")


# ---------------------------------------------------------------------------
# config fields

_TYPE_NAMES = {int: "an integer", float: "a finite real number", bool: "a bool", str: "a string"}
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _describe(hint) -> str:
    """A field's annotation as its error names it."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Annotated:
        return f"{_describe(args[0])} {' and '.join(args[1:])}"
    if typing.get_origin(hint) is tuple:
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"a list of {count}items, each {_describe(args[0])}"
    if args:  # X | None
        return f"None or {_describe(args[0])}"
    return _TYPE_NAMES.get(hint) or f"{hint.__name__} or a dict of its fields"


def _checked(value, hint):
    """value as a field annotated ``hint`` holds it; TypeError if it is not of
    that type. ``Annotated[T, *bounds]`` is T within bounds such as ">= 0" and
    "< 1": one of the four comparisons, a space, then a number."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Annotated:
        value = _checked(value, args[0])
        for bound in args[1:]:
            op, limit = bound.split()
            if not _BOUNDS[op](value, float(limit)):
                raise TypeError
        return value
    if typing.get_origin(hint) is tuple:  # len() of a value that is no sequence raises the TypeError
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if type(value) not in (tuple, list) or len(value) != len(items):
            raise TypeError
        return tuple(map(_checked, value, items))
    if args:  # X | None, the only other generic annotation of a config
        return None if value is None else _checked(value, args[0])
    if is_dataclass(hint) and type(value) is dict:
        return hint(**value)
    if hint is float and type(value) is int:
        value = float(value)
    if type(value) is not hint or hint is float and not math.isfinite(value):
        raise TypeError
    return value


def _check_fields(obj, error) -> None:
    """Hold each field of the frozen dataclass ``obj`` to its annotation, bounds
    included, or raise ``error`` naming the field. int, bool and str are exact
    types (True is not 1, 2.5 is not 2); a float is finite and may be given as an
    int, a tuple as a list, and a nested config as a dict of its fields, so
    ``cls(**json.loads(text))`` reads the JSON of an ``asdict``."""
    for name, hint in typing.get_type_hints(type(obj), include_extras=True).items():
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, _checked(value, hint))
        except (TypeError, OverflowError) as e:  # OverflowError: an int too large for a float
            raise error(f"{name} must be {_describe(hint)}, got {value!r}") from e


# ---------------------------------------------------------------------------
# volume files


def _json_line(obj: dict) -> bytes:
    """A file's JSON header line: compact, keys sorted, then a newline."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def _parse_json_line(line: bytes, error, where: str) -> dict:
    """The JSON object of a header line, or ``error`` naming ``where`` and the fault."""
    try:  # ValueError: not UTF-8, not JSON, or an int of more digits than int() converts
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # RecursionError: arrays or objects nested too deep
        raise error(f"{where}: {e}") from e
    if not isinstance(obj, dict):
        raise error(f"{where}: not a JSON object")
    return obj


def _atomic_write(path, write_fn) -> None:
    """Write via a unique temp file beside ``path``, fsync, rename over it, then
    fsync the directory where the platform can open one, so the rename survives
    a power loss.

    A failure before the rename leaves ``path`` as it was and removes the temp
    file. The temp name is random and opened with O_EXCL, so no existing file is
    ever renamed over ``path``; the mode is the default 0o666 less the umask.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as f:
            write_fn(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    if hasattr(os, "O_DIRECTORY"):
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def write_volume(vol: IntensityVolume, path) -> None:
    """Write the header line, then the voxel array's own C-ordered buffer: the
    payload is not copied."""
    head = {**asdict(vol.header), "dtype": "u8"}

    def body(f):
        f.write(_json_line(head))
        f.write(vol.voxels)

    _atomic_write(path, body)


def read_volume(path) -> IntensityVolume:
    """The volume of a file write_volume wrote. The payload length is checked
    against the file's size before the voxel array is allocated, and the payload
    is read straight into that array, with no copy."""
    with open(path, "rb") as f:
        line = f.readline(HEADER_MAX_BYTES)
        if not line.endswith(b"\n"):
            raise VolumeFormatError(
                f"{path}: malformed header at byte offset 0: no newline within {HEADER_MAX_BYTES} bytes"
            )
        head = _parse_json_line(line, VolumeFormatError, f"{path}: malformed header at byte offset 0")
        if not {"dims", "dtype", "voxel_size_nm"} <= set(head):
            raise VolumeFormatError(
                f"{path}: malformed header at byte offset 0: need keys dims, dtype, voxel_size_nm"
            )
        dims, dtype, voxel_size = head["dims"], head["dtype"], head["voxel_size_nm"]
        if dtype != "u8":
            raise VolumeFormatError(f"{path}: unknown dtype {dtype!r} in header at byte offset 0")
        try:
            header = VolumeHeader(dims, voxel_size)
        except VolumeFormatError as e:
            raise VolumeFormatError(f"{path}: malformed header at byte offset 0: {e}") from e
        payload_offset = len(line)
        expected = header.n_voxels
        got = os.fstat(f.fileno()).st_size - payload_offset
        if got == expected:
            nx, ny, nz = header.dims
            voxels = np.empty((nz, ny, nx), dtype=np.uint8)
            got = f.readinto(voxels)  # short if the file shrank since fstat
    if got != expected:
        raise VolumeFormatError(
            f"{path}: payload length mismatch at byte offset {payload_offset}: "
            f"expected {expected} bytes, got {got}"
        )
    return IntensityVolume(header, voxels)


# ---------------------------------------------------------------------------
# text tables


def _write_table(path, header, rows) -> None:
    """Write the header line, then one comma-joined line per row: None as an
    empty field, a Python float with 17 significant digits and any other value as its str."""
    columns = list(zip(*rows))
    for i, column in enumerate(columns):
        # a column with no None and no float goes to the %s template as it is,
        # which formats it in C at about half the cost of a text per value
        if not {type(None), float}.isdisjoint(map(type, column)):
            columns[i] = ["" if v is None else "%.17g" % v if type(v) is float else v for v in column]
    template = ",".join(["%s"] * len(header))
    lines = [",".join(header)] + [template % row for row in zip(*columns)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _atomic_write(path, lambda f: f.write(data))


def _read_table(path, what: str):
    """The header's fields, and a generator of each data row's fields that raises
    VolumeFormatError on reaching a row whose field count is not the header's."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError as e:
        raise VolumeFormatError(f"{path}: not UTF-8 text: {e}") from None
    if lines[-1] == "":
        lines.pop()  # the end of the last line
    if not lines:
        raise VolumeFormatError(f"{path}: empty {what}")
    header = lines[0].split(",")

    def rows():
        for row_i, line in enumerate(lines[1:]):
            fields = line.split(",")
            if len(fields) != len(header):
                raise VolumeFormatError(
                    f"{path}: ragged data row {row_i}: {len(fields)} fields, expected {len(header)}")
            yield fields

    return header, rows()


# What _write_table writes for an int. int() would also take '_', a sign of
# '+', surrounding whitespace and non-ASCII digits.
_INT_FIELD = re.compile("-?[0-9]+")


def _parse_int(value: str, column: str, row: int, path) -> int:
    if _INT_FIELD.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise VolumeFormatError(f"{path}: non-integer field {column}={value!r} at data row {row}")


# ---------------------------------------------------------------------------
# synapse tables

SYNAPSE_COLUMNS = ["id", "x", "y", "z", "supervoxel_id", "class_label"]


def write_synapse_table(records: list[SynapseRecord], path) -> None:
    _write_table(path, SYNAPSE_COLUMNS,
                 [(r.id, *r.pos, r.supervoxel_id, r.class_label) for r in records])


def read_synapse_table(path) -> list[SynapseRecord]:
    header, rows = _read_table(path, "synapse table")
    if header != SYNAPSE_COLUMNS:
        missing = [c for c in SYNAPSE_COLUMNS if c not in header]
        detail = f"missing column(s) {missing}" if missing else f"unexpected header {header}"
        raise VolumeFormatError(f"{path}: bad synapse table header: {detail}")
    records = []
    seen = set()
    for row_i, row in enumerate(rows):
        rid, x, y, z, sv = (_parse_int(row[i], SYNAPSE_COLUMNS[i], row_i, path) for i in range(5))
        if rid in seen:
            raise VolumeFormatError(f"{path}: duplicate synapse id {rid} at data row {row_i}")
        seen.add(rid)
        label = None if row[5] == "" else _parse_int(row[5], "class_label", row_i, path)
        records.append(SynapseRecord(rid, (x, y, z), sv, label))
    return records


def check_synapses_in_bounds(records: list[SynapseRecord], header: VolumeHeader) -> None:
    nx, ny, nz = header.dims
    for r in records:
        x, y, z = r.pos
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise VolumeFormatError(
                f"synapse {r.id} at {r.pos} lies outside volume dims {header.dims}"
            )
