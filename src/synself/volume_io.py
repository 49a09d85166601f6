"""Voxel volumes, synapse tables and embedding matrices, plus their on-disk formats.

Volume files are a single JSON header line (``dims``, ``dtype`` which is always
``"u8"``, ``voxel_size_nm``) followed by one byte per voxel in x-fastest order:
``index(x, y, z) = x + nx * (y + ny * z)``. In-memory arrays are C-ordered with
axes ``[z, y, x]`` so that the flat memory layout matches the file payload exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

HEADER_MAX_BYTES = 65536


class VolumeFormatError(ValueError):
    """Malformed volume/table/embedding file or invariant violation."""


@dataclass(frozen=True)
class VolumeHeader:
    dims: tuple[int, int, int]  # (nx, ny, nz)
    voxel_size_nm: tuple[float, float, float] = (8.0, 8.0, 8.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise VolumeFormatError(f"dims must be three extents >= 1, got {self.dims}")
        if len(self.voxel_size_nm) != 3 or any(s <= 0 for s in self.voxel_size_nm):
            raise VolumeFormatError(f"voxel sizes must be > 0, got {self.voxel_size_nm}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "voxel_size_nm", tuple(float(s) for s in self.voxel_size_nm))

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


class IntensityVolume:
    """u8 voxel grid; ``voxels`` has shape (nz, ny, nx) so voxel (x, y, z) is ``voxels[z, y, x]``."""

    def __init__(self, header: VolumeHeader, voxels: np.ndarray):
        nx, ny, nz = header.dims
        voxels = np.asarray(voxels, dtype=np.uint8)
        if voxels.shape != (nz, ny, nx):
            raise VolumeFormatError(
                f"voxel array shape {voxels.shape} does not match dims (nx,ny,nz)={header.dims}"
            )
        self.header = header
        self.voxels = np.ascontiguousarray(voxels)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.header == self.header
            and np.array_equal(other.voxels, self.voxels)
        )


@dataclass(frozen=True)
class SynapseRecord:
    id: int
    pos: tuple[int, int, int]  # (x, y, z) voxel coordinates
    supervoxel_id: int
    class_label: int | None = None

    def __post_init__(self):
        if self.id < 0:
            raise VolumeFormatError(f"synapse id must be non-negative, got {self.id}")
        if self.supervoxel_id <= 0:
            raise VolumeFormatError(
                f"synapse {self.id}: supervoxel_id must be a positive label, got {self.supervoxel_id}"
            )
        if self.class_label is not None and self.class_label < 0:
            raise VolumeFormatError(
                f"synapse {self.id}: class_label must be non-negative, got {self.class_label}"
            )
        object.__setattr__(self, "pos", tuple(int(c) for c in self.pos))


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
# volume files


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
    header = vol.header
    head = {
        "dims": list(header.dims),
        "dtype": "u8",
        "voxel_size_nm": list(header.voxel_size_nm),
    }

    def body(f):
        f.write(json.dumps(head, separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        f.write(vol.voxels.tobytes())

    _atomic_write(path, body)


def read_volume(path) -> IntensityVolume:
    with open(path, "rb") as f:
        line = f.readline(HEADER_MAX_BYTES)
        if not line.endswith(b"\n"):
            raise VolumeFormatError(
                f"{path}: malformed header at byte offset 0: no newline within {HEADER_MAX_BYTES} bytes"
            )
        try:
            head = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise VolumeFormatError(f"{path}: malformed header at byte offset 0: {e}") from e
        if not isinstance(head, dict) or not {"dims", "dtype", "voxel_size_nm"} <= set(head):
            raise VolumeFormatError(
                f"{path}: malformed header at byte offset 0: need keys dims, dtype, voxel_size_nm"
            )
        dims, dtype, voxel_size = head["dims"], head["dtype"], head["voxel_size_nm"]
        if dtype != "u8":
            raise VolumeFormatError(f"{path}: unknown dtype {dtype!r} in header at byte offset 0")
        # exact JSON types, so 2.5 is not truncated to 2 and "222" is not read as three digits
        if not isinstance(dims, list) or any(type(d) is not int for d in dims):
            raise VolumeFormatError(
                f"{path}: malformed header at byte offset 0: dims must be a list of integers, got {dims!r}"
            )
        if not isinstance(voxel_size, list) or any(
            type(v) not in (int, float) or not math.isfinite(v) for v in voxel_size
        ):
            raise VolumeFormatError(
                f"{path}: malformed header at byte offset 0: "
                f"voxel_size_nm must be a list of finite numbers, got {voxel_size!r}"
            )
        try:
            header = VolumeHeader(tuple(dims), tuple(voxel_size))
        except VolumeFormatError as e:
            raise VolumeFormatError(f"{path}: malformed header at byte offset 0: {e}") from e
        payload_offset = len(line)
        expected = header.n_voxels
        data = f.read()
    if len(data) != expected:
        raise VolumeFormatError(
            f"{path}: payload length mismatch at byte offset {payload_offset}: "
            f"expected {expected} bytes, got {len(data)}"
        )
    nx, ny, nz = header.dims
    return IntensityVolume(header, np.frombuffer(data, dtype=np.uint8).reshape(nz, ny, nx).copy())


# ---------------------------------------------------------------------------
# synapse tables

SYNAPSE_COLUMNS = ["id", "x", "y", "z", "supervoxel_id", "class_label"]


def write_synapse_table(records: list[SynapseRecord], path) -> None:
    def body(f):
        text = io.TextIOWrapper(f, encoding="utf-8", newline="")
        w = csv.writer(text, lineterminator="\n")
        w.writerow(SYNAPSE_COLUMNS)
        for r in records:
            w.writerow(
                [r.id, r.pos[0], r.pos[1], r.pos[2], r.supervoxel_id,
                 "" if r.class_label is None else r.class_label]
            )
        text.flush()
        text.detach()

    _atomic_write(path, body)


def _parse_int(value: str, column: str, row: int, path) -> int:
    try:
        return int(value)
    except ValueError:
        raise VolumeFormatError(
            f"{path}: non-integer field {column}={value!r} at data row {row}"
        ) from None


def _read_utf8(path) -> str:
    """The file's text with newlines kept as they are; bytes that are not UTF-8 raise."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise VolumeFormatError(f"{path}: not UTF-8 text: {e}") from None


def read_synapse_table(path) -> list[SynapseRecord]:
    with io.StringIO(_read_utf8(path), newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise VolumeFormatError(f"{path}: empty synapse table") from None
        if header != SYNAPSE_COLUMNS:
            missing = [c for c in SYNAPSE_COLUMNS if c not in header]
            detail = f"missing column(s) {missing}" if missing else f"unexpected header {header}"
            raise VolumeFormatError(f"{path}: bad synapse table header: {detail}")
        records = []
        seen = set()
        for row_i, row in enumerate(reader):
            if len(row) != len(SYNAPSE_COLUMNS):
                raise VolumeFormatError(
                    f"{path}: data row {row_i} has {len(row)} fields, expected {len(SYNAPSE_COLUMNS)}"
                )
            rid = _parse_int(row[0], "id", row_i, path)
            if rid in seen:
                raise VolumeFormatError(f"{path}: duplicate synapse id {rid} at data row {row_i}")
            seen.add(rid)
            pos = tuple(_parse_int(row[i], c, row_i, path) for i, c in ((1, "x"), (2, "y"), (3, "z")))
            sv = _parse_int(row[4], "supervoxel_id", row_i, path)
            label = None if row[5] == "" else _parse_int(row[5], "class_label", row_i, path)
            records.append(SynapseRecord(rid, pos, sv, label))
    return records


def check_synapses_in_bounds(records: list[SynapseRecord], header: VolumeHeader) -> None:
    nx, ny, nz = header.dims
    for r in records:
        x, y, z = r.pos
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise VolumeFormatError(
                f"synapse {r.id} at {r.pos} lies outside volume dims {header.dims}"
            )


# ---------------------------------------------------------------------------
# embedding matrices


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def write_embeddings(emb: EmbeddingMatrix, path) -> None:
    def body(f):
        lines = ["id," + ",".join(f"e{j}" for j in range(emb.values.shape[1]))]
        for rid, row in zip(emb.synapse_ids, emb.values):
            lines.append(f"{rid}," + ",".join(_fmt17(v) for v in row))
        f.write(("\n".join(lines) + "\n").encode("utf-8"))

    _atomic_write(path, body)


def read_embeddings(path) -> EmbeddingMatrix:
    with io.StringIO(_read_utf8(path), newline=None) as f:
        header = f.readline().rstrip("\n").split(",")
        if len(header) < 2 or header[0] != "id" or header[1:] != [f"e{j}" for j in range(len(header) - 1)]:
            raise VolumeFormatError(f"{path}: bad embedding header {header}")
        dim = len(header) - 1
        ids, rows = [], []
        for row_i, line in enumerate(f):
            parts = line.rstrip("\n").split(",")
            if len(parts) != dim + 1:
                raise VolumeFormatError(
                    f"{path}: ragged row {row_i}: {len(parts)} fields, expected {dim + 1}"
                )
            ids.append(_parse_int(parts[0], "id", row_i, path))
            try:
                rows.append([float(p) for p in parts[1:]])
            except ValueError:
                raise VolumeFormatError(f"{path}: non-numeric entry at data row {row_i}") from None
    if not rows:
        raise VolumeFormatError(f"{path}: embedding matrix has no rows")
    return EmbeddingMatrix(ids, np.array(rows, dtype=np.float64))
