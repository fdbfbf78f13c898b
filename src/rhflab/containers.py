"""Versioned binary containers and deterministic text artifacts.

Binary layout (all little-endian), documented in docs/FORMATS.md:

  orbital container  magic "RHFS", version u32, dim u32, n u32, L f64,
                     epsilon f64, N u32, then N·n^dim complex128 values
                     (orbital-major, C order).

Floating-point text output reads back to the same double, so re-runs
round-trip bit-faithfully: CSV floats are printed with 17 significant
digits, JSON floats as the shortest repr of the double.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grids import Grid
from .orbitals import OrbitalSet

FORMAT_VERSION = 1
_ORBITAL_HEADER = struct.Struct("<4sIIIddI")

ORBITAL_MAGIC = b"RHFS"


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def save_orbitals(path, orbs: OrbitalSet) -> None:
    grid = orbs.grid
    header = _ORBITAL_HEADER.pack(
        ORBITAL_MAGIC, FORMAT_VERSION, grid.dim, grid.n,
        grid.box_length, grid.epsilon, orbs.n_particles,
    )
    data = np.ascontiguousarray(orbs.orbitals).astype("<c16").tobytes()
    Path(path).write_bytes(header + data)


def read_orbital_header(path) -> dict:
    """The header fields of an orbital container, from its first bytes only."""
    with open(path, "rb") as fh:
        return _parse_orbital_header(path, fh.read(_ORBITAL_HEADER.size))


def _parse_orbital_header(path, raw: bytes) -> dict:
    if len(raw) < _ORBITAL_HEADER.size:
        raise ValueError(f"{path}: truncated container")
    magic, version, dim, n, length, eps, n_particles = _ORBITAL_HEADER.unpack_from(raw)
    if magic != ORBITAL_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {ORBITAL_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return {
        "magic": magic.decode(), "version": version, "dim": dim, "n": n,
        "box_length": length, "epsilon": eps, "n_particles": n_particles,
    }


def load_orbitals(path) -> OrbitalSet:
    raw = Path(path).read_bytes()
    head = _parse_orbital_header(path, raw)
    grid = Grid(head["dim"], head["n"], head["box_length"], head["epsilon"])
    count = head["n_particles"] * grid.size
    if len(raw) < _ORBITAL_HEADER.size + 16 * count:
        raise ValueError(f"{path}: truncated container")
    data = np.frombuffer(raw, dtype="<c16", count=count,
                         offset=_ORBITAL_HEADER.size).astype(complex)
    return OrbitalSet(data.reshape(head["n_particles"], *grid.shape), grid, validate=False)


def write_csv(path, header: list[str], rows) -> None:
    """CSV with 17-significant-digit floats; ints pass through unchanged."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, str):
                cells.append(v)
            else:
                cells.append(fmt17(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _plain(obj):
    """obj with numpy scalars and arrays as the Python values json writes."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    return obj


def dump_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, each float as the shortest repr of its double."""
    Path(path).write_text(json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())
