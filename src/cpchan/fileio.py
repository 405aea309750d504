"""On-disk formats.

* ``CPT1`` binary tensors: magic ``CPT1``, u8 order, order x u64 little-endian
  extents, then (re, im) f64 little-endian pairs in column-major order.
* Path parameter text files: one path per line, space-separated
  ``re_b im_b omega1 omega2 psi varsigma``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .simchannel import ChannelParamSet, PathParams
from .tensors import vectorize

__all__ = ["save_tensor", "load_tensor", "save_params", "load_params"]

_MAGIC = b"CPT1"


def save_tensor(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=complex)
    vec = vectorize(t)
    buf = np.empty(2 * vec.size, dtype="<f8")
    buf[0::2] = vec.real
    buf[1::2] = vec.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sB", _MAGIC, t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(buf.tobytes())


def load_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 5 or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a CPT1 tensor file")
    order = raw[4]
    header_end = 5 + 8 * order
    if len(raw) < header_end:
        raise ValueError(f"{path}: header truncated, {order} extents need {header_end} bytes, file has {len(raw)}")
    dims = struct.unpack(f"<{order}Q", raw[5:header_end])
    count = int(np.prod(dims, dtype=np.int64))
    if len(raw) - header_end != 16 * count:
        raise ValueError(f"{path}: payload holds {(len(raw) - header_end) / 16:g} entries, expected {count}")
    # (re, im) f64 pairs are complex128 entries; read as such, an infinite part stays exact
    vec = np.frombuffer(raw, dtype="<c16", offset=header_end).astype(complex)
    return vec.reshape(dims, order="F")


def save_params(path, params: ChannelParamSet) -> None:
    lines = [
        f"{p.b.real!r} {p.b.imag!r} {p.omega1!r} {p.omega2!r} {p.psi!r} {p.varsigma!r}"
        for p in params.paths
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_params(path) -> ChannelParamSet:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    paths = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"{path}:{ln}: expected 6 fields, got {len(fields)}")
        try:
            re_b, im_b, w1, w2, psi, vs = (float(x) for x in fields)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
        paths.append(PathParams(complex(re_b, im_b), w1, w2, psi, vs))
    return ChannelParamSet(paths)
