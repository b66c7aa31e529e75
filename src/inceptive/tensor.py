"""Dense tensor values, seeded randomness, parameter storage, and the
finite-difference harness used to validate every backward pass.

Tensors are C-order ``numpy.ndarray`` values. Layers compute in the dtype
they are given; float64 is fixed where values enter: parameters
(:func:`as_tensor`), :func:`load_checkpoint`, the heads' input buffers and
the losses' logits. This module enforces shape and finiteness contracts.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError

__all__ = [
    "Rng",
    "Param",
    "ParamStore",
    "as_tensor",
    "BinaryReader",
    "finite_float32",
    "glorot_uniform",
    "clip_global_norm",
    "grad_check",
    "save_checkpoint",
    "load_checkpoint",
]


def as_tensor(x) -> np.ndarray:
    """Coerce input to a float64, C-contiguous array."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _tag_to_int(tag) -> int:
    if isinstance(tag, int):
        return tag
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Seeded random stream backed by the Philox counter-based generator.

    Identical seeds produce identical draw sequences on every platform.
    Substreams derived with :meth:`child` are independent and equally
    reproducible, which lets one experiment seed drive initialization,
    per-epoch shuffles, and dropout masks without coupling them.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self._path = _path
        ss = np.random.SeedSequence([self.seed, *(_path or (0,))])
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, *tags) -> "Rng":
        """Derive an independent substream keyed by ``tags``."""
        return Rng(self.seed, self._path + tuple(_tag_to_int(t) for t in tags))

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def normal(self, shape=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def poisson(self, lam: float, shape=None) -> np.ndarray:
        return self._gen.poisson(lam, size=shape)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


@dataclass
class Param:
    """A trainable tensor and its gradient accumulator (same shape)."""

    value: np.ndarray
    grad: np.ndarray


class ParamStore:
    """Ordered map from parameter path (e.g. ``head.dense.weight``) to
    a value/grad pair. Iteration order is insertion order and names are
    unique, so optimizer sweeps and serialization are deterministic.

    On first use of :meth:`arena` (``init_adamw`` calls it) the store is
    packed: every value and every gradient is copied, in insertion order,
    into one flat float64 buffer each, and each :class:`Param` is rebound
    to views of them. AdamW then sweeps the two buffers in blocks of
    ``training._ADAMW_BLOCK`` elements instead of one pair per parameter;
    per-parameter writes (gradient zeroing, clipping's scale, loading) go
    through the views. A packed store is closed: :meth:`add` raises
    ``ConfigError``. Eval-only runs never pack.
    """

    def __init__(self):
        self._entries: dict[str, Param] = {}
        self._arena: tuple[np.ndarray, np.ndarray] | None = None
        self._slices: dict[str, slice] = {}

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if self._arena is not None:
            raise ConfigError(f"cannot add parameter {name}: the store is packed")
        if name in self._entries:
            raise ConfigError(f"duplicate parameter name: {name}")
        value = as_tensor(value)
        # np.zeros, unlike zeros_like, maps pages lazily: eval-only runs never make them resident
        self._entries[name] = Param(value, np.zeros(value.shape))
        return value

    def arena(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat value and gradient buffers, packing the store on first
        call; :meth:`slice_of` gives each parameter's range in both."""
        if self._arena is None:
            start = 0
            for name, p in self._entries.items():
                self._slices[name] = slice(start, start + p.value.size)
                start += p.value.size
            values, grads = np.empty(start), np.zeros(start)
            for name, p in self._entries.items():
                sl = self._slices[name]
                values[sl] = p.value.ravel()
                if p.grad.any():  # the arena starts at zero; untouched pages stay unmapped
                    grads[sl] = p.grad.ravel()
                p.value = values[sl].reshape(p.value.shape)
                p.grad = grads[sl].reshape(p.grad.shape)
            self._arena = values, grads
        return self._arena

    def slice_of(self, name: str) -> slice:
        """The range of parameter ``name`` in the flat buffers of :meth:`arena`."""
        self.arena()
        return self._slices[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, name: str) -> Param:
        return self._entries[name]

    def value(self, name: str) -> np.ndarray:
        return self._entries[name].value

    def grad(self, name: str) -> np.ndarray:
        return self._entries[name].grad

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Param]]:
        return iter(self._entries.items())

    def zero_grads(self) -> None:
        for p in self._entries.values():
            p.grad[...] = 0.0

    def add_grad(self, name: str, g: np.ndarray) -> None:
        self._entries[name].grad += g

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place (through to the arena once
        packed); names and shapes must match."""
        missing = set(self._entries) - set(values)
        extra = set(values) - set(self._entries)
        if missing or extra:
            raise DimensionError(
                f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, arr in values.items():
            p = self._entries[name]
            arr = as_tensor(arr)
            if arr.shape != p.value.shape:
                raise DimensionError(
                    f"shape mismatch for {name}: stored {arr.shape} vs expected {p.value.shape}"
                )
            p.value[...] = arr


def glorot_uniform(rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, shape)


def clip_global_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Applying twice is equivalent to applying
    once. A non-finite norm raises ``NumericError``, naming the first
    parameter with a NaN or infinite gradient, or reporting that finite
    gradients overflowed it.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow is reported below
        for _, p in params.items():
            total += float(np.dot(p.grad.ravel(), p.grad.ravel()))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        for name, p in params.items():
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient in {name}")
        raise NumericError("gradient norm overflows float64")
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            p.grad *= scale
    return norm


def grad_check(
    f: Callable[[ParamStore], float],
    params: ParamStore,
    h: float = 1e-5,
) -> float:
    """Compare the gradients stored in ``params`` against central differences.

    The caller runs its forward/backward once to populate ``params`` grads,
    then passes the same deterministic scalar function ``f`` here. Every
    scalar entry is perturbed by +-h; the relative error is
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)`` and the
    maximum over all entries is returned.
    """
    analytic = {name: p.grad.copy() for name, p in params.items()}
    max_rel = 0.0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = float(flat[i])
            flat[i] = orig + h
            f_plus = float(f(params))
            flat[i] = orig - h
            f_minus = float(f(params))
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > max_rel:
                max_rel = rel
    return max_rel


class BinaryReader:
    """Bounds-checked cursor over the bytes of a checkpoint or embedding file.
    Each read checks its size (a Python int, so it cannot overflow) against
    the bytes left before it slices or allocates, and every failure raises
    :class:`~inceptive.errors.FormatError` at the offset of the read."""

    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.buf) - self.off:
            raise FormatError(f"truncated {what}: need {n} bytes, have {len(self.buf) - self.off}", self.off)
        self.off += n
        return self.buf[self.off - n : self.off]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def magic(self, expected: bytes, what: str) -> None:
        if self.buf[self.off : self.off + len(expected)] != expected:
            raise FormatError(f"bad {what} magic", self.off)
        self.off += len(expected)

    def array(self, dtype: str, shape: tuple[int, ...], what: str, limit: int | None = None) -> np.ndarray:
        """A read-only row-major view of ``shape``, whose extents must be >= 1.
        Values must be finite, or below ``limit`` when given (unsigned dtypes)."""
        at = self.off
        if 0 in shape:
            raise FormatError(f"zero extent in {what} shape {shape}", at)
        dt = np.dtype(dtype)
        data = np.frombuffer(self.take(math.prod(shape) * dt.itemsize, what), dtype=dt)
        ok = np.isfinite(data) if limit is None else data < limit
        if not ok.all():
            bad = int(np.argmin(ok))
            rule = "non-finite" if limit is None else f"out-of-range (limit {limit})"
            raise FormatError(f"{rule} value {data[bad]} in {what}", at + dt.itemsize * bad)
        return data.reshape(shape)

    def end(self, what: str) -> None:
        if self.off != len(self.buf):
            raise FormatError(f"{len(self.buf) - self.off} trailing bytes after {what}", self.off)


# --- tensor records ------------------------------------------------------------
#
# One record per checkpoint entry. Layout: magic "ITNS", u32 version (=1),
# u32 rank, rank x u64 extents (each >= 1), then finite little-endian float32
# payload in row-major order. Values are widened to float64 on load.

_MAGIC = b"ITNS"
_VERSION = 1


def finite_float32(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as little-endian float32. A value that is not finite there
    (NaN, infinite, or beyond float32 range) raises ``NumericError`` naming
    ``what`` and the value's index."""
    with np.errstate(over="ignore"):
        out = arr.astype("<f4")
    finite = np.isfinite(out)
    if not finite.all():
        bad = np.unravel_index(int(np.argmin(finite)), arr.shape)
        raise NumericError(f"{what} {tuple(map(int, bad))} = {float(arr[bad])} is not a finite float32")
    return out


def tensor_bytes(arr: np.ndarray, name: str) -> bytes:
    arr = as_tensor(arr)
    header = _MAGIC + struct.pack("<II", _VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + finite_float32(arr, f"tensor {name}").tobytes(order="C")


# --- checkpoints --------------------------------------------------------------
#
# A checkpoint is a name-index preamble followed by one tensor record per
# name, in preamble order: u32 entry count, then per entry u16 name length +
# UTF-8 name, then the tensor records. Model buffers (batch-norm running
# statistics) are stored alongside trainable parameters so evaluation
# behavior survives a round trip. Payloads are float32 on disk.


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` in dict order. A value that is not a finite float32
    raises :class:`~inceptive.errors.NumericError` and nothing is written,
    since :func:`load_checkpoint` would refuse the file."""
    names = list(tensors)
    blob = struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        blob += struct.pack("<H", len(raw)) + raw
    for name in names:
        blob += tensor_bytes(tensors[name], name)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint as float64 arrays; a bad file raises
    :class:`~inceptive.errors.FormatError` at the failing byte offset."""
    with open(path, "rb") as fh:
        r = BinaryReader(fh.read())
    (count,) = r.unpack("<I", "checkpoint header")
    names = []
    for _ in range(count):
        (nlen,) = r.unpack("<H", "name index")
        try:
            names.append(str(r.take(nlen, "name entry"), "utf-8"))
        except UnicodeDecodeError as exc:  # at the first byte that is not UTF-8
            raise FormatError("name is not UTF-8", r.off - nlen + exc.start) from None
    out: dict[str, np.ndarray] = {}
    for name in names:
        r.magic(_MAGIC, "tensor")
        version, rank = r.unpack("<II", "tensor header")
        if version != _VERSION:
            raise FormatError(f"unsupported tensor version {version}", r.off - 8)
        shape = r.unpack(f"<{rank}Q", "extent list")
        out[name] = r.array("<f4", shape, "payload").astype(np.float64)
    r.end("checkpoint")
    return out
