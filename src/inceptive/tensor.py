"""Dense tensor values, seeded randomness, parameter storage, and the
finite-difference harness used to validate every backward pass.

Tensors are C-order ``numpy.ndarray`` values. Layers compute in the dtype
they are given; float64 is fixed where values enter: parameters
(:func:`as_tensor`), :func:`load_checkpoint`, the heads' input buffers and
the losses' logits. This module enforces shape and finiteness contracts, and
maps to read and replaces to write both binary formats (checkpoints, ``IEMB``).
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError

__all__ = [
    "Rng",
    "Param",
    "ParamStore",
    "ParamSpec",
    "as_tensor",
    "BinaryReader",
    "mapped",
    "write_replacing",
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

    def random(self, shape=None, out: np.ndarray | None = None) -> np.ndarray:
        return self._gen.random(shape, out=out)

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


# A parameter declaration: name, shape, and Glorot fans ``(fan_in, fan_out)`` or a constant fill.
ParamSpec = tuple[str, tuple[int, ...], tuple[int, int] | float]


class ParamStore:
    """Ordered map from parameter path (e.g. ``head.dense.weight``) to
    a value/grad pair. Iteration order is insertion order and names are
    unique, so optimizer sweeps and serialization are deterministic.

    Values and gradients are views of one flat float64 buffer each
    (:meth:`arena`), allocated once, by the first read, for the parameters
    declared until then; a later :meth:`add` raises ``ConfigError``. AdamW
    sweeps them in blocks of ``training._ADAMW_BLOCK`` elements; gradient
    zeroing and clipping's scale are one op on the gradient buffer.
    """

    def __init__(self, *groups: tuple[list[ParamSpec], Rng]):
        """Declare each ``(specs, rng)`` group's parameters in order and, if
        any, fill the store: each group draws its Glorot weights from its ``rng``."""
        self._declared: dict[str, tuple] = {}  # name -> (shape, init, rng) until the first read
        self._entries: dict[str, Param] = {}
        self._slices: dict[str, slice] = {}
        self._arena: tuple[np.ndarray, np.ndarray] | None = None
        for specs, rng in groups:
            for name, shape, init in specs:
                self._declare(name, shape, init, rng)
        if groups:
            self.arena()

    def add(self, name: str, value: np.ndarray) -> None:
        """Record ``value``; the first read copies it into the store."""
        value = as_tensor(value)
        self._declare(name, value.shape, value, None)

    def _declare(self, name: str, shape: tuple[int, ...], init, rng: Rng | None) -> None:
        if self._arena is not None:
            raise ConfigError(f"cannot add parameter {name}: the store is packed")
        if name in self._declared:
            raise ConfigError(f"duplicate parameter name: {name}")
        self._declared[name] = shape, init, rng

    def arena(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat value and gradient buffers; :meth:`slice_of` gives each
        parameter's range in both."""
        if self._arena is None:
            total = sum(math.prod(shape) for shape, _, _ in self._declared.values())
            # np.zeros maps pages lazily: eval-only runs never make the gradients resident
            values, grads = np.empty(total), np.zeros(total)
            start = 0
            for name, (shape, init, rng) in self._declared.items():
                sl = self._slices[name] = slice(start, start + math.prod(shape))
                p = self._entries[name] = Param(values[sl].reshape(shape), grads[sl].reshape(shape))
                if isinstance(init, tuple):
                    glorot_uniform(rng, shape, *init, out=p.value)
                else:
                    p.value[...] = init
                start = sl.stop
            self._arena = values, grads
            self._declared.clear()
        return self._arena

    @property
    def _params(self) -> dict[str, Param]:
        self.arena()
        return self._entries

    def slice_of(self, name: str) -> slice:
        """The range of parameter ``name`` in the flat buffers of :meth:`arena`."""
        self.arena()
        return self._slices[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def grad(self, name: str) -> np.ndarray:
        return self._params[name].grad

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Param]]:
        return iter(self._params.items())

    def zero_grads(self) -> None:
        self.arena()[1].fill(0.0)

    def add_grad(self, name: str, g: np.ndarray) -> None:
        self._params[name].grad += g

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; every name and shape is
        checked before any value is written."""
        entries = self._params
        missing, extra = set(entries) - set(values), set(values) - set(entries)
        if missing or extra:
            raise DimensionError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        arrays = {name: as_tensor(arr) for name, arr in values.items()}
        for name, arr in arrays.items():
            if arr.shape != (want := entries[name].value.shape):
                raise DimensionError(f"shape mismatch for {name}: stored {arr.shape} vs expected {want}")
        for name, arr in arrays.items():
            entries[name].value[...] = arr


def glorot_uniform(rng: Rng, shape, fan_in: int, fan_out: int, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), drawn into ``out``
    when given. Bitwise ``rng.uniform(-a, a, shape)``, which also forms
    ``low + (high - low) * u`` from standard uniform draws ``u``."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    out = rng.random(shape, out=out)
    out *= 2.0 * a  # high - low, exactly
    out += -a
    return out


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
        _, grads = params.arena()
        grads *= max_norm / norm
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


# Values are checked this many at a time, so a scan's temporaries stay a
# fixed size however large the array is.
_SCAN_CHUNK = 1 << 16


def _first_bad(flat: np.ndarray, limit: int | None = None) -> int | None:
    """Index of the first value of 1-D ``flat`` that is not finite, or not
    below ``limit`` when given; ``None`` when every value passes."""
    for start in range(0, flat.size, _SCAN_CHUNK):
        chunk = flat[start : start + _SCAN_CHUNK]
        ok = np.isfinite(chunk) if limit is None else chunk < limit
        if not ok.all():
            return start + int(np.argmin(ok))
    return None


class BinaryReader:
    """Bounds-checked cursor over the bytes of a checkpoint or embedding file,
    given as ``bytes`` or a read-only ``mmap``. Each read checks its size (a
    Python int, so it cannot overflow) against the bytes left before it slices
    or allocates, and every failure raises
    :class:`~inceptive.errors.FormatError` at the offset of the read. Arrays
    are views of the buffer, checked ``_SCAN_CHUNK`` values at a time."""

    def __init__(self, buf):
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
        bad = _first_bad(data, limit)
        if bad is not None:
            rule = "non-finite" if limit is None else f"out-of-range (limit {limit})"
            raise FormatError(f"{rule} value {data[bad]} in {what}", at + dt.itemsize * bad)
        return data.reshape(shape)

    def end(self, what: str) -> None:
        if self.off != len(self.buf):
            raise FormatError(f"{len(self.buf) - self.off} trailing bytes after {what}", self.off)


@contextmanager
def mapped(path) -> Iterator[BinaryReader]:
    """A :class:`BinaryReader` over the file at ``path``, mapped read-only
    rather than read, so arrays read from it are views of the file's pages.
    A :class:`~inceptive.errors.FormatError` raised inside names the file."""
    with open(path, "rb") as fh:
        # mmap refuses an empty file, which reads as an empty buffer
        size = os.fstat(fh.fileno()).st_size
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    try:
        yield BinaryReader(buf)
    except FormatError as exc:  # a run reads several files: say which is bad
        exc.args = (f"{path}: {exc}",)
        raise


def write_replacing(path, parts: Iterable) -> None:
    """Write the bytes-like ``parts`` to ``<path>.<pid>.tmp``, then rename it
    over ``path``: arrays mapped from the old file keep its bytes, where a
    rewrite in place would truncate them (reading a lost page is SIGBUS). Any
    failure, also one raised by ``parts``, leaves ``path`` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# --- tensor records ------------------------------------------------------------
#
# One record per checkpoint entry. Layout: magic "ITNS", u32 version (=1),
# u32 rank, rank x u64 extents (each >= 1), then finite little-endian float32
# payload in row-major order. Values are widened to float64 on load.

_MAGIC = b"ITNS"
_VERSION = 1


def finite_float32(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as C-ordered little-endian float32, not copied when it already
    is. A value that is not finite there (NaN, infinite, or beyond float32
    range) raises ``NumericError`` naming ``what`` and the value's index."""
    with np.errstate(over="ignore"):
        out = np.asarray(arr, dtype="<f4", order="C")
    bad = _first_bad(out.reshape(-1))
    if bad is not None:
        bad = np.unravel_index(bad, arr.shape)
        raise NumericError(f"{what} {tuple(map(int, bad))} = {float(arr[bad])} is not a finite float32")
    return out


# --- checkpoints --------------------------------------------------------------
#
# A checkpoint is a name-index preamble followed by one tensor record per
# name, in preamble order: u32 entry count, then per entry u16 name length +
# UTF-8 name, then the tensor records. Model buffers (batch-norm running
# statistics) are stored alongside trainable parameters so evaluation
# behavior survives a round trip. Names are distinct; payloads are float32 on
# disk. Like an ``IEMB`` file, a checkpoint is mapped to be read and replaced
# to be written.


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` in dict order, a record at a time, by :func:`write_replacing`.
    A value that is not a finite float32 raises :class:`~inceptive.errors.NumericError`
    and leaves ``path`` as it was, since :func:`load_checkpoint` would refuse it."""

    def parts():
        yield struct.pack("<I", len(tensors))
        for name in tensors:
            raw = name.encode("utf-8")
            yield struct.pack("<H", len(raw)) + raw
        for name, arr in tensors.items():
            arr = as_tensor(arr)
            yield _MAGIC + struct.pack(f"<II{arr.ndim}Q", _VERSION, arr.ndim, *arr.shape)
            yield finite_float32(arr, f"tensor {name}").data

    write_replacing(path, parts())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a mapped checkpoint into float64 arrays that own their data. A bad
    file, also one that repeats a name, raises
    :class:`~inceptive.errors.FormatError` naming it and the failing byte offset."""
    with mapped(path) as r:
        (count,) = r.unpack("<I", "checkpoint header")
        names: dict[str, None] = {}  # ordered, with a constant-time membership test
        for _ in range(count):
            (nlen,) = r.unpack("<H", "name index")
            try:
                name = str(r.take(nlen, "name entry"), "utf-8")
            except UnicodeDecodeError as exc:  # at the first byte that is not UTF-8
                raise FormatError("name is not UTF-8", r.off - nlen + exc.start) from None
            if name in names:  # its record would silently replace the first one's
                raise FormatError(f"repeated name {name!r} in name index", r.off - nlen)
            names[name] = None
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
