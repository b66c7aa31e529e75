"""Property tests for the two binary readers.

Start from a small valid checkpoint and small class-index and multi-label
``IEMB`` files, then truncate them, flip single bytes, or write arbitrary
values into their header fields. Whatever the bytes, ``load_checkpoint`` and
``load_embeddings`` must return finite arrays (float64 checkpoint tensors,
the float32 embedding payload, and labels inside the header's label space)
or raise ``FormatError``; any other exception fails the test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from inceptive.encoder import load_embeddings, save_embeddings
from inceptive.errors import FormatError
from inceptive.tensor import Rng, load_checkpoint, save_checkpoint

PROPERTY = settings(
    max_examples=100, deadline=None, database=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

TENSORS = {"a.bias": (3,), "conv.w": (2, 2, 3), "s": ()}


def _checkpoint_fields() -> list[tuple[int, int]]:
    """(offset, width in bytes) of the count, each name length, and each
    record's rank and extents, following the checkpoint layout."""
    fields = [(0, 4)]
    off = 4
    for name in TENSORS:
        fields.append((off, 2))
        off += 2 + len(name)
    for shape in TENSORS.values():
        fields.append((off + 8, 4))
        fields += [(off + 12 + 8 * i, 8) for i in range(len(shape))]
        off += 12 + 8 * len(shape) + 4 * int(np.prod(shape))
    return fields


# B, L, d, C (u32) and the label kind (u8) of an IEMB header
EMB_FIELDS = [(8, 4), (12, 4), (16, 4), (20, 1), (21, 4)]
# conv.w's three u64 extents: after the 23-byte name index, the 32-byte a.bias
# record and conv.w's magic, version and rank
CONV_EXTENTS = 23 + 32 + 12


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    rng = Rng(17)
    save_checkpoint(root / "c.ckpt", {n: rng.child(n).normal(s) for n, s in TENSORS.items()})
    save_embeddings(root / "c.iemb", rng.normal((3, 2, 2)), np.array([2, 0, 1]), n_classes=3)
    save_embeddings(root / "m.iemb", rng.normal((2, 2, 3)), np.array([[1, 0, 1], [0, 1, 1]]),
                    n_classes=3)
    return {
        "checkpoint": (load_checkpoint, (root / "c.ckpt").read_bytes(), _checkpoint_fields()),
        "class-index": (load_embeddings, (root / "c.iemb").read_bytes(), EMB_FIELDS),
        "multi-label": (load_embeddings, (root / "m.iemb").read_bytes(), EMB_FIELDS),
    }


def _load(path, load, blob: bytes) -> bool:
    """True if ``blob`` loads to finite arrays, False on FormatError."""
    path.write_bytes(blob)
    try:
        out = load(path)
    except FormatError as err:
        assert 0 <= err.offset <= len(blob)
        return False
    if isinstance(out, dict):
        arrays = list(out.values())
        dtype = np.float64
    else:
        h, labels = out
        n_classes = int.from_bytes(blob[21:25], "little")
        if labels.ndim == 1:
            assert ((labels >= 0) & (labels < n_classes)).all()
        else:
            assert labels.shape[1] == n_classes and np.isin(labels, (0.0, 1.0)).all()
        assert labels.shape[0] == h.shape[0]
        arrays = [h]
        dtype = np.float32
    for a in arrays:
        assert a.dtype == dtype and a.size > 0 and np.isfinite(a).all()
    return True


@pytest.mark.parametrize("kind", ["checkpoint", "class-index", "multi-label"])
def test_every_truncated_prefix_is_a_format_error(files, kind, tmp_path):
    """A cut inside a magic reads as a bad magic; any other cut names the
    read that failed, the bytes it needed and the bytes left after it."""
    load, blob, _ = files[kind]
    assert _load(tmp_path / "f", load, blob)
    for n in range(len(blob)):
        (tmp_path / "f").write_bytes(blob[:n])
        with pytest.raises(FormatError) as err:
            load(tmp_path / "f")
        if "magic" not in str(err.value):
            need, have = map(int, re.search(r"need (\d+) bytes, have (\d+)", str(err.value)).groups())
            assert have == n - err.value.offset < need, n


@pytest.mark.parametrize("kind", ["checkpoint", "class-index", "multi-label"])
@PROPERTY
@given(pick=st.integers(0, 2**16), flip=st.integers(1, 255))
@example(pick=7, flip=0x80)  # a name byte in the checkpoint
def test_single_byte_flips(files, kind, tmp_path, pick, flip):
    load, blob, _ = files[kind]
    at = pick % len(blob)
    corrupt = blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1 :]
    _load(tmp_path / "f", load, corrupt)


def test_non_utf8_name_byte_is_a_format_error(files, tmp_path):
    load, blob, _ = files["checkpoint"]
    (tmp_path / "f").write_bytes(blob[:6] + b"\xff" + blob[7:])
    with pytest.raises(FormatError, match="UTF-8") as err:
        load(tmp_path / "f")
    assert err.value.offset == 6


@pytest.mark.parametrize("kind", ["checkpoint", "class-index", "multi-label"])
@PROPERTY
@given(pick=st.integers(0, 2**16), value=st.integers(0, 2**64 - 1))
@example(pick=0, value=0)  # no entries; B = 0
@example(pick=4, value=1)  # a.bias keeps rank 1; C = 1, below a class-index label
@example(pick=3, value=30)  # name "s" runs into record bytes; an unknown label kind
def test_arbitrary_header_field_values(files, kind, tmp_path, pick, value):
    load, blob, fields = files[kind]
    at, width = fields[pick % len(fields)]
    raw = (value % 2 ** (8 * width)).to_bytes(width, "little")
    _load(tmp_path / "f", load, blob[:at] + raw + blob[at + width :])


@PROPERTY
@given(extents=st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3))
@example(extents=[2**40, 2**24, 1])  # the product wraps to 0 in u64 arithmetic
@example(extents=[0, 2**62, 1])
def test_arbitrary_extents(files, tmp_path, extents):
    load, blob, _ = files["checkpoint"]
    raw = np.array(extents, dtype="<u8").tobytes()
    corrupt = blob[:CONV_EXTENTS] + raw + blob[CONV_EXTENTS + 24 :]
    # only a shape with the original 12 elements keeps the payload aligned
    assert _load(tmp_path / "f", load, corrupt) == (math.prod(extents) == 12)
