"""The checkpoint file format rejects a damaged file by name."""

import re
import struct

import numpy as np
import pytest

from hcl.checkpoint import load_checkpoint


def _record(name: bytes, values) -> bytes:
    """One 1-D array record: name length, name, ndim 1, its size, data."""
    data = np.asarray(values, dtype="<f8")
    return struct.pack("<I", len(name)) + name + struct.pack("<II", 1, data.size) + data.tobytes()


def _file(records, meta=b"{}", magic=b"HCL1") -> bytes:
    return (magic + struct.pack("<I", len(records)) + b"".join(records)
            + struct.pack("<I", len(meta)) + meta)


GOOD = _file([_record(b"a", [1.0, 2.0])])

# (case, file bytes, the reason the error names)
DAMAGE = [
    ("bad_magic", b"HCL0" + GOOD[4:], "bad magic"),
    ("truncated", GOOD[:-12], "truncated checkpoint"),
    ("trailing_bytes", GOOD + b"\0", "trailing bytes"),
    ("duplicate_name", _file([_record(b"a", [1.0, 2.0]), _record(b"a", [7.0, 7.0])]),
     "array 'a' appears twice"),
    ("name_not_utf8", _file([_record(b"\xff", [1.0])]), "array name is not UTF-8"),
    ("meta_not_json", _file([_record(b"a", [1.0])], meta=b"not json"), "metadata is not JSON"),
    # (2**32 - 1)**2 elements: a count in int64 wraps negative
    ("shape_overflows_int64",
     _file([struct.pack("<I", 1) + b"a" + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1)
            + b"\0" * 16]),
     "truncated checkpoint"),
]


@pytest.mark.parametrize("case, blob, reason", DAMAGE, ids=[c[0] for c in DAMAGE])
def test_damaged_file_raises_value_error_naming_it(tmp_path, case, blob, reason):
    path = tmp_path / f"{case}.hcl"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(reason)):
        load_checkpoint(path)
