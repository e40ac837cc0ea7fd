"""Checkpoint bytes built by hand, for tests of what ``load_checkpoint``
refuses once a checkpoint's checksum holds."""

import struct
import zlib

from ordchange.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


def seal(payload: bytes) -> bytes:
    """``payload`` followed by its CRC32, as ``save_checkpoint`` ends a file."""
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def zero_checkpoint(encoder: list[tuple[int, int]], head: list[tuple[int, int]]) -> bytes:
    """A sealed checkpoint of zero parameters with these (out, in) layer
    shapes, laid out as ``save_checkpoint`` writes one."""
    shapes = [*encoder, *head]
    return seal(b"".join([
        CHECKPOINT_MAGIC, struct.pack("<IdII", CHECKPOINT_VERSION, 0.0, len(encoder), len(head)),
        *(struct.pack("<II", *shape) for shape in shapes), bytes(8 * sum(out * (1 + n_in) for out, n_in in shapes)),
    ]))
