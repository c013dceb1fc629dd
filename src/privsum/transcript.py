"""Message and transcript fabric with byte-exact payload codecs.

Every inter-party byte is recorded as a Message. Payload formats are
fixed so traffic totals admit closed-form predictions:

  vector        u32 count, then count little-endian float64
  matrix        u32 rows, u32 cols, then rows*cols little-endian float64
  quantized     u32 count, then count zigzag-LEB128 varints of round(v/step)
  accept bit    one byte, 0 or 1
  id set        u32 count, then per id: u16 byte length + UTF-8 bytes
  reply batch   u32 count, then per entry: u16 id length + id + u32 k + k float64

The u16 length prefix limits client ids to 65,535 UTF-8 bytes; the id
codecs raise ParameterError beyond that. Both id formats list ids
strictly increasing, so a list has one encoding: the encoders refuse a
repeated id (encode_reply_batch any out of order), and every decoder
raises ParameterError for a payload that is short, has trailing bytes,
or holds an id that is not UTF-8 or out of order. The vector and
quantized codecs work on blocks: the rows of an (m, d) array become m
payloads, and m payloads of exactly d >= 1 values each become an (m, d)
array; the one-payload forms are their one-row calls, and decode a count
of 0 to an empty vector.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import count
from .errors import ParameterError, UnknownParty

KIND_SHARE = "share"
KIND_MATRIX = "matrix"
KIND_REPLY = "reply"
KIND_ACCEPTED_SET = "accepted-set"
KIND_PARTIAL_SUM = "partial-sum"


def client_party(client_id: str) -> str:
    return f"client:{client_id}"


def verifier_party(index: int) -> str:
    return f"verifier:{index}"


# ---------------------------------------------------------------------------
# payload codecs

def _unpack(fmt: str, data: bytes, pos: int) -> tuple:
    try:
        return struct.unpack_from(fmt, data, pos)
    except struct.error:
        raise ParameterError(f"payload of {len(data)} bytes ends inside a header") from None


def _check_end(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise ParameterError(f"payload has {len(data) - pos} trailing bytes")


def _bodies(payloads, d: int) -> bytes:
    """The payloads' bodies joined, after checking each count header is d."""
    header = struct.pack("<I", d) if d < 1 << 32 else None  # no u32 header is d
    if any(p[:4] != header for p in payloads):
        raise ParameterError(f"a payload's count header is not {d}")
    return b"".join(memoryview(p)[4:] for p in payloads)


def encode_vector_block(V: np.ndarray) -> list[bytes]:
    """One vector payload per row of the (m, d) array V."""
    V = np.asarray(V, dtype="<f8")
    m, d = V.shape
    header, body = struct.pack("<I", d), V.tobytes()
    return [header + body[8 * d * r:8 * d * (r + 1)] for r in range(m)]


def decode_vector_block(payloads, d: int) -> np.ndarray:
    """The (m, d) array of m vector payloads, each of exactly d >= 1 values."""
    d = count(d, "d")
    if any(len(p) != vector_bytes(d) for p in payloads):
        raise ParameterError(f"a vector payload does not hold exactly {d} values")
    body = _bodies(payloads, d)
    return np.frombuffer(bytearray(body), dtype="<f8").reshape(len(payloads), d)


def encode_vector(v: np.ndarray) -> bytes:
    return encode_vector_block(np.asarray(v)[None])[0]


def _empty(data: bytes) -> np.ndarray:
    """The vector of a one-payload decode whose count header is 0."""
    _check_end(data, 4)
    return np.empty(0)


def decode_vector(data: bytes) -> np.ndarray:
    (d,) = _unpack("<I", data, 0)
    return decode_vector_block([data], d)[0] if d else _empty(data)


def encode_matrix(entries: np.ndarray) -> bytes:
    entries = np.asarray(entries, dtype="<f8")
    k, d = entries.shape
    return struct.pack("<II", k, d) + entries.tobytes()


def decode_matrix(data: bytes) -> np.ndarray:
    k, d = _unpack("<II", data, 0)
    if len(data) != matrix_bytes(k, d):
        raise ParameterError(f"matrix payload does not hold exactly {k}x{d} values")
    return np.frombuffer(data, dtype="<f8", offset=8).reshape(k, d).copy()


def encode_quantized_block(V: np.ndarray, step: float) -> list[bytes]:
    """One quantized payload per row of the (m, d) array V."""
    q = np.round(np.asarray(V, dtype=np.float64) / step).astype(np.int64)
    m, d = q.shape
    header = struct.pack("<I", d)
    if q.size == 0:
        return [header] * m
    z = ((q.view(np.uint64) << np.uint64(1)) ^ (q >> 63).view(np.uint64)).ravel()  # zigzag
    # a value takes one byte per 7-bit group up to its highest non-zero one,
    # least significant first; all of its bytes but the last carry 0x80
    width = np.ones(z.shape, dtype=np.intp)
    groups = 1
    while groups < 10:
        more = z >= np.uint64(1 << 7 * groups)
        if not more.any():
            break
        width += more
        groups += 1
    end = np.cumsum(width)
    start = end - width
    out = np.empty(int(end[-1]), dtype=np.uint8)
    for j in range(groups):  # group j of every value that has one goes to start + j
        index = np.flatnonzero(width > j) if j else slice(None)
        byte = (z[index] >> np.uint64(7 * j)).astype(np.uint8) & 0x7F
        byte |= (width[index] > j + 1).view(np.uint8) << 7
        out[start[index] + j] = byte
    body = out.tobytes()
    row_ends = end[d - 1::d].tolist()
    return [header + body[a:b] for a, b in zip([0] + row_ends[:-1], row_ends)]


def decode_quantized_block(payloads, d: int, step: float) -> np.ndarray:
    """The (m, d) array of m quantized payloads, each of exactly d >= 1 values.

    The bodies are decoded joined, so each must end exactly at its d-th
    value: a payload that is short, runs on, or has another count raises
    ParameterError rather than shifting the payloads after it.
    """
    m, d = len(payloads), count(d, "d")
    raw = np.frombuffer(_bodies(payloads, d), dtype=np.uint8)
    last = np.flatnonzero(raw < 0x80)  # each value's last byte
    body_ends = np.cumsum([len(p) - 4 for p in payloads], dtype=np.intp)
    if last.size != m * d or not np.array_equal(last[d - 1::d] + 1, body_ends):
        raise ParameterError(f"a quantized payload does not hold exactly {d} values")
    if last.size == 0:
        return np.empty((m, d))
    width = np.diff(last, prepend=-1)
    top, groups = raw[last], int(width.max())  # each value's most significant group
    # one payload per value: only a one-byte value may end in 0x00, and a
    # 10-byte value has one bit of its 64 left for its last byte
    if (groups > 10 or (width[top == 0] > 1).any()
            or groups == 10 and (top[width == 10] > 1).any()):
        raise ParameterError("quantized payload has an over-long or non-canonical varint")
    # walk back from each value's last byte, most significant group first
    z = top.astype(np.uint64)
    for j in range(1, groups):
        index = np.flatnonzero(width > j)
        z[index] = (z[index] << np.uint64(7)) | (raw[last[index] - j] & 0x7F)
    q = (z >> np.uint64(1)).view(np.int64) ^ -(z & np.uint64(1)).view(np.int64)  # inverse zigzag
    return (q * step).reshape(m, d)


def encode_quantized(v: np.ndarray, step: float) -> bytes:
    """Variable-width integer encoding of a grid-valued vector."""
    return encode_quantized_block(np.asarray(v)[None], step)[0]


def decode_quantized(data: bytes, step: float) -> np.ndarray:
    (d,) = _unpack("<I", data, 0)
    return decode_quantized_block([data], d, step)[0] if d else _empty(data)


def encode_accept(accept: bool) -> bytes:
    return b"\x01" if accept else b"\x00"


MAX_ID_BYTES = 0xFFFF  # ids carry a u16 length prefix


def _encode_id(cid: str) -> bytes:
    raw = cid.encode("utf-8")
    if len(raw) > MAX_ID_BYTES:
        raise ParameterError(
            f"client id of {len(raw)} UTF-8 bytes exceeds the {MAX_ID_BYTES}-byte limit"
        )
    return struct.pack("<H", len(raw)) + raw


def _decode_id(data: bytes, pos: int) -> tuple[str, int]:
    """The id that starts at pos, and the position after it."""
    (length,) = _unpack("<H", data, pos)
    end = pos + 2 + length
    if end > len(data):
        raise ParameterError(f"a {length}-byte client id runs past the payload's end")
    try:
        return data[pos + 2:end].decode("utf-8"), end
    except UnicodeDecodeError:
        raise ParameterError("a client id is not valid UTF-8") from None


def _check_increasing(ids: list[str]) -> None:
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ParameterError("client ids must be distinct and listed in increasing order")


def encode_id_set(ids) -> bytes:
    ids = sorted(ids)
    _check_increasing(ids)
    return struct.pack("<I", len(ids)) + b"".join(_encode_id(cid) for cid in ids)


def decode_id_set(data: bytes) -> list[str]:
    (m,) = _unpack("<I", data, 0)
    ids, pos = [], 4
    for _ in range(m):
        cid, pos = _decode_id(data, pos)
        ids.append(cid)
    _check_end(data, pos)
    _check_increasing(ids)
    return ids


def encode_reply_batch(ids, Y: np.ndarray) -> bytes:
    """One batch of replies: row r of the (m, k) array Y is client ids[r]'s,
    ids strictly increasing."""
    _check_increasing(ids)
    parts = [struct.pack("<I", len(ids))]
    for cid, payload in zip(ids, encode_vector_block(Y), strict=True):
        parts += (_encode_id(cid), payload)
    return b"".join(parts)


def decode_reply_batch(data: bytes, k: int) -> tuple[list[str], np.ndarray]:
    """The batch's ids and (m, k) replies, each entry exactly k >= 1 values."""
    k = count(k, "k")
    (m,) = _unpack("<I", data, 0)
    ids, payloads, pos, size = [], [], 4, vector_bytes(k)
    for _ in range(m):
        cid, pos = _decode_id(data, pos)
        ids.append(cid)
        payloads.append(data[pos:pos + size])
        pos += size
    replies = decode_vector_block(payloads, k)
    _check_end(data, pos)
    _check_increasing(ids)
    return ids, replies


def vector_bytes(d: int) -> int:
    return 4 + 8 * d


def matrix_bytes(k: int, d: int) -> int:
    return 8 + 8 * k * d


def id_set_bytes(ids) -> int:
    return 4 + sum(2 + len(cid.encode("utf-8")) for cid in ids)


def reply_batch_bytes(ids, k: int) -> int:
    return 4 + sum(2 + len(cid.encode("utf-8")) + vector_bytes(k) for cid in ids)


# ---------------------------------------------------------------------------
# messages and transcripts

class Message(NamedTuple):
    """What one party sent another; nothing else, so equal messages compare equal."""

    sender: str
    receiver: str
    round: int
    kind: str
    payload: bytes

    @property
    def byte_size(self) -> int:
        return len(self.payload)


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every inter-party message of one protocol run, in delivery order; a
    message's sequence number is its index in messages."""

    messages: tuple[Message, ...]
    master_seed: int

    def parties(self) -> set[str]:
        return {party for m in self.messages for party in (m.sender, m.receiver)}

    def sha256(self) -> str:
        h = hashlib.sha256()
        for seq, m in enumerate(self.messages):
            h.update(f"{seq}|{m.sender}|{m.receiver}|{m.round}|{m.kind}|".encode())
            h.update(m.payload)
            h.update(b"\n")
        return h.hexdigest()

    def to_jsonl(self, include_payload: bool = False) -> str:
        lines = []
        for m in self.messages:
            record = {
                "sender": m.sender,
                "receiver": m.receiver,
                "round": m.round,
                "kind": m.kind,
                "byte_size": m.byte_size,
                "payload_sha256": hashlib.sha256(m.payload).hexdigest(),
            }
            if include_payload:
                record["payload_hex"] = m.payload.hex()
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def view_of(transcript: Transcript, T) -> list[Message]:
    """The messages that parties in T received, in delivery order: exactly
    what they hold, with nothing about the messages sent to anyone else."""
    T = set(T)
    unknown = T - transcript.parties()
    if unknown:
        raise UnknownParty(f"parties not in transcript: {sorted(unknown)}")
    return [m for m in transcript.messages if m.receiver in T]
