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
from operator import itemgetter
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


_HEADER, _BODY = itemgetter(slice(4)), itemgetter(slice(4, None))


def _bodies(payloads, d: int) -> bytearray:
    """The payloads' bodies joined, after checking each count header is d."""
    header = struct.pack("<I", d) if d < 1 << 32 else None  # no u32 header is d
    if set(map(_HEADER, payloads)) - {header}:
        raise ParameterError(f"a payload's count header is not {d}")
    return bytearray().join(map(_BODY, map(memoryview, payloads)))


def encode_vector_block(V: np.ndarray) -> list[bytes]:
    """One vector payload per row of the (m, d) array V."""
    V = np.asarray(V, dtype="<f8")
    m, d = V.shape
    header, body = struct.pack("<I", d), V.tobytes()
    return [header + body[8 * d * r:8 * d * (r + 1)] for r in range(m)]


def decode_vector_block(payloads, d: int) -> np.ndarray:
    """The (m, d) array of m vector payloads, each of exactly d >= 1 values."""
    d = count(d, "d")
    if set(map(len, payloads)) - {vector_bytes(d)}:
        raise ParameterError(f"a vector payload does not hold exactly {d} values")
    return np.frombuffer(_bodies(payloads, d), dtype="<f8").reshape(len(payloads), d)


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


def decode_matrix(data: bytes, k: int, d: int) -> np.ndarray:
    """The (k, d) matrix of a payload whose header states the session's (k, d)."""
    k, d = count(k, "k"), count(d, "d")
    if _unpack("<II", data, 0) != (k, d):
        raise ParameterError(f"matrix payload's header is not ({k}, {d})")
    if len(data) != matrix_bytes(k, d):
        raise ParameterError(f"matrix payload does not hold exactly {k}x{d} values")
    return np.frombuffer(data, dtype="<f8", offset=8).reshape(k, d).copy()


def encode_quantized_block(V: np.ndarray, step: float) -> list[bytes]:
    """One quantized payload per row of the (m, d) array V."""
    q = np.round(np.asarray(V, dtype=np.float64) / step).astype(np.int64)
    m, d = q.shape
    header = struct.pack("<I", d)
    z = ((q.view(np.uint64) << np.uint64(1)) ^ (q >> 63).view(np.uint64)).ravel()  # zigzag
    body = z.astype(np.uint8)  # a value below 0x80 is its own one byte
    wide = np.flatnonzero(z >= 0x80)
    if not wide.size:
        data = body.tobytes()
        return [header + data[d * r:d * (r + 1)] for r in range(m)]
    # a wider value takes one byte per 7-bit group up to its highest non-zero
    # one, least significant first; all of its bytes but the last carry 0x80
    zw = z[wide]
    width = np.full(zw.shape, 2)
    for g in range(2, 10):
        more = zw >= np.uint64(1 << 7 * g)
        if not more.any():
            break
        width += more
    groups = int(width.max())
    byte = (zw[:, None] >> np.arange(0, 7 * groups, 7, dtype=np.uint64)).astype(np.uint8)
    byte &= 0x7F
    byte |= (np.arange(groups) < width[:, None] - 1).view(np.uint8) << 7
    body[wide] = byte[:, 0]
    # splice each wide value's further bytes in after its first
    data = np.insert(body, np.repeat(wide + 1, width - 1),
                     byte[:, 1:][np.arange(1, groups) < width[:, None]]).tobytes()
    row_ends = np.arange(d, m * d + 1, d)
    row_ends += np.r_[0, np.cumsum(width - 1)][np.searchsorted(wide, row_ends)]
    row_ends = row_ends.tolist()
    return [header + data[a:b] for a, b in zip([0] + row_ends[:-1], row_ends)]


def decode_quantized_block(payloads, d: int, step: float) -> np.ndarray:
    """The (m, d) array of m quantized payloads, each of exactly d >= 1 values.

    The bodies are decoded joined, so each must end exactly at its d-th
    value: a payload that is short, runs on, or has another count raises
    ParameterError rather than shifting the payloads after it. So does a
    grid value q with |q| > 2^53, where float64 would give two payloads one
    decoding; ProtocolParams keeps honest shares within trunc_b / quant_step
    <= 2^53 steps.
    """
    m, d = len(payloads), count(d, "d")
    raw = np.frombuffer(_bodies(payloads, d), dtype=np.uint8)
    more = np.flatnonzero(raw >= 0x80)  # every byte of a value but its last
    # a body ends at its d-th value's last byte: it holds d last bytes, and ends in one
    ends = np.cumsum([len(p) - 4 for p in payloads], dtype=np.intp)
    if (raw.size - more.size != m * d
            or (ends - np.searchsorted(more, ends) != np.arange(d, m * d + 1, d)).any()
            or (raw[ends - 1] >= 0x80).any()):
        raise ParameterError(f"a quantized payload does not hold exactly {d} values")
    byte = (np.delete(raw, more) if more.size else raw).view(np.int8)  # each value's last
    out = (byte >> 1 ^ -(byte & 1)) * float(step)  # the one-byte values, unzigzagged
    if more.size:
        # a wider value's bytes are a run of continuation bytes and the byte after it
        first = np.flatnonzero(np.diff(more, prepend=-2) != 1)
        last = np.append(more[first[1:] - 1], more[-1]) + 1  # each wide value's last byte
        width = last - more[first] + 1
        top, groups = raw[last], int(width.max())  # its most significant group
        # one payload per value: a wide value may not end in 0x00
        if (top == 0).any():
            raise ParameterError("quantized payload has an over-long or non-canonical varint")
        # past |q| = 2^53 a float64 no longer holds every grid value, so two
        # payloads could decode to one vector; |q| <= 2^53 is zigzag <= 2^54,
        # which takes at most 8 bytes
        if groups > 8:
            raise ParameterError("quantized payload holds a grid value past 2^53")
        # walk back from each wide value's last byte, most significant group first
        z = top.astype(np.uint64)
        for j in range(1, groups):
            index = np.flatnonzero(width > j)
            z[index] = (z[index] << np.uint64(7)) | (raw[last[index] - j] & 0x7F)
        if groups == 8 and (z > np.uint64(1 << 54)).any():
            raise ParameterError("quantized payload holds a grid value past 2^53")
        q = (z >> np.uint64(1)).view(np.int64) ^ -(z & np.uint64(1)).view(np.int64)  # inverse zigzag
        # a value's index is its first byte's position less the continuation bytes before it
        out[more[first] - first] = q * float(step)
    return out.reshape(m, d)


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
