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
codecs raise ParameterError beyond that.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnknownParty

KIND_SHARE = "share"
KIND_MATRIX = "matrix"
KIND_REPLY = "reply"
KIND_ACCEPT = "accept-bit"
KIND_ACCEPTED_SET = "accepted-set"
KIND_PARTIAL_SUM = "partial-sum"
MESSAGE_KINDS = (
    KIND_SHARE, KIND_MATRIX, KIND_REPLY, KIND_ACCEPT,
    KIND_ACCEPTED_SET, KIND_PARTIAL_SUM,
)


def client_party(client_id: str) -> str:
    return f"client:{client_id}"


def verifier_party(index: int) -> str:
    return f"verifier:{index}"


# ---------------------------------------------------------------------------
# payload codecs

def encode_vector(v: np.ndarray) -> bytes:
    v = np.asarray(v, dtype="<f8")
    return struct.pack("<I", v.shape[0]) + v.tobytes()


def decode_vector(data: bytes) -> np.ndarray:
    (count,) = struct.unpack_from("<I", data, 0)
    return np.frombuffer(data, dtype="<f8", count=count, offset=4).copy()


def encode_matrix(entries: np.ndarray) -> bytes:
    entries = np.asarray(entries, dtype="<f8")
    k, d = entries.shape
    return struct.pack("<II", k, d) + entries.tobytes()


def decode_matrix(data: bytes) -> np.ndarray:
    k, d = struct.unpack_from("<II", data, 0)
    return np.frombuffer(data, dtype="<f8", count=k * d, offset=8).reshape(k, d).copy()


def encode_quantized(v: np.ndarray, step: float) -> bytes:
    """Variable-width integer encoding of a grid-valued vector."""
    q = np.round(np.asarray(v, dtype=np.float64) / step).astype(np.int64)
    header = struct.pack("<I", q.shape[0])
    if q.size == 0:
        return header
    z = (q.view(np.uint64) << np.uint64(1)) ^ (q >> 63).view(np.uint64)  # zigzag
    # a value takes one byte per 7-bit group up to its highest non-zero one,
    # least significant first; all of its bytes but the last carry 0x80
    width = np.ones(z.shape, dtype=np.intp)
    rest = z >> 7
    while rest.any():
        width += rest != 0
        rest >>= 7
    end = np.cumsum(width)
    value = np.repeat(np.arange(z.size), width)
    group = np.arange(end[-1]) - np.repeat(end - width, width)
    out = ((z[value] >> (7 * group).astype(np.uint64)) & 0x7F).astype(np.uint8)
    out[group < width[value] - 1] |= 0x80
    return header + out.tobytes()


def decode_quantized(data: bytes, step: float) -> np.ndarray:
    (count,) = struct.unpack_from("<I", data, 0)
    if count == 0:
        return np.empty(0)
    raw = np.frombuffer(data, dtype=np.uint8, offset=4)
    ends = np.flatnonzero(raw < 0x80)[:count] + 1  # one past each value's last byte
    if ends.size < count:
        raise ParameterError(f"quantized payload holds fewer than {count} values")
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    lengths = ends - starts
    if lengths.max() > 10:
        raise ParameterError("quantized payload has a varint longer than 64 bits")
    shift = 7 * (np.arange(ends[-1]) - np.repeat(starts, lengths))
    parts = (raw[:ends[-1]] & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
    z = np.bitwise_or.reduceat(parts, starts)
    q = (z >> 1).view(np.int64) ^ -(z & 1).view(np.int64)  # inverse zigzag
    return q * step


def encode_accept(accept: bool) -> bytes:
    return b"\x01" if accept else b"\x00"


def decode_accept(data: bytes) -> bool:
    return data[0] == 1


MAX_ID_BYTES = 0xFFFF  # ids carry a u16 length prefix


def _encode_id(cid: str) -> bytes:
    raw = cid.encode("utf-8")
    if len(raw) > MAX_ID_BYTES:
        raise ParameterError(
            f"client id of {len(raw)} UTF-8 bytes exceeds the {MAX_ID_BYTES}-byte limit"
        )
    return struct.pack("<H", len(raw)) + raw


def encode_id_set(ids) -> bytes:
    out = bytearray()
    ids = sorted(ids)
    out += struct.pack("<I", len(ids))
    for cid in ids:
        out += _encode_id(cid)
    return bytes(out)


def decode_id_set(data: bytes) -> list[str]:
    (count,) = struct.unpack_from("<I", data, 0)
    pos = 4
    ids = []
    for _ in range(count):
        (length,) = struct.unpack_from("<H", data, pos)
        pos += 2
        ids.append(data[pos:pos + length].decode("utf-8"))
        pos += length
    return ids


def encode_reply_batch(entries: list[tuple[str, np.ndarray]]) -> bytes:
    out = bytearray(struct.pack("<I", len(entries)))
    for cid, y in entries:
        out += _encode_id(cid) + encode_vector(y)
    return bytes(out)


def decode_reply_batch(data: bytes) -> list[tuple[str, np.ndarray]]:
    (count,) = struct.unpack_from("<I", data, 0)
    pos = 4
    entries = []
    for _ in range(count):
        (length,) = struct.unpack_from("<H", data, pos)
        pos += 2
        cid = data[pos:pos + length].decode("utf-8")
        pos += length
        (k,) = struct.unpack_from("<I", data, pos)
        y = np.frombuffer(data, dtype="<f8", count=k, offset=pos + 4).copy()
        pos += 4 + 8 * k
        entries.append((cid, y))
    return entries


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

@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    round: int
    kind: str
    payload: bytes
    seq: int

    @property
    def byte_size(self) -> int:
        return len(self.payload)


class MessageBus:
    """Collects messages in delivery order; the orchestrator enforces rounds."""

    def __init__(self):
        self._messages: list[Message] = []

    def send(self, sender: str, receiver: str, round: int, kind: str,
             payload: bytes) -> Message:
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        msg = Message(sender=sender, receiver=receiver, round=round, kind=kind,
                      payload=payload, seq=len(self._messages))
        self._messages.append(msg)
        return msg

    @property
    def messages(self) -> tuple[Message, ...]:
        return tuple(self._messages)


@dataclass(frozen=True, eq=False)
class Transcript:
    """Ordered record of every inter-party message in one protocol run."""

    messages: tuple[Message, ...]
    master_seed: int

    def parties(self) -> set[str]:
        out = set()
        for m in self.messages:
            out.add(m.sender)
            out.add(m.receiver)
        return out

    def sha256(self) -> str:
        h = hashlib.sha256()
        for m in self.messages:
            h.update(f"{m.seq}|{m.sender}|{m.receiver}|{m.round}|{m.kind}|".encode())
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
    """Order-preserving restriction to the messages received by parties in T."""
    T = set(T)
    unknown = T - transcript.parties()
    if unknown:
        raise UnknownParty(f"parties not in transcript: {sorted(unknown)}")
    return [m for m in transcript.messages if m.receiver in T]
