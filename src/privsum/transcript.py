"""Message and transcript fabric with byte-exact payload codecs.

Every inter-party byte is recorded in a Transcript, and read back as
Message records. Payload formats are fixed so traffic totals admit
closed-form predictions:

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

import functools
import hashlib
import itertools
import json
import operator
import struct
from collections.abc import Sequence
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
    """The payloads' bodies joined, after checking each count header is d;
    a payload may be any bytes-like object."""
    header = struct.pack("<I", d) if d < 1 << 32 else None  # no u32 header is d
    if any(h != header for h in map(_HEADER, map(memoryview, payloads))):
        raise ParameterError(f"a payload's count header is not {d}")
    return bytearray().join(map(_BODY, map(memoryview, payloads)))


def write_vector_rows(out: np.ndarray, V) -> None:
    """Lay the rows of the (m, d) array V out as m vector payloads in the
    (m, d + 1) float64 array out: row r is 4 zero bytes, then payload r (its
    u32 count d and its d values), so out[:, 1:] holds the values 8-byte
    aligned and row r's payload is its bytes from 4 on."""
    out[:, 1:] = V
    out.view("<u4")[:, :2] = (0, out.shape[1] - 1)


def encode_vector_block(V: np.ndarray) -> list[bytes]:
    """One vector payload per row of the (m, d) array V."""
    V = np.asarray(V, dtype="<f8")
    out = np.empty((V.shape[0], V.shape[1] + 1), dtype="<f8")
    write_vector_rows(out, V)
    return [row[4:].tobytes() for row in out.view(np.uint8)]


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


def matrix_slot(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A float64 array laid out as one (k, d) matrix payload, and the (k, d)
    view of its values, 8-byte aligned, for the caller to fill."""
    out = np.empty(1 + k * d, dtype="<f8")
    out.view("<u4")[:2] = (k, d)
    return out, out[1:].reshape(k, d)


def encode_matrix(entries: np.ndarray) -> bytes:
    out, values = matrix_slot(*np.shape(entries))
    values[...] = entries
    return out.tobytes()


def decode_matrix(data: bytes, k: int, d: int) -> np.ndarray:
    """The (k, d) matrix of a payload whose header states the session's (k, d)."""
    k, d = count(k, "k"), count(d, "d")
    if _unpack("<II", data, 0) != (k, d):
        raise ParameterError(f"matrix payload's header is not ({k}, {d})")
    if len(data) != matrix_bytes(k, d):
        raise ParameterError(f"matrix payload does not hold exactly {k}x{d} values")
    return np.frombuffer(data, dtype="<f8", offset=8).reshape(k, d).copy()


def quantized_payloads(V: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """One quantized payload per row of the (m, d) array V, back to back in
    one uint8 array, and their m + 1 bounds in it: payload r is
    data[bounds[r]:bounds[r + 1]]."""
    q = np.round(np.asarray(V, dtype=np.float64) / step).astype(np.int64)
    m, d = q.shape
    z = ((q.view(np.uint64) << np.uint64(1)) ^ (q >> 63).view(np.uint64)).ravel()  # zigzag
    body = z.astype(np.uint8)  # a value below 0x80 is its own one byte
    # a wider value takes one byte per 7-bit group up to its highest non-zero
    # one, least significant first; all of its bytes but the last carry 0x80
    wide = np.flatnonzero(z >= 0x80)
    zw = z[wide]
    width = np.full(zw.shape, 2)
    for g in range(2, 10):
        more = zw >= np.uint64(1 << 7 * g)
        if not more.any():
            break
        width += more
    groups = int(width.max(initial=1))
    byte = (zw[:, None] >> np.arange(0, 7 * groups, 7, dtype=np.uint64)).astype(np.uint8)
    byte &= 0x7F
    byte |= (np.arange(groups) < width[:, None] - 1).view(np.uint8) << 7
    body[wide] = byte[:, 0]
    # splice each wide value's further bytes in after its first, then each
    # row's count header before its first value; at one position the further
    # bytes, which end the row before, go first
    starts = np.arange(m) * d
    header = np.frombuffer(struct.pack("<I", d), dtype=np.uint8)
    at = np.concatenate([np.repeat(wide + 1, width - 1), np.repeat(starts, 4)])
    data = np.insert(body, at, np.concatenate([byte[:, 1:][np.arange(1, groups) < width[:, None]],
                                               np.tile(header, m)]))
    # a row ends after every header so far and the further bytes of the wide values before it
    further = np.concatenate([[0], np.cumsum(width - 1)])
    bounds = np.zeros(m + 1, dtype=np.intp)
    bounds[1:] = starts + d + 4 * np.arange(1, m + 1) + further[np.searchsorted(wide, starts + d)]
    return data, bounds


def encode_quantized_block(V: np.ndarray, step: float) -> list[bytes]:
    """One quantized payload per row of the (m, d) array V."""
    data, bounds = quantized_payloads(V, step)
    data, bounds = data.tobytes(), bounds.tolist()
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


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


def reply_batch(ids, Y: np.ndarray) -> np.ndarray:
    """The reply-batch payload of ids and the (m, k) array Y as one uint8
    array, written in place: row r of Y is client ids[r]'s, ids strictly
    increasing."""
    _check_increasing(ids)
    raw = [_encode_id(cid) for cid in ids]
    Y = np.ascontiguousarray(Y, dtype="<f8")
    if Y.ndim != 2 or len(Y) != len(raw):
        raise ValueError(f"{len(raw)} ids need a reply matrix of {len(raw)} rows")
    size = 8 * Y.shape[1]
    out = np.empty(4 + sum(map(len, raw)) + len(raw) * (4 + size), dtype=np.uint8)
    out[:4] = np.frombuffer(struct.pack("<I", len(raw)), dtype=np.uint8)
    header, values = np.frombuffer(struct.pack("<I", size // 8), dtype=np.uint8), Y.view(np.uint8)
    pos, r = 4, 0
    for w, run in itertools.groupby(raw, len):  # a run of ids of one width: rows of entries
        run = list(run)
        entries = out[pos:pos + len(run) * (w + 4 + size)].reshape(len(run), -1)
        entries[:, :w] = np.frombuffer(b"".join(run), dtype=np.uint8).reshape(len(run), w)
        entries[:, w:w + 4], entries[:, w + 4:] = header, values[r:r + len(run)]
        pos, r = pos + entries.size, r + len(run)
    return out


def encode_reply_batch(ids, Y: np.ndarray) -> bytes:
    """One batch of replies: row r of the (m, k) array Y is client ids[r]'s,
    ids strictly increasing."""
    return reply_batch(ids, Y).tobytes()


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

KINDS = (KIND_SHARE, KIND_MATRIX, KIND_REPLY, KIND_ACCEPTED_SET, KIND_PARTIAL_SUM)

# per message: the sender's and receiver's indices in the party table, the
# round, the kind's index in KINDS, and where its payload lies in the store
# (a block, and its offset and length in it); sha256 hashes the first five
COLUMNS = np.dtype([("sender", "<u4"), ("receiver", "<u4"), ("round", "<u4"), ("kind", "<u4"),
                    ("length", "<u8"), ("block", "<u4"), ("offset", "<u8")])
_HASHED = ("sender", "receiver", "round", "kind", "length")


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


class SessionParties(Sequence):
    """A session's party table: verifier:0 .. verifier:S-1, then client:<id>
    for each id in order; a name is made when it is read."""

    def __init__(self, S: int, client_ids: list[str]):
        self.S, self.client_ids = S, client_ids

    def __len__(self) -> int:
        return self.S + len(self.client_ids)

    def __getitem__(self, p: int) -> str:
        return verifier_party(p) if p < self.S else client_party(self.client_ids[p - self.S])


class TranscriptWriter:
    """Builds a transcript: its payloads go into a store of blocks, each block
    added once however many messages carry it, and its messages into columns."""

    def __init__(self):
        self.blocks: list[np.ndarray] = []
        self._sent: list[tuple] = []  # per send, its seven fields in COLUMNS order

    def put(self, data) -> int:
        """Add a bytes-like block to the store (a contiguous array is not
        copied); its index."""
        self.blocks.append(np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes)
                           else data.reshape(-1).view(np.uint8))
        return len(self.blocks) - 1

    def send(self, sender, receiver, round, kind, block, offset=0, length=None) -> None:
        """Record messages in delivery order: each argument is one value, or a
        1-d array with one value per message (a kind is its name in KINDS, or
        a list of names); length defaults to the rest of the block."""
        if length is None:
            length = self.blocks[block].size - offset
        try:
            kind = KINDS.index(kind) if isinstance(kind, str) else [KINDS.index(k) for k in kind]
        except ValueError:
            raise ParameterError(f"a message kind is not one of {KINDS}") from None
        self._sent.append((sender, receiver, round, kind, length, block, offset))

    def transcript(self, parties, master_seed: int) -> "Transcript":
        sizes = [next((len(f) for f in fields if hasattr(f, "__len__")), 1)
                 for fields in self._sent]
        columns = np.empty(sum(sizes), dtype=COLUMNS)
        for name, values in zip(COLUMNS.names, zip(*self._sent)):
            column, start = columns[name], 0
            for value, size in zip(values, sizes):
                column[start:start + size] = value
                start += size
        return Transcript(columns, parties, tuple(self.blocks), master_seed)


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every inter-party message of one protocol run, in delivery order; a
    message's sequence number is its index in messages.

    Messages are held as columns (COLUMNS): sender and receiver index
    party_table, and message j's payload is its length bytes from its offset
    in blocks[its block]; a payload sent to several parties lies there once.
    messages, view_of and to_jsonl make their Message records and lines from
    these when they are read.
    """

    columns: np.ndarray
    party_table: Sequence[str]
    blocks: tuple[np.ndarray, ...]
    master_seed: int

    @classmethod
    def from_messages(cls, messages, master_seed: int = 0) -> "Transcript":
        """The transcript of Message records, in order."""
        messages = list(messages)
        names = list(dict.fromkeys(p for m in messages for p in (m.sender, m.receiver)))
        index = {name: p for p, name in enumerate(names)}
        writer = TranscriptWriter()
        block = writer.put(b"".join(m.payload for m in messages))
        lengths = np.array([len(m.payload) for m in messages], dtype=np.int64)
        writer.send([index[m.sender] for m in messages], [index[m.receiver] for m in messages],
                    [m.round for m in messages], [m.kind for m in messages], block,
                    np.cumsum(lengths) - lengths, lengths)
        return writer.transcript(names, master_seed)

    def _records(self, rows=None):
        """(sender, receiver, round, kind, payload) of each message, or of rows,
        read 256 messages at a time; a payload is a view of its block, or the
        block's own bytes object when it is all of one."""
        rows = range(self.columns.size) if rows is None else rows
        names = functools.lru_cache(maxsize=None)(self.party_table.__getitem__)
        blocks = [b.base if isinstance(b.base, bytes) else memoryview(b) for b in self.blocks]
        for start in range(0, len(rows), 256):
            c = self.columns[rows[start:start + 256]]
            for s, r, rnd, kind, block, offset, length in zip(
                    *(c[name].tolist() for name in ("sender", "receiver", "round", "kind",
                                                    "block", "offset", "length"))):
                yield names(s), names(r), rnd, KINDS[kind], blocks[block][offset:offset + length]

    @property
    def messages(self) -> "Messages":
        return Messages(self)

    def _party_indices(self) -> np.ndarray:
        """The indices of the parties that sent or received a message, in order of
        first appearance (each message's sender, then its receiver)."""
        both = np.stack([self.columns["sender"], self.columns["receiver"]], axis=1).reshape(-1)
        _, first = np.unique(both, return_index=True)
        return both[np.sort(first)]

    def parties(self) -> set[str]:
        return set(map(self.party_table.__getitem__, self._party_indices().tolist()))

    def sha256(self) -> str:
        """SHA-256 of the message sequence, injective by construction. It hashes
        the party table, parties in order of first appearance: their count,
        their UTF-8 byte lengths, then their names. Then the message count and
        the columns sender, receiver, round, kind (its index in KINDS) and
        payload length, one little-endian value per message each (u32, u32,
        u32, u32, u64), parties numbered in table order; then the payloads in
        order. Counts and lengths are u64."""
        order = self._party_indices()
        number = np.zeros(int(order.max(initial=0)) + 1, dtype="<u4")
        number[order] = np.arange(order.size)
        names = [self.party_table[p].encode() for p in order.tolist()]
        h = hashlib.sha256(struct.pack("<Q", len(names)))
        h.update(np.array(list(map(len, names)), dtype="<u8").tobytes())
        h.update(b"".join(names))
        h.update(struct.pack("<Q", self.columns.size))
        for name in _HASHED:
            column = self.columns[name]
            h.update((number[column] if name in ("sender", "receiver") else column).tobytes())
        if not self.columns.size:
            return h.hexdigest()
        # one update per run of payloads that lie back to back in a block
        block, offset = self.columns["block"], self.columns["offset"]
        end = offset + self.columns["length"]
        last = np.flatnonzero((block[1:] != block[:-1]) | (offset[1:] != end[:-1]))
        first, last = np.concatenate([[0], last + 1]), np.append(last, end.size - 1)
        blocks = [memoryview(b) for b in self.blocks]
        for b, a, z in zip(block[first].tolist(), offset[first].tolist(), end[last].tolist()):
            h.update(blocks[b][a:z])
        return h.hexdigest()

    def to_jsonl(self, include_payload: bool = False) -> str:
        lines = []
        for sender, receiver, rnd, kind, payload in self._records():
            record = {
                "sender": sender,
                "receiver": receiver,
                "round": rnd,
                "kind": kind,
                "byte_size": len(payload),
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
            }
            if include_payload:
                record["payload_hex"] = payload.hex()
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


class Messages(Sequence):
    """A transcript's messages as Message records, each made when it is read;
    equal to the tuple of the same records."""

    def __init__(self, transcript: Transcript):
        self._transcript = transcript

    def __len__(self) -> int:
        return self._transcript.columns.size

    def __getitem__(self, j):
        rows = range(len(self))[j]
        return tuple(self._make(rows)) if isinstance(j, slice) else next(self._make([rows]))

    def __iter__(self):
        return self._make()

    def _make(self, rows=None):
        for *fields, payload in self._transcript._records(rows):
            yield Message(*fields, bytes(payload))

    def __eq__(self, other):
        if not isinstance(other, (tuple, Messages)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


def view_of(transcript: Transcript, T) -> list[Message]:
    """The messages that parties in T received, in delivery order: exactly
    what they hold, with nothing about the messages sent to anyone else."""
    T = set(T)
    indices = transcript._party_indices().tolist()
    index = dict(zip(map(transcript.party_table.__getitem__, indices), indices))
    unknown = T - index.keys()
    if unknown:
        raise UnknownParty(f"parties not in transcript: {sorted(unknown)}")
    rows = np.isin(transcript.columns["receiver"], [index[t] for t in T])
    return list(Messages(transcript)._make(np.flatnonzero(rows)))
