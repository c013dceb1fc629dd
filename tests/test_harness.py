"""Harness: determinism, substream isolation, serialization, traffic accounting."""

import hashlib
import json
import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsum import (
    ClientBehavior,
    ParameterError,
    Scenario,
    ScenarioError,
    UnknownParty,
    calibrate,
    honest_scenario,
    measured_traffic,
    predicted_traffic,
    run_scenario,
    substream,
    view_of,
    with_adversary,
)
from privsum import aggregation
from privsum.harness import scenario_client_ids
from privsum.rng import path_digest
from privsum.transcript import (
    KIND_REPLY,
    KIND_SHARE,
    MAX_ID_BYTES,
    decode_id_set,
    decode_matrix,
    decode_quantized,
    decode_quantized_block,
    decode_reply_batch,
    decode_vector,
    decode_vector_block,
    encode_accept,
    encode_id_set,
    encode_matrix,
    encode_quantized,
    encode_quantized_block,
    encode_reply_batch,
    encode_vector,
    encode_vector_block,
    id_set_bytes,
    matrix_bytes,
    reply_batch_bytes,
    vector_bytes,
    verifier_party,
)


GOLDEN_SHA256 = "c40596b1b8072ad72da3f25a021a5520208118b8eef3849174e6989e1ca50b93"
# the quantized session of quantized_golden_run: its transcript and verifier
# 0's released sum (whose own partial is not in the transcript)
GOLDEN_QUANTIZED_SHA256 = "f0b778d25f5717202d2890421625fa02481e22d781a02bbf3c274716b9ad570f"
GOLDEN_QUANTIZED_SUM_SHA256 = "baf3f8e1fc969002b91cd0dc3bbf45681e8bb995e8f591d62e7292cc28f44d3e"


def small_params(**overrides):
    defaults = dict(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2,
                    beta=0.05, S=2, k=16, d=8)
    defaults.update(overrides)
    return calibrate(**defaults).params


def reference_quantized(grid: list[int]) -> bytes:
    """The quantized payload of integer grid points, one value at a time."""
    out = bytearray(len(grid).to_bytes(4, "little"))
    for q in grid:
        z = 2 * q if q >= 0 else -2 * q - 1
        while z >= 0x80:
            out.append(z & 0x7F | 0x80)
            z >>= 7
        out.append(z)
    return bytes(out)


def decodes_or_refuses(decode, grid, expected):
    """decode() gives expected where every grid value is within 2^53 steps,
    each of which float64 holds, and refuses the payload otherwise."""
    if any(abs(q) > 2 ** 53 for q in grid):
        with pytest.raises(ParameterError, match=r"past 2\^53"):
            decode()
    else:
        np.testing.assert_array_equal(decode(), expected)


# varint bytes: the edges of a group and of a continuation, and any other byte
VARINT_BYTES = st.sampled_from((0x00, 0x01, 0x7F, 0x80, 0x81, 0xFF)) | st.integers(0, 0xFF)
# pieces of a varint body: one byte, or a run of up to 10 of one continuation byte
PIECES = (st.lists(VARINT_BYTES, min_size=1, max_size=1)
          | st.builds(lambda byte, n: [byte] * n, st.sampled_from((0x80, 0xFF)), st.integers(1, 10)))


@st.composite
def near_payloads(draw, d: int, quantized: bool) -> bytes:
    """Bytes near one payload of d values: d's count header, mostly, and a body
    of loose pieces or a valid payload's, with one byte changed to a piece, a
    piece inserted or one byte removed."""
    header = struct.pack("<I", draw(st.just(d) | st.integers(0, 2 ** 32 - 1)))
    if quantized:
        valid = reference_quantized(draw(st.lists(st.integers(-2 ** 53, 2 ** 53),
                                                  min_size=d, max_size=d)))[4:]
        loose = sum(draw(st.lists(PIECES, max_size=2 * d + 2)), [])
    else:
        valid = draw(st.binary(min_size=8 * d, max_size=8 * d))
        loose = draw(st.binary(max_size=8 * d + 9))
    body = list(valid if draw(st.booleans()) else loose)
    at = draw(st.integers(0, len(body)))
    edit = draw(st.sampled_from(("keep", "change", "insert", "remove")))
    if edit == "insert" or edit == "change" and at < len(body):
        body[at:at + (edit == "change")] = draw(PIECES)
    elif edit == "remove":
        del body[at:at + 1]
    return header + bytes(body)


def quantized_golden_run():
    """S=3 with trunc_b set, one partial sender and one inconsistent client.

    The step of 1/256 makes the share varints 1, 2 and 3 bytes wide.
    """
    params = calibrate(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05,
                       S=3, k=16, d=16, trunc_b=64.0, quant_step=1 / 256).params
    clients = (ClientBehavior(),) * 4 + (
        ClientBehavior(kind="partial-send", skip=(1,)),
        ClientBehavior(kind="inconsistent-shares", scale=10.0),
    )
    scenario = Scenario(n=6, S=3, d=16, clients=clients)
    return run_scenario(scenario, params, 2024)


def reply_rows(transcript, ids, k) -> dict[tuple[int, str], bytes]:
    """(verifier index, client id) -> the bytes of that round-2 reply row, for
    the clients in ids."""
    rows = {}
    for m in transcript.messages:
        if m.kind == KIND_REPLY:
            verifier = int(m.sender.split(":", 1)[1])
            batch_ids, Y = decode_reply_batch(m.payload, k)
            rows.update({(verifier, cid): y.tobytes()
                         for cid, y in zip(batch_ids, Y) if cid in ids})
    return rows


class TestCodecs:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), min_size=1, max_size=50))
    def test_vector_roundtrip(self, values):
        v = np.array(values)
        assert np.array_equal(decode_vector(encode_vector(v)), v)
        assert len(encode_vector(v)) == vector_bytes(v.size)

    def test_matrix_roundtrip(self):
        rng = substream(1, "mat")
        W = rng.standard_normal((3, 5))
        assert np.array_equal(decode_matrix(encode_matrix(W), 3, 5), W)
        assert len(encode_matrix(W)) == matrix_bytes(3, 5)

    @given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=40),
           st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def test_quantized_roundtrip(self, grid_points, step):
        v = np.array(grid_points, dtype=np.float64) * step
        out = decode_quantized(encode_quantized(v, step), step)
        np.testing.assert_allclose(out, v, rtol=1e-12, atol=1e-12)

    def test_quantized_bytes_are_pinned(self):
        # zigzag-LEB128 bytes of 0, +-1, +-63, +-64, +-8191, +-8192, +-2^40
        values = [0, 1, -1, 63, -63, 64, -64, 8191, -8191, 8192, -8192,
                  2 ** 40, -2 ** 40]
        data = encode_quantized(np.array(values, dtype=np.float64), 1.0)
        assert data == bytes.fromhex(
            "0d000000" "00" "02" "01" "7e" "7d" "8001" "7f" "fe7f" "fd7f"
            "808001" "ff7f" "808080808040" "ffffffffff3f"
        )
        assert decode_quantized(data, 1.0).tolist() == values
        # off-grid values round to the nearest grid point
        assert encode_quantized(np.array([0.3, -0.74, 2.6]), 0.25) == bytes.fromhex(
            "03000000" "02" "05" "14")
        assert decode_quantized(encode_quantized(np.empty(0), 1.0), 1.0).size == 0

    @given(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=40))
    def test_quantized_matches_reference_loop(self, values):
        v = np.array(values, dtype=np.float64)
        grid = [int(x) for x in v]  # the integers float64 holds
        expected = reference_quantized(grid)
        assert encode_quantized(v, 1.0) == expected
        decodes_or_refuses(partial(decode_quantized, expected, 1.0), grid, v)

    @given(st.integers(0, 4), st.integers(1, 6), st.data())
    def test_quantized_block_matches_reference_loop(self, m, d, data):
        values = data.draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=m * d,
                                    max_size=m * d))
        V = np.array(values, dtype=np.float64).reshape(m, d)
        expected = [reference_quantized([int(x) for x in row]) for row in V]
        assert encode_quantized_block(V, 1.0) == expected
        decodes_or_refuses(partial(decode_quantized_block, expected, d, 1.0),
                           [int(x) for x in V.ravel()], V)

    def test_quantized_block_covers_every_width(self):
        # the smallest and largest zigzag value of each width, 1 to 10 bytes
        zigzag = [0, 0x7F]
        for width in range(2, 11):
            zigzag += [1 << 7 * (width - 1), min(1 << 7 * width, 1 << 64) - 1]
        grid = [z // 2 if z % 2 == 0 else -(z + 1) // 2 for z in zigzag]
        V = np.array(grid, dtype=np.float64).reshape(4, 5)
        assert [int(x) for x in V.ravel()] == grid  # float64 holds each exactly
        expected = [reference_quantized(grid[5 * r:5 * r + 5]) for r in range(4)]
        assert sorted({len(reference_quantized([q])) - 4 for q in grid}) == list(range(1, 11))
        assert encode_quantized_block(V, 1.0) == expected
        # the decoder reads every width up to 8 bytes, and refuses the last
        # row's values, 8 to 10 bytes wide and past 2^53
        np.testing.assert_array_equal(decode_quantized_block(expected[:3], 5, 1.0), V[:3])
        for q in grid[15:]:
            decodes_or_refuses(partial(decode_quantized, reference_quantized([q]), 1.0),
                               [q], None)

    def test_quantized_block_wide_values_at_row_edges(self):
        # a wide value's further bytes are spliced in after its first byte: a
        # wide value that starts a row, ends it or is its only value moves
        # every row boundary after it; +-2^53 are the widest grid values decoded
        for grid in ([[300, 1, -2, 70000], [64, 0, 0, 2 ** 40], [-64, 63, -65, 2]],
                     [[200], [3], [-2 ** 53], [0], [2 ** 53]]):
            V = np.array(grid, dtype=np.float64)
            expected = [reference_quantized(row) for row in grid]
            assert encode_quantized_block(V, 1.0) == expected
            np.testing.assert_array_equal(decode_quantized_block(expected, V.shape[1], 1.0), V)

    @settings(max_examples=300)
    @given(st.integers(0, 4), st.integers(1, 6), st.sampled_from([1.0, 0.25]), st.data())
    def test_decoders_accept_only_canonical_bytes(self, m, d, step, data):
        # any bytes either raise ParameterError or decode to values that
        # re-encode to exactly those bytes, block by block and payload by payload
        def canonical(decode, encode, payloads):
            try:
                values = decode()
            except ParameterError:
                return
            assert encode(values) == payloads

        for quantized in (True, False):
            payloads = data.draw(st.lists(near_payloads(d, quantized), min_size=m, max_size=m))
            if quantized:
                canonical(partial(decode_quantized_block, payloads, d, step),
                          partial(encode_quantized_block, step=step), payloads)
                for p in payloads:
                    canonical(partial(decode_quantized, p, step),
                              partial(encode_quantized, step=step), p)
            else:
                canonical(partial(decode_vector_block, payloads, d),
                          encode_vector_block, payloads)
                for p in payloads:
                    canonical(partial(decode_vector, p), encode_vector, p)

    def test_grid_values_past_2_53_share_a_value(self):
        # canonical varints of q = 2^53 and 2^53 + 1 decode to one float64;
        # the payload must be refused or re-encode to itself
        data = reference_quantized([2 ** 53 + 1])
        try:
            values = decode_quantized(data, 1.0)
        except ParameterError:
            return
        assert encode_quantized(values, 1.0) == data

    def test_empty_blocks(self):
        assert encode_quantized_block(np.empty((0, 3)), 1.0) == []
        assert encode_vector_block(np.empty((0, 3))) == []
        assert decode_quantized_block([], 3, 1.0).shape == (0, 3)
        assert decode_vector_block([], 3).shape == (0, 3)

    def test_length_past_the_count_header_matches_no_payload(self):
        d = 2 ** 32
        assert decode_vector_block([], d).shape == (0, d)
        assert decode_quantized_block([], d, 1.0).shape == (0, d)
        with pytest.raises(ParameterError):
            decode_vector_block([encode_vector(np.ones(1))], d)
        with pytest.raises(ParameterError):
            decode_quantized_block([encode_quantized(np.ones(1), 1.0)], d, 1.0)

    def test_vector_block_matches_one_row_calls(self):
        V = substream(3, "block").standard_normal((4, 3))
        payloads = encode_vector_block(V)
        assert payloads == [encode_vector(row) for row in V]
        np.testing.assert_array_equal(decode_vector_block(payloads, 3), V)

    def test_truncated_quantized_payload_rejected(self):
        data = encode_quantized(np.array([8192.0, 1.0]), 1.0)
        with pytest.raises(ParameterError):
            decode_quantized(data[:-2], 1.0)

    def test_trailing_bytes_rejected(self):
        # a one-payload decode must end exactly at its last value
        data = encode_quantized(np.array([8192.0, 1.0]), 1.0)
        for extra in (b"\x01", b"\x80"):
            with pytest.raises(ParameterError):
                decode_quantized(data + extra, 1.0)
        with pytest.raises(ParameterError):
            decode_vector(encode_vector(np.ones(2)) + b"\x00")

    @pytest.mark.parametrize("body", ["8000", "ffffffffffffffffff7f", "ffffffffffffffffff02"])
    def test_non_canonical_varint_rejected(self, body):
        # 0 in two bytes, a 70-bit value, and 65 bits in ten bytes: the first
        # decoded like "00" and the others to a wrapped int64
        with pytest.raises(ParameterError):
            decode_quantized(bytes.fromhex("01000000" + body), 1.0)

    def test_largest_grid_values_round_trip(self):
        # zigzag 2^54 and 2^54 - 1 in eight bytes each: the widest decoded
        v = np.array([2.0 ** 53, -2.0 ** 53])
        data = encode_quantized(v, 1.0)
        assert data == bytes.fromhex("02000000" "8080808080808020" "ffffffffffffff1f")
        assert decode_quantized(data, 1.0).tolist() == v.tolist()
        # zigzag 2^63 in ten bytes, 2^63 - 1 in nine: encoded, and refused
        v = np.array([2.0 ** 62, -2.0 ** 62])
        data = encode_quantized(v, 1.0)
        assert data == bytes.fromhex("02000000" "80808080808080808001" "ffffffffffffffff7f")
        with pytest.raises(ParameterError, match=r"past 2\^53"):
            decode_quantized(data, 1.0)

    @pytest.mark.parametrize("fault", ["short", "trailing 0x80", "count"])
    def test_malformed_payload_in_a_block_rejected(self, fault):
        # block decoding joins the bodies, so a payload that does not end at
        # its d-th value must raise instead of shifting its neighbours
        V = np.array([[1.0, -200.0, 3.0], [8192.0, 5.0, -6.0], [7.0, 8.0, 9.0]])
        quantized = encode_quantized_block(V, 1.0)
        vectors = encode_vector_block(V)
        if fault == "short":
            quantized[1], vectors[1] = quantized[1][:-1], vectors[1][:-1]
        elif fault == "trailing 0x80":
            quantized[1], vectors[1] = quantized[1] + b"\x80", vectors[1] + b"\x80"
        else:
            quantized[1] = encode_quantized(V[1, :2], 1.0)
            vectors[1] = encode_vector(V[1, :2])
        with pytest.raises(ParameterError):
            decode_quantized_block(quantized, 3, 1.0)
        with pytest.raises(ParameterError):
            decode_vector_block(vectors, 3)

    def test_long_ids_rejected(self):
        longest = "x" * MAX_ID_BYTES
        assert decode_id_set(encode_id_set([longest])) == [longest]
        too_long = "\u00e9" * (MAX_ID_BYTES // 2 + 1)  # 2 UTF-8 bytes each
        with pytest.raises(ParameterError):
            encode_id_set([too_long])
        with pytest.raises(ParameterError):
            encode_reply_batch([too_long], np.zeros((1, 2)))

    def test_accept_bit(self):
        assert encode_accept(True) == b"\x01"
        assert encode_accept(False) == b"\x00"

    def test_id_set_roundtrip_and_size(self):
        ids = ["beta", "alpha", "gamma"]
        data = encode_id_set(ids)
        assert decode_id_set(data) == sorted(ids)
        assert len(data) == id_set_bytes(ids)

    def test_ids_out_of_order_refused(self):
        # one id set and one reply batch per meaning: a repeated id, and a
        # batch listed out of order, are refused on the way in and out
        with pytest.raises(ParameterError):
            encode_id_set(["b", "a", "b"])
        with pytest.raises(ParameterError):
            encode_reply_batch(["b", "a"], np.zeros((2, 1)))
        with pytest.raises(ParameterError):
            encode_reply_batch(["a", "a"], np.zeros((2, 1)))
        assert encode_id_set(["b", "a"]) == encode_id_set(["a", "b"])

    def test_reply_batch_roundtrip_and_size(self):
        rng = substream(2, "batch")
        ids = ["", "c1", "|", "\u00e9\U0001f600"]  # strictly increasing
        Y = rng.standard_normal((4, 3))
        Y[1] = [-0.0, 5e-324, -2.2250738585072014e-308]  # signed zero, subnormals
        data = encode_reply_batch(ids, Y)
        decoded_ids, decoded = decode_reply_batch(data, 3)
        assert decoded_ids == ids and decoded.tobytes() == Y.tobytes()
        assert len(data) == reply_batch_bytes(ids, 3)

    @given(st.data())
    def test_reply_batch_roundtrip_property(self, data):
        # any m x k block of doubles and m increasing ids come back bit for bit
        m, k = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 16))
        ids = sorted(data.draw(st.lists(
            st.text(st.sampled_from("c|\u00e9\u20ac\U0001f600"), max_size=3),
            min_size=m, max_size=m, unique=True)))
        values = data.draw(st.lists(st.floats(allow_nan=False, width=64),
                                    min_size=m * k, max_size=m * k))
        Y = np.array(values, dtype=np.float64).reshape(m, k)
        encoded = encode_reply_batch(ids, Y)
        decoded_ids, decoded = decode_reply_batch(encoded, k)
        assert decoded_ids == ids and decoded.tobytes() == Y.tobytes()
        assert decoded.shape == Y.shape
        assert len(encoded) == reply_batch_bytes(ids, k)

    @given(st.data())
    def test_id_payloads_are_canonical(self, data):
        # any byte string either raises ParameterError or re-encodes to
        # itself; drawn near the formats, so that unsorted and repeated ids,
        # cut payloads and trailing bytes all occur
        k = data.draw(st.integers(1, 2))
        ids = data.draw(st.lists(st.text(st.sampled_from("ab\u00e9"), max_size=2), max_size=4))
        raw_ids = [struct.pack("<H", len(c.encode())) + c.encode() for c in ids]
        rows = [struct.pack("<I", k) + data.draw(st.binary(min_size=8 * k, max_size=8 * k))
                for _ in ids]
        count = struct.pack("<I", len(ids))
        for decode, encode, payload in (
                (decode_id_set, encode_id_set, count + b"".join(raw_ids)),
                (partial(decode_reply_batch, k=k), lambda batch: encode_reply_batch(*batch),
                 count + b"".join(map(bytes.__add__, raw_ids, rows)))):
            payload = (payload[:data.draw(st.integers(0, len(payload)))]
                       if data.draw(st.booleans()) else payload)
            payload += data.draw(st.binary(max_size=2))
            for candidate in (payload, data.draw(st.binary(max_size=24))):
                try:
                    decoded = decode(candidate)
                except ParameterError:
                    continue
                assert encode(decoded) == candidate

    # one id "ab"; one reply of k = 1 to client "c"; a 1x1 matrix; 1.0 as <f8
    ONE = struct.pack("<d", 1.0)
    ID_SET = b"\x01\x00\x00\x00" b"\x02\x00ab"
    REPLY_BATCH = b"\x01\x00\x00\x00" b"\x01\x00c" b"\x01\x00\x00\x00" + ONE
    MATRIX = b"\x01\x00\x00\x00" b"\x01\x00\x00\x00" + ONE

    def test_round_1_to_3_payload_bytes_are_pinned(self):
        assert encode_id_set(["ab"]) == self.ID_SET
        assert decode_id_set(self.ID_SET) == ["ab"]
        assert encode_reply_batch(["c"], np.ones((1, 1))) == self.REPLY_BATCH
        ids, Y = decode_reply_batch(self.REPLY_BATCH, 1)
        assert (ids, Y.tolist()) == (["c"], [[1.0]])
        assert encode_matrix(np.ones((1, 1))) == self.MATRIX
        assert decode_matrix(self.MATRIX, 1, 1).tolist() == [[1.0]]
        assert decode_id_set(b"\x00\x00\x00\x00") == []
        ids, Y = decode_reply_batch(b"\x00\x00\x00\x00", 3)
        assert ids == [] and Y.shape == (0, 3)

    # the reply-batch and matrix decoders at the session's k = d = 1
    decode_batch = partial(decode_reply_batch, k=1)
    decode_1x1 = partial(decode_matrix, k=1, d=1)

    MALFORMED_PAYLOADS = {
        "id set empty": (decode_id_set, b""),
        "id set short count": (decode_id_set, b"\x01\x00"),
        "id set one id of two": (decode_id_set, b"\x02\x00\x00\x00\x02\x00ab"),
        "id set short id length": (decode_id_set, b"\x01\x00\x00\x00\x02"),
        "id set short id": (decode_id_set, b"\x01\x00\x00\x00\x03\x00ab"),
        "id set trailing byte": (decode_id_set, ID_SET + b"\x00"),
        "id set id not UTF-8": (decode_id_set, b"\x01\x00\x00\x00\x02\x00a\xff"),
        "id set unsorted": (decode_id_set, b"\x02\x00\x00\x00\x01\x00b\x01\x00a"),
        "id set repeated id": (decode_id_set, b"\x02\x00\x00\x00" + ID_SET[4:] * 2),
        "reply batch empty": (decode_batch, b""),
        "reply batch no reply": (decode_batch, REPLY_BATCH[:7]),
        "reply batch short k": (decode_batch, REPLY_BATCH[:9]),
        "reply batch short reply": (decode_batch, REPLY_BATCH[:-1]),
        "reply batch trailing byte": (decode_batch, REPLY_BATCH + b"\x00"),
        "reply batch short id": (decode_batch, b"\x01\x00\x00\x00\x02\x00c"),
        "reply batch id not UTF-8": (decode_batch,
                                     REPLY_BATCH[:6] + b"\xff" + REPLY_BATCH[7:]),
        "reply batch k differs by entry": (
            decode_batch,
            b"\x02\x00\x00\x00" + REPLY_BATCH[4:] + b"\x01\x00d\x02\x00\x00\x00" + ONE * 2),
        "reply batch entry of k + 1 values": (
            decode_batch, b"\x01\x00\x00\x00\x01\x00c\x02\x00\x00\x00" + ONE * 2),
        "reply batch unsorted": (
            decode_batch, b"\x02\x00\x00\x00\x01\x00d" + REPLY_BATCH[7:] + REPLY_BATCH[4:]),
        "reply batch repeated id": (
            decode_batch, b"\x02\x00\x00\x00" + REPLY_BATCH[4:] * 2),
        "matrix empty": (decode_1x1, b""),
        "matrix no column count": (decode_1x1, MATRIX[:4]),
        "matrix short body": (decode_1x1, MATRIX[:-1]),
        "matrix trailing byte": (decode_1x1, MATRIX + b"\x00"),
        "matrix header not the session's": (decode_1x1,
                                            b"\x01\x00\x00\x00\x02\x00\x00\x00" + ONE * 2),
    }

    @pytest.mark.parametrize("decode, data", MALFORMED_PAYLOADS.values(),
                             ids=MALFORMED_PAYLOADS.keys())
    def test_malformed_round_1_to_3_payload_rejected(self, decode, data):
        with pytest.raises(ParameterError):
            decode(data)


class TestScenarioConfig:
    def test_json_roundtrip(self):
        # a schema-1 file that sets every field
        data = json.loads("""{
            "schema_version": 1, "n": 4, "S": 3, "d": 8,
            "validity_threshold": 0.5, "sigma_out": 2.0,
            "clients": [
                {"behavior": "honest", "norm": 1.0, "count": 2},
                {"behavior": "inconsistent-shares", "norm": 1.0, "scale": 3.0},
                {"behavior": "partial-send", "norm": 0.5, "skip": [1, 2], "id": "ps"}
            ]
        }""")
        scenario = Scenario(
            n=4, S=3, d=8,
            clients=(
                ClientBehavior(),
                ClientBehavior(),
                ClientBehavior(kind="inconsistent-shares", scale=3.0),
                ClientBehavior(kind="partial-send", norm=0.5, skip=(1, 2), client_id="ps"),
            ),
            validity_threshold=0.5, sigma_out=2.0,
        )
        assert Scenario.from_dict(data) == scenario
        # schema-1 files written before the unread coalition, trials and
        # w_mode keys were dropped still load
        legacy = dict(data, coalition=[1], trials=5, w_mode="verifier0")
        assert Scenario.from_dict(legacy) == scenario

    def test_count_expansion(self):
        data = {
            "schema_version": 1, "n": 4, "S": 2, "d": 8,
            "clients": [{"behavior": "honest", "count": 4}],
        }
        scenario = Scenario.from_dict(data)
        assert scenario.n == len(scenario.clients) == 4

    def test_validation_errors(self):
        valid = {"schema_version": 1, "n": 2, "S": 2, "d": 4, "clients": [{"count": 2}]}
        Scenario.from_dict(valid)
        for overrides in (
            {"schema_version": 99},
            # non-integral sizes, counts and skip entries are refused, not truncated
            {"n": 2.9},
            {"S": 2.5},
            {"d": 4.5},
            {"n": 1, "clients": [{"count": 1.9}]},
            {"clients": [{"behavior": "partial-send", "skip": [1.7]}, {}]},
            # JSON true is not the number 1
            {"schema_version": True},
            {"n": True},
            {"clients": [{"norm": True}, {}]},
            {"clients": [{"scale": False}, {}]},
            {"validity_threshold": True},
            {"sigma_out": True},
        ):
            with pytest.raises(ScenarioError):
                Scenario.from_dict(dict(valid, **overrides))
        # every constructor validates, not only from_dict
        with pytest.raises(ScenarioError):
            honest_scenario(2, 2, 8, validity_threshold=1.5)
        with pytest.raises(ScenarioError):
            Scenario(n=1, S=2, d=4, clients=(
                ClientBehavior(client_id="x" * (MAX_ID_BYTES + 1)),))
        with pytest.raises(ScenarioError):
            with_adversary(honest_scenario(1, 2, 4), ClientBehavior(kind="bogus"))

    def test_integral_float_sizes_run_as_ints(self):
        # the constructor converts as from_dict does: a session reads them as ints
        scenario = Scenario(n=2.0, S=2.0, d=8.0, clients=(ClientBehavior(),) * 2)
        assert (scenario.n, scenario.S, scenario.d) == (2, 2, 8)
        assert type(scenario.n) is type(scenario.S) is type(scenario.d) is int
        params = calibrate(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05,
                           S=2, k=16, d=8).params
        result, transcript = run_scenario(scenario, params, 3)
        assert len(result.accepted) == 2
        assert transcript.sha256() == run_scenario(
            Scenario(n=2, S=2, d=8, clients=(ClientBehavior(),) * 2), params, 3)[1].sha256()

    @pytest.mark.parametrize("field", ["n", "S", "d", "count"])
    def test_string_sizes_in_a_file_refused(self, field):
        data = {"n": 2, "S": 2, "d": 4, "clients": [{"count": 2}]}
        if field == "count":
            data["clients"] = [{"count": "2"}]
        else:
            data[field] = str(data[field])
        with pytest.raises(ScenarioError, match=f"^{field} must be an integer"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("skip", [(True,), (np.True_,), (1.5,), ("1",), (-1,)])
    def test_client_skip_entries_checked_on_construction(self, skip):
        # JSON true was refused in a file; the constructor refuses it too
        with pytest.raises(ScenarioError, match="^skip must be an integer"):
            ClientBehavior(kind="partial-send", skip=skip)

    @pytest.mark.parametrize("data, key", [
        ({"n": 1, "S": 2, "d": 4, "validity_treshold": 0.5, "clients": [{}]},
         "validity_treshold"),
        ({"n": 1, "S": 2, "d": 4, "clients": [{"behaviour": "norm-inflating"}]}, "behaviour"),
    ])
    def test_unknown_keys_refused_by_name(self, data, key):
        with pytest.raises(ScenarioError, match=f"unknown .* key '{key}'"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("field, value", [("norm", math.nan), ("norm", -math.inf),
                                              ("scale", -1.0), ("scale", math.nan),
                                              ("scale", math.inf)])
    def test_client_norm_and_scale_checked(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            Scenario(n=1, S=2, d=4, clients=(ClientBehavior(**{field: value}),))

    def test_client_ids_stable_and_distinct(self):
        scenario = honest_scenario(20, 2, 4)
        ids_a = scenario_client_ids(scenario, 123)
        ids_b = scenario_client_ids(scenario, 123)
        assert ids_a == ids_b
        assert len(set(ids_a)) == 20
        assert all(len(cid) == 16 for cid in ids_a)
        assert scenario_client_ids(scenario, 124) != ids_a


    # the master seed enters modulo 2**128
    @pytest.mark.parametrize("seed, pinned", [
        (0, ["6aaf7a25291c284b", "a631eda7d59f1093", "23f6c68d31c82a4b"]),
        (2 ** 70, ["53dabd3632a42003", "f815365ed96e4ae0", "5e4b41727ad8de8e"]),
    ])
    def test_derived_ids_are_pinned(self, seed, pinned):
        scenario = honest_scenario(3, 2, 4)
        assert scenario_client_ids(scenario, seed) == pinned
        assert scenario_client_ids(scenario, seed + 2 ** 128) == pinned
        assert pinned == [path_digest(seed, "nonce", i, 0)[:8].hex() for i in range(3)]

    def test_colliding_id_takes_the_next_attempt(self):
        # client 0 holds, as its explicit id, the id index 2 derives at attempt 0
        def derived(index, attempt):
            return path_digest(5, "nonce", index, attempt)[:8].hex()

        clients = (ClientBehavior(client_id=derived(2, 0)),) + (ClientBehavior(),) * 3
        ids = scenario_client_ids(Scenario(n=4, S=2, d=4, clients=clients), 5)
        assert ids == [derived(2, 0), derived(1, 0), derived(2, 1), derived(3, 0)]


class TestDeterminism:
    def test_byte_identical_transcripts(self):
        params = small_params()
        scenario = honest_scenario(5, params.S, params.d)
        r1, t1 = run_scenario(scenario, params, 99)
        r2, t2 = run_scenario(scenario, params, 99)
        assert t1.to_jsonl(include_payload=True) == t2.to_jsonl(include_payload=True)
        assert t1.sha256() == t2.sha256()
        assert np.array_equal(r1.sum, r2.sum)

    def test_golden_transcript_hash(self):
        # pins every stream and codec a session touches; a deliberate change
        # updates this hash and says so in CHANGES.md
        params = small_params()
        _, transcript = run_scenario(honest_scenario(5, params.S, params.d),
                                     params, 99)
        assert transcript.sha256() == GOLDEN_SHA256

    def test_golden_quantized_transcript_hash(self):
        result, transcript = quantized_golden_run()
        shares = [m.payload for m in transcript.messages if m.kind == KIND_SHARE]
        assert len(shares) == 6 * 3 - 1
        widths = set()
        for payload in shares:
            last = np.flatnonzero(np.frombuffer(payload, np.uint8, offset=4) < 0x80)
            widths.update(np.diff(last, prepend=-1).tolist())
        assert widths == {1, 2, 3}
        assert len(result.accepted) == 4 and not result.aborted
        assert transcript.sha256() == GOLDEN_QUANTIZED_SHA256
        assert hashlib.sha256(result.sum.tobytes()).hexdigest() == GOLDEN_QUANTIZED_SUM_SHA256

    @pytest.mark.parametrize("quantized", [False, True])
    def test_chunking_leaves_the_session_unchanged(self, monkeypatch, quantized):
        # round 0 runs a bounded block of clients at a time; one client per
        # block and the whole session in one block must give the same run
        if quantized:
            def run():
                return quantized_golden_run()
        else:
            params = small_params(S=3)
            scenario = honest_scenario(9, params.S, params.d)
            for behavior in (ClientBehavior(kind="partial-send", skip=(2,)),
                             ClientBehavior(kind="inconsistent-shares"),
                             ClientBehavior(kind="norm-inflating", norm=50.0)):
                scenario = with_adversary(scenario, behavior)

            def run():
                return run_scenario(scenario, params, 5)
        runs = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(aggregation, "_CHUNK_BYTES", budget)
            runs.append(run())
        (r1, t1), (r2, t2) = runs
        assert t1.sha256() == t2.sha256()
        assert r1.accepted == r2.accepted
        assert np.array_equal(r1.sum, r2.sum)
        if quantized:
            assert t1.sha256() == GOLDEN_QUANTIZED_SHA256

    def test_substream_draws_are_pinned(self):
        assert substream(0, "pin").integers(0, 2 ** 32, size=4).tolist() == [
            1145484931, 947896885, 1072200758, 2354250787]

    def test_substream_labels_keep_types_apart(self):
        for seed in (0, 7, 2 ** 70):
            a = substream(seed, 1).integers(0, 2 ** 62, size=4)
            b = substream(seed, "1").integers(0, 2 ** 62, size=4)
            assert not np.array_equal(a, b)
        # the master seed enters modulo 2^128
        assert np.array_equal(substream(2 ** 128 + 3, "x").standard_normal(4),
                              substream(3, "x").standard_normal(4))

    def test_different_seed_different_transcript(self):
        params = small_params()
        scenario = honest_scenario(5, params.S, params.d)
        _, t1 = run_scenario(scenario, params, 99)
        _, t2 = run_scenario(scenario, params, 100)
        assert t1.sha256() != t2.sha256()

    def test_adversary_isolation(self):
        # changing one client's behavior leaves every other client's
        # share messages bitwise unchanged
        params = small_params()
        base = honest_scenario(6, params.S, params.d)
        attacked = with_adversary(base, ClientBehavior(kind="norm-inflating",
                                                       norm=50.0))
        _, t_base = run_scenario(base, params, 77)
        _, t_attacked = run_scenario(attacked, params, 77)
        base_ids = set(scenario_client_ids(base, 77))

        def shares_by_sender(tr):
            return {
                (m.sender, m.receiver): m.payload
                for m in tr.messages
                if m.kind == KIND_SHARE and m.sender.split(":", 1)[1] in base_ids
            }

        assert shares_by_sender(t_base) == shares_by_sender(t_attacked)


    def test_verification_noise_isolation(self):
        # a norm-inflating client joining leaves every other client's reply
        # rows and v_norm bitwise unchanged
        params = small_params(S=3)
        base = honest_scenario(6, params.S, params.d)
        attacked = with_adversary(base, ClientBehavior(kind="norm-inflating", norm=50.0))
        base_ids = scenario_client_ids(base, 77)
        r_base, t_base = run_scenario(base, params, 77)
        r_attacked, t_attacked = run_scenario(attacked, params, 77)
        assert (reply_rows(t_attacked, base_ids, params.k)
                == reply_rows(t_base, base_ids, params.k))
        assert set(reply_rows(t_attacked, base_ids, params.k)) == {
            (i, cid) for i in (1, 2) for cid in base_ids}
        for cid in base_ids:
            assert (r_attacked.per_client_outcomes[cid].v_norm
                    == r_base.per_client_outcomes[cid].v_norm)

    @pytest.mark.parametrize("skip", [(0,), (2,), (0, 1)])
    def test_partial_sender_reply_rows_match_a_full_send(self, skip):
        # a client's reply row at a verifier it reached does not depend on
        # where else its shares arrived
        params = small_params(S=3)
        full = honest_scenario(4, params.S, params.d)
        partial = with_adversary(full, ClientBehavior(kind="partial-send", skip=skip))
        full = with_adversary(full, ClientBehavior())
        ids = scenario_client_ids(full, 8)
        assert scenario_client_ids(partial, 8) == ids
        rows_full = reply_rows(run_scenario(full, params, 8)[1], ids, params.k)
        rows_partial = reply_rows(run_scenario(partial, params, 8)[1], ids, params.k)
        reached = [i for i in (1, 2) if i not in skip]
        assert {i for i, cid in rows_partial if cid == ids[-1]} == set(reached)
        assert rows_partial == {key: row for key, row in rows_full.items()
                                if key[1] != ids[-1] or key[0] in reached}


class TestViewOf:
    def test_restriction_semantics(self):
        params = small_params(S=3)
        scenario = honest_scenario(2, params.S, params.d)
        _, tr = run_scenario(scenario, params, 5)
        v1 = verifier_party(1)
        view = view_of(tr, {v1})
        # exactly what verifier 1 received, in delivery order
        assert view == [m for m in tr.messages if m.receiver == v1]
        # share + matrix + accepted-set per protocol phase for verifier 1
        kinds = {m.kind for m in view}
        assert kinds == {"share", "matrix", "accepted-set"}

    def test_view_holds_nothing_of_other_parties_messages(self):
        # client 0 skips verifier 0 in one session and is rejected by it in
        # the other; verifier 1 receives the same bytes in both, so its views
        # must be equal: no global index may tell the two cases apart
        params = small_params()
        rest = (ClientBehavior(),) * 4
        runs = [run_scenario(Scenario(n=5, S=2, d=params.d, clients=(first,) + rest),
                             params, 7)
                for first in (ClientBehavior(kind="partial-send", skip=(0,)),
                              ClientBehavior(kind="norm-inflating", norm=1e4))]
        (skipped, t_skipped), (rejected, t_rejected) = runs
        assert skipped.accepted == rejected.accepted
        assert len(t_skipped.messages) != len(t_rejected.messages)
        v1 = verifier_party(1)
        assert view_of(t_skipped, {v1}) == view_of(t_rejected, {v1})

    def test_all_parties_gives_everything(self):
        params = small_params()
        scenario = honest_scenario(2, params.S, params.d)
        _, tr = run_scenario(scenario, params, 5)
        assert len(view_of(tr, tr.parties())) == len(tr.messages)

    def test_empty_view(self):
        params = small_params()
        scenario = honest_scenario(2, params.S, params.d)
        _, tr = run_scenario(scenario, params, 5)
        assert view_of(tr, set()) == []

    def test_unknown_party(self):
        params = small_params()
        scenario = honest_scenario(2, params.S, params.d)
        _, tr = run_scenario(scenario, params, 5)
        with pytest.raises(UnknownParty):
            view_of(tr, {"verifier:9"})


class TestTrafficAccounting:
    # n = 0 sends no share, and neither side lists a kind of zero bytes
    @pytest.mark.parametrize("n,S,d,k", [(10, 2, 64, 16), (5, 3, 32, 16),
                                         (20, 2, 128, 32), (0, 2, 8, 16)])
    def test_measured_equals_predicted(self, n, S, d, k):
        params = small_params(S=S, d=d, k=k)
        scenario = honest_scenario(n, S, d)
        result, tr = run_scenario(scenario, params, 11)
        assert len(result.accepted) == n  # honest runs accept everyone here
        predicted = predicted_traffic(scenario, params, 11)
        measured = measured_traffic(tr)
        assert measured.client_to_server == predicted.client_to_server
        assert measured.server_to_server == predicted.server_to_server
        assert measured.by_kind == predicted.by_kind

    def test_client_bytes_scale_in_d_and_s(self):
        # client->server volume is exactly n*S*(8d + 4)
        for n, S, d in [(4, 2, 16), (4, 3, 16), (4, 2, 32)]:
            params = small_params(S=S, d=d)
            scenario = honest_scenario(n, S, d)
            predicted = predicted_traffic(scenario, params, 1)
            assert predicted.client_to_server == n * S * (8 * d + 4)

    def test_server_bytes_scale_in_dk_nk_ds(self):
        # inter-server volume: (S-1) * (8kd + 8) for the matrix,
        # per-verifier reply batches linear in n*k, sums linear in d
        n, S, d, k = 6, 3, 16, 16
        params = small_params(S=S, d=d, k=k)
        scenario = honest_scenario(n, S, d)
        ids = scenario_client_ids(scenario, 1)
        predicted = predicted_traffic(scenario, params, 1)
        expected = (
            (S - 1) * matrix_bytes(k, d)
            + (S - 1) * reply_batch_bytes(ids, k)
            + (S - 1) * id_set_bytes(ids)
            + (S - 1) * vector_bytes(d)
        )
        assert predicted.server_to_server == expected

    def test_partial_send_reduces_share_traffic(self):
        params = small_params(S=3)
        base = honest_scenario(3, params.S, params.d)
        skipping = with_adversary(base, ClientBehavior(kind="partial-send",
                                                       skip=(2,)))
        _, tr = run_scenario(skipping, params, 13)
        measured = measured_traffic(tr)
        predicted = predicted_traffic(skipping, params, 13)
        assert measured.client_to_server == predicted.client_to_server
        assert measured.by_kind[KIND_SHARE] == (3 * 3 + 2) * vector_bytes(params.d)

    def test_quantized_payloads_rejected(self):
        params = small_params()
        params = params.__class__(**{**params.to_dict(), "trunc_b": 127.0})
        scenario = honest_scenario(2, params.S, params.d)
        with pytest.raises(ScenarioError):
            predicted_traffic(scenario, params, 1)


class TestTranscriptExport:
    def test_jsonl_schema(self):
        params = small_params()
        scenario = honest_scenario(2, params.S, params.d)
        _, tr = run_scenario(scenario, params, 19)
        lines = tr.to_jsonl().strip().split("\n")
        assert len(lines) == len(tr.messages)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"sender", "receiver", "round", "kind",
                                   "byte_size", "payload_sha256"}
        with_payload = tr.to_jsonl(include_payload=True).strip().split("\n")
        record = json.loads(with_payload[0])
        assert bytes.fromhex(record["payload_hex"]) == tr.messages[0].payload

    def test_quantized_share_messages_use_varints(self):
        report = calibrate(eps=1, delta=1e-2, eps_ss=1, delta_ss=1e-2,
                           beta=0.05, S=2, k=16, d=8, trunc_b=127.0,
                           quant_step=1.0)
        params = report.params
        scenario = honest_scenario(2, params.S, params.d)
        result, tr = run_scenario(scenario, params, 23)
        share_sizes = [m.byte_size for m in tr.messages if m.kind == KIND_SHARE]
        # varint payloads are value-dependent and smaller than 8 bytes/coord
        assert all(size < vector_bytes(params.d) for size in share_sizes)
        assert not result.aborted
