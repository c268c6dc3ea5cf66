import hashlib
import struct
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flnp.params import ParameterSet
from flnp.protocol.messages import (
    ErrorMsg,
    GlobalModel,
    Hello,
    LocalUpdate,
    Provisioned,
    RoundComplete,
    RoundPlan,
    Shutdown,
)
from flnp.rng import Rng
from flnp.transport import (
    FRAME_MAGIC,
    FRAME_VERSION,
    MAX_PAYLOAD,
    DecodeError,
    decode_message,
    encode_buffers,
    encode_message,
    sign,
    verify_auth,
)
from flnp.transport.codec import (
    BODY_LAYOUT,
    MSG_CODES,
    parameter_set_from_bytes,
    parameter_set_to_bytes,
)
from flnp.transport.frame import build_frame

# every byte hand-verified: magic "FLNP", version 1 (LE u16), type 6,
# payload length 6 (LE u32), payload = empty reason string (u16 0) plus
# zero auth tag (u32), CRC-32 of those six zero bytes
GOLDEN_EMPTY_SHUTDOWN = "464c4e5001000606000000000000000000a3a1c2b1"


def _random_params(rng: Rng, n_tensors=3) -> ParameterSet:
    items = []
    for i in range(n_tensors):
        shape = tuple(1 + rng.integers(4) for _ in range(1 + rng.integers(3)))
        items.append((f"t{i}.w", np.float32(rng.normal(0, 1, shape)).astype(np.float64)))
    return ParameterSet(items)


def _random_message(rng: Rng):
    pick = rng.integers(7)
    metrics = {f"m{j}": float(rng.normal()) for j in range(rng.integers(3))}
    if pick == 0:
        return Hello(client_name=f"client-{rng.integers(100)}", auth_token="tok")
    if pick == 1:
        return Provisioned(
            client_id=rng.integers(8),
            session_key=bytes(int(b) for b in rng.integers(256, size=8)),
            round_plan=RoundPlan(rounds=rng.integers(20), local_epochs=rng.integers(4), lr=0.01),
        )
    if pick == 2:
        return GlobalModel(round=rng.integers(10), params=_random_params(rng),
                           local_epochs=1, lr=float(rng.random()))
    if pick == 3:
        return LocalUpdate(client_id=rng.integers(8), round=rng.integers(10),
                           params=_random_params(rng), n_samples=rng.integers(10_000),
                           local_metrics=metrics)
    if pick == 4:
        return RoundComplete(round=rng.integers(10), global_metrics=metrics)
    if pick == 5:
        return Shutdown(reason="done" if rng.random() < 0.5 else "")
    return ErrorMsg(code="auth_failed", detail="nope")


class TestLayout:
    def test_layout_names_every_body_field_once(self):
        # a field missing here would never cross the wire and decode as its default
        assert set(BODY_LAYOUT) == {*MSG_CODES, RoundPlan}
        for cls, layout in BODY_LAYOUT.items():
            names = [f.name for f in fields(cls) if f.name != "auth_tag"]
            assert sorted(name for name, _ in layout) == sorted(names), cls.__name__

    def test_str_and_blob_longer_than_their_u16_length_are_refused(self):
        plan = RoundPlan(rounds=1, local_epochs=1, lr=0.1)
        for msg in (Hello(client_name="x" * 0x10000, auth_token="t"),
                    Provisioned(client_id=1, session_key=bytes(0x10000), round_plan=plan)):
            with pytest.raises(ValueError, match="exceeds the u16 length field"):
                encode_message(msg)
        assert decode_message(encode_message(Hello(client_name="x" * 0xFFFF, auth_token="")))


class TestGolden:
    def test_empty_shutdown_bytes(self):
        assert encode_message(Shutdown(reason="")).hex() == GOLDEN_EMPTY_SHUTDOWN

    def test_golden_decodes(self):
        msg = decode_message(bytes.fromhex(GOLDEN_EMPTY_SHUTDOWN))
        assert msg == Shutdown(reason="")


class TestRoundTrip:
    def test_thousand_random_messages(self):
        rng = Rng(1234)
        for _ in range(1000):
            msg = _random_message(rng)
            assert decode_message(encode_message(msg)) == msg

    def test_encoding_is_canonical(self):
        rng = Rng(55)
        msg = _random_message(rng)
        assert encode_message(msg) == encode_message(msg)

    def test_metric_key_order_does_not_change_bytes(self):
        a = RoundComplete(round=1, global_metrics={"a": 1.0, "b": 2.0})
        b = RoundComplete(round=1, global_metrics={"b": 2.0, "a": 1.0})
        assert encode_message(a) == encode_message(b)

    def test_parameter_values_survive_at_float32(self):
        values = Rng(7).normal(0, 1, (4, 4))
        exact = ParameterSet([("w", values)])
        decoded = parameter_set_from_bytes(parameter_set_to_bytes(exact))
        assert decoded == exact
        assert np.array_equal(decoded["w"], values.astype(np.float32))


class TestDecodeErrors:
    def test_empty_input_truncated(self):
        with pytest.raises(DecodeError) as err:
            decode_message(b"")
        assert err.value.code == "truncated"

    def test_wrong_magic(self):
        data = bytearray(encode_message(Shutdown()))
        data[0] = 0x58
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(data))
        assert err.value.code == "bad_magic"

    def test_unsupported_version(self):
        data = bytearray(encode_message(Shutdown()))
        data[4] = 2
        with pytest.raises(DecodeError) as err:
            decode_message(bytes(data))
        assert err.value.code == "unsupported_version"

    def test_unknown_type(self):
        from flnp.transport.frame import build_frame

        with pytest.raises(DecodeError) as err:
            decode_message(build_frame(200, bytes(6)))
        assert err.value.code == "unknown_type"

    def test_every_payload_corruption_fails_checksum(self):
        frame = bytearray(encode_message(Hello(client_name="abc", auth_token="t")))
        payload_start, payload_end = 11, len(frame) - 4
        for i in range(payload_start, payload_end):
            mutated = bytearray(frame)
            mutated[i] ^= 0xFF
            with pytest.raises(DecodeError) as err:
                decode_message(bytes(mutated))
            assert err.value.code == "checksum_mismatch"

    def test_truncated_frame(self):
        frame = encode_message(Hello(client_name="abc", auth_token="t"))
        with pytest.raises(DecodeError) as err:
            decode_message(frame[:-3])
        assert err.value.code == "truncated"

    def test_trailing_garbage(self):
        frame = encode_message(Shutdown())
        with pytest.raises(DecodeError) as err:
            decode_message(frame + b"x")
        assert err.value.code == "trailing_data"

    def test_oversized_frame_rejected(self):
        # the header alone is refused: nothing is read or allocated past it
        header = struct.pack("<4sHBI", FRAME_MAGIC, FRAME_VERSION, MSG_CODES[Shutdown], MAX_PAYLOAD + 1)
        with pytest.raises(DecodeError) as err:
            decode_message(header)
        assert err.value.code == "frame_too_large"

    def test_fuzz_random_and_mutated_inputs(self):
        # decode is total: message or DecodeError, never another exception
        rng = Rng(999)
        base = encode_message(_random_message(rng))
        for i in range(2000):
            if i % 2 == 0:
                size = int(rng.integers(60))
                blob = bytes(int(b) for b in rng.integers(256, size=size))
            else:
                blob = bytearray(base)
                for _ in range(1 + rng.integers(4)):
                    blob[rng.integers(len(blob))] = int(rng.integers(256))
                blob = bytes(blob)
            try:
                decode_message(blob)
            except DecodeError:
                pass


class TestAuth:
    def test_sign_and_verify(self):
        key = b"\x01\x02\x03\x04\x05\x06\x07\x08"
        msg = Shutdown(reason="bye")
        signed = sign(msg, key)
        assert signed.auth_tag != 0
        assert verify_auth(signed, key)
        assert not verify_auth(signed, b"\x00" * 8)
        assert not verify_auth(msg, key)

    def test_tag_survives_the_wire(self):
        key = b"k" * 8
        signed = sign(ErrorMsg(code="x", detail="y"), key)
        decoded = decode_message(encode_message(signed))
        assert verify_auth(decoded, key)


WIRE_KEY = b"\x11\x22\x33\x44\x55\x66\x77\x88"

# SHA-256 of encode_message(sign(m, WIRE_KEY)) for each of _wire_messages(),
# recorded from an earlier version of the codec: the bytes on the wire are
# part of the contract and must not drift.
WIRE_SHA256 = [
    "3c06b8bacec678c84daf213fb71b3e3ed45ba783ca0340a605782488a6988c9f",
    "68320937bcdc5e8eab9ea8382bcd2ea6ed81af63d032ec9e6cd07213357bc64b",
    "c0fbea0fabb3b0900d64288b4fb0ba06583e6ba9a24d066613663ef8a2c962a4",
    "2f7f20da20d9471cdb3b428dfc27d7014463350729ed12471879ba79e0454223",
    "e5558fccd50facea10eb116738588592bc4c7b9f5bb98409cd5d88c86db93cfe",
    "08aa5a133dcac2bce16d5cf392f92fd606596d10d426f223115f9079e805b164",
    "7408840825955bbc688264077fb2461ad6ebeacf532af29c3b1046a40d83edea",
    "d003dfbad3adee3b3e41f1f0037dcecef6361767fc8a86ffb502f1c3a5e1982d",
    "37a87a94c357539645d8364f75aacbeab7227239549067cde28c32dfe950389f",
]


def _wire_messages():
    rng = Rng(2024)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, 3.4e38, 1.0 / 3.0])
    raw = ParameterSet([
        ("embed.w", rng.normal(0, 1, (5, 3))),
        ("layer.0.b", rng.normal(0, 1, (3,))),
        ("layer.0.g", specials),
        ("head.w", rng.normal(0, 1, (3, 2, 2))),
        ("scalar", np.array(2.5)),
    ])
    metrics = {"val_loss": 0.25, "train_loss": float(rng.normal()), "a": -0.0}
    return [
        Hello(client_name="site-\u00fc", auth_token="tok"),
        Provisioned(client_id=3, session_key=WIRE_KEY, round_plan=RoundPlan(4, 2, 0.01)),
        GlobalModel(round=1, params=raw, local_epochs=1, lr=0.01),
        GlobalModel(round=2, params=raw, local_epochs=2, lr=1e-3),
        LocalUpdate(client_id=1, round=1, params=raw, n_samples=17, local_metrics=metrics),
        LocalUpdate(client_id=2, round=2, params=raw, n_samples=0),
        RoundComplete(round=2, global_metrics=metrics),
        Shutdown(reason="complete"),
        ErrorMsg(code="auth_failed", detail="bad tag"),
    ]


def _fresh_bytes(ps: ParameterSet) -> bytes:
    """Encoding of a new set built from the same arrays."""
    return parameter_set_to_bytes(ParameterSet(ps.items()))


class TestWireIdentity:
    def test_signed_frames_match_recorded_hashes(self):
        frames = [encode_message(sign(m, WIRE_KEY)) for m in _wire_messages()]
        assert [hashlib.sha256(f).hexdigest() for f in frames] == WIRE_SHA256

    def test_frame_buffers_join_to_the_encoded_frame(self):
        messages = [sign(m, WIRE_KEY) for m in _wire_messages()] + _wire_messages()
        assert {type(m) for m in messages} == set(MSG_CODES)
        for msg in messages:
            assert b"".join(encode_buffers(msg)) == encode_message(msg)

    def test_decoded_messages_reencode_and_verify(self):
        for msg in _wire_messages():
            frame = encode_message(sign(msg, WIRE_KEY))
            decoded = decode_message(frame)
            assert verify_auth(decoded, WIRE_KEY)
            assert encode_message(decoded) == frame

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])),
                    max_size=12))
    def test_cached_wire_bytes_equal_a_fresh_encoding(self, values):
        ps = ParameterSet([("a", np.array(values, dtype=np.float64)),
                           ("b", np.array(values[::-1], dtype=np.float64).reshape(-1, 1))])
        blob = parameter_set_to_bytes(ps)
        assert parameter_set_to_bytes(ps) == _fresh_bytes(ps) == blob
        decoded = parameter_set_from_bytes(blob)
        assert parameter_set_to_bytes(decoded) == _fresh_bytes(decoded) == blob

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2**32 - 1),
                              st.integers(0x7F800000, 0x7FFFFFFF),  # +inf and NaNs
                              st.integers(0xFF800000, 0xFFFFFFFF)),  # -inf and NaNs
                    max_size=12))
    def test_any_float32_payload_reencodes_like_a_fresh_set(self, bits):
        n = len(bits)
        head = parameter_set_to_bytes(ParameterSet([("w", np.zeros(n))]))[: -4 * n or None]
        decoded = parameter_set_from_bytes(head + np.array(bits, dtype="<u4").tobytes())
        assert parameter_set_to_bytes(decoded) == _fresh_bytes(decoded)

    def test_quantize32_of_an_unquantized_set_never_reuses_a_stale_view(self):
        a = ParameterSet([("w", np.array([0.1, 0.2]))])
        parameter_set_to_bytes(a)
        qa = a.quantize32()
        b = ParameterSet((name, arr + 1.0) for name, arr in qa.items())
        qb = b.quantize32()
        assert qb == ParameterSet([("w", np.float32([1.1, 1.2]).astype(np.float64))])
        assert parameter_set_to_bytes(qb) == _fresh_bytes(qb) == parameter_set_to_bytes(b)
        assert parameter_set_to_bytes(qb) != parameter_set_to_bytes(qa)

    def test_transposed_arrays_encode_in_row_major_order(self):
        values = np.arange(6.0).reshape(2, 3).T
        ps = ParameterSet([("t", values)])
        expected = values.astype("<f4").tobytes()
        assert parameter_set_to_bytes(ps).endswith(expected)


class TestAuthOverParams:
    def _signed_frame_with_values(self, bits: list[int]) -> bytes:
        """GlobalModel frame whose float32 values are `bits`, tagged over those bytes."""
        msg = GlobalModel(round=1, params=ParameterSet([("w", np.zeros(len(bits)))]),
                          local_epochs=1, lr=0.1)
        body = bytearray(encode_message(msg)[11:-8])
        body[-4 * len(bits):] = np.array(bits, dtype="<u4").tobytes()
        tag = zlib.crc32(WIRE_KEY + bytes(body)) or 1
        return build_frame(3, bytes(body) + struct.pack("<I", tag))

    def test_quiet_nan_payload_verifies(self):
        # a signalling NaN (0x7F800001) survives decoding bit for bit too
        for nan_bits in (0x7FC00001, 0x7F800001):
            frame = self._signed_frame_with_values([0x3F800000, nan_bits])
            decoded = decode_message(frame)
            assert verify_auth(decoded, WIRE_KEY)
            assert encode_message(decoded) == frame

    def test_swapped_params_fail_verification(self):
        rng = Rng(31)
        params = ParameterSet([("w", rng.normal(0, 1, (3, 2)))])
        other = ParameterSet([("w", rng.normal(0, 1, (3, 2)))])
        signed = sign(GlobalModel(round=1, params=params, local_epochs=1, lr=0.1), WIRE_KEY)
        decoded = decode_message(encode_message(signed))
        for msg in (signed, decoded):
            assert verify_auth(msg, WIRE_KEY)
            assert not verify_auth(replace(msg, params=other), WIRE_KEY)
