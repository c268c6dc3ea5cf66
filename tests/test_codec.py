import hashlib
import io
import mmap
import socket
import struct
import sys
import threading
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
    parameter_set_to_bytes,
    read_parameter_set,
)
from flnp.transport.frame import HEADER_SIZE, crc32_combine, crc32_shift, fill, frame_buffers
from flnp.transport.tcp import recv_message
from test_params import _owner

# every byte hand-verified: magic "FLNP", version 1 (LE u16), type 6,
# payload length 6 (LE u32), payload = empty reason string (u16 0) plus
# zero auth tag (u32), CRC-32 of those six zero bytes
GOLDEN_EMPTY_SHUTDOWN = "464c4e5001000606000000000000000000a3a1c2b1"


def build_frame(msg_type: int, payload=b"") -> bytes:
    """The frame of `payload` as one bytes object."""
    return b"".join(frame_buffers(msg_type, [payload], zlib.crc32(payload)))


def parameter_set_from_bytes(blob) -> ParameterSet:
    return read_parameter_set(io.BytesIO(blob).readinto, len(blob))


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

    def test_fuzz_with_the_crc_fixed_reaches_the_body_decoder(self):
        # anyone on the path can fix an unkeyed CRC: decode stays total past
        # the check, and a decoded set's cached digest is its encoding's CRC
        rng = Rng(4242)
        outcomes = {}
        for i in range(3000):
            blob = bytearray(encode_message(sign(_random_message(rng), WIRE_KEY)))
            payload = blob[HEADER_SIZE:-4]
            if i % 3 == 0 and payload:  # a byte dropped or added, the length kept honest
                at = int(rng.integers(len(payload)))
                payload[at:at + 1] = b"" if rng.random() < 0.5 else bytes([payload[at], int(rng.integers(256))])
            for _ in range(1 + rng.integers(4)):
                if payload:
                    payload[rng.integers(len(payload))] = int(rng.integers(256))
            frame = build_frame(blob[6], bytes(payload))
            assert frame[:6] == blob[:6]
            try:
                msg = decode_message(frame)
            except DecodeError as exc:
                outcomes[exc.code] = outcomes.get(exc.code, 0) + 1
                continue
            outcomes["decoded"] = outcomes.get("decoded", 0) + 1
            if isinstance(msg, (GlobalModel, LocalUpdate)):
                encoded = parameter_set_to_bytes(msg.params)
                assert msg.params.wire_digest == (zlib.crc32(encoded), len(encoded))
        assert set(outcomes) <= {"bad_payload", "unknown_type", "decoded"}, outcomes
        assert outcomes["bad_payload"] > 100 and outcomes["decoded"] > 100, outcomes


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


def _reference_tag(key: bytes, msg) -> int:
    """The auth tag by its definition: one CRC-32 pass over the key, then the body."""
    body = encode_message(msg)[HEADER_SIZE:-8]
    return zlib.crc32(body, zlib.crc32(key)) or 1


class TestDerivedChecksums:
    """Tags and trailers combined from a set's one checksum equal full passes."""

    def test_combine_equals_the_crc_of_the_concatenation(self):
        rng = Rng(77)
        data = np.array(rng.integers(256, size=4096), dtype=np.uint8).tobytes()
        big = data * 4097  # above 2**24 bytes
        cases = [(data, b""), (b"", data), (b"", b""), (data[:5], big), (big, data[:7])]
        for _ in range(300):
            cut = int(rng.integers(len(data) + 1))
            cases.append((data[:cut], data[cut:]))
        for a, b in cases:
            whole = zlib.crc32(b, zlib.crc32(a))
            assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == whole
            assert whole ^ crc32_shift(zlib.crc32(a), len(b)) == zlib.crc32(b)

    def test_a_set_is_the_last_field_of_every_body_that_carries_one(self):
        carriers = [t for t, layout in BODY_LAYOUT.items() if any(k == "params" for _, k in layout)]
        assert carriers == [GlobalModel, LocalUpdate]
        for msg_type in carriers:
            assert [k for _, k in BODY_LAYOUT[msg_type]].index("params") == len(BODY_LAYOUT[msg_type]) - 1

    def test_tags_and_trailers_equal_full_passes_for_fresh_decoded_and_exported_sets(self):
        from flnp.models.base import build_model, init_params
        from flnp.models.config import preset

        config = preset("bert_mini", 40, 16)
        fresh = init_params(config, 3, "mlm")
        assert fresh.wire_digest is None
        decoded = decode_message(encode_message(GlobalModel(1, fresh, 1, 0.1))).params
        assert decoded.wire_digest is not None  # from the frame check, before any sign
        exported = build_model(config, "mlm", decoded).export_params()
        assert exported is decoded
        for ps in (fresh, decoded, exported, init_params(config, 4, "mlm")):
            for msg in (GlobalModel(round=3, params=ps, local_epochs=2, lr=0.25),
                        LocalUpdate(client_id=1, round=3, params=ps, n_samples=77,
                                    local_metrics={"val_loss": 1.5, "a": -0.0})):
                signed = sign(msg, WIRE_KEY)
                assert signed.auth_tag == _reference_tag(WIRE_KEY, msg)
                assert verify_auth(signed, WIRE_KEY)
                frame = encode_message(signed)
                assert frame[-4:] == struct.pack("<I", zlib.crc32(frame[HEADER_SIZE:-4]))
        for msg in _wire_messages():
            assert sign(msg, WIRE_KEY).auth_tag == _reference_tag(WIRE_KEY, msg)

    def test_threads_signing_one_fresh_set_all_get_the_reference_tag(self):
        ps = ParameterSet([("w", np.arange(50_000.0)), ("b", np.ones(7))])
        msg = GlobalModel(round=1, params=ps, local_epochs=1, lr=0.1)
        tags = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: tags.append(sign(msg, WIRE_KEY).auth_tag))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert tags == [_reference_tag(WIRE_KEY, msg)] * 8

    def test_a_frame_whose_values_changed_after_signing_fails_verification(self):
        ps = ParameterSet([("w", np.arange(12.0).reshape(3, 4)), ("b", np.ones(5))])
        frame = bytearray(encode_message(sign(GlobalModel(1, ps, 1, 0.1), WIRE_KEY)))
        frame[-8 - 2] ^= 0x01  # a value byte of "b"; the old tag stays
        forged = build_frame(frame[6], bytes(frame[HEADER_SIZE:-4]))
        decoded = decode_message(forged)
        assert decoded.params != ps and decoded.auth_tag == sign(GlobalModel(1, ps, 1, 0.1), WIRE_KEY).auth_tag
        encoded = parameter_set_to_bytes(decoded.params)
        assert decoded.params.wire_digest == (zlib.crc32(encoded), len(encoded))
        assert not verify_auth(decoded, WIRE_KEY)


def test_a_decoded_set_owns_its_values():
    ps = ParameterSet([("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(3))])
    frame = bytearray(encode_message(GlobalModel(round=1, params=ps, local_epochs=1, lr=0.1)))
    got = decode_message(frame).params
    raw = np.frombuffer(frame, dtype=np.uint8)
    assert not any(np.shares_memory(arr, raw) for _, arr in got.items())
    del raw
    frame[:] = bytes(len(frame))  # the frame may be reused as soon as it is decoded
    assert got == ps


def _mapped_owner(ps: ParameterSet):
    """The one buffer every array of `ps` views, each aligned, contiguous and read-only."""
    owners = {id(_owner(arr)): _owner(arr) for _, arr in ps.items()}
    assert len(owners) == 1
    for _, arr in ps.items():
        assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable
    return owners.popitem()[1]


def _read_frame_from(fh):
    """The next message of a file of frames, read as the socket reads one: header, then the rest."""
    header = bytearray(11)
    fill(fh.readinto, header)
    return decode_message(header, fh.readinto)


class TestOneBufferDecoder:
    """Bytes, a socket and a file all go through the one read-whole-then-decode path."""

    def test_random_messages_decode_equal_from_bytes_a_socketpair_and_a_file(self, tmp_path):
        rng = Rng(4321)
        messages = [_random_message(rng) for _ in range(60)]
        frames = [encode_message(msg) for msg in messages]
        path = tmp_path / "frames.bin"
        path.write_bytes(b"".join(frames))
        a, b = socket.socketpair()
        sender = threading.Thread(target=a.sendall, args=(b"".join(frames),))
        sender.start()
        maps = []
        with open(path, "rb", buffering=0) as fh:
            for msg, frame in zip(messages, frames):
                decoded = [decode_message(frame), recv_message(b), _read_frame_from(fh)]
                assert decoded == [msg] * 3
                if hasattr(msg, "params"):
                    maps += [_mapped_owner(d.params) for d in decoded]
            assert fh.read() == b""
        sender.join(timeout=30)
        assert not sender.is_alive()
        a.close()
        b.close()
        assert maps and all(isinstance(m, mmap.mmap) for m in maps)
        assert len({id(m) for m in maps}) == len(maps)  # each set a buffer of its own

    @pytest.mark.parametrize("items", [
        # the first tensor's values follow a 0xFFFF-byte name
        [("n" * 0xFFFF, np.arange(12.0).reshape(3, 4)), ("b", np.ones(5))],
        # a scalar and an empty tensor take no room in the middle of a set
        [("s", np.array(2.5)), ("e", np.zeros((0, 4))), ("w", np.arange(6.0)), ("z", np.array(-1.0))],
        # two-byte names put the values at wire offsets 1, 2 and 3 mod 4
        [("ab", np.arange(3.0)), ("cd", np.arange(4.0)), ("ef", np.arange(5.0)), ("g", np.array(7.0))],
    ])
    def test_overlapping_moves_decode_equal_and_aligned(self, items):
        ps = ParameterSet(items)
        blob = parameter_set_to_bytes(ps)
        at, offsets = 4, []
        for name, arr in ps.items():
            at += 2 + len(name) + 1 + 4 * arr.ndim
            offsets.append(at)
            at += arr.nbytes
        assert at == len(blob)
        assert items[0][0] != "ab" or [o % 4 for o in offsets[:3]] == [1, 2, 3]
        for decoded in (parameter_set_from_bytes(blob),
                        decode_message(encode_message(GlobalModel(round=1, params=ps, local_epochs=1,
                                                                  lr=0.1))).params):
            assert decoded == ps
            assert decoded.manifest() == ps.manifest()
            assert isinstance(_mapped_owner(decoded), mmap.mmap)

    def test_a_source_that_ends_early_is_truncated(self):
        blob = parameter_set_to_bytes(ParameterSet([("w", np.arange(10.0)), ("b", np.ones(3))]))
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(DecodeError) as err:
                read_parameter_set(io.BytesIO(blob[:cut]).readinto, len(blob))
            assert err.value.code == "truncated"

    def test_short_reads_fill_the_buffer(self):
        ps = ParameterSet([("w", np.arange(10.0)), ("b", np.ones(3))])
        source = io.BytesIO(parameter_set_to_bytes(ps))

        def one_byte_at_a_time(view):
            return source.readinto(view[:1])

        assert read_parameter_set(one_byte_at_a_time, len(source.getvalue())) == ps

    def test_an_empty_payload_of_a_set_carrying_type_is_refused_in_step(self):
        # a map has at least one byte: the frame still ends where its header says
        stream = build_frame(MSG_CODES[GlobalModel]) + encode_message(Shutdown())
        a, b = socket.socketpair()
        a.sendall(stream)
        with pytest.raises(DecodeError) as on_socket:
            recv_message(b)
        assert recv_message(b) == Shutdown()
        a.close()
        b.close()
        with pytest.raises(DecodeError) as on_bytes:
            decode_message(build_frame(MSG_CODES[GlobalModel]))
        assert on_socket.value.code == on_bytes.value.code == "bad_payload"
