import mmap
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from flnp.params import ParameterSet
from flnp.protocol.messages import GlobalModel, Hello, Shutdown
from flnp.transport import (
    FRAME_MAGIC,
    FRAME_VERSION,
    MAX_PAYLOAD,
    DecodeError,
    TcpServer,
    connect,
    decode_message,
    encode_message,
    sign,
    verify_auth,
)
from flnp.transport.codec import MSG_CODES
from flnp.transport.codec import encode_buffers
from flnp.transport.tcp import IOV_MAX, ConnectionClosed, recv_message, send_message
from test_params import _owner, bert_set


def test_fragmented_writes_decode_identically():
    server = TcpServer("127.0.0.1", 0, expected=1)
    server.start()
    msg = Hello(client_name="frag", auth_token="tok")
    frame = encode_message(msg)

    def drip():
        raw = socket.create_connection(("127.0.0.1", server.port))
        for i in range(len(frame)):  # one byte per write
            raw.sendall(frame[i : i + 1])
            time.sleep(0.0005)
        raw.close()

    t = threading.Thread(target=drip)
    t.start()
    conn_id, got = server.inbox.get(timeout=10)
    t.join()
    server.close()
    assert conn_id == 0
    assert got == msg


def test_eight_clients_connect_and_exchange():
    server = TcpServer("127.0.0.1", 0, expected=8)
    server.start()
    conns = [connect("127.0.0.1", server.port) for _ in range(8)]
    for i, c in enumerate(conns):
        c.send(Hello(client_name=f"c{i}", auth_token="t"))
    seen = {}
    for _ in range(8):
        conn_id, msg = server.inbox.get(timeout=10)
        assert msg is not None
        seen[conn_id] = msg.client_name
    assert len(seen) == 8
    for conn_id in seen:
        server.send(conn_id, Shutdown(reason="bye"))
    for c in conns:
        assert c.recv() == Shutdown(reason="bye")
        c.close()
    server.close()


def test_oversized_frame_rejected_by_reader():
    # only the 11-byte header is sent: the reader refuses it before sizing a buffer
    a, b = socket.socketpair()
    a.sendall(struct.pack("<4sHBI", FRAME_MAGIC, FRAME_VERSION, MSG_CODES[Hello], MAX_PAYLOAD + 1))
    with pytest.raises(DecodeError) as err:
        recv_message(b)
    assert err.value.code == "frame_too_large"
    a.close()
    b.close()


@pytest.mark.parametrize("offset, value, code", [(0, 0x58, "bad_magic"),
                                                  (4, 2, "unsupported_version")])
def test_bad_header_rejected_by_reader(offset, value, code):
    a, b = socket.socketpair()
    frame = bytearray(encode_message(Hello(client_name="x", auth_token="t")))
    frame[offset] = value
    a.sendall(frame)
    with pytest.raises(DecodeError) as err:
        recv_message(b)
    assert err.value.code == code
    a.close()
    b.close()


def test_send_recv_round_trip_over_socketpair():
    a, b = socket.socketpair()
    msg = Hello(client_name="pair", auth_token="tok")
    send_message(a, msg)
    assert recv_message(b) == msg
    a.close()
    b.close()


def test_signed_model_round_trip_over_socketpair():
    key = b"pairpair"
    params = ParameterSet([("w", np.linspace(-1.0, 1.0, 60).reshape(6, 10)), ("b", np.ones(10))])
    msg = sign(GlobalModel(round=3, params=params, local_epochs=1, lr=0.1), key)
    a, b = socket.socketpair()
    send_message(a, msg)
    got = recv_message(b)
    assert got == msg
    assert verify_auth(got, key)
    assert encode_message(got) == encode_message(msg)
    a.close()
    b.close()


class RecordingSocket(socket.socket):
    """Records (buffers passed, bytes offered, bytes sent) for each `sendmsg` call."""

    def sendmsg(self, buffers, *args):
        buffers = list(buffers)
        sent = super().sendmsg(buffers, *args)
        self.calls.append((len(buffers), sum(memoryview(b).nbytes for b in buffers), sent))
        return sent


def test_partial_sends_of_more_than_iov_max_buffers_decode_equal():
    rng = np.random.default_rng(3)
    items = [(f"t{i}", rng.normal(size=(i % 7, 9))) for i in range(300)]
    items += [("scalar", np.array(2.5)), ("empty", np.zeros((0, 3)))]
    msg = sign(GlobalModel(round=1, params=ParameterSet(items), local_epochs=1, lr=0.1), b"k" * 8)
    assert len(encode_buffers(msg)) > IOV_MAX
    a, b = socket.socketpair()
    sender = RecordingSocket(a.family, a.type, a.proto, fileno=a.detach())
    sender.calls = []
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    sender.settimeout(10.0)  # non-blocking underneath, so a full buffer cuts a send short
    got = []
    reader = threading.Thread(target=lambda: got.append(recv_message(b)))
    reader.start()
    send_message(sender, msg)
    reader.join(timeout=10)
    sender.close()
    b.close()
    assert got == [msg]
    assert max(n for n, _, _ in sender.calls) <= IOV_MAX
    assert any(sent < offered for _, offered, sent in sender.calls)
    assert sum(sent for _, _, sent in sender.calls) == len(encode_message(msg))


def test_disconnect_reported_in_inbox():
    server = TcpServer("127.0.0.1", 0, expected=1)
    server.start()
    conn = connect("127.0.0.1", server.port)
    conn.send(Hello(client_name="gone", auth_token="t"))
    conn_id, first = server.inbox.get(timeout=10)
    assert first is not None
    conn.close()
    conn_id2, second = server.inbox.get(timeout=10)
    assert conn_id2 == conn_id
    assert second is None
    server.close()


def _model_message() -> GlobalModel:
    rng = np.random.default_rng(5)
    params = ParameterSet([("enc.w", rng.normal(size=(3, 4))), ("enc.b", rng.normal(size=4)),
                           ("scalar", np.array(1.5)), ("empty", np.zeros((0, 2)))])
    return sign(GlobalModel(round=2, params=params, local_epochs=1, lr=0.1), b"k" * 8)


def _send_in_thread(sock: socket.socket, data: bytes, step: int | None = None) -> threading.Thread:
    """Write `data` to `sock` from a thread, `step` bytes a write (all at once if None)."""

    def write():
        for i in range(0, len(data), step or len(data)):
            sock.sendall(data[i : i + (step or len(data))])

    sender = threading.Thread(target=write)
    sender.start()
    return sender


class TestStreamingReceive:
    """`recv_message` decodes a frame from the socket as it arrives."""

    def test_a_frame_written_one_byte_at_a_time_decodes_equal(self):
        msg = _model_message()
        a, b = socket.socketpair()
        sender = _send_in_thread(a, encode_message(msg), step=1)
        got = recv_message(b)
        sender.join()
        a.close()
        b.close()
        assert got == msg
        assert verify_auth(got, b"k" * 8)

    def test_every_payload_corruption_fails_checksum_as_on_bytes(self):
        # includes each byte of every name length, rank and shape, so a body that
        # would not decode is drained to its trailer and refused by its CRC first
        frame = encode_message(_model_message())
        corrupted = []
        for i in range(11, len(frame) - 4):
            mutated = bytearray(frame)
            mutated[i] ^= 0xFF
            corrupted.append(bytes(mutated))
        a, b = socket.socketpair()
        sender = _send_in_thread(a, b"".join(corrupted) + frame)
        codes = []
        for data in corrupted:
            with pytest.raises(DecodeError) as on_bytes:
                decode_message(data)
            with pytest.raises(DecodeError) as on_socket:
                recv_message(b)
            codes.append((on_bytes.value.code, on_socket.value.code))
        last = recv_message(b)  # each refused frame was read to its end
        sender.join()
        a.close()
        b.close()
        assert set(codes) == {("checksum_mismatch", "checksum_mismatch")}
        assert last == _model_message()

    def test_a_body_that_does_not_decode_is_refused_with_bad_payload_under_a_good_crc(self):
        frame = bytearray(encode_message(_model_message()))
        # the u16 length of the first tensor name follows the body's fixed fields and tensor count
        name_len_at = 11 + 4 + 4 + 8 + 4
        assert frame[name_len_at] == len("enc.w")
        frame[name_len_at] = 0xFF
        payload = bytes(frame[11:-4])
        refused = bytes(frame[:-4]) + struct.pack("<I", zlib.crc32(payload))
        a, b = socket.socketpair()
        sender = _send_in_thread(a, refused + encode_message(Shutdown()))
        with pytest.raises(DecodeError) as err:
            recv_message(b)
        after = recv_message(b)
        sender.join()
        a.close()
        b.close()
        assert err.value.code == "bad_payload"
        assert after == Shutdown()

    def test_a_peer_that_closes_mid_payload_raises_connection_closed(self):
        frame = encode_message(_model_message())
        a, b = socket.socketpair()
        a.sendall(frame[: len(frame) // 2])
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_message(b)
        b.close()

    def test_the_received_set_views_one_mapped_buffer_of_its_own(self):
        a, b = socket.socketpair()
        sender = _send_in_thread(a, encode_message(_model_message()))
        got = recv_message(b).params
        sender.join()
        a.close()
        b.close()
        owners = {id(_owner(arr)) for _, arr in got.items()}
        assert len(owners) == 1
        assert isinstance(_owner(got["enc.w"]), mmap.mmap)
        for _, arr in got.items():
            assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError):
            got["enc.b"][0] = 0.0

    def test_a_bert_sized_receive_maps_one_payload_sized_buffer(self, monkeypatch):
        import flnp.params
        import flnp.transport.codec
        import flnp.transport.tcp

        ps = bert_set(1)
        frame = encode_message(GlobalModel(round=1, params=ps, local_epochs=0, lr=0.1))
        payload = len(frame) - 11 - 4
        sizes = []
        mapped_buffer = flnp.params.mapped_buffer

        def recording(nbytes):
            sizes.append(nbytes)
            return mapped_buffer(nbytes)

        for module in (flnp.params, flnp.transport.codec, flnp.transport.tcp):
            monkeypatch.setattr(module, "mapped_buffer", recording, raising=False)
        a, b = socket.socketpair()
        sender = _send_in_thread(a, frame)
        got = recv_message(b)
        sender.join()
        a.close()
        b.close()
        assert got.params == ps
        assert len(sizes) == 1
        assert 4 * 2_400_000 < sizes[0] <= payload
