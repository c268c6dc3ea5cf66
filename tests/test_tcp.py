import socket
import struct
import threading
import time

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
    encode_message,
    sign,
    verify_auth,
)
from flnp.transport.codec import MSG_CODES
from flnp.transport.tcp import recv_message, send_message


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
