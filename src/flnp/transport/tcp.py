"""Framed message transport over TCP sockets.

A frame is written as its list of buffers (`encode_buffers`) with
`sendmsg`, so a parameter tensor goes from its array to the socket and no
send joins the frame into one copy. Frames are read by fixed-size header
first, then exactly the advertised payload plus the CRC trailer into one
buffer sized from the header, so arbitrary write fragmentation on the
stream is invisible to the decoder.
The server side runs one reader thread per accepted connection, all
feeding a single inbox queue; the protocol state machine stays
single-threaded.
"""

from __future__ import annotations

import queue
import socket
import threading

from .codec import decode_message, encode_buffers
from .codec import encode_message  # noqa: F401  (bench/spans.py wraps it by this name)
from .frame import HEADER_SIZE, TRAILER_SIZE, DecodeError, parse_header

CONNECT_TIMEOUT_S = 30.0
IOV_MAX = 1024  # buffers per sendmsg call; Linux's limit and a common one elsewhere


class ConnectionClosed(RuntimeError):
    pass


def _recv_into(sock: socket.socket, view: memoryview, mid_frame: bool) -> None:
    """Fill `view` from the socket."""
    got = 0
    while got < len(view):
        n = sock.recv_into(view[got:])
        if not n:
            raise ConnectionClosed("peer closed mid-frame" if got or mid_frame else "peer closed")
        got += n


def send_buffers(sock: socket.socket, buffers) -> None:
    """Write `buffers` in order with `sendmsg`, at most IOV_MAX per call, until all are sent."""
    views = [view.cast("B") for view in map(memoryview, buffers) if view.nbytes]
    i = 0
    while i < len(views):
        sent = sock.sendmsg(views[i : i + IOV_MAX])
        while i < len(views) and sent >= len(views[i]):
            sent -= len(views[i])
            i += 1
        if sent:  # a partial send ends inside views[i]
            views[i] = views[i][sent:]


def send_message(sock: socket.socket, msg) -> None:
    send_buffers(sock, encode_buffers(msg))


def recv_message(sock: socket.socket):
    header = bytearray(HEADER_SIZE)
    _recv_into(sock, memoryview(header), mid_frame=False)
    _msg_type, length = parse_header(header)
    frame = bytearray(HEADER_SIZE + length + TRAILER_SIZE)
    frame[:HEADER_SIZE] = header
    _recv_into(sock, memoryview(frame)[HEADER_SIZE:], mid_frame=True)
    return decode_message(frame)


class TcpConnection:
    """Client-side blocking connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, msg) -> None:
        send_message(self._sock, msg)

    def recv(self):
        return recv_message(self._sock)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def connect(host: str, port: int) -> TcpConnection:
    sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
    sock.settimeout(None)
    return TcpConnection(sock)


class TcpServer:
    """Accepts up to `expected` connections; frames land in one inbox.

    Inbox items are (conn_id, message) or (conn_id, None) on disconnect.
    """

    def __init__(self, host: str, port: int, expected: int) -> None:
        self._listener = socket.create_server((host, port))
        self._expected = expected
        self.inbox: "queue.Queue[tuple[int, object]]" = queue.Queue()
        self._conns: dict[int, socket.socket] = {}
        self._lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        self._stopping = False

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        for conn_id in range(self._expected):
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            with self._lock:
                self._conns[conn_id] = sock
            reader = threading.Thread(target=self._read_loop, args=(conn_id, sock), daemon=True)
            reader.start()

    def _read_loop(self, conn_id: int, sock: socket.socket) -> None:
        while True:
            try:
                msg = recv_message(sock)
            except (ConnectionClosed, DecodeError, OSError):
                if not self._stopping:
                    self.inbox.put((conn_id, None))
                return
            self.inbox.put((conn_id, msg))

    def recv(self) -> tuple[int, object]:
        """Next (conn_id, message), or (conn_id, None) for a lost connection."""
        return self.inbox.get()

    def send(self, conn_id: int, msg) -> None:
        with self._lock:
            sock = self._conns.get(conn_id)
        if sock is None:
            raise ConnectionClosed(f"no connection {conn_id}")
        send_message(sock, msg)

    def close(self) -> None:
        self._stopping = True
        self._listener.close()
        with self._lock:
            socks = list(self._conns.values())
            self._conns.clear()
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
