"""The session loop, the in-process channel, and the TCP client loop.

`drive(server, transport)` is the one loop that feeds the server state
machine: it takes the next inbound (conn, message) from the transport,
hands it to `server.handle` and sends what comes back, then sends what
`server.report()` returns. The next round's global model is therefore
out before the server validates the round before it, and the clients
work while it does. An `ErrorMsg`
the server sends ends the run there, with a `ProtocolError` of its code,
over either transport. `TcpServer` feeds `drive` from socket reader
threads, with clients running `tcp_client_loop` as threads of the run
or, under `flnp serve`, as `flnp client` processes. `ChannelServer` offers
the same surface in process: it hands each sent message to a pool of
worker threads, so clients train concurrently as they do over TCP, and
`recv` returns the replies in the order their messages were sent. The
server therefore sees one deterministic order whatever order the threads
finish in, and a channel run equals a TCP run bit for bit.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import suppress

from ..protocol.client import FlClient
from ..protocol.fedavg import ProtocolError
from ..protocol.messages import ErrorMsg
from ..protocol.server import FlServer
from ..rng import Rng
from ..transport.codec import sign
from ..transport.tcp import ConnectionClosed, TcpConnection


class ChannelServer:
    """In-process delivery with the server-side surface of `TcpServer`, `recv` and `send`.

    Each client's hello is queued on construction. `send` hands the message
    to one of `workers` threads; a client handles one message at a time, in
    the order it was sent. `recv` waits for the replies in send order, and
    an exception raised by a client's `handle` surfaces there. With a drop
    policy every sent message consults `drop_rng` in `send`, and every reply
    in `recv`, in inbox order; a dropped message closes its link, so the
    server sees a disconnect and aborts deterministically. `flush` waits
    for all sent work; `close` cancels queued work and waits for running
    work.
    """

    def __init__(self, clients: list[FlClient], workers: int = 1,
                 drop_rng: Rng | None = None, drop_prob: float = 0.0) -> None:
        self._clients = clients
        self._drop_rng = drop_rng
        self._drop_prob = drop_prob
        self._closed: set[int] = set()
        self._closing = False
        self._pool = ThreadPoolExecutor(workers, thread_name_prefix="flnp-channel")
        self._last: dict[int, Future] = {}  # each client's latest message
        # a message, or a Future of the replies to a sent one
        self._inbox: deque = deque((conn, client.hello()) for conn, client in enumerate(clients))

    def _dropped(self) -> bool:
        return self._drop_rng is not None and self._drop_rng.random() < self._drop_prob

    def recv(self) -> tuple[int, object]:
        """Next (conn, message), or (conn, None) for a link that closed."""
        while self._inbox:
            conn, item = self._inbox.popleft()
            if not isinstance(item, Future):
                return conn, item
            if conn in self._closed:
                continue  # sent before its link closed
            replies = []
            for reply in item.result():
                if self._dropped():
                    self._closed.add(conn)
                    replies.append((conn, None))
                    break
                replies.append((conn, reply))
            self._inbox.extendleft(reversed(replies))
        raise ProtocolError("incomplete", "run stalled: no client has a message pending")

    def send(self, conn: int, msg) -> None:
        """Queue `msg` for client `conn`; its replies arrive through `recv`."""
        if conn in self._closed or self._dropped():
            self._closed.add(conn)
            raise ConnectionClosed(f"link {conn} is closed")
        job = self._pool.submit(self._handle, conn, msg, self._last.get(conn))
        self._last[conn] = job
        self._inbox.append((conn, job))

    def _handle(self, conn: int, msg, previous: Future | None) -> list:
        if previous is not None:
            # submitted earlier, so already taken by a worker: this waits, never deadlocks
            wait([previous])
        if self._closing:
            return []  # closed while this message waited its turn
        return list(self._clients[conn].handle(msg))

    def flush(self) -> None:
        """Wait until each client has handled every message sent to it; errors surface here."""
        for _conn, item in self._inbox:
            if isinstance(item, Future):
                item.result()

    def close(self) -> None:
        self._closing = True
        self._pool.shutdown(wait=True, cancel_futures=True)


def drive(server: FlServer, transport) -> None:
    """Feed `transport`'s inbound messages to `server` until the run completes.

    Each message goes to `server.handle`, whose replies are sent before
    `server.report()` runs and its messages are sent, so a round's
    validation overlaps the clients' next round. An `ErrorMsg` the server
    produces is sent, and then raised as a `ProtocolError` of its code. The
    caller opened `transport` and closes it.
    """
    while server.phase != "done":
        conn_id, msg = transport.recv()
        if msg is None:
            server.on_disconnect(conn_id)
            continue
        _send(server, transport, server.handle(conn_id, msg))
        _send(server, transport, server.report())


def _send(server: FlServer, transport, outgoing) -> None:
    """Send `outgoing`; a lost link is the server's disconnect, and an `ErrorMsg` ends the run."""
    for dest, out in outgoing:
        try:
            transport.send(dest, out)
        except (ConnectionClosed, OSError):
            server.on_disconnect(dest)
        if isinstance(out, ErrorMsg):
            raise ProtocolError(out.code, out.detail)


def tcp_client_loop(client: FlClient, conn: TcpConnection) -> None:
    """Blocking client session: hello, then serve messages until shutdown.

    A `ProtocolError` the client raises itself is sent to the server as a
    signed `ErrorMsg` before it propagates; one the server reported is not
    sent back.
    """
    try:
        conn.send(client.hello())
        while not client.done:
            msg = conn.recv()
            try:
                replies = client.handle(msg)
            except ProtocolError as exc:
                if not isinstance(msg, ErrorMsg):
                    with suppress(OSError):  # the server may be gone already
                        conn.send(sign(ErrorMsg(exc.code, exc.detail), client.session_key))
                raise
            for reply in replies:
                conn.send(reply)
    finally:
        conn.close()
