"""The session loop, the in-process channel, and the TCP client loop.

`drive(server, transport)` is the one loop that feeds the server state
machine: it takes the next inbound (conn, message) from the transport,
hands it to `server.handle` and sends what comes back. `TcpServer` feeds
it from socket reader threads, with clients as in-process threads or
separate OS processes running `tcp_client_loop`. `ChannelServer` offers
the same surface in process: it runs each client's `handle` inline as a
message is sent, so a whole session is one deterministic single-threaded
schedule, and a channel run equals a TCP run bit for bit.
"""

from __future__ import annotations

from collections import deque

from ..protocol.client import FlClient
from ..protocol.fedavg import ProtocolError
from ..protocol.server import FlServer
from ..rng import Rng
from ..transport.tcp import ConnectionClosed, TcpConnection


class ChannelServer:
    """In-process delivery with the server-side surface of `TcpServer`, `recv` and `send`.

    Each client's hello is queued on construction. With a drop policy every
    message, either way, consults `drop_rng`; a dropped message closes its
    link, so the server sees a disconnect and aborts deterministically.
    """

    def __init__(self, clients: list[FlClient], drop_rng: Rng | None = None,
                 drop_prob: float = 0.0) -> None:
        self._clients = clients
        self._drop_rng = drop_rng
        self._drop_prob = drop_prob
        self._closed: set[int] = set()
        self._inbox = deque((conn, client.hello()) for conn, client in enumerate(clients))

    def _dropped(self) -> bool:
        return self._drop_rng is not None and self._drop_rng.random() < self._drop_prob

    def recv(self) -> tuple[int, object]:
        """Next (conn, message), or (conn, None) for a link that closed."""
        if not self._inbox:
            raise ProtocolError("incomplete", "run stalled: no client has a message pending")
        return self._inbox.popleft()

    def send(self, conn: int, msg) -> None:
        """Deliver `msg` to client `conn` and queue its replies."""
        if conn in self._closed or self._dropped():
            self._closed.add(conn)
            raise ConnectionClosed(f"link {conn} is closed")
        for reply in self._clients[conn].handle(msg):
            if self._dropped():
                self._closed.add(conn)
                self._inbox.append((conn, None))
                return
            self._inbox.append((conn, reply))


def drive(server: FlServer, transport) -> None:
    """Feed `transport`'s inbound messages to `server` until the run completes.

    The caller opened `transport` and closes it.
    """
    while server.phase != "done":
        conn_id, msg = transport.recv()
        if msg is None:
            server.on_disconnect(conn_id)
            continue
        for dest, out in server.handle(conn_id, msg):
            try:
                transport.send(dest, out)
            except (ConnectionClosed, OSError):
                server.on_disconnect(dest)


def tcp_client_loop(client: FlClient, conn: TcpConnection) -> None:
    """Blocking client session: hello, then serve messages until shutdown."""
    try:
        conn.send(client.hello())
        while not client.done:
            msg = conn.recv()
            for reply in client.handle(msg):
                conn.send(reply)
    finally:
        conn.close()
