"""Drivers that move protocol messages over a concrete transport.

The channel driver runs everything in one thread: it pumps the server's
outgoing messages through per-client links, runs client `handle` calls,
and feeds replies back through the link into the server inbox. That is a
deterministic schedule of the actor contract. The TCP driver runs the
server loop in the calling thread off the connection inbox, with clients
either as in-process threads or separate OS processes running the same
client loop.
"""

from __future__ import annotations

import threading
from collections import deque

from ..protocol.client import FlClient
from ..protocol.fedavg import ProtocolError
from ..protocol.server import FlServer
from ..transport.channel import LinkClosedError, channel_pair
from ..transport.tcp import ConnectionClosed, TcpConnection, TcpServer


def drive_channel(
    server: FlServer,
    clients: list[FlClient],
    drop_rng=None,
    drop_prob: float = 0.0,
) -> None:
    """Run a whole session over in-process channels, single-threaded."""
    links = []
    for _ in clients:
        pair = channel_pair()
        if drop_rng is not None:
            pair[0].set_drop_policy(drop_rng, drop_prob)
            pair[1].set_drop_policy(drop_rng, drop_prob)
        links.append(pair)

    inbound: deque[tuple[int, object]] = deque()

    def deliver(conn: int, msg) -> None:
        server_end, client_end = links[conn]
        try:
            server_end.send(msg)
            while True:
                got = client_end.poll()
                if got is None:
                    break
                for reply in clients[conn].handle(got):
                    client_end.send(reply)
            while True:
                got = server_end.poll()
                if got is None:
                    break
                inbound.append((conn, got))
        except LinkClosedError:
            server.on_disconnect(conn)  # raises ProtocolError with the round

    for conn, client in enumerate(clients):
        inbound.append((conn, client.hello()))
    while inbound:
        conn, msg = inbound.popleft()
        for dest, out in server.handle(conn, msg):
            deliver(dest, out)

    if server.phase != "done":
        raise ProtocolError("incomplete", f"run stalled in round {server.round}")


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


def drive_tcp(
    server: FlServer,
    tcp: TcpServer,
    client_threads: list[threading.Thread] | None = None,
) -> None:
    """Consume the TCP inbox until the protocol run completes."""
    try:
        while server.phase != "done":
            conn_id, msg = tcp.inbox.get()
            if msg is None:
                server.on_disconnect(conn_id)
                continue
            for dest, out in server.handle(conn_id, msg):
                try:
                    tcp.send(dest, out)
                except (ConnectionClosed, OSError):
                    server.on_disconnect(dest)
    finally:
        tcp.close()
    if client_threads:
        for t in client_threads:
            t.join(timeout=30)
