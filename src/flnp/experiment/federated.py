"""The session loop, the in-process channel, and the TCP client loop.

`drive(server, transport)` is the one loop that feeds the server state
machine: it takes the next inbound (conn, message) from the transport,
hands it to `server.handle` and sends what comes back. Each round is
validated by `server.on_round` on one validator thread that `drive`
owns, one round at a time, while `drive` sends the next round's global
model and receives and averages the clients' answers to it; only the
last round, which nothing follows, is validated on `drive`'s own thread.
So while round r+1 is averaged, round r's set may still be under
validation: at most one set more than the server itself holds. Every
call that changes the server's state stays on `drive`'s thread. An
`ErrorMsg` the server sends ends the run there, with a `ProtocolError`
of its code, over either transport, and so does a failed validation,
when the next round completes. `TcpServer` feeds `drive` from socket
reader threads, with clients running `tcp_client_loop` as threads of the
run, `workers` of them at work at once, or, under `flnp serve`, as
`flnp client` processes. `ChannelServer` offers
the same surface in process: it hands each sent message to a pool of
worker threads, so clients train concurrently as they do over TCP, and
`recv` returns the replies in the order their messages were sent. The
server therefore sees one deterministic order whatever order the threads
finish in, and a channel run equals a TCP run bit for bit.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import AbstractContextManager, nullcontext, suppress

from ..protocol.client import FlClient
from ..protocol.messages import ErrorMsg, ProtocolError
from ..protocol.server import FlServer
from ..transport.codec import sign
from ..transport.frame import DecodeError
from ..transport.tcp import ConnectionClosed, TcpConnection


class ChannelServer:
    """In-process delivery with the server-side surface of `TcpServer`, `recv` and `send`.

    Each client's hello is queued on construction. `send` hands the message
    to one of `workers` threads; a client handles one message at a time, in
    the order it was sent. `recv` waits for the replies in send order, and
    an exception raised by a client's `handle` surfaces there. A client's
    next message waits on an event its previous one sets when handled, so
    no job holds another's replies, and they die once `recv` has passed
    them on. `flush` waits for all sent work; `close` cancels queued work
    and waits for running work.
    """

    def __init__(self, clients: list[FlClient], workers: int = 1) -> None:
        self._clients = clients
        self._closing = False
        self._pool = ThreadPoolExecutor(workers, thread_name_prefix="flnp-channel")
        self._last: dict[int, threading.Event] = {}  # set once a client's latest message is handled
        # a message, or a Future of the replies to a sent one
        self._inbox: deque = deque((conn, client.hello()) for conn, client in enumerate(clients))

    def recv(self) -> tuple[int, object]:
        """Next (conn, message), in the order the messages were sent."""
        while self._inbox:
            conn, item = self._inbox.popleft()
            if not isinstance(item, Future):
                return conn, item
            self._inbox.extendleft((conn, reply) for reply in reversed(item.result()))
        raise ProtocolError("incomplete", "run stalled: no client has a message pending")

    def send(self, conn: int, msg) -> None:
        """Queue `msg` for client `conn`; its replies arrive through `recv`."""
        done = threading.Event()
        job = self._pool.submit(self._handle, conn, msg, self._last.get(conn), done)
        self._last[conn] = done
        self._inbox.append((conn, job))

    def _handle(self, conn: int, msg, previous: threading.Event | None,
                done: threading.Event) -> list:
        try:
            if previous is not None:
                # submitted earlier, so already taken by a worker: this waits, never deadlocks
                previous.wait()
            if self._closing:
                return []  # closed while this message waited its turn
            return list(self._clients[conn].handle(msg))
        finally:
            done.set()

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

    Each message goes to `server.handle`. When that completes a round,
    the round before it has been validating on a thread of its own: its
    `RoundComplete` is sent once that validation returns, then this
    round's validation starts there, and only then go `handle`'s replies,
    the next round's global model. So a round's validation overlaps the
    clients' next round and the server's receiving of it, one validation
    at a time and in round order. The last round is validated here, as
    nothing is left to overlap. Every server call runs on this thread;
    the validator thread runs only `server.on_round`, and its error ends
    the run when its result is read. An `ErrorMsg` the server produces is
    sent, and then raised as a `ProtocolError` of its code. The caller
    opened `transport` and closes it.
    """
    validator = ThreadPoolExecutor(1, thread_name_prefix="flnp-validator")
    validating: tuple[int, Future] | None = None  # a round and the Future of its metrics
    try:
        while server.phase != "done":
            conn_id, msg = transport.recv()
            if msg is None:
                server.on_disconnect(conn_id)
                continue
            outgoing = server.handle(conn_id, msg)
            del msg  # handled: an update's parameters must not live on through the sends
            due = server.take_report()
            if due is not None:
                if validating is not None:
                    rnd, metrics = validating
                    validating = None
                    _send(server, transport, server.complete_report(rnd, metrics.result()))
                if due[0] < server.plan.rounds:
                    validating = (due[0], validator.submit(server.on_round, *due))
                else:
                    outgoing += server.complete_report(due[0], server.on_round(*due))
                del due  # its set must not outlive its validation through the next aggregation
            _send(server, transport, outgoing)
            # no batch of sent messages outlives its send: a global model must not
            # live on through the next aggregation
            del outgoing
    finally:
        validator.shutdown(wait=True, cancel_futures=True)


def _send(server: FlServer, transport, outgoing) -> None:
    """Send `outgoing`; a lost link is the server's disconnect, and an `ErrorMsg` ends the run."""
    for dest, out in outgoing:
        try:
            transport.send(dest, out)
        except (ConnectionClosed, OSError):
            server.on_disconnect(dest)
        if isinstance(out, ErrorMsg):
            raise ProtocolError(out.code, out.detail)


def tcp_client_loop(client: FlClient, conn: TcpConnection,
                    compute: AbstractContextManager = nullcontext()) -> None:
    """Blocking client session: hello, then serve messages until shutdown.

    The client handles each message inside `compute`, which a run's
    client threads share as a semaphore to bound how many train at once.
    A `ProtocolError` the client raises itself is sent to the server as a
    signed `ErrorMsg` before it propagates; one the server reported is not
    sent back. A frame from the server that does not decode raises
    `ProtocolError` with the decode code. Each message and its replies are
    let go of before the next frame is read.
    """
    try:
        conn.send(client.hello())
        while not client.done:
            _serve(client, conn, compute)
    finally:
        conn.close()


def _serve(client: FlClient, conn: TcpConnection, compute: AbstractContextManager) -> None:
    """Hand the next message to `client` and send its replies."""
    try:
        msg = conn.recv()
    except DecodeError as exc:
        raise ProtocolError(exc.code, f"malformed frame from the server ({exc})") from None
    try:
        with compute:
            replies = client.handle(msg)
    except ProtocolError as exc:
        if not isinstance(msg, ErrorMsg):
            with suppress(OSError):  # the server may be gone already
                conn.send(sign(ErrorMsg(exc.code, exc.detail), client.session_key))
        raise
    for reply in replies:
        conn.send(reply)
