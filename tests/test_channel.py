import threading
import time

import pytest

from flnp.experiment.federated import ChannelServer
from flnp.protocol.fedavg import ProtocolError
from flnp.protocol.messages import Hello, Shutdown
from flnp.rng import Rng
from flnp.transport.tcp import ConnectionClosed


class EchoClient:
    """Answers every message with `replies` numbered Shutdown messages."""

    def __init__(self, name, replies=1):
        self.name = name
        self.replies = replies
        self.got = []

    def hello(self):
        return Hello(client_name=self.name, auth_token="t")

    def handle(self, msg):
        self.got.append(msg)
        return [Shutdown(reason=f"{self.name}:{i}") for i in range(self.replies)]


class ScriptedRng:
    """Stands in for `Rng` with a fixed sequence of uniform draws."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def drain_hellos(channel, n):
    return [channel.recv() for _ in range(n)]


def test_hellos_are_queued_first():
    a, b = EchoClient("a"), EchoClient("b")
    channel = ChannelServer([a, b])
    assert drain_hellos(channel, 2) == [(0, a.hello()), (1, b.hello())]
    assert a.got == [] and b.got == []


def test_message_passes_through_unchanged():
    client = EchoClient("a")
    channel = ChannelServer([client])
    drain_hellos(channel, 1)
    msg = Shutdown(reason="hi")
    channel.send(0, msg)
    assert client.got[0] is msg


def test_fifo_order():
    channel = ChannelServer([EchoClient("a", replies=2), EchoClient("b", replies=2)])
    drain_hellos(channel, 2)
    channel.send(1, Shutdown())
    channel.send(0, Shutdown())
    got = [channel.recv() for _ in range(4)]
    assert [(conn, msg.reason) for conn, msg in got] == [
        (1, "b:0"), (1, "b:1"), (0, "a:0"), (0, "a:1"),
    ]


def test_recv_on_stall_raises_incomplete():
    channel = ChannelServer([EchoClient("a", replies=0)])
    drain_hellos(channel, 1)
    channel.send(0, Shutdown())
    with pytest.raises(ProtocolError) as err:
        channel.recv()
    assert err.value.code == "incomplete"


def test_send_after_close_raises():
    client = EchoClient("a")
    channel = ChannelServer([client], drop_rng=ScriptedRng([0.1]), drop_prob=0.5)
    with pytest.raises(ConnectionClosed):
        channel.send(0, Shutdown())
    # a closed link draws no more and never reaches the client
    with pytest.raises(ConnectionClosed):
        channel.send(0, Shutdown())
    assert client.got == []


def test_dropped_reply_queues_disconnect():
    client = EchoClient("a", replies=2)
    channel = ChannelServer([client], drop_rng=ScriptedRng([0.9, 0.9, 0.1]), drop_prob=0.5)
    drain_hellos(channel, 1)
    channel.send(0, Shutdown())
    assert channel.recv() == (0, Shutdown(reason="a:0"))
    assert channel.recv() == (0, None)
    with pytest.raises(ConnectionClosed):
        channel.send(0, Shutdown())


def test_drop_injection_is_deterministic():
    def failure_step(seed):
        channel = ChannelServer([EchoClient("a")], drop_rng=Rng(seed), drop_prob=0.3)
        drain_hellos(channel, 1)
        for i in range(100):
            try:
                channel.send(0, Shutdown(reason=str(i)))
            except ConnectionClosed:
                return i
            if channel.recv()[1] is None:
                return i
        return None

    first = failure_step(42)
    assert first == failure_step(42)
    assert first is not None
    # a different seed fails at a different step (overwhelmingly likely)
    assert failure_step(43) != first or failure_step(44) != first


class RecordingClient(EchoClient):
    """Notes how many of its `handle` calls overlap; `gate` holds each call until set."""

    def __init__(self, name, gate=None, entered=None):
        super().__init__(name)
        self.gate = gate
        self.entered = entered
        self.running = 0
        self.most_running = 0
        self._lock = threading.Lock()

    def handle(self, msg):
        with self._lock:
            self.running += 1
            self.most_running = max(self.most_running, self.running)
        if self.entered is not None:
            self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=10)
        time.sleep(0.002)
        try:
            return super().handle(msg)
        finally:
            with self._lock:
                self.running -= 1


def test_a_client_handles_one_message_at_a_time_in_send_order():
    a, b = RecordingClient("a"), RecordingClient("b")
    channel = ChannelServer([a, b], workers=4)
    try:
        drain_hellos(channel, 2)
        for i in range(6):
            channel.send(0, Shutdown(reason=str(i)))
            channel.send(1, Shutdown(reason=str(i)))
        got = [channel.recv() for _ in range(12)]
    finally:
        channel.close()
    assert [msg.reason for msg in a.got] == [str(i) for i in range(6)]
    assert [msg.reason for msg in b.got] == [str(i) for i in range(6)]
    assert a.most_running == b.most_running == 1
    assert [conn for conn, _ in got] == [0, 1] * 6


def test_replies_come_back_in_send_order_when_the_first_client_is_slow():
    fast_done = threading.Event()
    slow = RecordingClient("slow", gate=fast_done)
    fast = RecordingClient("fast", entered=fast_done)
    channel = ChannelServer([slow, fast], workers=2)
    try:
        drain_hellos(channel, 2)
        channel.send(0, Shutdown())
        channel.send(1, Shutdown())
        # client 0 is held until client 1 has started: they ran at once
        assert [channel.recv() for _ in range(2)] == [
            (0, Shutdown(reason="slow:0")), (1, Shutdown(reason="fast:0")),
        ]
    finally:
        channel.close()


def test_an_exception_in_handle_surfaces_at_recv():
    class Failing(EchoClient):
        def handle(self, msg):
            raise ProtocolError("auth_failed", "bad tag")

    channel = ChannelServer([Failing("a")], workers=2)
    try:
        drain_hellos(channel, 1)
        channel.send(0, Shutdown())  # queued, not raised here
        with pytest.raises(ProtocolError, match="bad tag"):
            channel.recv()
    finally:
        channel.close()


def test_close_cancels_queued_work_and_ends_the_pool():
    gate = threading.Event()
    entered = threading.Event()
    client = RecordingClient("a", gate=gate, entered=entered)
    before = set(threading.enumerate())
    channel = ChannelServer([client], workers=2)
    drain_hellos(channel, 1)
    for _ in range(3):
        channel.send(0, Shutdown())
    assert entered.wait(timeout=10)
    threading.Timer(0.05, gate.set).start()
    channel.close()  # waits for the running message, drops the two queued
    assert len(client.got) == 1
    assert not [t for t in set(threading.enumerate()) - before if t.name.startswith("flnp-channel")]


def test_flush_waits_for_every_sent_message():
    gate = threading.Event()
    a, b = RecordingClient("a", gate=gate), RecordingClient("b", gate=gate)
    channel = ChannelServer([a, b], workers=2)
    try:
        drain_hellos(channel, 2)
        for i in range(3):
            channel.send(0, Shutdown(reason=str(i)))
            channel.send(1, Shutdown(reason=str(i)))
        threading.Timer(0.05, gate.set).start()
        channel.flush()
        assert [msg.reason for msg in a.got] == [msg.reason for msg in b.got] == ["0", "1", "2"]
    finally:
        channel.close()
