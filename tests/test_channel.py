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
