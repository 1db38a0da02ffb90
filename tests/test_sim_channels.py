"""Unit tests for mailboxes: matching, wildcards, latency, ordering."""

import pytest

from repro.sim import ANY, Delay, Mailbox, Recv, Send, Simulator


def _box(sim, owner=0):
    return Mailbox(sim, owner)


def test_send_then_recv():
    sim = Simulator()
    box = _box(sim)

    def sender():
        yield Send(box, src=1, tag="hello", payload=123)

    def receiver():
        msg = yield Recv(box, src=1, tag="hello")
        return msg.payload

    sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert r.result == 123


def test_recv_posted_before_send():
    sim = Simulator()
    box = _box(sim)

    def receiver():
        msg = yield Recv(box, src=ANY, tag=ANY)
        return (msg.payload, sim.now)

    def sender():
        yield Delay(3.0)
        yield Send(box, src=7, tag="t", payload="late")

    r = sim.spawn(receiver())
    sim.spawn(sender())
    sim.run()
    assert r.result == ("late", pytest.approx(3.0))


def test_message_latency_delays_delivery():
    sim = Simulator()
    box = _box(sim)

    def sender():
        yield Send(box, src=0, tag="t", payload="x", latency=5.0)
        return sim.now  # sender continues immediately (overhead defaults 0)

    def receiver():
        msg = yield Recv(box)
        return sim.now

    s = sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert s.result == pytest.approx(0.0)
    assert r.result == pytest.approx(5.0)


def test_sender_overhead_blocks_sender_not_message():
    sim = Simulator()
    box = _box(sim)

    def sender():
        yield Send(box, src=0, tag="t", latency=1.0, overhead=4.0)
        return sim.now

    def receiver():
        yield Recv(box)
        return sim.now

    s = sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert r.result == pytest.approx(1.0)
    assert s.result == pytest.approx(4.0)


def test_tag_matching_skips_non_matching():
    sim = Simulator()
    box = _box(sim)

    def sender():
        yield Send(box, src=0, tag="a", payload=1)
        yield Send(box, src=0, tag="b", payload=2)

    def receiver():
        msg_b = yield Recv(box, tag="b")
        msg_a = yield Recv(box, tag="a")
        return (msg_b.payload, msg_a.payload)

    sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert r.result == (2, 1)


def test_src_matching():
    sim = Simulator()
    box = _box(sim)

    def sender(src, payload):
        yield Send(box, src=src, tag="t", payload=payload)

    def receiver():
        msg = yield Recv(box, src=5)
        return msg.payload

    sim.spawn(sender(4, "wrong"))
    sim.spawn(sender(5, "right"))
    r = sim.spawn(receiver())
    sim.run()
    assert r.result == "right"


def test_fifo_order_among_matching_messages():
    sim = Simulator()
    box = _box(sim)

    def sender():
        for i in range(5):
            yield Send(box, src=0, tag="t", payload=i)

    def receiver():
        out = []
        for _ in range(5):
            msg = yield Recv(box, src=0, tag="t")
            out.append(msg.payload)
        return out

    sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert r.result == [0, 1, 2, 3, 4]


def test_fifo_order_among_queued_messages():
    # every message is queued before the first receive is posted, so each
    # receive scans the queue: it takes the oldest match, skipping others
    sim = Simulator()
    box = _box(sim)

    def sender():
        for i in range(6):
            yield Send(box, src=i % 2, tag="odd" if i % 3 else "even", payload=i)

    def receiver():
        yield Delay(1.0)
        out = []
        for src, tag in ((1, "odd"), (ANY, "even"), (ANY, ANY), (0, ANY)):
            msg = yield Recv(box, src=src, tag=tag)
            out.append(msg.payload)
        return out, box.pending

    sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert r.result == ([1, 0, 2, 4], 2)


def test_multiple_posted_receivers_fifo():
    sim = Simulator()
    box = _box(sim)
    got = []

    def receiver(name):
        msg = yield Recv(box)
        got.append((name, msg.payload))

    def sender():
        yield Delay(1.0)
        yield Send(box, src=0, tag="t", payload="m1")
        yield Send(box, src=0, tag="t", payload="m2")

    sim.spawn(receiver("r1"))
    sim.spawn(receiver("r2"))
    sim.spawn(sender())
    sim.run()
    assert got == [("r1", "m1"), ("r2", "m2")]


def test_pending_count():
    sim = Simulator()
    box = _box(sim)

    def sender():
        yield Send(box, src=0, tag="t")
        yield Send(box, src=0, tag="t")

    sim.spawn(sender())
    sim.run()
    assert box.pending == 2
    assert box.delivered == 2
