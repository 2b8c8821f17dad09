"""MPI layer: point-to-point semantics, wildcards, worlds."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MPIError, MPIWorld
from repro.simnet import Network


def flat_network(n=4, latency=1e-4, bandwidth=1e7):
    """n hosts on a switch."""
    net = Network()
    switch = net.add_router("switch")
    hosts = []
    for i in range(n):
        h = net.add_host(f"h{i}")
        net.link(h, switch, latency, bandwidth)
        hosts.append(h)
    return net, hosts


def launch(net, hosts, main, *args):
    world = MPIWorld(net)
    world.add_ranks(hosts)

    def driver():
        return (yield from world.launch(main, *args))

    p = net.sim.process(driver())
    net.sim.run()
    return p.value


def test_rank_and_size():
    net, hosts = flat_network(3)

    def main(comm):
        yield comm.sim.timeout(0)
        return (comm.rank, comm.size)

    results = launch(net, hosts, main)
    assert results == [(0, 3), (1, 3), (2, 3)]


def test_send_recv_pair():
    net, hosts = flat_network(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send({"x": 42}, dest=1, tag=7, nbytes=100)
            return None
        payload, status = yield from comm.recv(source=0, tag=7)
        return (payload, status.source, status.tag, status.nbytes)

    results = launch(net, hosts, main)
    assert results[1] == ({"x": 42}, 0, 7, 100)


def test_messages_from_one_sender_arrive_in_order():
    net, hosts = flat_network(2)

    def main(comm):
        if comm.rank == 0:
            for i in range(10):
                yield from comm.send(i, dest=1, tag=0, nbytes=50)
            return None
        got = []
        for _ in range(10):
            payload, _ = yield from comm.recv(source=0, tag=0)
            got.append(payload)
        return got

    results = launch(net, hosts, main)
    assert results[1] == list(range(10))


def test_tag_selective_recv():
    """recv(tag=5) skips an earlier-arrived tag-3 message."""
    net, hosts = flat_network(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("three", dest=1, tag=3)
            yield from comm.send("five", dest=1, tag=5)
            return None
        payload5, _ = yield from comm.recv(source=0, tag=5)
        payload3, _ = yield from comm.recv(source=0, tag=3)
        return (payload5, payload3)

    results = launch(net, hosts, main)
    assert results[1] == ("five", "three")


def test_any_source_any_tag():
    net, hosts = flat_network(3)

    def main(comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                payload, status = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append((payload, status.source))
            return sorted(got)
        yield from comm.send(f"from-{comm.rank}", dest=0, tag=comm.rank)
        return None

    results = launch(net, hosts, main)
    assert results[0] == [("from-1", 1), ("from-2", 2)]


def test_self_send():
    net, hosts = flat_network(1)

    def main(comm):
        yield from comm.send("me", dest=0, tag=1)
        payload, status = yield from comm.recv()
        return (payload, status.source)

    results = launch(net, hosts, main)
    assert results[0] == ("me", 0)


def test_iprobe():
    net, hosts = flat_network(2)

    def main(comm):
        if comm.rank == 0:
            yield comm.sim.timeout(1.0)
            yield from comm.send("x", dest=1, tag=9)
            return None
        assert comm.iprobe() is None
        yield comm.sim.timeout(2.0)
        st = comm.iprobe(source=0, tag=9)
        assert st is not None and st.tag == 9
        # iprobe does not consume:
        payload, _ = yield from comm.recv(source=0, tag=9)
        return payload

    results = launch(net, hosts, main)
    assert results[1] == "x"


def test_invalid_ranks_and_tags():
    net, hosts = flat_network(2)

    def main(comm):
        yield comm.sim.timeout(0)
        if comm.rank == 0:
            with pytest.raises(MPIError):
                yield from comm.send("x", dest=5)
            with pytest.raises(MPIError):
                yield from comm.send("x", dest=0, tag=-3)
            with pytest.raises(MPIError):
                yield from comm.recv(source=7)
        return True

    assert launch(net, hosts, main) == [True, True]


def test_counters():
    net, hosts = flat_network(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("x", dest=1, nbytes=500)
            return (comm.messages_sent, comm.bytes_sent)
        yield from comm.recv()
        return (comm.messages_received, comm.bytes_received)

    results = launch(net, hosts, main)
    assert results[0] == (1, 500)
    assert results[1] == (1, 500)


def test_world_validation():
    net, hosts = flat_network(2)
    world = MPIWorld(net)

    def init_empty():
        yield from world.initialize()

    p = net.sim.process(init_empty())
    with pytest.raises(MPIError, match="no ranks"):
        net.sim.run()

    world2 = MPIWorld(net)
    world2.add_rank(hosts[0])

    def init_twice():
        yield from world2.initialize()
        with pytest.raises(MPIError, match="already initialized"):
            yield from world2.initialize()
        with pytest.raises(MPIError, match="already initialized"):
            world2.add_rank(hosts[1])
        return True

    p2 = net.sim.process(init_twice())
    net.sim.run()
    assert p2.value is True


def test_first_message_pays_connection_setup():
    net, hosts = flat_network(2, latency=5e-3)

    def main(comm):
        if comm.rank == 0:
            t0 = comm.wtime()
            yield from comm.send("a", dest=1, nbytes=10)
            t1 = comm.wtime()
            yield from comm.send("b", dest=1, nbytes=10)
            t2 = comm.wtime()
            return (t1 - t0, t2 - t1)
        yield from comm.recv()
        yield from comm.recv()
        return None

    results = launch(net, hosts, main)
    first, second = results[0]
    # First send waits for the TCP handshake (~2 * 10 ms RTT legs);
    # the second reuses the cached connection.
    assert first > 15e-3
    assert second < first / 3
