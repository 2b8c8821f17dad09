"""Collective operations."""

import operator

from repro.mpi import MPIWorld, allreduce, barrier, bcast, gather, reduce

from .test_mpi import flat_network, launch  # noqa: F401  (helper reuse)


def test_barrier_synchronizes():
    net, hosts = flat_network(4)

    def main(comm):
        # Each rank sleeps a different time before the barrier.
        yield comm.sim.timeout(comm.rank * 2.0)
        yield from barrier(comm)
        return comm.wtime()

    times = launch(net, hosts, main)
    slowest = max(times)
    # Nobody leaves before the slowest entered (6.0 s).
    assert all(t >= 6.0 for t in times)
    assert slowest - min(times) < 0.5  # release is near-simultaneous


def test_bcast():
    net, hosts = flat_network(4)

    def main(comm):
        value = {"params": [1, 2, 3]} if comm.rank == 0 else None
        got = yield from bcast(comm, value, root=0, nbytes=200)
        return got

    results = launch(net, hosts, main)
    assert all(r == {"params": [1, 2, 3]} for r in results)


def test_bcast_nonzero_root():
    net, hosts = flat_network(3)

    def main(comm):
        value = "from-2" if comm.rank == 2 else None
        return (yield from bcast(comm, value, root=2))

    assert launch(net, hosts, main) == ["from-2"] * 3


def test_gather():
    net, hosts = flat_network(4)

    def main(comm):
        return (yield from gather(comm, comm.rank * 10, root=0))

    results = launch(net, hosts, main)
    assert results[0] == [0, 10, 20, 30]
    assert results[1:] == [None, None, None]


def test_reduce_sum():
    net, hosts = flat_network(5)

    def main(comm):
        return (yield from reduce(comm, comm.rank + 1, operator.add, root=0))

    results = launch(net, hosts, main)
    assert results[0] == 15
    assert results[1:] == [None] * 4


def test_allreduce_max():
    net, hosts = flat_network(4)

    def main(comm):
        return (yield from allreduce(comm, comm.rank * 7, max))

    assert launch(net, hosts, main) == [21] * 4


def test_consecutive_collectives_do_not_cross_talk():
    net, hosts = flat_network(3)

    def main(comm):
        a = yield from bcast(comm, "first" if comm.rank == 0 else None)
        b = yield from bcast(comm, "second" if comm.rank == 0 else None)
        yield from barrier(comm)
        c = yield from allreduce(comm, 1, operator.add)
        return (a, b, c)

    results = launch(net, hosts, main)
    assert all(r == ("first", "second", 3) for r in results)


def test_collectives_coexist_with_p2p_traffic():
    net, hosts = flat_network(2)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("p2p", dest=1, tag=0)
            v = yield from bcast(comm, "coll", root=0)
            return v
        v = yield from bcast(comm, None, root=0)
        payload, _ = yield from comm.recv(source=0, tag=0)
        return (v, payload)

    results = launch(net, hosts, main)
    assert results[0] == "coll"
    assert results[1] == ("coll", "p2p")
