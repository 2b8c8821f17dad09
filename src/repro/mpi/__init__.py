"""An MPICH-G-like message-passing layer over the Nexus library.

Provides what the paper's knapsack application needed from MPICH-G:
rank/size, tagged blocking ``send``/``recv`` and ``iprobe`` with
wildcards, basic collectives, and ``wtime`` — all transparently
crossing firewalls when ranks are configured with the Nexus Proxy.
There are no nonblocking requests and no blocking ``probe``.

The API follows mpi4py's lowercase conventions, adapted to generator
style::

    def main(comm):
        if comm.rank == 0:
            yield from comm.send("work", dest=1, tag=5)
        else:
            payload, status = yield from comm.recv(source=0, tag=5)
        yield from barrier(comm)

    world = MPIWorld(net)
    world.add_ranks(hosts)
    results = yield from world.launch(main)
"""

from repro.mpi.collectives import allreduce, barrier, bcast, gather, reduce
from repro.mpi.communicator import Communicator
from repro.mpi.errors import MPIError
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Envelope, Status
from repro.mpi.world import MPIWorld, RankSpec

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Envelope",
    "MPIError",
    "MPIWorld",
    "RankSpec",
    "Status",
    "allreduce",
    "barrier",
    "bcast",
    "gather",
    "reduce",
]
