"""Collective operations over point-to-point messaging.

Flat (root-centred) algorithms — the right model for the paper's era
and scale: MPICH-G's collectives were topology-unaware trees over a
handful of processes, and the knapsack application is master/slave
anyway.  Each collective call consumes one internal tag from a
sequence shared by all ranks (MPI's ordering rule for collectives
makes the sequences agree), so concurrent application traffic with any
user tag can't be confused with collective traffic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.mpi.communicator import Communicator
from repro.simnet.kernel import Event

__all__ = ["barrier", "bcast", "gather", "reduce", "allreduce"]

#: Tag space reserved for collectives (applications use small tags).
_COLL_TAG_BASE = 1 << 20
#: Wrap the sequence so tags stay bounded.
_COLL_TAG_SPAN = 1 << 16


def _next_tag(comm: Communicator) -> int:
    tag = _COLL_TAG_BASE + (comm._coll_seq % _COLL_TAG_SPAN)
    comm._coll_seq += 1
    return tag


def barrier(comm: Communicator) -> Iterator[Event]:
    """Generator: block until every rank has entered the barrier."""
    tag = _next_tag(comm)
    if comm.rank == 0:
        for _ in range(comm.size - 1):
            yield from comm.recv(tag=tag)
        for dest in range(1, comm.size):
            yield from comm._send_internal(None, dest, tag + 1, 16)
    else:
        yield from comm._send_internal(None, 0, tag, 16)
        yield from comm.recv(source=0, tag=tag + 1)
    # Rank 0 consumed two tags' worth of sequence on everyone.
    comm._coll_seq += 1


def bcast(
    comm: Communicator,
    value: Any = None,
    root: int = 0,
    nbytes: Optional[int] = None,
) -> Iterator[Event]:
    """Generator: root's ``value`` is returned on every rank."""
    comm._check_rank(root, "root")
    tag = _next_tag(comm)
    if comm.rank == root:
        for dest in range(comm.size):
            if dest != root:
                yield from comm._send_internal(value, dest, tag, nbytes)
        return value
    payload, _ = yield from comm.recv(source=root, tag=tag)
    return payload


def gather(
    comm: Communicator,
    value: Any,
    root: int = 0,
    nbytes: Optional[int] = None,
) -> Iterator[Event]:
    """Generator: root returns ``[value_0, ..., value_{size-1}]``;
    other ranks return ``None``."""
    comm._check_rank(root, "root")
    tag = _next_tag(comm)
    if comm.rank == root:
        values: list[Any] = [None] * comm.size
        values[root] = value
        for _ in range(comm.size - 1):
            payload, status = yield from comm.recv(tag=tag)
            values[status.source] = payload
        return values
    yield from comm._send_internal(value, root, tag, nbytes)
    return None


def reduce(
    comm: Communicator,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
    nbytes: Optional[int] = None,
) -> Iterator[Event]:
    """Generator: fold every rank's ``value`` with ``op`` at root.

    ``op`` must be associative and commutative (values are folded in
    rank order for determinism, but the contract is MPI's).
    """
    values = yield from gather(comm, value, root=root, nbytes=nbytes)
    if comm.rank != root:
        return None
    assert values is not None
    acc = values[0]
    for v in values[1:]:
        acc = op(acc, v)
    return acc


def allreduce(
    comm: Communicator,
    value: Any,
    op: Callable[[Any, Any], Any],
    nbytes: Optional[int] = None,
) -> Iterator[Event]:
    """Generator: :func:`reduce` to rank 0, then :func:`bcast`."""
    total = yield from reduce(comm, value, op, root=0, nbytes=nbytes)
    result = yield from bcast(comm, total, root=0, nbytes=nbytes)
    return result
