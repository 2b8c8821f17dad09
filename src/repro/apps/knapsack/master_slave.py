"""The parallel 0-1 knapsack: master/slave self-scheduling (§4.3).

The paper's algorithm, verbatim in structure:

* A master reads the data file and pushes the root node onto its
  stack.  It repeats the branch operation ``interval`` times, then
  serves pending steal requests, sending ``stealunit`` nodes from the
  *top* of its stack to each requesting slave.  If a slave has sent
  back nodes, the master receives them and pushes them onto the stack.
* A slave repeats the branch operation until its stack is empty, then
  sends a steal request to the master.  A slave sends back
  ``backunit`` nodes when it has too many nodes on its stack.

"interval is the frequency of the master's check of a slave's steal
requests, and stealunit is the amount of nodes to steal."

Two aspects the paper leaves implicit are made explicit (and
ablatable) here:

* **Serve reserve.**  The master never hands out its entire stack: it
  keeps ``keep_on_serve`` nodes so it retains work (and with it the
  big shallow subtrees) to keep feeding later requesters.  Requesters
  it cannot serve are parked and served as soon as work exists again.
* **Circulation.**  Send-back is what keeps the system balanced: a
  slave holding a large subtree returns its *shallowest* pending
  nodes (the biggest chunks) once its stack exceeds
  ``back_threshold``, and the master redistributes them.  Without it,
  whichever slave receives the root region would finish the tree
  alone — the starvation mode our ablation bench demonstrates.

Termination: a slave that requests work while no work exists is
parked; when the master's stack is empty, no nodes are in flight, and
every slave is parked, the master broadcasts termination.  A parked
slave's stack is empty by construction, so this is sound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Literal, Optional

from repro.obs import spans as _obs

from repro.apps.knapsack.instance import KnapsackInstance
from repro.apps.knapsack.search import Node, SearchState
from repro.apps.knapsack.sequential import DEFAULT_NODE_COST
from repro.mpi.collectives import bcast, reduce
from repro.mpi.communicator import Communicator
from repro.simnet.kernel import Event

__all__ = ["SchedulingParams", "RankStats", "knapsack_rank_main", "MASTER_RANK"]

MASTER_RANK = 0

#: Message tags.
TAG_STEAL_REQ = 1
TAG_WORK = 2
TAG_BACK = 3

#: Wire size of one search node (three integers + slack).
NODE_BYTES = 16
#: Wire size of control-only messages.
CTRL_BYTES = 32


@dataclass(frozen=True, slots=True)
class SchedulingParams:
    """The knobs of §4.3/§4.4 ("We varied a stealunit, interval, and
    backunit and took the best combination")."""

    #: Branch operations between the master's steal-request checks.
    interval: int = 25
    #: Nodes sent per steal.
    stealunit: int = 8
    #: Nodes a slave sends back per send-back event.
    backunit: int = 4
    #: Stack depth that counts as "too many nodes on the stack".
    #: ``None`` = auto (see :meth:`resolve_back_threshold`).  Note that
    #: for capacity-limited instances the DFS stack holds one pending
    #: sibling per *two-child* branching, so depths stay near
    #: ``log2(subtree)`` — the threshold must sit well below the item
    #: count or send-back never fires and the endgame serializes on
    #: whichever slave holds the last big subtree (the scorecard row
    #: ``abl.tuning.no-send-back`` shows the cliff).
    back_threshold: Optional[int] = None
    #: Batches between a slave's send-back checks.  Send-back is
    #: *periodic*: every ``back_every`` batches a slave with more than
    #: ``back_threshold`` stacked nodes returns its surplus bottom
    #: (largest) nodes.  A purely depth-triggered rule is fragile for
    #: this tree family — DFS stacks hover near 8 regardless of how
    #: much work remains, so a slave holding a multi-million-node
    #: subtree can starve everyone else through the whole endgame.
    back_every: int = 64
    #: Nodes the master retains when serving a steal.
    keep_on_serve: int = 2
    #: Which end of the master's stack steals come from.  "top" is the
    #: paper's wording (deep nodes, fine grain); "bottom" is classic
    #: steal-the-oldest (coarse grain) — compared in the ablation.
    steal_from: Literal["top", "bottom"] = "top"
    #: Reference-CPU seconds per branch operation.
    node_cost: float = DEFAULT_NODE_COST
    #: Enable bound pruning (the paper's runs use False).
    prune: bool = False
    #: With pruning: piggyback the best-known value on steal traffic
    #: so every process prunes against the *global* incumbent, not
    #: just its own.  An extension beyond the paper (its runs pruned
    #: nothing); ablated in ``tests/knapsack/test_shared_bounds.py``.
    share_bounds: bool = False
    #: Search-engine implementation: ``"fast"`` (table-driven packed
    #: kernel, fused slave batches, master batches walked only when
    #: its stack is read), ``"seed"`` (the original tuple-stack loop
    #: walking every batch, with one simulator yield per batch), or
    #: ``"auto"`` (defer to ``REPRO_SEARCH_ENGINE``, default fast).
    #: Purely an implementation knob: simulated results are identical
    #: (the determinism suite compares them); only host-CPU time
    #: differs.
    engine: Literal["auto", "fast", "seed"] = "auto"

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.stealunit < 1:
            raise ValueError("stealunit must be >= 1")
        if self.backunit < 1:
            raise ValueError("backunit must be >= 1")
        if self.keep_on_serve < 0:
            raise ValueError("keep_on_serve must be >= 0")
        if self.node_cost < 0:
            raise ValueError("node_cost must be >= 0")
        if self.steal_from not in ("top", "bottom"):
            raise ValueError(f"steal_from must be 'top' or 'bottom'")
        if self.back_every < 1:
            raise ValueError("back_every must be >= 1")
        if self.back_threshold is not None:
            if self.back_threshold != 0 and self.back_threshold <= self.backunit:
                raise ValueError("back_threshold must exceed backunit (or be 0)")
        if self.share_bounds and not self.prune:
            raise ValueError("share_bounds requires prune=True")
        if self.engine not in ("auto", "fast", "seed"):
            raise ValueError(f"engine must be 'auto', 'fast' or 'seed'")

    def resolve_back_threshold(self, n_items: int) -> int:
        """The effective "too many" depth (0 disables send-back).

        The auto value is tuned for the paper's capacity-limited
        instance family, where working stack depths sit around
        ``log2(subtree size)`` rather than near ``n_items``.
        """
        if self.back_threshold is not None:
            return self.back_threshold
        return max(self.backunit + 2, 6)


@dataclass
class RankStats:
    """Per-process accounting behind Tables 4, 5 and 6."""

    rank: int
    host: str
    is_master: bool
    nodes_traversed: int = 0
    #: Slaves: steal requests sent.  Master: steal requests served
    #: with work (the Table 5 "Master" column).
    steal_requests: int = 0
    #: Nodes shipped away (master→slave work, slave→master backs).
    nodes_sent: int = 0
    #: Nodes received (stolen or sent back).
    nodes_received: int = 0
    #: Send-back events (slave→master).
    back_transfers: int = 0
    best_value: int = 0
    #: Global optimum as agreed by the final reduction.
    global_best: int = 0
    finished_at: float = 0.0
    #: Simulated seconds this rank spent waiting for work (a slave's
    #: steal-request → work-arrival gaps summed; 0 for the master).
    idle_time: float = 0.0

    def snapshot(self) -> "dict[str, object]":
        """Plain-data view for the metrics registry."""
        return dataclasses.asdict(self)


def _work_bytes(nodes: "list[Node]") -> int:
    return CTRL_BYTES + NODE_BYTES * len(nodes)


def knapsack_rank_main(
    comm: Communicator,
    instance: KnapsackInstance,
    params: Optional[SchedulingParams] = None,
) -> Iterator[Event]:
    """Per-rank program; run it with
    :meth:`repro.mpi.world.MPIWorld.launch`.  Returns its
    :class:`RankStats`."""
    if params is None:
        params = SchedulingParams()
    if comm.rank == MASTER_RANK:
        stats = yield from _master(comm, instance, params)
    else:
        stats = yield from _slave(comm, instance, params)
    # Agree on the answer (and implicitly barrier before teardown).
    best = yield from reduce(comm, stats.best_value, max, root=MASTER_RANK)
    stats.global_best = (yield from bcast(comm, best, root=MASTER_RANK))
    stats.finished_at = comm.wtime()
    return stats


# -- master ---------------------------------------------------------------


def _master(
    comm: Communicator, instance: KnapsackInstance, p: SchedulingParams
) -> Iterator[Event]:
    host = comm.host
    state = SearchState(instance, prune=p.prune, engine=p.engine)
    state.push_root()
    stats = RankStats(comm.rank, host.name, is_master=True)
    nslaves = comm.size - 1
    idle: list[int] = []
    take = (
        state.take_from_top if p.steal_from == "top" else state.take_from_bottom
    )

    def servable() -> int:
        return max(0, state.depth - p.keep_on_serve)

    def serve(slave: int) -> Iterator[Event]:
        count = min(p.stealunit, max(1, servable()))
        nodes = take(count)
        stats.steal_requests += 1
        stats.nodes_sent += len(nodes)
        rec = _obs.RECORDER
        if rec is not None:
            rec.sim_instant("steal", "serve", comm.sim.now,
                            track=f"rank:{comm.rank}",
                            slave=slave, nodes=len(nodes))
        work = (nodes, state.best_value) if p.share_bounds else nodes
        yield from comm.send(work, dest=slave, tag=TAG_WORK,
                             nbytes=_work_bytes(nodes))

    def absorb_bound(value) -> None:
        if value is not None and value > state.best_value:
            state.best_value = value

    def handle(payload, status) -> Iterator[Event]:
        if status.tag == TAG_STEAL_REQ:
            if p.share_bounds:
                absorb_bound(payload)
            if servable() > 0:
                yield from serve(status.source)
            else:
                idle.append(status.source)
        elif status.tag == TAG_BACK:
            if p.share_bounds:
                nodes, bound = payload
                absorb_bound(bound)
            else:
                nodes = payload
            stats.nodes_received += len(nodes)
            state.push_nodes(nodes)
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"master got unexpected tag {status.tag}")

    while True:
        if not state.exhausted:
            ops = state.branch(p.interval)
            if p.node_cost:
                yield host.compute(ops * p.node_cost)
            # Drain whatever arrived during the batch.
            while comm.iprobe() is not None:
                payload, status = yield from comm.recv()
                yield from handle(payload, status)
            # Work may now exist for parked slaves.
            while idle and servable() > 0:
                yield from serve(idle.pop())
            continue
        # Master's stack is empty.
        if nslaves == 0 or len(idle) == nslaves:
            break
        # Block for the next event; work may come back via TAG_BACK.
        payload, status = yield from comm.recv()
        yield from handle(payload, status)
        while idle and servable() > 0:
            yield from serve(idle.pop())

    for slave in range(1, comm.size):
        yield from comm.send(None, dest=slave, tag=TAG_WORK, nbytes=CTRL_BYTES)
    stats.nodes_traversed = state.nodes_traversed
    stats.best_value = state.best_value
    return stats


# -- slave ----------------------------------------------------------------


def _slave(
    comm: Communicator, instance: KnapsackInstance, p: SchedulingParams
) -> Iterator[Event]:
    host = comm.host
    state = SearchState(instance, prune=p.prune, engine=p.engine)
    stats = RankStats(comm.rank, host.name, is_master=False)
    back_threshold = p.resolve_back_threshold(instance.n)
    batches_since_back = 0
    # A slave's only observable interactions between communication
    # points are its compute charges, so with the fast engine its
    # batches are *fused*: branch_fused runs whole batches in one
    # Python frame until exhaustion or a due send-back — consuming
    # every subtree no send-back check can observe in one lookup, and
    # adding each crossed batch's cost in order — and the accumulated
    # cost is charged in a single compute yield.  The master keeps
    # one compute charge and one iprobe drain per batch — the drain
    # bounds steal-request latency, and those events are part of the
    # result — but on the fast engine its batches only debit the
    # subtree tables: its stack is walked when a message or a parked
    # slave next reads it.
    fused = state.engine == "fast"

    while True:
        if state.exhausted:
            # "If the stack is empty, the slave sends a steal request."
            t_idle = comm.sim.now
            req = state.best_value if p.share_bounds else None
            yield from comm.send(req, dest=MASTER_RANK, tag=TAG_STEAL_REQ,
                                 nbytes=CTRL_BYTES)
            stats.steal_requests += 1
            payload, _ = yield from comm.recv(source=MASTER_RANK, tag=TAG_WORK)
            stats.idle_time += comm.sim.now - t_idle
            rec = _obs.RECORDER
            if rec is not None:
                rec.sim_span("steal", "idle_wait", t_idle, comm.sim.now,
                             track=f"rank:{comm.rank}",
                             terminated=payload is None)
            if payload is None:
                break  # terminated
            if p.share_bounds:
                nodes, bound = payload
                if bound > state.best_value:
                    state.best_value = bound
            else:
                nodes = payload
            stats.nodes_received += len(nodes)
            state.push_nodes(nodes)
            batches_since_back = 0
            continue
        if fused:
            cost, batches_since_back = state.branch_fused(
                p.interval, p.node_cost, batches_since_back,
                p.back_every, back_threshold,
            )
            if p.node_cost:
                yield host.compute(cost)
        else:
            ops = state.branch(p.interval)
            if p.node_cost:
                yield host.compute(ops * p.node_cost)
            batches_since_back += 1
        if (
            back_threshold
            and batches_since_back >= p.back_every
            and state.depth > back_threshold
        ):
            # "A slave sends back backunit nodes when the slave has too
            # many nodes on the stack."  The shallowest pending nodes
            # go back — the large subtrees this slave won't reach soon.
            batches_since_back = 0
            nodes = state.take_from_bottom(
                min(p.backunit, state.depth - back_threshold)
            )
            stats.back_transfers += 1
            stats.nodes_sent += len(nodes)
            rec = _obs.RECORDER
            if rec is not None:
                rec.sim_instant("steal", "back_transfer", comm.sim.now,
                                track=f"rank:{comm.rank}", nodes=len(nodes))
            back = (nodes, state.best_value) if p.share_bounds else nodes
            yield from comm.send(back, dest=MASTER_RANK, tag=TAG_BACK,
                                 nbytes=_work_bytes(nodes))
    stats.nodes_traversed = state.nodes_traversed
    stats.best_value = state.best_value
    return stats
