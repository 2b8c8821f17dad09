"""RMF — the Resource Manager beyond the Firewall.

A GRAM-compatible job-management system that lets computing resources
*inside* a firewall serve a metacomputing grid whose entry point (the
gatekeeper) runs *outside* (§2, Fig. 2):

* :class:`~repro.rmf.gatekeeper.Gatekeeper` + job manager — outside;
* :class:`~repro.rmf.allocator.ResourceAllocator` — inside;
* :class:`~repro.rmf.qsystem.QServer` — one per computing resource;
* :class:`~repro.rmf.qsystem.QClient` — created by the job manager,
  bridging the two worlds through two firewall pinholes;
* :mod:`~repro.rmf.gass` — file staging, :mod:`~repro.rmf.rsl` — the
  request language.

Use :class:`~repro.rmf.gatekeeper.RMFSystem` to wire a deployment in
one go.  A submitted job runs to completion: there is no cancellation
and no multi-gatekeeper co-allocation.
"""

from repro.rmf.allocator import (
    AllocReply,
    AllocRequest,
    Assignment,
    LoadReport,
    RegisterResource,
    ResourceAllocator,
    ResourceInfo,
)
from repro.rmf.executables import ExecutableRegistry, ExecutionContext, default_registry
from repro.rmf.gass import FileStore, StagingError
from repro.rmf.gatekeeper import (
    Gatekeeper,
    GramReply,
    GramRequest,
    RMFSystem,
    submit_job,
)
from repro.rmf.jobs import JobRecord, JobResult, JobSpec, JobState, RMFError
from repro.rmf.qsystem import QClient, QServer
from repro.rmf.rsl import RSLError, parse_rsl, unparse_rsl

__all__ = [
    "AllocReply",
    "AllocRequest",
    "Assignment",
    "ExecutableRegistry",
    "ExecutionContext",
    "FileStore",
    "Gatekeeper",
    "GramReply",
    "GramRequest",
    "JobRecord",
    "JobResult",
    "JobSpec",
    "JobState",
    "LoadReport",
    "QClient",
    "QServer",
    "RMFError",
    "RMFSystem",
    "RSLError",
    "RegisterResource",
    "ResourceAllocator",
    "ResourceInfo",
    "StagingError",
    "default_registry",
    "parse_rsl",
    "submit_job",
    "unparse_rsl",
]
