"""Machine catalogue: the hardware of Figure 5, as simulator parameters.

``cpu_speed`` is relative to RWCP-Sun (the Sun Enterprise 450 the
sequential knapsack baseline ran on, so speedups in Table 4 are
defined against it).  The values are era-plausible single-CPU ratios:

* RWCP-Sun / ETL-Sun / Inner — UltraSPARC-II Enterprise 450s → 1.0;
* COMPaS nodes — 200 MHz Pentium Pro → 0.55 (the paper's Table 4
  shape needs COMPaS processors distinctly slower than the Suns);
* ETL-O2K — 195 MHz R10000 Origin 2000 → 0.90;
* Outer — Sun Ultra 80 (newer, faster clock) → 1.30.

These are *calibration constants*, surfaced here in one place;
EXPERIMENTS.md's calibration summary says which paper figures pin them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "CATALOGUE"]


@dataclass(frozen=True, slots=True)
class MachineSpec:
    """One machine model from the Figure 5 table."""

    nickname: str
    description: str
    site: str
    cpus: int
    cpu_speed: float

    def __post_init__(self) -> None:
        if self.cpus < 1:
            raise ValueError(f"{self.nickname}: cpus must be >= 1")
        if self.cpu_speed <= 0:
            raise ValueError(f"{self.nickname}: cpu_speed must be positive")


#: The Figure 5 machine table, verbatim structure.
CATALOGUE: dict[str, MachineSpec] = {
    "RWCP-Sun": MachineSpec(
        "RWCP-Sun", "Sun Enterprise 450 (4CPU)", "RWCP", cpus=4, cpu_speed=1.0
    ),
    "COMPaS-node": MachineSpec(
        "COMPaS-node",
        "Pentium Pro SMP cluster node (4CPU x 8nodes, 200MHz)",
        "RWCP",
        cpus=4,
        cpu_speed=0.55,
    ),
    "ETL-Sun": MachineSpec(
        "ETL-Sun", "Sun Enterprise 450 (6CPU)", "ETL", cpus=6, cpu_speed=1.0
    ),
    "ETL-O2K": MachineSpec(
        "ETL-O2K", "SGI Origin 2000 (16CPU)", "ETL", cpus=16, cpu_speed=0.90
    ),
    "Inner-Server": MachineSpec(
        "Inner-Server",
        "Sun Ultra Enterprise 450 (2CPU)",
        "RWCP",
        cpus=2,
        cpu_speed=1.0,
    ),
    "Outer-Server": MachineSpec(
        "Outer-Server", "Sun Ultra 80 (2CPU)", "RWCP (outside firewall)",
        cpus=2, cpu_speed=1.30,
    ),
}

#: COMPaS has eight nodes (the paper uses one processor on each).
COMPAS_NODES = 8
