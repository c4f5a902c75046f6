"""The benchmark's workloads and the capacity each one's rho is taken against.

Why each workload exists is written down in ``perfbench/README.md``;
the one-line reasons also live in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scheduling tick of the wire server, seconds.
TICK_S = 0.005
#: Mean exponential lease hold, seconds.
MEAN_HOLD_S = 0.010
#: Per-request deadline, seconds (the latency limit).
DEADLINE_S = 1.0
#: Measured mean time a resource spends between grants beyond the hold:
#: waiting for the next tick plus the LEASE/RELEASE round trip.  omega-16
#: offered 1200/s and 3000/s served 845/s and 868/s, i.e. 16 resources
#: per ~18.5 ms lease cycle.
TICK_WAIT_S = 0.0085


@dataclass(frozen=True)
class WireWorkload:
    name: str
    network: str
    ports: int
    rate: float
    #: Measured ceiling of the server's own CPU, grants/s (None: not the limit).
    software_ceiling: float | None = None

    def capacity(self, n_resources: int) -> float:
        """Little's-law resource capacity, grants/s."""
        return n_resources / (MEAN_HOLD_S + TICK_WAIT_S)

    def context(self, n_resources: int) -> dict[str, object]:
        capacity = self.capacity(n_resources)
        out: dict[str, object] = {
            "offered_per_s": self.rate,
            "capacity_per_s": round(capacity, 1),
            "rho": round(self.rate / capacity, 3),
            "capacity_from": (
                f"{n_resources} resources / ({MEAN_HOLD_S * 1e3:g} ms mean hold + "
                f"{TICK_WAIT_S * 1e3:g} ms measured tick wait and round trip)"
            ),
        }
        if self.software_ceiling is not None:
            out["rho_software"] = round(self.rate / self.software_ceiling, 3)
            out["software_ceiling_per_s"] = self.software_ceiling
        return out


@dataclass(frozen=True)
class FabricWorkload:
    name: str
    cells: int
    ports: int
    rate: float
    rounds: int
    ticks_per_round: int = 8
    max_hold: int = 6

    def context(self) -> dict[str, object]:
        """rho per cell: offered per tick over ports / (mean hold + 1 tick)."""
        mean_hold = (1 + self.max_hold) / 2
        capacity = self.ports / (mean_hold + 1)
        offered = self.rate * self.ports
        return {
            "offered_per_tick_per_cell": offered,
            "capacity_per_tick_per_cell": round(capacity, 2),
            "rho": round(offered / capacity, 3),
            "capacity_from": (
                f"{self.ports} resources / ({mean_hold:g} ticks mean hold + 1 tick wait)"
            ),
        }


WORKLOADS: dict[str, WireWorkload | FabricWorkload] = {
    w.name: w
    for w in (
        WireWorkload("wire-contended", "omega", 16, 600.0),
        WireWorkload("wire-cpu", "omega", 256, 2000.0, software_ceiling=2500.0),
        WireWorkload("wire-overload", "omega", 16, 1700.0),
        FabricWorkload("fabric-2cell", cells=2, ports=64, rate=0.18, rounds=120),
    )
}
