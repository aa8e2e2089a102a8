"""Core configuration: widths, structure sizes, execution ports.

Defaults approximate the paper's targets: a wide (4-issue frontend)
core with a ~97-entry unified reservation station (Kaby Lake, §4.1) and
an 8-issue-capable backend, including one *non-pipelined* unit on port 0
standing in for the VSQRTPD/VDIVPD unit the D-cache PoC contends on.
Experiments shrink structures (RS, fetch queue) where the paper's
gadgets need pressure to build quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class PortConfig:
    """One execution port backed by one execution unit."""

    name: str
    pipelined: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("port needs a name")


def default_ports() -> Tuple[PortConfig, ...]:
    """Port map used across the project.

    ====  ==================  ==========
    port  unit                pipelined
    ====  ==================  ==========
    0     sqrt/div (FP)       no
    1     alu0                yes
    2     load / AGU          yes
    3     store               yes
    4     branch              yes
    5     alu1                yes
    ====  ==================  ==========
    """
    return (
        PortConfig("sqrtdiv", pipelined=False),
        PortConfig("alu0"),
        PortConfig("load"),
        PortConfig("store"),
        PortConfig("branch"),
        PortConfig("alu1"),
    )


#: Port indices with stable meanings (match repro.isa.instructions).
NONPIPELINED_PORT = 0
ALU_PORT = 1
LOAD_PORT = 2
STORE_PORT = 3
BRANCH_PORT = 4
ALU2_PORT = 5


@dataclass(frozen=True)
class CoreConfig:
    """All tunables of a single core."""

    fetch_width: int = 4
    dispatch_width: int = 4
    retire_width: int = 4
    cdb_width: int = 2
    #: CDB arbitration: 'age' (oldest-first; the §5.4-safe default) or
    #: 'port' (fixed port priority; exposes the Fig. 1 CDB channel).
    cdb_arbitration: str = "age"
    rob_size: int = 224
    rs_size: int = 97
    fetch_queue_size: int = 24
    lsu_size: int = 48
    squash_redirect_penalty: int = 2
    ports: Tuple[PortConfig, ...] = field(default_factory=default_ports)
    #: Lines remembered by the frontend's fetch-line buffer (used when a
    #: scheme makes speculative I-fetches invisible, so the frontend does
    #: not re-request the same line every cycle).
    fetch_buffer_lines: int = 8
    #: Latency of a store-to-load forward.
    store_forward_latency: int = 3
    #: Safety cap on simulated cycles before Core.run aborts.
    max_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        for name, value in (
            ("fetch_width", self.fetch_width),
            ("dispatch_width", self.dispatch_width),
            ("retire_width", self.retire_width),
            ("cdb_width", self.cdb_width),
            ("rob_size", self.rob_size),
            ("rs_size", self.rs_size),
            ("fetch_queue_size", self.fetch_queue_size),
            ("lsu_size", self.lsu_size),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.ports:
            raise ValueError("need at least one execution port")
        if self.cdb_arbitration not in ("age", "port"):
            raise ValueError("cdb_arbitration must be 'age' or 'port'")
