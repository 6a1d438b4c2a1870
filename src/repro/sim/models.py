"""Cost models for the machines in the paper's evaluation (section 5).

Each :class:`MachineModel` (declared with the machine interface, in
:mod:`repro.machine.interface`) decomposes the cost of moving one message
into the terms the paper's round-trip experiment measures:

* **native software overheads** — per-message CPU cost on the sender and
  receiver in the lowest-level communication layer available on that
  machine (FM on Myrinet, SUNMOS on the Paragon, ...).  This is the
  baseline Converse is compared against.
* **wire terms** — per-hop latency, per-byte cost (inverse bandwidth),
  and packetization: messages larger than ``packet_size`` are split and
  each extra packet costs ``per_packet`` of software time.
* **extra-copy threshold** — the T3D port copies messages of 16 KB and up
  during packetization ("the jump at 16K bytes (Figure 5) is due to
  copying during packetization"); that is modelled by charging
  ``copy_per_byte`` for every byte of a message at or above
  ``copy_threshold``.
* **Converse overheads** — the few-tens-of-instructions cost of the
  generalized-message header on the sender (``cvs_send_extra``) and the
  handler-table lookup + indirect call on the receiver
  (``cvs_dispatch_extra``).  The paper reports 25 µs native vs 31 µs
  Converse for <=128 B messages on Myrinet/FM, i.e. ~6 µs combined.
* **scheduler queueing overheads** — paid only when a handler routes the
  message through the Csd queue (``CsdEnqueue`` + dequeue + re-dispatch),
  "about 9 to 15 microseconds for short messages" in Figure 6.

Calibration sources: the numbers quoted in the paper's text for Myrinet/FM
and the T3D, and era-typical published latency/bandwidth figures for the
other machines (the paper's own figures are images without tables).  The
benchmarks assert *shapes* — who wins, roughly by how much, where jumps
fall — not these absolute constants.
"""

from __future__ import annotations

from repro.machine.interface import GENERIC, US, MachineModel

__all__ = [
    "MachineModel",
    "GENERIC",
    "ATM_HP",
    "T3D",
    "MYRINET_FM",
    "SP1",
    "PARAGON",
    "ALL_MODELS",
    "model_by_name",
]

#: Figure 4 — HP workstations on an ATM switch.  ATM OC-3 (155 Mb/s,
#: ~19.4 MB/s) with heavyweight mid-90s protocol processing in the host.
ATM_HP = MachineModel(
    name="atm_hp",
    description="HP workstations + ATM switch (Figure 4)",
    send_overhead=120.0 * US,
    recv_overhead=120.0 * US,
    latency_per_hop=200.0 * US,
    per_byte=0.0515 * US,          # ~19.4 MB/s
    packet_size=9180,              # ATM AAL5 default MTU
    per_packet=40.0 * US,
    cvs_send_extra=4.0 * US,
    cvs_dispatch_extra=4.0 * US,
    enqueue_cost=6.0 * US,
    dequeue_cost=7.0 * US,
    topology="flat",
)

#: Figure 5 — Cray T3D.  Very low short-message cost ("very close to the
#: best possible on the Cray hardware"), 3-D torus, and an extra copy
#: during packetization for messages of 16 KB and up (the figure's jump).
T3D = MachineModel(
    name="t3d",
    description="Cray T3D (Figure 5; 16 KB packetization-copy jump)",
    send_overhead=1.8 * US,
    recv_overhead=1.8 * US,
    latency_per_hop=0.35 * US,
    per_byte=0.0083 * US,          # ~120 MB/s
    packet_size=4096,
    per_packet=2.0 * US,
    copy_threshold=16 * 1024,
    copy_per_byte=0.010 * US,      # the extra memcpy
    cvs_send_extra=1.2 * US,
    cvs_dispatch_extra=1.2 * US,
    enqueue_cost=2.0 * US,
    dequeue_cost=2.5 * US,
    topology="torus3d",
)

#: Figure 6 — Sun workstations + Myrinet with the FM (Fast Messages)
#: layer.  Calibrated to the paper's text: FM delivers <=128 B in ~25 us,
#: Converse in ~31 us; routing through the Csd queue adds 9-15 us for
#: short messages.
MYRINET_FM = MachineModel(
    name="myrinet_fm",
    description="Suns + Myrinet/FM (Figure 6; 25 us native vs 31 us Converse)",
    send_overhead=8.0 * US,
    recv_overhead=8.0 * US,
    latency_per_hop=7.5 * US,
    per_byte=0.0125 * US,          # ~80 MB/s
    packet_size=4096,
    per_packet=4.0 * US,
    cvs_send_extra=3.0 * US,
    cvs_dispatch_extra=3.0 * US,
    enqueue_cost=5.0 * US,
    dequeue_cost=6.0 * US,
    topology="flat",
)

#: Figure 7 — IBM SP-1 (Vulcan multistage switch, MPL message layer).
SP1 = MachineModel(
    name="sp1",
    description="IBM SP-1 (Figure 7)",
    send_overhead=22.0 * US,
    recv_overhead=22.0 * US,
    latency_per_hop=6.0 * US,
    per_byte=0.0286 * US,          # ~35 MB/s
    packet_size=8192,
    per_packet=10.0 * US,
    cvs_send_extra=4.0 * US,
    cvs_dispatch_extra=4.0 * US,
    enqueue_cost=6.0 * US,
    dequeue_cost=7.0 * US,
    topology="multistage",
)

#: Figure 8 — Intel Paragon running SUNMOS (lightweight kernel; far lower
#: overheads than OSF/1 on the same hardware).
PARAGON = MachineModel(
    name="paragon",
    description="Intel Paragon + SUNMOS (Figure 8)",
    send_overhead=11.0 * US,
    recv_overhead=11.0 * US,
    latency_per_hop=1.0 * US,
    per_byte=0.00625 * US,         # ~160 MB/s
    packet_size=8192,
    per_packet=5.0 * US,
    cvs_send_extra=3.0 * US,
    cvs_dispatch_extra=3.0 * US,
    enqueue_cost=5.0 * US,
    dequeue_cost=6.0 * US,
    topology="mesh2d",
)

ALL_MODELS = {
    m.name: m for m in (GENERIC, ATM_HP, T3D, MYRINET_FM, SP1, PARAGON)
}


def model_by_name(name: str) -> MachineModel:
    """Look up a machine model by its ``name`` field."""
    try:
        return ALL_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown machine model {name!r}; choose from {sorted(ALL_MODELS)}"
        ) from None
