"""Multi-user OCB: the queueing simulation of clients on a shared disk.

Round-robin interleaving of CLIENTN clients on one engine is a
:class:`~repro.core.scenario.Scenario` with ``clients > 1``.
"""

from repro.multiuser.des import (
    ClientTimings,
    SimulatedMultiUser,
    SimulatedRunReport,
)

__all__ = [
    "SimulatedMultiUser",
    "SimulatedRunReport",
    "ClientTimings",
]
