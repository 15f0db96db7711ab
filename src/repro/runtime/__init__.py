"""Round-based synchronous simulation substrate (paper Section 3).

Authenticated reliable full-mesh messaging, the three-phase round
structure (send / receive / compute), fault controllers realising the
mobile Byzantine models M1-M4 and the static mixed-mode model, and the
trace machinery every experiment consumes.
"""

from .config import MobileFaultSetup, SimulationConfig, StaticMixedSetup
from .controllers import (
    FaultController,
    MobileFaultController,
    RoundPlan,
    StaticMixedController,
)
from .families import (
    BonomiFamily,
    ProtocolFamily,
    family_names,
    get_family,
    register_family,
)
from .kernel import RoundKernel, compile_msr, distinct_inbox_groups
from .network import Message, RoundDelivery, SynchronousNetwork
from .protocol import MSRVotingProtocol, StatefulRoundProtocol, VotingProtocol
from .tseng import TsengFamily, TsengProtocol
from .witness import WitnessFamily, WitnessProtocol
from .rng import derive_rng, spawn_seeds
from .serialize import dump_trace, load_trace, trace_from_dict, trace_to_dict
from .simulator import (
    SynchronousSimulator,
    TraceDetail,
    run_simulation,
)
from .termination import (
    EstimatedRounds,
    FixedRounds,
    OracleDiameter,
    TerminationRule,
    rounds_to_reach,
)
from .trace import LiteTrace, RoundRecord, Trace

__all__ = [
    "SimulationConfig",
    "MobileFaultSetup",
    "StaticMixedSetup",
    "FaultController",
    "MobileFaultController",
    "StaticMixedController",
    "RoundPlan",
    "SynchronousNetwork",
    "Message",
    "RoundDelivery",
    "VotingProtocol",
    "MSRVotingProtocol",
    "StatefulRoundProtocol",
    "ProtocolFamily",
    "BonomiFamily",
    "TsengFamily",
    "TsengProtocol",
    "WitnessFamily",
    "WitnessProtocol",
    "register_family",
    "get_family",
    "family_names",
    "TerminationRule",
    "FixedRounds",
    "OracleDiameter",
    "EstimatedRounds",
    "rounds_to_reach",
    "SynchronousSimulator",
    "run_simulation",
    "RoundKernel",
    "compile_msr",
    "distinct_inbox_groups",
    "TraceDetail",
    "RoundRecord",
    "Trace",
    "LiteTrace",
    "derive_rng",
    "spawn_seeds",
    "trace_to_dict",
    "trace_from_dict",
    "dump_trace",
    "load_trace",
]
