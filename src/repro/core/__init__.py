"""VULFI — the Vector oriented Utah LLVM Fault Injector (reproduced).

The paper's primary contribution: fault-site enumeration with per-lane
vector expansion (§II-B), forward-slice site classification (§II-C),
mask-aware per-lane instrumentation (§II-D), the two-execution injection
strategy, outcome classification, and campaign statistics (§IV).
"""

from .campaign import (
    CampaignConfig,
    CampaignStats,
    CampaignSummary,
    run_batch,
    run_campaigns,
    would_converge,
)
from .classify import ADDRESS, CONTROL, PURE_DATA, classify_instruction
from .cluster import (
    ClusterResult,
    ShardOutcome,
    merged_cell_summary,
    run_cell_sharded,
    run_sharded,
)
from .direct import build_injection_plan, chain_tax
from .injector import ENGINES, FaultInjector, GoldenCache, GoldenRun, clone_module
from .parallel import DEFAULT_CHUNKSIZE, ScheduledExperiment, SweepPool
from .instrument import Instrumentor, instrument_module
from .outcomes import ExperimentResult, Outcome, outputs_equal, values_equal
from .runtime import (
    API,
    FaultRuntime,
    InjectionRecord,
    MODE_COUNT,
    MODE_INJECT,
    api_name_for,
    declare_api,
)
from .sites import (
    CATEGORIES,
    MaskSpec,
    StaticSite,
    enumerate_module_sites,
    enumerate_sites,
    filter_sites,
)

__all__ = [
    "CampaignConfig",
    "CampaignStats",
    "CampaignSummary",
    "ClusterResult",
    "ShardOutcome",
    "merged_cell_summary",
    "run_batch",
    "run_campaigns",
    "run_cell_sharded",
    "run_sharded",
    "would_converge",
    "GoldenCache",
    "DEFAULT_CHUNKSIZE",
    "ScheduledExperiment",
    "SweepPool",
    "ADDRESS",
    "CONTROL",
    "PURE_DATA",
    "classify_instruction",
    "build_injection_plan",
    "chain_tax",
    "ENGINES",
    "FaultInjector",
    "GoldenRun",
    "clone_module",
    "Instrumentor",
    "instrument_module",
    "ExperimentResult",
    "Outcome",
    "outputs_equal",
    "values_equal",
    "API",
    "FaultRuntime",
    "InjectionRecord",
    "MODE_COUNT",
    "MODE_INJECT",
    "api_name_for",
    "declare_api",
    "CATEGORIES",
    "MaskSpec",
    "StaticSite",
    "enumerate_module_sites",
    "enumerate_sites",
    "filter_sites",
]
