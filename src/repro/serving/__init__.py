"""In-process serving subsystem: continuous batching over paged KV state.

The paper characterizes decomposition's latency/energy/memory effects in a
*serving* setting (Figures 10-12).  This package provides the measurement
substrate: an iteration-level scheduler (:class:`InferenceEngine`) that
mixes prefill chunks and decode steps in one ragged batch per step, a
preallocated paged KV store shared across requests, whose radix index
reuses common prompt prefixes (:class:`PagedKVStore`), a lazy registry of
decomposed model variants (:class:`VariantRegistry`), and a trace-replay
benchmark
(:func:`run_serve_bench`) that pairs measured throughput with the analytic
roofline projection from :mod:`repro.hwmodel`.

On top of that sits the QoS subsystem (:mod:`repro.serving.qos`):
per-request service classes with TTFT SLOs and quality floors, a
load-aware :class:`RankRouter` that walks the variant quality ladder under
load (hot-swapping a live request's decode variant between steps), and
goodput scoring that judges routed replays against every fixed variant.
"""

from repro.serving.bench import (
    ROUTER_SPEC,
    ServeBenchReport,
    VariantBenchResult,
    bench_routed,
    bench_variant,
    replay_trace,
    request_records,
    run_serve_bench,
)
from repro.serving.qos import (
    DEFAULT_QOS_CLASSES,
    QUALITY_LADDER,
    GoodputSummary,
    QoSClass,
    RankRouter,
    RouterConfig,
    RouterDecision,
    ScriptedRouter,
    calibrate_unit,
    goodput_summary,
    ladder_index,
    qos_catalog,
    qos_mix,
)
from repro.serving.engine import EngineConfig, InferenceEngine, StepReport
from repro.serving.metrics import EngineMetrics, QoSClassMetrics, SampleStats
from repro.serving.paged import PagedKVStore, PagedLayerCache, PagedSequenceCache
from repro.serving.request import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    GenerationRequest,
    GenerationResult,
    RequestState,
)
from repro.serving.trace import (
    TRACE_FAMILIES,
    TraceRequest,
    assign_qos,
    bursty_trace,
    diurnal_trace,
    heavy_tail_trace,
    make_trace,
    poisson_trace,
    shared_prefix_trace,
    trace_from_manifest,
    trace_manifest,
    trace_stats,
)
from repro.serving.variants import (
    ModelVariant,
    VariantRegistry,
    parse_variant_spec,
)

__all__ = [
    "ACTIVE_STATES",
    "DEFAULT_QOS_CLASSES",
    "QUALITY_LADDER",
    "ROUTER_SPEC",
    "TERMINAL_STATES",
    "TRACE_FAMILIES",
    "EngineConfig",
    "EngineMetrics",
    "GenerationRequest",
    "GenerationResult",
    "GoodputSummary",
    "InferenceEngine",
    "ModelVariant",
    "PagedKVStore",
    "PagedLayerCache",
    "PagedSequenceCache",
    "QoSClass",
    "QoSClassMetrics",
    "RankRouter",
    "RequestState",
    "RouterConfig",
    "RouterDecision",
    "SampleStats",
    "ScriptedRouter",
    "ServeBenchReport",
    "StepReport",
    "TraceRequest",
    "VariantBenchResult",
    "VariantRegistry",
    "assign_qos",
    "bench_routed",
    "bench_variant",
    "bursty_trace",
    "calibrate_unit",
    "diurnal_trace",
    "goodput_summary",
    "heavy_tail_trace",
    "ladder_index",
    "make_trace",
    "parse_variant_spec",
    "poisson_trace",
    "qos_catalog",
    "qos_mix",
    "replay_trace",
    "request_records",
    "run_serve_bench",
    "shared_prefix_trace",
    "trace_from_manifest",
    "trace_manifest",
    "trace_stats",
]
