"""Trace replay and the serve-bench harness.

``replay_trace`` drives an :class:`~repro.serving.engine.InferenceEngine`
through a synthetic arrival trace on a *virtual clock*: requests are
submitted when the clock passes their arrival time, every engine step's
wall-clock model time advances the clock, and when the engine goes idle the
clock jumps to the next arrival.  Nothing sleeps, so the benchmark runs at
full speed while latency metrics (TTFT, queue wait, e2e) remain meaningful
load-dependent quantities.

``run_serve_bench`` replays the *same* trace against several model variants
(dense and decomposed) and pairs each measured result with the analytic
:func:`~repro.hwmodel.generation.generation_profile` projection, mirroring
how the paper contrasts measured serving latency with the roofline model's
prediction (Sections 2.2 and 4.3).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ServingError
from repro.hwmodel.device import GPUSpec, get_gpu
from repro.hwmodel.generation import GenerationProfile, generation_profile
from repro.serving.engine import EngineConfig, InferenceEngine
from repro.serving.qos import (
    DEFAULT_QOS_CLASSES,
    QUALITY_LADDER,
    QoSClass,
    RankRouter,
    RouterConfig,
    calibrate_unit,
    goodput_summary,
    qos_catalog,
)
from repro.serving.request import GenerationRequest
from repro.serving.trace import TraceRequest
from repro.serving.variants import ModelVariant, VariantRegistry

#: Result-row spec name for the adaptively routed replay.
ROUTER_SPEC = "slo-router"


def replay_trace(
    engine: InferenceEngine,
    trace: Sequence[TraceRequest],
    max_steps: int = 1000000,
    speculative: bool = False,
    catalog: Optional[Dict[str, QoSClass]] = None,
) -> List[GenerationRequest]:
    """Replay ``trace`` through ``engine`` on a virtual clock.

    Returns the engine's request objects in trace order, all terminal.
    With ``speculative`` every request decodes through the engine's
    drafter/verifier loop (the engine must have been built with a drafter).
    ``catalog`` maps trace QoS tags to resolved
    :class:`~repro.serving.qos.QoSClass` objects; without one, tags are
    ignored (the fixed-variant baselines and QoS runs replay the identical
    submission sequence either way).
    """
    pending = sorted(trace, key=lambda r: r.arrival_time)
    submitted: List[GenerationRequest] = []
    now = 0.0
    cursor = 0
    steps = 0
    while cursor < len(pending) or engine.has_work:
        while cursor < len(pending) and pending[cursor].arrival_time <= now:
            arrival = pending[cursor]
            qos = None
            if catalog is not None and arrival.qos is not None:
                try:
                    qos = catalog[arrival.qos]
                except KeyError:
                    raise ServingError(
                        f"trace request tagged with unknown QoS class "
                        f"{arrival.qos!r}; catalog has {sorted(catalog)}"
                    ) from None
            submitted.append(
                engine.submit(
                    arrival.prompt,
                    arrival.max_new_tokens,
                    now=arrival.arrival_time,
                    speculative=speculative,
                    qos=qos,
                )
            )
            cursor += 1
        if not engine.has_work:
            if cursor >= len(pending):
                break
            now = pending[cursor].arrival_time  # idle: jump to next arrival
            continue
        report = engine.step(now)
        now += report.duration_s
        steps += 1
        if steps > max_steps:
            raise ServingError(f"trace replay exceeded {max_steps} steps")
    return submitted


def request_records(requests: Sequence[GenerationRequest]) -> List[dict]:
    """JSON-ready per-request samples (one ``metrics.jsonl`` line each)."""
    records = []
    for request in requests:
        records.append(
            {
                "request_id": request.request_id,
                "state": request.state.value,
                "arrival_time_s": request.arrival_time,
                "prompt_tokens": int(request.prompt.size),
                "n_generated": request.n_generated,
                "generated": [int(t) for t in request.generated],
                "preemptions": request.preemptions,
                "queue_wait_s": request.queue_wait_s,
                "ttft_s": request.ttft_s,
                "e2e_s": request.e2e_s,
                "finish_reason": request.finish_reason,
                "qos": request.qos_name,
                "ttft_slo_s": request.ttft_slo_s,
                "slo_met": request.slo_met,
                "variants": request.served_variants,
                "swaps": request.swaps,
            }
        )
    return records


@dataclass(frozen=True)
class VariantBenchResult:
    """Measured + projected serving behaviour of one model variant."""

    spec: str
    parameter_reduction: float
    n_requests: int
    finished: int
    rejected: int
    preemptions: int
    ttft_p50_s: float
    ttft_p95_s: float
    ttft_p99_s: float
    queue_wait_p50_s: float
    e2e_p95_s: float
    decode_tokens_per_s: float
    overall_tokens_per_s: float
    mean_decode_batch: float
    projection: GenerationProfile
    tp: int = 1
    pp: int = 1
    comm: Optional[dict] = None          # measured vs analytic collective traffic
    metrics_snapshot: dict = field(default_factory=dict)
    profile: Optional[str] = None        # rendered op-level profile (``--profile``)
    drafter: Optional[str] = None        # drafter spec when serving speculatively
    spec_acceptance_rate: float = 0.0
    spec_drafted: int = 0
    spec_accepted: int = 0
    spec_fallbacks: int = 0
    # Cross-request prefix sharing (paged store; zero when disabled).
    prefix_lookups: int = 0
    prefix_hits: int = 0
    prefix_hit_rate: float = 0.0
    prefill_tokens_saved: int = 0
    # Per-request samples of the replay (metrics.jsonl lines).
    requests: List[dict] = field(default_factory=list)
    # ``--verify-identity``: None = not checked, else tokens matched the
    # unshared engine (radix index off) on every request.
    tokens_match_unshared: Optional[bool] = None
    # QoS scoring (None when the trace carries no QoS catalog): the
    # goodput summary dict from repro.serving.qos.goodput_summary.
    goodput: Optional[dict] = None
    # Router provenance, ROUTER_SPEC rows only: ladder, config, decision
    # log, downgrade/upgrade counts, hot-swap count.
    router: Optional[dict] = None

    @property
    def projected_tokens_per_s(self) -> float:
        return self.projection.tokens_per_second

    def table_row(self) -> str:
        """This variant's row of the report's markdown variant table."""
        notes = []
        if self.drafter is not None:
            notes.append(
                f"spec[{self.drafter}] accept={self.spec_acceptance_rate:.1%}"
                f" ({self.spec_accepted}/{self.spec_drafted},"
                f" fallbacks={self.spec_fallbacks})"
            )
        if self.prefix_lookups:
            notes.append(
                f"prefix hit={self.prefix_hit_rate:.1%}"
                f" saved={self.prefill_tokens_saved} tok"
            )
        if self.goodput is not None:
            notes.append(
                f"goodput={self.goodput['good']}/{self.goodput['eligible']}"
                f" ({self.goodput['rate']:.1%})"
            )
        if self.router is not None:
            notes.append(
                f"router[down={self.router['downgrades']}"
                f" up={self.router['upgrades']} swaps={self.router['swaps']}]"
            )
        if self.tokens_match_unshared is not None:
            notes.append(
                "[identity ok]" if self.tokens_match_unshared else "[DIVERGED]"
            )
        return (
            f"| {self.spec} | {100 * self.parameter_reduction:.1f} "
            f"| {self.finished}/{self.n_requests} "
            f"| {1e3 * self.ttft_p50_s:.1f} | {1e3 * self.ttft_p95_s:.1f} "
            f"| {self.decode_tokens_per_s:.1f} "
            f"| {self.projected_tokens_per_s:,.0f} "
            f"| {' · '.join(notes) or '-'} |"
        )

    def comm_line(self) -> Optional[str]:
        """Measured traffic next to the analytic projection, per channel."""
        if self.comm is None:
            return None
        grid = f"tp={self.tp}"
        if self.pp > 1:
            grid += f" pp={self.pp}"
        lines = []
        for name, cell in self.comm["channels"].items():
            measured = cell["measured"]
            analytic = cell["analytic"]
            if analytic["calls"] == 0 and measured["calls"] == 0:
                continue  # e.g. p2p on a 1-stage pipe
            verdict = "exact" if cell["bytes_match"] else "MISMATCH"
            lines.append(
                f"{self.spec:>8}  {grid}  {name} measured: "
                f"{measured['payload_bytes']:,} B payload / "
                f"{measured['wire_bytes']:,} B wire / {measured['calls']} calls  "
                f"analytic: {analytic['payload_bytes']:,} B / "
                f"{analytic['wire_bytes']:,} B / {analytic['calls']} calls  "
                f"[{verdict}]"
            )
        return "\n".join(lines) if lines else None

    def to_dict(self) -> dict:
        """The row's ``summary.json`` entry (per-request samples excluded)."""
        payload = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "requests"
        }
        payload["projection"] = asdict(self.projection)
        payload["metrics"] = payload.pop("metrics_snapshot")
        payload["projected_tokens_per_s"] = self.projected_tokens_per_s
        return payload


@dataclass(frozen=True)
class ServeBenchReport:
    """Side-by-side serve-bench results for every requested variant."""

    model: str
    gpu: str
    n_requests: int
    results: List[VariantBenchResult]
    tp: int = 1
    pp: int = 1
    seed: Optional[int] = None
    # Trace provenance: family name, generator params, shape summary
    # (what a run manifest needs to replay the trace bit-identically).
    trace_info: Optional[dict] = None
    # QoS provenance when the run scored goodput: resolved class catalog,
    # the calibrated SLO unit, and the router ladder/config used.
    qos_info: Optional[dict] = None

    def result_for(self, spec: str) -> VariantBenchResult:
        for result in self.results:
            if result.spec == spec:
                return result
        raise ServingError(f"no result for variant {spec!r}")

    def goodput_vs_fixed(self) -> Optional[dict]:
        """Routed goodput next to every fixed-variant baseline's.

        None unless the run carried a router row and scored goodput.
        """
        routed = next(
            (r for r in self.results if r.spec == ROUTER_SPEC and r.goodput), None
        )
        if routed is None:
            return None
        fixed = {
            r.spec: r.goodput["rate"]
            for r in self.results
            if r.spec != ROUTER_SPEC and r.goodput is not None
        }
        if not fixed:
            return None
        return {
            "routed": routed.goodput["rate"],
            "fixed": fixed,
            "best_fixed": max(fixed.values()),
            "worst_fixed": min(fixed.values()),
            "beats_best_fixed": routed.goodput["rate"] > max(fixed.values()),
        }

    @property
    def identity_ok(self) -> Optional[bool]:
        """Every identity-checked row matched the unshared engine; None
        when no row was checked (routed rows never are)."""
        checked = [
            r.tokens_match_unshared
            for r in self.results
            if r.tokens_match_unshared is not None
        ]
        return all(checked) if checked else None

    def speedup_over_dense(self, spec: str) -> float:
        """Measured decode-throughput ratio of ``spec`` over ``dense``."""
        dense = self.result_for("dense")
        other = self.result_for(spec)
        if dense.decode_tokens_per_s == 0.0:
            return 0.0
        return other.decode_tokens_per_s / dense.decode_tokens_per_s

    def table(self) -> str:
        """The printed report, also persisted verbatim as ``report.md``."""
        notes = [f"{self.n_requests} requests"]
        trace = self.trace_info or {}
        if trace.get("family"):
            rate = trace.get("rate_rps")
            notes.append(
                f"{trace['family']} trace"
                + ("" if rate is None else f" @ {rate} rps")
            )
        if self.seed is not None:
            notes.append(f"seed {self.seed}")
        if self.tp > 1:
            notes.append(f"tp={self.tp}")
        if self.pp > 1:
            notes.append(f"pp={self.pp}")
        lines = [
            f"# serve-bench: {self.model} on {self.gpu} projection, "
            + ", ".join(notes),
            "",
        ]
        if self.qos_info:
            classes = ", ".join(
                f"{cls['name']} (floor {cls['quality_floor']}, "
                f"slo {_ms(cls.get('ttft_slo_s'))}ms)"
                for cls in self.qos_info.get("classes", [])
            )
            lines += [
                f"- **qos:** unit TTFT {_ms(self.qos_info.get('unit_ttft_s'))}ms"
                f" · {classes}",
                "",
            ]
        lines += [
            "| variant | pr % | finished | ttft p50 (ms) | ttft p95 (ms) "
            "| decode tok/s | projected tok/s | notes |",
            "|---|---|---|---|---|---|---|---|",
        ]
        lines.extend(result.table_row() for result in self.results)
        if any(result.spec == "dense" for result in self.results):
            lines.append("")
            for result in self.results:
                if result.spec != "dense":
                    lines.append(
                        f"{result.spec}: measured decode speedup over dense "
                        f"{self.speedup_over_dense(result.spec):.2f}x "
                        f"(hwmodel projects {result.projected_tokens_per_s:,.0f}"
                        f" tok/s at batch {result.projection.batch})"
                    )
        comparison = self.goodput_vs_fixed()
        if comparison is not None:
            verdict = "beats" if comparison["beats_best_fixed"] else "TRAILS"
            lines += [
                "",
                f"**Goodput:** routed {comparison['routed']:.1%} {verdict} the "
                f"best fixed variant ({comparison['best_fixed']:.1%}; worst "
                f"{comparison['worst_fixed']:.1%}).",
            ]
        comm_lines = [
            line for line in (result.comm_line() for result in self.results) if line
        ]
        if comm_lines:
            lines += ["", "## Collective traffic", "", "```", *comm_lines, "```"]
        class_rows = [
            f"| {result.spec} | {name} "
            f"| {per.get('quality_floor') or '-'} "
            f"| {_ms(per.get('ttft_slo_s'))} "
            f"| {per.get('good', 0)}/{per.get('eligible', 0)} "
            f"| {per.get('slo_violations', 0)} "
            f"| {per.get('quality_violations', 0)} "
            f"| {_ms(per.get('ttft_p50_s'))} "
            f"| {_ms(per.get('ttft_p95_s'))} |"
            for result in self.results
            if result.goodput
            for name, per in sorted(result.goodput.get("per_class", {}).items())
        ]
        if class_rows:
            lines += [
                "",
                "## Per-class outcomes",
                "",
                "| variant | class | floor | slo (ms) | good | slo miss "
                "| floor miss | ttft p50 (ms) | ttft p95 (ms) |",
                "|---|---|---|---|---|---|---|---|---|",
                *class_rows,
            ]
        for result in self.results:
            router = result.router
            if not router:
                continue
            lines += [
                "",
                "## Router decisions",
                "",
                f"Ladder {' > '.join(router.get('ladder', []))} · "
                f"{router.get('downgrades', 0)} downgrades, "
                f"{router.get('upgrades', 0)} upgrades, "
                f"{router.get('swaps', 0)} mid-flight hot-swaps.",
            ]
            decisions = router.get("decisions", [])
            if decisions:
                lines += [
                    "",
                    "| step | t (s) | action | from | to | queue | running |",
                    "|---|---|---|---|---|---|---|",
                ]
                lines.extend(
                    f"| {d.get('step')} | {d.get('now', 0.0):.3f} "
                    f"| {d.get('action')} | {d.get('from')} | {d.get('to')} "
                    f"| {d.get('queue_depth')} | {d.get('running')} |"
                    for d in decisions
                )
        for result in self.results:
            if result.profile:
                lines += [
                    "",
                    f"## Op profile — {result.spec} (fast path)",
                    "",
                    "```",
                    result.profile,
                    "```",
                ]
        return "\n".join(lines)

    def summary(self) -> dict:
        """``summary.json``: every aggregate, per-request samples excluded."""
        return {
            "model": self.model,
            "gpu": self.gpu,
            "n_requests": self.n_requests,
            "tp": self.tp,
            "pp": self.pp,
            "seed": self.seed,
            "trace_info": self.trace_info,
            "qos_info": self.qos_info,
            "goodput_vs_fixed": self.goodput_vs_fixed(),
            "results": [result.to_dict() for result in self.results],
        }

    def records(self) -> List[dict]:
        """``metrics.jsonl``: one sample per (variant, request)."""
        return [
            {"variant": result.spec, **record}
            for result in self.results
            for record in result.requests
        ]

    def trajectory_entry(self) -> dict:
        """The headline numbers the performance ledger keeps."""
        entry = {
            "bench": "serve-bench",
            "model": self.model,
            "trace": (self.trace_info or {}).get("family"),
            "tp": self.tp,
            "pp": self.pp,
            "requests": self.n_requests,
            "variants": [r.spec for r in self.results if r.spec != ROUTER_SPEC],
            "decode_tokens_per_s": {
                r.spec: round(r.decode_tokens_per_s, 2) for r in self.results
            },
        }
        goodput_rates = {
            r.spec: round(r.goodput["rate"], 4) for r in self.results if r.goodput
        }
        if goodput_rates:
            entry["goodput_rates"] = goodput_rates
        comparison = self.goodput_vs_fixed()
        if comparison:
            entry["goodput_vs_fixed"] = comparison
        if self.identity_ok is not None:
            entry["identity_ok"] = self.identity_ok
        return entry


def _ms(value) -> str:
    return "-" if value is None else f"{1e3 * float(value):.1f}"


def _replay_once(
    variant: ModelVariant,
    trace: Sequence[TraceRequest],
    engine_config: Optional[EngineConfig],
    gpu: GPUSpec,
    tp: int,
    profile: bool,
    drafter: Optional[ModelVariant],
    catalog: Optional[Dict[str, QoSClass]] = None,
    pp: int = 1,
):
    """One full trace replay; returns (metrics, requests, comm, profile)."""
    serving_model = variant.model
    sharded = None
    if tp > 1 or pp > 1:
        from repro.parallel import ShardedLlama

        sharded = ShardedLlama(variant.model, tp, pp=pp)
        serving_model = sharded
    try:
        profiler = None
        if profile:
            from repro.runtime import fastpath

            profiled_context = (
                sharded.executors[0].context
                if sharded is not None
                else variant.model.runtime.context
            )
            profiler = fastpath.enable_profiling(profiled_context)
        engine = InferenceEngine(
            serving_model,
            config=engine_config,
            drafter=None if drafter is None else drafter.model,
        )
        requests = replay_trace(
            engine, trace, speculative=drafter is not None, catalog=catalog
        )
        metrics = engine.metrics
        profile_table = None
        if profiler is not None:
            from repro.runtime import fastpath

            profile_table = profiler.table()
            fastpath.disable_profiling(profiled_context)
        comm = None
        if sharded is not None:
            stats = sharded.comm_stats()
            measured = stats.snapshot()
            projections = sharded.comm_projections()
            channels = {}
            for name, projection in projections.items():
                channel = stats.channel(name)
                channels[name] = {
                    "measured": {
                        key: channel[key]
                        for key in ("calls", "payload_bytes", "wire_bytes")
                    },
                    "analytic": projection.to_dict(),
                    "bytes_match": (
                        channel["payload_bytes"] == projection.payload_bytes
                        and channel["wire_bytes"] == projection.wire_bytes
                        and channel["calls"] == projection.calls
                    ),
                }
            analytic = projections["all_gather"]
            comm = {
                "world_size": tp * pp,
                "tp": tp,
                "pp": pp,
                "measured": measured,
                "analytic": analytic.to_dict(),
                "channels": channels,
                "bytes_match": all(
                    cell["bytes_match"] for cell in channels.values()
                ),
                "projected_latency_s": sum(
                    projection.latency_s(gpu)
                    for projection in projections.values()
                ),
                "measured_elapsed_s": measured["elapsed_s"],
            }
    finally:
        if sharded is not None:
            sharded.close()
    return metrics, requests, comm, profile_table


def _goodput_dict(
    records: List[dict],
    catalog: Dict[str, QoSClass],
    ladder: Sequence[str],
    metrics,
    default_spec: Optional[str] = None,
) -> dict:
    """Goodput summary enriched with per-class latency/SLO context."""
    summary = goodput_summary(
        records, catalog, ladder, default_spec=default_spec
    ).to_dict()
    for name, per in summary["per_class"].items():
        cls_metrics = metrics.qos_classes.get(name)
        if cls_metrics is not None:
            per["ttft_p50_s"] = cls_metrics.ttft_s.p50
            per["ttft_p95_s"] = cls_metrics.ttft_s.p95
            per["deadline_missed"] = cls_metrics.deadline_missed
        cls = catalog.get(name)
        per["ttft_slo_s"] = cls.ttft_slo_s if cls is not None else None
        per["quality_floor"] = cls.quality_floor if cls is not None else None
    return summary


def _result_row(
    variant: ModelVariant,
    trace: Sequence[TraceRequest],
    metrics,
    records: List[dict],
    engine_config: Optional[EngineConfig],
    gpu: GPUSpec,
    tp: int,
    pp: int,
    drafter: Optional[ModelVariant],
    **extra,
) -> VariantBenchResult:
    """One result row: the replay's metrics plus the hwmodel projection.

    The projection runs at the declared ``max_batch``, not at the measured
    mean decode batch: a faster variant drains its queue into smaller
    batches, and projecting each row at its own batch would confound the
    variants' comparison.  ``extra`` overrides or adds row fields (the
    routed row's spec, comm traffic, goodput, ...).
    """
    max_batch = (engine_config or EngineConfig()).max_batch
    projection = generation_profile(
        variant.model.config,
        gpu,
        batch=max_batch,
        prompt_len=max(1, round(sum(t.prompt.size for t in trace) / len(trace))),
        new_tokens=max(1, round(sum(t.max_new_tokens for t in trace) / len(trace))),
        decomposition=variant.decomposition,
        n_gpus=tp,
        pp=pp,
    )
    row = dict(
        spec=variant.spec,
        parameter_reduction=variant.parameter_reduction,
        n_requests=len(trace),
        finished=metrics.finished,
        rejected=metrics.rejected,
        preemptions=metrics.preemptions,
        ttft_p50_s=metrics.ttft_s.p50,
        ttft_p95_s=metrics.ttft_s.p95,
        ttft_p99_s=metrics.ttft_s.p99,
        queue_wait_p50_s=metrics.queue_wait_s.p50,
        e2e_p95_s=metrics.e2e_s.p95,
        decode_tokens_per_s=metrics.decode_tokens_per_s,
        overall_tokens_per_s=metrics.overall_tokens_per_s,
        mean_decode_batch=metrics.mean_decode_batch,
        projection=projection,
        tp=tp,
        pp=pp,
        metrics_snapshot=metrics.snapshot(),
        drafter=None if drafter is None else drafter.spec,
        spec_acceptance_rate=metrics.spec_acceptance_rate,
        spec_drafted=metrics.spec_drafted,
        spec_accepted=metrics.spec_accepted,
        spec_fallbacks=metrics.spec_fallbacks,
        prefix_lookups=metrics.prefix_lookups,
        prefix_hits=metrics.prefix_hits,
        prefix_hit_rate=metrics.prefix_hit_rate,
        prefill_tokens_saved=metrics.prefill_tokens_saved,
        requests=records,
    )
    row.update(extra)
    return VariantBenchResult(**row)


def bench_variant(
    variant: ModelVariant,
    trace: Sequence[TraceRequest],
    engine_config: Optional[EngineConfig] = None,
    gpu: Optional[GPUSpec] = None,
    tp: int = 1,
    pp: int = 1,
    profile: bool = False,
    drafter: Optional[ModelVariant] = None,
    verify_identity: bool = False,
    catalog: Optional[Dict[str, QoSClass]] = None,
    ladder: Sequence[str] = QUALITY_LADDER,
) -> VariantBenchResult:
    """Replay ``trace`` against one variant and attach the hwmodel projection.

    With ``tp > 1`` or ``pp > 1`` the variant runs under the mesh executor
    (:class:`~repro.parallel.local.ShardedLlama` on a (pp, tp) grid, which
    produces identical logits by construction) and the result carries the
    measured collective traffic next to the analytic projection, per
    channel (``all_gather`` within each stage's TP group, ``p2p`` across
    stage boundaries) — every channel must agree byte for byte.
    With ``profile``, the inference fast path records a per-op wall-time /
    allocation profile of the whole replay (rank 0's when ``tp > 1``).
    With ``drafter``, the variant *verifies* that drafter's speculative
    proposals: every request decodes through the engine's speculative mode
    (``engine_config.spec_k`` drafts per cycle) and the result carries the
    measured acceptance rate; committed tokens still equal plain decoding.
    With ``verify_identity``, the same trace is replayed a second time on
    the unshared engine (``prefix_sharing=False``: same store, radix index
    never consulted) and every request's tokens are compared — the paged
    store's token-for-token exactness contract, checked end to end.
    With ``catalog``, trace QoS tags become per-request SLOs and the
    result carries a goodput summary — this fixed variant stands in as
    every request's served quality, so floors above it are scored as
    quality violations (the baseline the router is judged against).
    """
    gpu = gpu or get_gpu("a100-80gb")
    metrics, requests, comm, profile_table = _replay_once(
        variant, trace, engine_config, gpu, tp, profile, drafter, catalog, pp=pp
    )
    tokens_match: Optional[bool] = None
    if verify_identity:
        baseline_config = replace(
            engine_config if engine_config is not None else EngineConfig(),
            prefix_sharing=False,
        )
        _, baseline, _, _ = _replay_once(
            variant, trace, baseline_config, gpu, tp, False, drafter, catalog, pp=pp
        )
        tokens_match = len(requests) == len(baseline) and all(
            ours.state is theirs.state and np.array_equal(ours.tokens, theirs.tokens)
            for ours, theirs in zip(requests, baseline)
        )

    records = request_records(requests)
    goodput = (
        _goodput_dict(records, catalog, ladder, metrics, default_spec=variant.spec)
        if catalog is not None
        else None
    )
    return _result_row(
        variant,
        trace,
        metrics,
        records,
        engine_config,
        gpu,
        tp,
        pp,
        drafter,
        comm=comm,
        profile=profile_table,
        tokens_match_unshared=tokens_match,
        goodput=goodput,
    )


def bench_routed(
    registry: VariantRegistry,
    ladder: Sequence[str],
    trace: Sequence[TraceRequest],
    catalog: Dict[str, QoSClass],
    engine_config: Optional[EngineConfig] = None,
    gpu: Optional[GPUSpec] = None,
    tp: int = 1,
    pp: int = 1,
    router_config: Optional[RouterConfig] = None,
    drafter: Optional[ModelVariant] = None,
) -> VariantBenchResult:
    """Replay ``trace`` on the adaptively routed engine (one result row).

    The whole quality ladder is resident (``registry`` should be
    ``share_base=True`` so extra rungs cost only their factor deltas), the
    router walks it with load, and the result scores goodput from each
    request's *actual* served-variant history plus the router's decision
    log.  Collective-traffic accounting is per model facade and a routed
    step mixes facades, so the comm measured-vs-analytic comparison is not
    reported for routed rows.
    """
    gpu = gpu or get_gpu("a100-80gb")
    ladder = tuple(ladder)
    router = RankRouter(ladder, router_config)
    variants = {spec: registry.get(spec) for spec in ladder}
    serving: Dict[str, object] = {}
    facades: List[object] = []
    try:
        if tp > 1 or pp > 1:
            from repro.parallel import ShardedLlama

            for spec in ladder:
                facade = ShardedLlama(variants[spec].model, tp, pp=pp)
                facades.append(facade)
                serving[spec] = facade
        else:
            serving = {spec: variants[spec].model for spec in ladder}
        engine = InferenceEngine(
            None,
            config=engine_config,
            drafter=None if drafter is None else drafter.model,
            router=router,
            variants=serving,
        )
        requests = replay_trace(
            engine, trace, speculative=drafter is not None, catalog=catalog
        )
        metrics = engine.metrics
    finally:
        for facade in facades:
            facade.close()
    records = request_records(requests)
    return _result_row(
        variants[ladder[0]],
        trace,
        metrics,
        records,
        engine_config,
        gpu,
        tp,
        pp,
        drafter,
        spec=ROUTER_SPEC,
        parameter_reduction=0.0,
        goodput=_goodput_dict(records, catalog, ladder, metrics),
        router=dict(router.snapshot(), swaps=metrics.variant_swaps),
    )


def run_serve_bench(
    base_model,
    variant_specs: Sequence[str],
    trace: Sequence[TraceRequest],
    engine_config: Optional[EngineConfig] = None,
    gpu_name: str = "a100-80gb",
    tp: int = 1,
    pp: int = 1,
    seed: Optional[int] = None,
    profile: bool = False,
    drafter_spec: Optional[str] = None,
    verify_identity: bool = False,
    trace_info: Optional[dict] = None,
    router: Optional[str] = None,
    qos_classes: Optional[Sequence[QoSClass]] = None,
    router_config: Optional[RouterConfig] = None,
) -> ServeBenchReport:
    """Replay one trace against every variant of ``base_model``.

    ``drafter_spec`` (e.g. ``"rank8"``) serves every variant speculatively:
    the variant verifies drafts from that (shared-registry) drafter model,
    and each result row reports the measured acceptance rate.
    ``verify_identity`` re-replays each variant on the unshared engine and
    records per-request token identity; ``trace_info`` carries the trace's
    family/params/shape provenance into the report (and run manifest).

    ``router="slo"`` appends an adaptively routed replay of the identical
    trace: ``variant_specs`` becomes the quality ladder (order best first),
    the QoS catalog (``qos_classes``, default the three-tier gold /
    interactive / batch split) is resolved against the unloaded TTFT of
    ``variant_specs[0]`` measured on this machine, every fixed row gains a
    goodput score as the baseline, and the routed row carries the router's
    decision log.  ``qos_classes`` without a router just scores the fixed
    replays.
    """
    if not variant_specs:
        raise ServingError("at least one variant spec is required")
    if tp < 1:
        raise ServingError(f"tensor-parallel degree must be >= 1, got {tp}")
    if pp < 1:
        raise ServingError(f"pipeline depth must be >= 1, got {pp}")
    if router is not None and router != "slo":
        raise ServingError(f"unknown router {router!r}; only 'slo' exists")
    if router is not None and profile:
        raise ServingError("op profiling is per-variant; not supported with --router")
    gpu = get_gpu(gpu_name)
    # Hot-swap layout when the whole ladder must be resident at once.
    registry = VariantRegistry(base_model, share_base=router is not None)
    drafter = None if drafter_spec is None else registry.get(drafter_spec)
    specs = [spec.strip().lower() for spec in variant_specs]
    catalog = None
    qos_info = None
    ladder: Sequence[str] = QUALITY_LADDER
    if router is not None or qos_classes is not None:
        classes = (
            tuple(qos_classes) if qos_classes is not None else DEFAULT_QOS_CLASSES
        )
        # SLO unit: the first spec (canonically dense) served alone,
        # measured on this machine so unit-denominated SLOs are portable.
        unit = calibrate_unit(registry.get(specs[0]).model, trace, engine_config)
        catalog = qos_catalog(classes, unit_s=unit)
        ladder = tuple(specs)
        if router is not None:
            for cls in catalog.values():
                if cls.quality_floor not in ladder:
                    raise ServingError(
                        f"QoS class {cls.name!r} floor {cls.quality_floor!r} "
                        f"is not among the ladder variants {ladder}"
                    )
        qos_info = {
            "unit_ttft_s": unit,
            "classes": [cls.to_dict() for cls in catalog.values()],
            "ladder": list(ladder),
            "router": router,
        }
    results = [
        bench_variant(
            registry.get(spec),
            trace,
            engine_config=engine_config,
            gpu=gpu,
            tp=tp,
            pp=pp,
            profile=profile,
            drafter=drafter,
            verify_identity=verify_identity,
            catalog=catalog,
            ladder=ladder,
        )
        for spec in specs
    ]
    if router is not None:
        results.append(
            bench_routed(
                registry,
                ladder,
                trace,
                catalog,
                engine_config=engine_config,
                gpu=gpu,
                tp=tp,
                pp=pp,
                router_config=router_config,
                drafter=drafter,
            )
        )
    return ServeBenchReport(
        model=base_model.config.name,
        gpu=gpu_name,
        n_requests=len(trace),
        results=results,
        tp=tp,
        pp=pp,
        seed=seed,
        trace_info=trace_info,
        qos_info=qos_info,
    )
