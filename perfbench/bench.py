"""Set-up, timed replay passes, output check and metric reduction.

A *pass* replays one workload's requests through a fresh
:class:`InferenceEngine` on a virtual clock, as ``replay_trace`` does, but
the clock advances by the benchmark's own wall timing of each ``step()``
call rather than by ``StepReport.duration_s`` (which the engine starts only
after scheduling, so admission work would never show in TTFT).  Token
timing is observed from outside: after every step each live request's
``n_generated`` is compared with the last value seen, and every new token
is stamped with the step's completion time, so preemption stalls count in
the inter-token gaps.

A *round* is one pass per variant (two per variant in a traced run: one
traced, one untraced).  The passes of a round run interleaved in short
wall-clock turns, the one with less of its output produced going next, so
every variant samples the same stretch of host time.  Each pass keeps its
own engine and virtual clock, so the turns change no per-variant result
except through the host.

A run sets up three times (build the base model, materialize both
variants, warm-up replay) and reports the median.  The measuring time is
split into thirds, one after each set-up, and rounds run back to back
across them: a round in flight when a set-up starts resumes after it on the
models it began with.  On a shared host whose speed drifts by tens of
percent over seconds, this spreads the measured turns over the whole run
instead of one stretch of it.  A run measures at least one round, and
starts another only if at least half of it fits in the time left.  The
workloads' passes hold at least 100 requests, so that p90 has ten samples
beyond it.  The first round's outputs are checked
against ``greedy_generate`` outside the timed turns.  A traced run attaches
spans, the forward proxy, the store wrappers and the fast-path op profiler
to its traced passes and reports per-layer metrics from those.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.hwmodel.device import get_gpu
from repro.hwmodel.generation import generation_profile
from repro.models import build_model, get_config
from repro.runtime import fastpath
from repro.serving import InferenceEngine, RequestState, VariantRegistry

from perfbench.tracing import ForwardProxy, SpanRecorder, self_times, wrap_store
from perfbench.workloads import BASE_WEIGHT_SEED, MODEL, VARIANTS, Workload

SETUP_REPEATS = 3
WARMUP_REQUESTS = 8
#: Seed of the warm-up inputs, fixed so set-up does the same work every run.
WARMUP_SEED = 999_999_937
CHECK_SAMPLE = 8
#: Wall time one pass runs before the other variant's pass takes a turn.
SLICE_S = 0.25
#: Device the hwmodel projects the decode step onto.
PROJECTION_GPU = "a100-80gb"
MIB = float(1 << 20)

#: Fast-path op roll-up keys summed into each reported group.
OP_GROUPS = {
    "proj_s": ("w_q", "w_k", "w_v", "w_so", "w_g", "w_u", "w_d"),
    "attn.cache_s": ("attn.cache",),
    "attn.rope_s": ("attn.rope",),
    "attn.expand_s": ("attn.expand",),
    "attn.softmax_s": ("attn.softmax",),
    "attn.qk_pv_s": ("attn.qk", "attn.pv"),
    "norm_s": ("attn_norm", "mlp_norm", "final_norm"),
    "lm_head_s": ("lm_head",),
}


@dataclass
class Served:
    """One set-up's product: the variants, ready to serve."""

    variants: Dict[str, object]          # spec -> ModelVariant
    timings: Dict[str, float]            # setup component -> seconds
    arena_at_warm: Dict[str, int]        # spec -> arena bytes after warm-up


@dataclass
class PassResult:
    variant: str
    traced: bool
    requests: list                       # engine requests, submission order
    attempted: int = 0
    failed: int = 0
    tokens: int = 0
    wall_s: float = 0.0
    steps: int = 0
    rows: int = 0
    step_walls: List[float] = field(default_factory=list)
    ttft: List[float] = field(default_factory=list)
    itl: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)
    preemptions: int = 0
    store: Dict[str, int] = field(default_factory=dict)
    kv_pool_bytes: int = 0
    peak_used_blocks: int = 0
    spans: Optional[SpanRecorder] = None
    forward_calls: List[tuple] = field(default_factory=list)
    ops: Dict[str, float] = field(default_factory=dict)


class _Track:
    __slots__ = ("request", "due", "seen", "times")

    def __init__(self, request, due: float) -> None:
        self.request = request
        self.due = due
        self.seen = 0
        self.times: List[float] = []


class Replay:
    """One pass of ``items`` through a fresh engine serving ``model``,
    advanced in wall-clock slices so two passes can share host time."""

    def __init__(self, variant: str, model, workload: Workload, items,
                 traced: bool = False) -> None:
        self.model = model
        self.recorder = SpanRecorder() if traced else None
        self.live: List[_Track] = []
        self.tracks: List[_Track] = []
        serving_model = model
        if traced:
            serving_model = ForwardProxy(model, self.recorder, self._request_ids)
        self.serving_model = serving_model
        self.engine = InferenceEngine(serving_model, workload.engine_config())
        if traced:
            wrap_store(self.engine.pool, self.recorder)
        self.result = PassResult(variant=variant, traced=traced, requests=[])
        self.pending = sorted(items, key=lambda item: item.due)
        self.budget = sum(item.max_new_tokens for item in items)
        self.produced = 0
        self.now = 0.0
        self.cursor = 0
        self.done = False

    def _request_ids(self, caches):
        owner = {id(t.request.cache): t.request.request_id for t in self.live}
        return [owner.get(id(cache)) for cache in caches]

    @property
    def progress(self) -> float:
        """Share of the pass's output tokens produced so far."""
        return self.produced / self.budget if self.budget else 1.0

    def advance(self, seconds: float) -> None:
        """Step until ``seconds`` of wall time pass or the pass is done."""
        traced = self.recorder is not None
        if traced:
            profiler = fastpath.enable_profiling(self.model.runtime.context)
        engine, pending, result = self.engine, self.pending, self.result
        began = perf_counter()
        try:
            while perf_counter() - began < seconds:
                while self.cursor < len(pending) and pending[self.cursor].due <= self.now:
                    item = pending[self.cursor]
                    request = engine.submit(item.prompt, item.max_new_tokens, now=item.due)
                    track = _Track(request, item.due)
                    self.tracks.append(track)
                    self.live.append(track)
                    result.lateness.append(self.now - item.due)
                    self.cursor += 1
                if not engine.has_work:
                    if self.cursor >= len(pending):
                        self.done = True
                        return
                    self.now = pending[self.cursor].due  # idle: jump to the next arrival
                    continue
                start = perf_counter()
                span = self.recorder.begin("step", start) if traced else None
                report = engine.step(self.now)
                end = perf_counter()
                if traced:
                    self.recorder.end(span, end)
                    result.peak_used_blocks = max(
                        result.peak_used_blocks, engine.pool.used_blocks
                    )
                self.now += end - start
                result.wall_s += end - start
                if report.n_rows:
                    result.steps += 1
                    result.rows += report.n_rows
                    result.step_walls.append(end - start)
                self._observe_tokens()
        finally:
            if traced:
                for name, row in profiler.rollup().items():
                    result.ops[name] = result.ops.get(name, 0.0) + row["seconds"]
                fastpath.disable_profiling(self.model.runtime.context)

    def _observe_tokens(self) -> None:
        still = []
        for track in self.live:
            request = track.request
            grown = request.n_generated - track.seen
            if grown > 0:
                track.times.extend([self.now] * grown)
                track.seen = request.n_generated
                self.produced += grown
            if not request.done:
                still.append(track)
        self.live = still

    def finish(self) -> PassResult:
        """The pass's result; call once :attr:`done` is set."""
        result = self.result
        for track in self.tracks:
            request = track.request
            result.attempted += 1
            if request.state is not RequestState.FINISHED:
                result.failed += 1
                continue
            result.tokens += request.n_generated
            result.ttft.append(track.times[0] - track.due)
            result.itl.extend(np.diff(track.times).tolist())
            result.queue_wait.append(request.queue_wait_s)
        result.requests = [track.request for track in self.tracks]
        result.preemptions = self.engine.metrics.preemptions
        pool = self.engine.pool
        result.store = {
            "lookups": pool.prefix_lookups,
            "hits": pool.prefix_hits,
            "saved": pool.shared_tokens,
            "evictions": pool.evictions,
            "cow_forks": pool.cow_forks,
        }
        result.kv_pool_bytes = pool.bytes_allocated
        if self.recorder is not None:
            result.spans = self.recorder
            result.forward_calls = self.serving_model.calls
        return result


def replay(variant: str, model, workload: Workload, items) -> PassResult:
    """One untraced pass, start to finish."""
    run = Replay(variant, model, workload, items)
    run.advance(float("inf"))
    return run.finish()


def set_up(workload: Workload, model_name: str = MODEL) -> Served:
    """Build the base model, materialize every variant, warm each up."""
    timings = {}
    start = perf_counter()
    base = build_model(get_config(model_name), rng=np.random.default_rng(BASE_WEIGHT_SEED))
    timings["build_s"] = perf_counter() - start
    registry = VariantRegistry(base)
    variants = {}
    for spec in VARIANTS:
        began = perf_counter()
        variants[spec] = registry.get(spec)
        timings[f"materialize_s.{spec}"] = perf_counter() - began
    began = perf_counter()
    # Warm-up requests are all due at once, so batches reach ``max_batch``
    # and the arena holds the batch shapes a burst would create before timing.
    warm = [
        replace(item, due=0.0)
        for item in workload.items(WARMUP_SEED, base.config.vocab_size,
                                   n_requests=WARMUP_REQUESTS)
    ]
    for spec in VARIANTS:
        replay(spec, variants[spec].model, workload, warm)
    timings["warmup_s"] = perf_counter() - began
    timings["setup_s"] = perf_counter() - start
    return Served(variants=variants, timings=timings, arena_at_warm={
        spec: arena_bytes(variants[spec].model)[0] for spec in VARIANTS
    })


class Rounds:
    """Rounds of passes run back to back, advanced one turn at a time."""

    def __init__(self, workload: Workload, items, traced: bool) -> None:
        self.workload = workload
        self.items = items
        self.modes = (True, False) if traced else (False,)
        self.passes: Dict[str, List[PassResult]] = {spec: [] for spec in VARIANTS}
        self.runs: List[Replay] = []
        self.served: Optional[Served] = None     # the last finished round's
        self.check: Optional[dict] = None
        self.setups: List[Dict[str, float]] = []  # each set-up's timings
        self.count = 0
        self.elapsed = 0.0                       # wall time inside turns
        self.round_s = 0.0                       # the last round's turns
        self._began = 0.0
        self._served: Optional[Served] = None    # the in-flight round's

    def start(self, served: Served) -> None:
        self.runs = [Replay(spec, served.variants[spec].model, self.workload, self.items,
                            traced=mode)
                     for spec in VARIANTS for mode in self.modes]
        self._served = served
        self._began = self.elapsed

    def turn(self, slice_s: float = SLICE_S) -> None:
        """Advance the in-flight pass with the least of its output produced
        by one turn; on the round's end collect its passes."""
        active = [run for run in self.runs if not run.done]
        if active:
            began = perf_counter()
            min(active, key=lambda run: run.progress).advance(slice_s)
            self.elapsed += perf_counter() - began
        if not all(run.done for run in self.runs):
            return
        for run in self.runs:
            self.passes[run.result.variant].append(run.finish())
        self.count += 1
        self.round_s = self.elapsed - self._began
        self.served = self._served
        if self.check is None:
            self.check = {
                run.result.variant: check_summary(run.model, run.result.requests)
                for run in self.runs if not run.result.traced
            }
        for run in self.runs:
            run.result.requests = []  # free the KV caches they hold
        self.runs = []


def measure(workload: Workload, model_name: str, items, seconds: float, traced: bool,
            repeats: int = SETUP_REPEATS) -> Rounds:
    """Set up ``repeats`` times and replay rounds for ``seconds`` in total,
    a share after each set-up, at least one round (see the module
    docstring)."""
    rounds = Rounds(workload, items, traced)
    served = None
    try:
        for index in range(repeats):
            # Set-up garbage is collected before timing; the set-up's
            # long-lived objects are then frozen out of the cyclic collector
            # (a full collection rescanning the model took ~27 ms, a pause
            # that lands in one step of some passes and not others).
            gc.unfreeze()
            served = None
            gc.collect()
            served = set_up(workload, model_name)
            rounds.setups.append(served.timings)
            gc.collect()
            gc.freeze()
            target = seconds * (index + 1) / repeats
            final = index == repeats - 1
            while True:
                if not rounds.runs:
                    if rounds.elapsed + rounds.round_s / 2 >= target:
                        break
                    rounds.start(served)
                rounds.turn()
                if not final and rounds.elapsed >= target:
                    break  # the round in flight resumes after the next set-up
        while rounds.runs or not rounds.count:
            if not rounds.runs:
                rounds.start(served)
            rounds.turn()
    finally:
        gc.unfreeze()
    return rounds


def arena_bytes(model) -> tuple:
    """(bytes the fast-path arena has allocated, of which dequant cache)."""
    ws = fastpath.workspace_of(model.runtime.context)
    return (0, 0) if ws is None else (ws.bytes_allocated, ws.cache_bytes)


def check_outputs(model, requests, sample: int = CHECK_SAMPLE) -> List[int]:
    """Ids of sampled finished requests whose tokens differ from
    ``greedy_generate`` on the same variant."""
    finished = [r for r in requests if r.state is RequestState.FINISHED]
    if not finished:
        return []
    picks = sorted(set(np.linspace(0, len(finished) - 1, sample).round().astype(int)))
    mismatched = []
    for index in picks:
        request = finished[index]
        expected = model.greedy_generate(request.prompt, request.max_new_tokens)
        if not np.array_equal(request.tokens, expected):
            mismatched.append(request.request_id)
    return mismatched


def check_summary(model, requests, sample: int = CHECK_SAMPLE) -> dict:
    """How many requests :func:`check_outputs` sampled and which differed."""
    return {"sampled": min(sample, len(requests)),
            "mismatched": check_outputs(model, requests, sample)}


def _ms(value: float) -> float:
    return 1e3 * value


def _rate(tokens: int, seconds: float) -> float:
    return tokens / seconds if seconds else 0.0


def _pct(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def end_to_end(passes: Dict[str, List[PassResult]], memory: Dict[str, dict],
               setup_s: float) -> Dict[str, tuple]:
    """Every end-to-end metric from the untraced passes: name -> (value, unit)."""
    metrics = {}
    for spec in VARIANTS:
        plain = [p for p in passes[spec] if not p.traced]
        ttft = [x for p in plain for x in p.ttft]
        itl = [x for p in plain for x in p.itl]
        metrics[f"output_tok_s.{spec}"] = (
            _rate(sum(p.tokens for p in plain), sum(p.wall_s for p in plain)), "tok/s")
        metrics[f"ttft_p50_ms.{spec}"] = (_ms(_pct(ttft, 50)), "ms")
        metrics[f"ttft_p90_ms.{spec}"] = (_ms(_pct(ttft, 90)), "ms")
        metrics[f"itl_p50_ms.{spec}"] = (_ms(_pct(itl, 50)), "ms")
        metrics[f"itl_p99_ms.{spec}"] = (_ms(_pct(itl, 99)), "ms")
        metrics[f"resident_mib.{spec}"] = (memory[spec]["resident"] / MIB, "MiB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def memory_of(served: Served, passes) -> Dict[str, dict]:
    """Bytes held per variant after the run (on the models the last round
    ran): weights + arena + KV pool."""
    memory = {}
    for spec in VARIANTS:
        variant = served.variants[spec]
        arena, dequant = arena_bytes(variant.model)
        kv = passes[spec][-1].kv_pool_bytes
        memory[spec] = {
            "weights": variant.total_bytes,
            "arena": arena - dequant,
            "dequant": dequant,
            "kv": kv,
            "grown": arena - served.arena_at_warm[spec],
            "resident": variant.total_bytes + arena + kv,
        }
    return memory


def projected_decode_step_s(variant, workload: Workload, items) -> float:
    """hwmodel's decode-step time at the workload's *declared* batch."""
    config = workload.engine_config()
    return generation_profile(
        variant.model.config,
        get_gpu(PROJECTION_GPU),
        batch=config.max_batch,
        prompt_len=max(1, round(float(np.mean([i.prompt.size for i in items])))),
        new_tokens=max(1, round(float(np.mean([i.max_new_tokens for i in items])))),
        decomposition=variant.decomposition,
    ).decode_s_per_token


def per_layer(served: Served, workload: Workload, items, passes, memory,
              setup_medians: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric; extensive ones are per traced pass."""
    metrics: Dict[str, tuple] = {}
    for key in ("build_s", "materialize_s.dense", "materialize_s.rank8", "warmup_s"):
        metrics[f"setup.{key}"] = (setup_medians[key], "s")
    for spec in VARIANTS:
        traced = [p for p in passes[spec] if p.traced]
        plain = [p for p in passes[spec] if not p.traced]
        k = len(traced)

        def put(name, value, unit):
            metrics[f"{name}.{spec}"] = (float(value), unit)

        selfs: Dict[str, float] = {}
        for p in traced:  # span ids are per pass
            for name, seconds in self_times(p.spans.spans).items():
                selfs[name] = selfs.get(name, 0.0) + seconds
        steps = sum(p.steps for p in traced)
        put("engine.steps", steps / k, "count")
        walls = [w for p in traced for w in p.step_walls]
        put("engine.step_ms_p50", _ms(_pct(walls, 50)), "ms")
        put("engine.step_ms_p99", _ms(_pct(walls, 99)), "ms")
        put("engine.rows_per_step", sum(p.rows for p in traced) / max(steps, 1), "rows")
        put("engine.queue_wait_p50_ms",
            _ms(_pct([w for p in traced for w in p.queue_wait], 50)), "ms")
        put("engine.self_s", selfs.get("step", 0.0) / k, "s")
        put("engine.preemptions", sum(p.preemptions for p in traced) / k, "count")

        calls = [c for p in traced for c in p.forward_calls]
        decode = [c for c in calls if c[2]]
        prefill = [c for c in calls if not c[2]]
        forward_s = sum(c[0] for c in calls)
        decode_ms = _ms(sum(c[0] for c in decode) / max(len(decode), 1))
        put("forward.decode_calls", len(decode) / k, "count")
        put("forward.prefill_calls", len(prefill) / k, "count")
        put("forward.tokens", sum(c[1] for c in calls) / k, "count")
        put("forward.decode_ms_per_call", decode_ms, "ms")
        put("forward.prefill_ms_per_token",
            _ms(sum(c[0] for c in prefill) / max(sum(c[1] for c in prefill), 1)), "ms")

        ops: Dict[str, float] = {}
        for p in traced:
            for name, seconds in p.ops.items():
                ops[name] = ops.get(name, 0.0) + seconds
        for group, names in OP_GROUPS.items():
            put(f"fastpath.{group}", sum(ops.get(n, 0.0) for n in names) / k, "s")
        put("fastpath.coverage", sum(ops.values()) / forward_s if forward_s else 0.0,
            "ratio")
        put("fastpath.arena_bytes_grown", memory[spec]["grown"], "bytes")

        lookups = sum(p.store["lookups"] for p in traced)
        put("paged.prefix_hit_rate",
            sum(p.store["hits"] for p in traced) / lookups if lookups else 0.0, "ratio")
        put("paged.prefill_tokens_saved", sum(p.store["saved"] for p in traced) / k, "count")
        put("paged.evictions", sum(p.store["evictions"] for p in traced) / k, "count")
        put("paged.cow_forks", sum(p.store["cow_forks"] for p in traced) / k, "count")
        put("paged.peak_used_blocks", max(p.peak_used_blocks for p in traced), "count")
        put("paged.op_self_s",
            sum(v for name, v in selfs.items() if name.startswith("paged.")) / k, "s")

        put("mem.weights_mib", memory[spec]["weights"] / MIB, "MiB")
        put("mem.arena_mib", memory[spec]["arena"] / MIB, "MiB")
        put("mem.dequant_cache_mib", memory[spec]["dequant"] / MIB, "MiB")
        put("mem.kv_pool_mib", memory[spec]["kv"] / MIB, "MiB")

        lateness = [x for p in traced for x in p.lateness]
        put("loadgen.lateness_p50_ms", _ms(_pct(lateness, 50)), "ms")
        put("loadgen.lateness_max_ms", _ms(max(lateness, default=0.0)), "ms")

        untraced_tok_s = _rate(sum(p.tokens for p in plain), sum(p.wall_s for p in plain))
        traced_tok_s = _rate(sum(p.tokens for p in traced), sum(p.wall_s for p in traced))
        put("trace.output_tok_s_untraced", untraced_tok_s, "tok/s")
        put("trace.output_tok_s_traced", traced_tok_s, "tok/s")
        put("trace.overhead",
            1.0 - traced_tok_s / untraced_tok_s if untraced_tok_s else 0.0, "ratio")

        projected_ms = _ms(projected_decode_step_s(served.variants[spec], workload, items))
        put("hwmodel.decode_step_ms_projected", projected_ms, "ms")
        put("hwmodel.measured_over_projected", decode_ms / projected_ms, "ratio")
    return metrics
