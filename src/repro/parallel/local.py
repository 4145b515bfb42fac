"""Thread-backed 2-D parallel Llama: the deterministic local backend.

:class:`ShardedLlama` wraps a canonical model as a ``pp x tp`` grid of
rank executors driven by a persistent thread pool.  Each pipeline stage
owns a contiguous run of decoder layers and is internally tensor-sharded
over its own :class:`~repro.parallel.collectives.LocalGroup`; stage
boundaries are crossed by point-to-point ``send``/``recv`` of the
replicated hidden state (activations flow forward only — inference).  It
quacks like the model where the serving engine needs it to — ``config``,
``eval()``, ``forward``/``forward_ragged``, plus a ``make_kv_pool`` hook
that gives the engine per-grid-cell paged KV stores holding only each
cell's covering KV heads *and* its stage's layers.

Pipelining: prefill batches are split into up to ``pp`` row-microbatches
that stream through the stages 1F1B-style — the blocking lane queues let
stage 0 start microbatch ``m+1`` while stage 1 still runs ``m`` — and
decode tokens travel the pipe one hop per step.  Row-splitting is
bit-exact (BLAS GEMMs over row subsets reproduce the full-batch bytes)
and the ragged attention pads every microbatch to the whole batch's
maximum KV width, so chunking never perturbs a reduction.

Exact-equality contract: for identical inputs (and identical per-sequence
cache histories), ``ShardedLlama(model, tp, pp=pp).forward(x)`` returns
the same bytes as ``model.forward(x)`` for every valid grid — see
:mod:`repro.parallel.executor` for why.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParallelError
from repro.nn.linear import block_edges
from repro.parallel.accounting import (
    CommProjection,
    analytic_comm,
    analytic_p2p,
)
from repro.parallel.collectives import CommStats, LocalGroup
from repro.parallel.executor import RankExecutor
from repro.parallel.mesh import DeviceMesh
from repro.parallel.sharding import RankShard, shard_model
from repro.serving.paged import PagedKVStore
from repro.tensor.tensor import Tensor


class ShardedSequenceCache:
    """One request's KV state split across per-rank stores.

    Mirrors the :class:`~repro.serving.paged.PagedSequenceCache` surface
    the engine drives (``seq_len`` / ``reserve`` / ``note_tokens`` /
    ``truncate`` / ``free``).  The per-rank stores share one page geometry
    and receive every operation in the same order, so reservations succeed
    or exhaust symmetrically.
    """

    def __init__(self, rank_caches: Sequence[object]) -> None:
        self.rank_caches = list(rank_caches)

    @property
    def seq_len(self) -> int:
        return self.rank_caches[0].seq_len

    @property
    def closed(self) -> bool:
        return self.rank_caches[0].closed

    def reserve(self, new_tokens: int) -> None:
        for cache in self.rank_caches:
            cache.reserve(new_tokens)

    def note_tokens(self, tokens) -> None:
        """Fan the scheduler's token note out to every rank's slice."""
        for cache in self.rank_caches:
            cache.note_tokens(tokens)

    def truncate(self, length: int) -> None:
        """Roll every rank's cache slice back to ``length`` positions.

        Ranks receive identical append/truncate sequences, so the slices
        stay in lockstep — the speculative rollback works under tensor
        parallelism exactly as it does canonically.
        """
        for cache in self.rank_caches:
            cache.truncate(length)

    def freeze_sealing(self) -> None:
        """Fan a variant hot-swap's seal freeze out to every rank's slice."""
        for cache in self.rank_caches:
            cache.freeze_sealing()

    def free(self) -> None:
        for cache in self.rank_caches:
            cache.free()


class ShardedPagedStore:
    """Facade over one :class:`~repro.serving.paged.PagedKVStore` per rank.

    Each rank's store holds only that rank's covering KV heads and its
    stage's layers, so total cache memory is ~1/P per rank (slightly above
    when GQA covers overlap).  Every rank's store receives the identical
    operation sequence (acquire keys, token notes, append sizes,
    truncations, frees), and the radix walk is deterministic, so all ranks
    make the same sharing decisions — a prefix shared on rank 0 is shared
    on every rank.  Admission-control queries and sharing telemetry
    delegate to rank 0.
    """

    def __init__(self, shards: Sequence[RankShard], n_blocks: int, block_tokens: int) -> None:
        self.pools: List[PagedKVStore] = [
            PagedKVStore(
                shard.config,
                n_blocks=n_blocks,
                block_tokens=block_tokens,
                kv_heads=shard.n_kv_heads,
                n_layers=shard.n_stage_layers,
            )
            for shard in shards
        ]

    @property
    def n_blocks(self) -> int:
        return self.pools[0].n_blocks

    @property
    def block_tokens(self) -> int:
        return self.pools[0].block_tokens

    @property
    def available_blocks(self) -> int:
        return self.pools[0].available_blocks

    @property
    def used_blocks(self) -> int:
        return self.pools[0].used_blocks

    @property
    def utilization(self) -> float:
        return self.pools[0].utilization

    @property
    def bytes_allocated(self) -> int:
        return sum(pool.bytes_allocated for pool in self.pools)

    def blocks_for_tokens(self, tokens: int) -> int:
        return self.pools[0].blocks_for_tokens(tokens)

    def fits(self, tokens: int) -> bool:
        return self.pools[0].fits(tokens)

    def acquire_sequence(self, tokens=None, namespace=None) -> ShardedSequenceCache:
        caches = [
            pool.acquire_sequence(tokens, namespace=namespace) for pool in self.pools
        ]
        lengths = {cache.seq_len for cache in caches}
        if len(lengths) != 1:
            raise ParallelError(
                f"rank paged stores diverged: shared prefix lengths {sorted(lengths)}"
            )
        return ShardedSequenceCache(caches)

    # -- sharing telemetry (rank 0; identical on every rank) ---------------
    @property
    def prefix_lookups(self) -> int:
        return self.pools[0].prefix_lookups

    @property
    def prefix_hits(self) -> int:
        return self.pools[0].prefix_hits

    @property
    def shared_tokens(self) -> int:
        return self.pools[0].shared_tokens

    @property
    def cow_forks(self) -> int:
        return self.pools[0].cow_forks

    @property
    def evictions(self) -> int:
        return self.pools[0].evictions


class ShardedLlama:
    """2-D (pipeline x tensor) parallel execution on thread ranks.

    ``tp`` is the tensor-parallel degree within each stage (the historical
    second positional argument, so ``ShardedLlama(model, P)`` still means
    ``P`` tensor shards in one stage); ``pp`` adds pipeline stages.  Flat
    grid rank ``r = stage * tp + tp_rank`` indexes ``shards`` /
    ``executors`` and every :class:`ShardedSequenceCache`.
    """

    def __init__(
        self,
        model,
        tp: int = 1,
        pp: int = 1,
        cut_points: Optional[Tuple[int, ...]] = None,
        microbatches: Optional[int] = None,
    ) -> None:
        self.config = model.config
        self.mesh = DeviceMesh(tp, pp)
        self.tp = self.mesh.tp
        self.pp = self.mesh.pp
        self.world_size = self.mesh.world_size
        self.cut_points = tuple(cut_points) if cut_points is not None else None
        self._microbatches = microbatches
        self.shards = shard_model(model, self.mesh, cut_points=self.cut_points)
        # All collective groups feed one shared ledger so ``comm_stats``
        # sees the whole grid: one TP group per stage (all-gathers), plus a
        # grid-wide lane group for stage-boundary P2P when pp > 1.
        self.stats = CommStats()
        self.stage_groups = [
            LocalGroup(self.tp, stats=self.stats) for _ in range(self.pp)
        ]
        self.group = self.stage_groups[0]
        self.pipe = (
            LocalGroup(self.world_size, stats=self.stats) if self.pp > 1 else None
        )
        self.executors = [
            RankExecutor(shard, self.stage_groups[shard.stage], shard.rank)
            for shard in self.shards
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=self.world_size, thread_name_prefix="mesh-rank"
        )
        self.padded_tokens = 0     # total padded tokens across forward calls
        self.forward_calls = 0     # logical forwards (engine steps)
        self.microbatch_passes = 0  # pipeline passes (chunks) issued

    # -- model facade ------------------------------------------------------
    def eval(self) -> "ShardedLlama":
        return self

    def close(self) -> None:
        self._pool.shutdown(wait=False)

    def _all_groups(self) -> List[LocalGroup]:
        groups = list(self.stage_groups)
        if self.pipe is not None:
            groups.append(self.pipe)
        return groups

    def _run(self, fn) -> List[object]:
        """Run ``fn(rank)`` on every grid rank in lockstep; propagate failures.

        On any rank's exception every group is aborted so peers blocked in
        a collective or a P2P recv fail fast; the first *causal* exception
        (not the secondary broken-barrier/aborted-recv ones) is re-raised.
        """
        futures = [self._pool.submit(self._guard, fn, rank) for rank in range(self.world_size)]
        results: List[object] = []
        causal: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except ParallelError as exc:
                results.append(None)
                if causal is None and "aborted" not in str(exc):
                    causal = exc
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                results.append(None)
                if causal is None:
                    causal = exc
        if causal is not None:
            for group in self._all_groups():
                group.reset()
            raise causal
        return results

    def _guard(self, fn, rank: int):
        try:
            return fn(rank)
        except BaseException:
            for group in self._all_groups():
                group.abort()
            raise

    # -- pipeline plumbing -------------------------------------------------
    def _row_chunks(self, rows: int) -> List[Tuple[int, int]]:
        """Contiguous row spans for the microbatch passes of one forward.

        Default: up to ``pp`` balanced chunks (1 chunk on a 1-stage pipe —
        the historical behavior, byte for byte).  Row-splitting preserves
        the exactness contract: every kernel reduces within a row, and the
        ragged path pads all chunks to the batch-global KV width.
        """
        want = self._microbatches if self._microbatches is not None else self.pp
        count = max(1, min(int(want), rows))
        return block_edges(rows, count)

    @property
    def _last_stage_rank(self) -> int:
        return (self.pp - 1) * self.tp

    def forward(self, tokens: np.ndarray, pad_mask: Optional[np.ndarray] = None) -> Tensor:
        tokens = np.asarray(tokens)
        chunks = self._row_chunks(tokens.shape[0])
        # A chunked forward defers the head: the tied-head GEMM's low bits
        # depend on the row count, so the last stage runs its layers per
        # chunk and the epilogue once over the concatenated batch.
        defer_head = len(chunks) > 1
        self._account(tokens.shape[0] * tokens.shape[1], passes=len(chunks))

        def work(rank: int) -> Optional[Tensor]:
            stage = rank // self.tp
            executor = self.executors[rank]
            outs: List[Tensor] = []
            for lo, hi in chunks:
                hidden = self.pipe.recv(rank, rank - self.tp) if stage > 0 else None
                mask = pad_mask[lo:hi] if pad_mask is not None else None
                out = executor.forward(
                    tokens[lo:hi], pad_mask=mask, hidden=hidden,
                    skip_head=defer_head,
                )
                if stage < self.pp - 1:
                    self.pipe.send(rank, rank + self.tp, out.data)
                else:
                    outs.append(out)
            if stage < self.pp - 1:
                return None
            if defer_head:
                return executor.head_only(
                    np.concatenate([out.data for out in outs], axis=0)
                )
            return outs[0]

        return self._run(work)[self._last_stage_rank]

    def __call__(self, tokens: np.ndarray, pad_mask: Optional[np.ndarray] = None) -> Tensor:
        return self.forward(tokens, pad_mask=pad_mask)

    def forward_ragged(
        self,
        tokens: np.ndarray,
        caches: Sequence[ShardedSequenceCache],
        new_lengths,
    ) -> Tensor:
        tokens = np.asarray(tokens)
        lengths = np.asarray(new_lengths, dtype=np.int64)
        caches = list(caches)
        # Pad every microbatch's attention to the whole batch's maximum KV
        # width so chunked reductions match the full-batch pass bit for bit.
        offsets = np.asarray([cache.seq_len for cache in caches], dtype=np.int64)
        pad_to = int((offsets + lengths).max())
        chunks = self._row_chunks(tokens.shape[0])
        defer_head = len(chunks) > 1
        self._account(tokens.shape[0] * tokens.shape[1], passes=len(chunks))

        def work(rank: int) -> Optional[Tensor]:
            stage = rank // self.tp
            executor = self.executors[rank]
            outs: List[Tensor] = []
            for lo, hi in chunks:
                hidden = self.pipe.recv(rank, rank - self.tp) if stage > 0 else None
                out = executor.forward_ragged(
                    tokens[lo:hi],
                    [cache.rank_caches[rank] for cache in caches[lo:hi]],
                    lengths[lo:hi],
                    hidden=hidden,
                    pad_to=pad_to,
                    skip_head=defer_head,
                )
                if stage < self.pp - 1:
                    self.pipe.send(rank, rank + self.tp, out.data)
                else:
                    outs.append(out)
            if stage < self.pp - 1:
                return None
            if defer_head:
                return executor.head_only(
                    np.concatenate([out.data for out in outs], axis=0)
                )
            return outs[0]

        return self._run(work)[self._last_stage_rank]

    def forward_cached(self, tokens: np.ndarray, cache: ShardedSequenceCache) -> Tensor:
        """Forward over new ``tokens`` only, extending ``cache`` in place.

        With :meth:`make_cache` this completes the cached-decoding surface
        the runtime :class:`~repro.runtime.decode.DecodeSession` drives, so
        greedy generation runs on the grid without code changes.  The
        batch shares one cache, so a decode step is a single microbatch
        streaming through the pipe one hop at a time.
        """
        tokens = np.asarray(tokens)
        self._account(tokens.shape[0] * tokens.shape[1], passes=1)

        def work(rank: int) -> Tensor:
            stage = rank // self.tp
            hidden = self.pipe.recv(rank, rank - self.tp) if stage > 0 else None
            out = self.executors[rank].forward_cached(
                tokens, cache.rank_caches[rank], hidden=hidden
            )
            if stage < self.pp - 1:
                self.pipe.send(rank, rank + self.tp, out.data)
            return out

        return self._run(work)[self._last_stage_rank]

    # -- serving hooks -----------------------------------------------------
    def make_kv_pool(self, n_blocks: int, block_tokens: int) -> ShardedPagedStore:
        """Per-grid-cell paged KV stores, so parallel engines share
        prefixes exactly like single-rank ones.  Each cell's store holds
        only its stage's layers and its rank's covering KV heads."""
        return ShardedPagedStore(self.shards, n_blocks=n_blocks, block_tokens=block_tokens)

    def make_cache(self) -> ShardedSequenceCache:
        """A growable (non-paged) per-sequence cache, one slice per grid
        cell, each holding only that cell's stage layers."""
        from repro.nn.kv_cache import ModelKVCache

        return ShardedSequenceCache(
            [ModelKVCache(shard.n_stage_layers) for shard in self.shards]
        )

    # -- communication accounting -----------------------------------------
    def _account(self, padded: int, passes: int = 1) -> None:
        self.padded_tokens += int(padded)
        self.forward_calls += 1
        self.microbatch_passes += int(passes)

    def comm_stats(self) -> CommStats:
        """The grid-wide shared ledger (all stages and the P2P lanes)."""
        return self.stats

    def comm_projection(self) -> CommProjection:
        """Analytic all-gather traffic for the forwards issued so far —
        must match the ledger's ``all_gather`` channel byte for byte."""
        return analytic_comm(
            self.config, self.padded_tokens, self.tp,
            self.forward_calls, self.microbatch_passes,
        )

    def p2p_projection(self) -> CommProjection:
        """Analytic stage-boundary P2P traffic — must match the ledger's
        ``p2p`` channel byte for byte (zero on a 1-stage pipe)."""
        return analytic_p2p(
            self.config, self.padded_tokens, self.pp, self.tp,
            self.microbatch_passes,
        )

    def comm_projections(self) -> dict:
        """Per-channel analytic projections keyed like the measured ledger."""
        return {"all_gather": self.comm_projection(), "p2p": self.p2p_projection()}
