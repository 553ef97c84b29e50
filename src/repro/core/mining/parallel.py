"""Process-parallel mining fan-out over first-level prefixes.

The frequent-itemset lattice decomposes into independent subtrees,
one per frequent first-level item (the *prefix shards*). This module
scans level 1 serially with the bitset engine, then farms the subtrees
out to ``multiprocessing`` workers. Each worker holds the packed engine
— shipped once per worker at pool start (and shared copy-on-write under
the ``fork`` start method) — and returns its subtree as a
:class:`~repro.core.mining.transactions.MinedColumns`: a few numpy
arrays, cheap to pickle.

Shards are scheduled dynamically (``imap``, chunk size 1) so a few
heavy prefixes don't serialize the pool, and results are reassembled in
prefix order, which makes the output *order-stable*: any ``n_jobs``
produces exactly the serial sequence.

``n_jobs=1`` (the default everywhere) never touches multiprocessing —
the serial search runs in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import time
from queue import Empty

from repro.core.mining.bitset import BitsetEngine
from repro.core.mining.transactions import EncodedUniverse, MinedColumns
from repro.obs.collector import NULL_OBS, AnyCollector, ObsCollector, resolve_obs
from repro.obs.events import worker_event_queue

_WORKER_ENGINE: BitsetEngine | None = None
_WORKER_EVENTS = None
#: The last run token this worker announced its environment for — one
#: ``("env", ...)`` message per (worker process, run), so bundles can
#: record the worker fleet without per-shard overhead.
_WORKER_ENV_TOKEN = None


def _init_worker(engine: BitsetEngine, events_queue=None) -> None:
    global _WORKER_ENGINE, _WORKER_EVENTS, _WORKER_ENV_TOKEN
    _WORKER_ENGINE = engine
    _WORKER_EVENTS = events_queue
    _WORKER_ENV_TOKEN = None


def _worker_env(pid: int) -> dict:
    """The environment snapshot a worker reports once per run."""
    return {
        "pid": pid,
        "python": platform.python_version(),
        "process": multiprocessing.current_process().name,
        "start_method": multiprocessing.get_start_method(allow_none=True),
    }


def _mine_shard(task):
    """Mine one prefix shard; returns ``(mined, counters, peaks, cpu_rows)``
    (the last three ``None`` when not collected).

    When the parent collects metrics, the shard mines against a private
    per-task collector and ships its counters back as a plain dict —
    workers never share a collector, which keeps the fan-out fork-safe
    and makes the parent's merged totals equal the serial totals. With
    memory profiling on, mining additionally runs inside a
    ``mine.shard`` span so the worker's peak allocation comes back as a
    peak-mem dict for the parent to max-merge (``merge_peaks``). With
    CPU profiling on (``cpu_hz`` set), the worker runs its own
    ``repro.obs.cpuprof`` sampler around the same span and ships its
    stack-table rows back for the parent to ``merge_cpu_samples`` —
    the sanctioned result channel, no shared profiler state.

    With ``emit`` set (the parent streams live events), the worker
    additionally puts a heartbeat message on the shared queue when the
    shard starts and a completion message when it ends — plus, before
    its first shard of a run, an environment snapshot message the
    parent forwards as a ``worker.env`` heartbeat (run bundles record
    the worker fleet from these). All messages are tagged
    with the parent's run ``token`` so a later run on a persistent pool
    can discard stale messages left behind by a cancelled one.
    Timestamps are raw ``time.perf_counter()`` values — CLOCK_MONOTONIC
    under the ``fork`` start method, hence directly comparable with the
    parent's event-stream origin.
    """
    global _WORKER_ENV_TOKEN
    (root, tail, min_support, max_length, collect, profile, cpu_hz,
     emit, token) = task
    engine = _WORKER_ENGINE
    queue = _WORKER_EVENTS if emit else None
    pid = os.getpid()
    t0 = time.perf_counter()
    if queue is not None:
        if _WORKER_ENV_TOKEN != token:
            _WORKER_ENV_TOKEN = token
            queue.put(("env", token, pid, _worker_env(pid)))
        queue.put(("hb", token, pid, t0, root))
    if not collect:
        mined = engine.mine_subtree(root, tail, min_support, max_length)
        if queue is not None:
            queue.put(("done", token, pid, t0, time.perf_counter(), root))
        return mined, None, None, None
    shard_obs = ObsCollector(profile_memory=profile)
    if cpu_hz:
        shard_obs.enable_cpu_profiling(cpu_hz)
    prev = engine.obs
    engine.obs = shard_obs
    cpu_rows = None
    try:
        if profile or cpu_hz:
            # The span scopes both profilers: the mem window and the
            # sampler lifetime (started at root open, joined at close).
            with shard_obs.span("mine.shard", root=root):
                mined = engine.mine_subtree(root, tail, min_support, max_length)
        else:
            mined = engine.mine_subtree(root, tail, min_support, max_length)
        if cpu_hz and shard_obs.cpu is not None:
            cpu_rows = shard_obs.cpu.rows()
    finally:
        engine.obs = prev
        shard_obs.stop_memory_profiling()
        shard_obs.stop_cpu_profiling()
    if queue is not None:
        queue.put(("done", token, pid, t0, time.perf_counter(), root))
    return mined, dict(shard_obs.counters), dict(shard_obs.mem_peaks), cpu_rows


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request: non-positive means all cores."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs <= 0:
        return max(1, multiprocessing.cpu_count())
    return n_jobs


class WorkerPool:
    """A persistent shard-mining pool bound to one engine.

    Wraps a ``multiprocessing`` pool whose workers were initialized
    with a (collector-stripped) copy of ``engine`` —
    exactly the state :func:`mine_parallel` ships per call, paid once
    here instead. Pass it back into :func:`mine_parallel` (or
    ``mine(..., pool=...)``) to serve repeated mining calls over the
    same universe without respawning workers; `ExploreSession.sweep`
    is the intended customer.

    The pool only mines the universe its engine was built from —
    shipping tasks for a different universe would silently mine the
    wrong covers, so :func:`mine_parallel` cross-checks identity.
    Close with :meth:`close` or use as a context manager.
    """

    def __init__(self, engine: BitsetEngine, n_jobs: int):
        n_jobs = resolve_n_jobs(n_jobs)
        if n_jobs == 1:
            raise ValueError("a WorkerPool needs n_jobs != 1")
        ctx = _pool_context()
        prev_obs = engine.obs
        engine.obs = NULL_OBS  # collectors stay parent-side
        # Persistent pools always carry the event queue: whether a given
        # run streams is decided per task (the ``emit`` flag), and the
        # workers only touch the queue for emitting tasks.
        self.events_queue = worker_event_queue(ctx)
        try:
            self._pool = ctx.Pool(
                processes=n_jobs,
                initializer=_init_worker,
                initargs=(engine, self.events_queue),
            )
        finally:
            engine.obs = prev_obs
        self.engine = engine
        self.n_jobs = n_jobs

    def run(self, tasks: list) -> list:
        """Mine the shard tasks; results come back in task order."""
        return list(self._pool.imap(_mine_shard, tasks, chunksize=1))

    def close(self) -> None:
        """Terminate the workers (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self.events_queue.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


def mine_parallel(
    universe: EncodedUniverse,
    min_support: float,
    max_length: int | None = None,
    n_jobs: int = 2,
    engine: BitsetEngine | None = None,
    obs: AnyCollector | None = None,
    pool: WorkerPool | None = None,
) -> MinedColumns:
    """Mine all frequent itemsets with sharded worker processes.

    Returns the same itemsets, statistics *and order* as the serial
    search (:meth:`repro.core.mining.bitset.BitsetEngine.mine`), for any
    ``n_jobs``. Falls back to the serial path when ``n_jobs`` is 1
    or the universe has at most one shard.

    When ``obs`` is enabled, the level-1 scan is counted here (once —
    the workers do not re-count their shard roots) and each worker
    returns its private counter dict for the parent to merge, so the
    merged ``mining.*`` totals are identical to a serial run. With
    memory profiling on, workers also return per-shard peak-allocation
    dicts, max-merged into the parent's ``mem_peaks`` registry. With
    CPU profiling on, each worker samples its own shard under a
    ``mine.shard`` span and its stack table is add-merged into the
    parent's profiler (order-independent).

    A :class:`WorkerPool` passed via ``pool`` serves the shards from
    its long-lived workers instead of spawning a fresh pool; its
    engine must be the one mining this universe.
    """
    obs = resolve_obs(obs)
    n_jobs = resolve_n_jobs(pool.n_jobs if pool is not None else n_jobs)
    if pool is not None:
        if engine is None:
            engine = pool.engine
        elif engine is not pool.engine:
            raise ValueError(
                "mine_parallel: pool was built for a different engine"
            )
    if engine is None:
        engine = BitsetEngine(universe, obs=obs)
    if n_jobs == 1:
        return engine.mine(min_support, max_length)
    shards = engine.shards(min_support)
    if len(shards) <= 1:
        return engine.mine(min_support, max_length)

    if obs.enabled:
        # The level-1 scan, counted exactly as the serial search does.
        obs.count("mining.candidates", universe.n_items())
        obs.count("mining.support_pruned", universe.n_items() - len(shards))
        obs.count("mining.rows_scanned", universe.n_items() * universe.n_rows)
        obs.gauge("mining.shards", len(shards))
    collect = obs.enabled
    profile = collect and obs.profile_memory
    cpu = getattr(obs, "cpu", None)
    cpu_hz = cpu.sample_hz if (collect and cpu is not None) else None
    stream = getattr(obs, "events", None)
    streaming = stream is not None or getattr(obs, "controller", None) is not None
    # The token ties queue messages to this run: a cancelled run on a
    # persistent pool leaves its workers draining, and their late
    # messages must not leak into the next run's event stream.
    token = (os.getpid(), time.perf_counter_ns()) if streaming else None
    tasks = [
        (root, tail, min_support, max_length, collect, profile, cpu_hz,
         streaming, token)
        for root, tail in shards
    ]
    # Progress in shards — the same unit as the serial search's frequent
    # roots, so final totals match across n_jobs.
    obs.progress("mine", advance=0, expect=len(shards))
    if pool is not None:
        if streaming:
            per_shard = _stream_shards(
                pool._pool, pool.events_queue, tasks, obs, token
            )
        else:
            per_shard = pool.run(tasks)
    else:
        ctx = _pool_context()
        prev_obs = engine.obs
        engine.obs = NULL_OBS  # collectors stay parent-side
        queue = worker_event_queue(ctx) if streaming else None
        try:
            with ctx.Pool(
                processes=min(n_jobs, len(tasks)),
                initializer=_init_worker,
                initargs=(engine, queue),
            ) as fresh:
                if streaming:
                    per_shard = _stream_shards(fresh, queue, tasks, obs, token)
                else:
                    per_shard = list(
                        fresh.imap(_mine_shard, tasks, chunksize=1)
                    )
        finally:
            engine.obs = prev_obs
            if queue is not None:
                queue.close()
    for _mined, counters, peaks, cpu_rows in per_shard:
        if counters:
            obs.merge_counters(counters)
        if peaks:
            obs.merge_peaks(peaks)
        if cpu_rows:
            obs.merge_cpu_samples(cpu_rows)
    return MinedColumns.concat([mined for mined, *_ in per_shard])


def _stream_shards(pool, queue, tasks, obs: AnyCollector, token) -> list:
    """Run the shard tasks while forwarding live worker events.

    Results come back in task order (``map_async`` with chunk size 1 —
    the same dynamic scheduling as ``imap``), so order stability is
    unchanged. While the workers mine, the parent drains the event
    queue: heartbeats become ``heartbeat`` events, shard completions
    become ``worker_span`` events plus a ``mine`` progress advance, and
    every drain iteration is a deadline checkpoint, which is how a
    ``deadline_s`` interrupts a long parallel mine between shards.

    Worker ids are assigned parent-side in order of first message
    (1, 2, …) so Chrome traces get small stable per-worker track ids
    whatever the worker pids are.
    """
    async_result = pool.map_async(_mine_shard, tasks, chunksize=1)
    worker_ids: dict[int, int] = {}
    while True:
        obs.checkpoint("mine")
        try:
            message = queue.get(timeout=0.05)
        except Empty:
            if async_result.ready():
                break
            continue
        _forward_message(message, obs, token, worker_ids)
    while True:  # late messages that raced the ready() check
        try:
            message = queue.get_nowait()
        except Empty:
            break
        _forward_message(message, obs, token, worker_ids)
    obs.checkpoint("mine")
    return async_result.get()


def _forward_message(message, obs: AnyCollector, token, worker_ids: dict) -> None:
    """Translate one worker queue message into parent-side events."""
    kind, msg_token = message[0], message[1]
    if msg_token != token:
        return  # stale message from an earlier (cancelled) run
    stream = getattr(obs, "events", None)
    origin = stream.origin if stream is not None else 0.0
    if kind == "env":
        _, _, pid, env = message
        wid = worker_ids.setdefault(pid, len(worker_ids) + 1)
        obs.heartbeat("worker.env", worker=wid, **env)
    elif kind == "hb":
        _, _, pid, t_abs, root = message
        wid = worker_ids.setdefault(pid, len(worker_ids) + 1)
        obs.heartbeat(
            "mine.shard", worker=wid, t=max(0.0, t_abs - origin), root=root
        )
    elif kind == "done":
        _, _, pid, t0_abs, t1_abs, root = message
        wid = worker_ids.setdefault(pid, len(worker_ids) + 1)
        if stream is not None:
            stream.emit(
                "worker_span",
                "mine.shard",
                worker=wid,
                t=max(0.0, t1_abs - origin),
                t0=max(0.0, t0_abs - origin),
                t1=max(0.0, t1_abs - origin),
                root=root,
            )
        obs.progress("mine", root=root)


def _pool_context():
    """Prefer ``fork`` (copy-on-write shared arrays) when available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
