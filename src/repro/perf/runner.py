"""Parallel corpus execution with per-document error isolation.

:class:`CorpusRunner` fans a corpus out across a process pool and runs
the full VS2 pipeline on every document:

* **chunked dispatch** — documents are submitted in contiguous chunks
  (default ``ceil(n / (workers * 4))`` per chunk) so scheduling
  overhead amortises while stragglers still rebalance;
* **deterministic ordering** — results come back aligned with the
  input order regardless of which worker finished first, so a parallel
  run is byte-identical to a serial one (the pipeline itself is fully
  seeded);
* **error isolation** — a document that raises mid-pipeline becomes a
  :class:`DocumentFailure` in :attr:`CorpusRunResult.failures` (and a
  ``None`` at its slot in :attr:`CorpusRunResult.results`) instead of
  killing the run;
* **instrumentation** — every worker accumulates
  :class:`~repro.perf.metrics.PipelineMetrics` and the parent merges
  them, so ``--profile`` tables cover the whole run.

``workers <= 1`` runs serially in-process through the exact same
bookkeeping, which is also the fallback when the platform cannot spawn
processes (restricted sandboxes).
"""

from __future__ import annotations

import builtins
import logging
import math
import os
import time
import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    MetricRegistry,
    get_registry,
    ingest_pipeline_metrics,
)
from repro.obs.resources import sample_resources
from repro.perf.cache import TranscriptionCache
from repro.perf.metrics import PipelineMetrics
from repro.resilience import faults as _faults
from repro.trace import NULL_TRACER, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids core import cycle)
    from repro.core.config import VS2Config
    from repro.core.pipeline import PipelineResult, VS2Pipeline
    from repro.doc import Document
    from repro.resilience.faults import FaultPlan
    from repro.resilience.supervisor import SupervisionPolicy, SupervisionReport

_LOG = logging.getLogger("repro.perf.runner")

#: Builds the pipeline a worker runs; must be picklable (a module-level
#: function) when ``workers > 1``.
PipelineFactory = Callable[[], "VS2Pipeline"]


@dataclass(frozen=True)
class DocumentFailure:
    """One document that raised mid-pipeline, with enough context to
    reproduce it (``python -m repro extract`` on the same seed/doc).

    ``doc_index`` is the document's position in the submitted corpus
    (``-1`` when unknown); ``ocr_seed`` the engine seed the failing
    pipeline was built with; ``span_path`` the deepest open trace span
    at the moment the exception unwound (empty when tracing was off);
    ``transient`` marks failures worth retrying (an injected
    :class:`~repro.resilience.faults.TransientFault`, a watchdog
    timeout, a worker crash) — the supervised runner's retry budget
    applies only to these.
    """

    doc_id: str
    error_type: str
    message: str
    traceback: str
    doc_index: int = -1
    span_path: str = ""
    ocr_seed: Optional[int] = None
    transient: bool = False

    def __str__(self) -> str:
        where = f"doc[{self.doc_index}] {self.doc_id}" if self.doc_index >= 0 else self.doc_id
        out = f"{where}: {self.error_type}: {self.message}"
        if self.span_path:
            out += f" (at {self.span_path})"
        if self.ocr_seed is not None:
            out += f" [ocr_seed={self.ocr_seed}]"
        return out


class CorpusRunError(RuntimeError):
    """A corpus run's first per-document failure, re-raised.

    Carries the full :class:`DocumentFailure` (``.failure``) and the
    original exception class name (``.error_type``) so callers of the
    fail-fast path can still dispatch on what actually went wrong.
    """

    def __init__(self, failure: DocumentFailure):
        super().__init__(
            f"pipeline failed on {failure.doc_id}: "
            f"{failure.error_type}: {failure.message}\n{failure.traceback}"
        )
        self.failure = failure
        self.error_type = failure.error_type


@dataclass
class CorpusRunResult:
    """Everything one corpus run produces.

    ``results[i]`` corresponds to ``docs[i]`` of the input — ``None``
    where that document failed (its :class:`DocumentFailure` is in
    ``failures``, in input order).  ``degrade_reason`` is non-``None``
    when a parallel run silently would have fallen back to serial — the
    runner now records why (no process support, pool exhaustion).
    ``supervision`` is populated only by supervised runs (see
    :mod:`repro.resilience.supervisor`).
    """

    results: List[Optional["PipelineResult"]]
    failures: List[DocumentFailure] = field(default_factory=list)
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    degrade_reason: Optional[str] = None
    supervision: Optional["SupervisionReport"] = None
    registry: MetricRegistry = field(default_factory=MetricRegistry)

    @property
    def ok(self) -> List["PipelineResult"]:
        """The successful results, input order preserved."""
        return [r for r in self.results if r is not None]

    def raise_first(self) -> None:
        """Re-raise the first failure (for callers that want the old
        fail-fast ``run_corpus`` semantics).  The raised
        :class:`CorpusRunError` is chained ``from`` an instance of the
        original exception type when that type is resolvable, so
        ``except`` clauses and logs see the real cause."""
        if not self.failures:
            return
        f = self.failures[0]
        cause_type = getattr(builtins, f.error_type, None)
        if isinstance(cause_type, type) and issubclass(cause_type, BaseException):
            raise CorpusRunError(f) from cause_type(f.message)
        raise CorpusRunError(f)


# ----------------------------------------------------------------------
# Worker-side machinery (module level so the spawn start method works)
# ----------------------------------------------------------------------
_WORKER_PIPELINE: Optional["VS2Pipeline"] = None
_WORKER_TRACER = NULL_TRACER


def _default_factory(
    dataset: str, config: Optional["VS2Config"], tracer=NULL_TRACER
) -> "VS2Pipeline":
    from repro.core.pipeline import VS2Pipeline

    return VS2Pipeline(
        dataset, config=config, cache=TranscriptionCache(), tracer=tracer
    )


def _init_worker(  # conc: ambient - per-process setup is the point of an initializer
    dataset: str,
    config: Optional["VS2Config"],
    factory: Optional[PipelineFactory],
    trace_enabled: bool = False,
    fault_plan: Optional["FaultPlan"] = None,
) -> None:
    """Process-pool initialiser: build this worker's pipeline once.

    When the parent traces, each worker gets its own :class:`Tracer`;
    its drained span buffers travel back with every chunk result and
    are re-parented under the parent's ``corpus`` span.  A fault plan
    is installed non-preemptible: pool workers cannot be individually
    killed, so ``hang``/``crash`` faults simulate as transient raises
    (the supervised runner's hand-managed workers run them for real).
    """
    global _WORKER_PIPELINE, _WORKER_TRACER
    get_registry().drain()  # fork-inherited ambient samples belong to the parent
    _WORKER_TRACER = Tracer() if trace_enabled else NULL_TRACER
    if fault_plan is not None:
        _faults.install(fault_plan, tracer=_WORKER_TRACER)
    _WORKER_PIPELINE = (
        factory()
        if factory is not None
        else _default_factory(dataset, config, tracer=_WORKER_TRACER)
    )


def _run_one(
    pipeline: "VS2Pipeline",
    index: int,
    doc: "Document",
    tracer=NULL_TRACER,
    attempt: int = 1,
) -> Tuple[int, Optional["PipelineResult"], Optional[DocumentFailure]]:
    attrs: Dict[str, Any] = {"index": index, "doc_id": doc.doc_id}
    if attempt > 1:
        attrs["attempt"] = attempt
    corpus = getattr(pipeline, "dataset", "?")
    registry = get_registry()
    try:
        with _faults.doc_scope(doc.doc_id, index, attempt):
            with tracer.span("doc", **attrs):
                _faults.fault_site("worker.chunk")
                result = pipeline.run(doc)
        registry.counter("repro.docs.processed", corpus=corpus, status="ok").inc()
        for degradation in getattr(result, "degradations", ()):
            registry.counter(
                "repro.doc.degradations", corpus=corpus, stage=degradation.stage
            ).inc()
        return index, result, None
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        failure = DocumentFailure(
            doc_id=doc.doc_id,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
            doc_index=index,
            span_path=tracer.consume_error_path(exc) or "",
            ocr_seed=getattr(getattr(pipeline, "config", None), "ocr_seed", None),
            transient=isinstance(exc, _faults.TransientFault),
        )
        registry.counter("repro.docs.processed", corpus=corpus, status="failed").inc()
        registry.counter(
            "repro.doc.failures", corpus=corpus, error_type=failure.error_type
        ).inc()
        return index, None, failure


def _emit_cache_counters(pipeline: "VS2Pipeline", before: Tuple[int, int]) -> None:
    """Record transcription-cache hits/misses accrued since ``before``
    into the ambient registry (cumulative cache counters need delta
    accounting so repeated chunks never double-count)."""
    cache = getattr(pipeline, "cache", None)
    if cache is None:
        return
    registry = get_registry()
    hits = getattr(cache, "hits", 0) - before[0]
    misses = getattr(cache, "misses", 0) - before[1]
    if hits:
        registry.counter("repro.ocr.cache", outcome="hit").inc(hits)
    if misses:
        registry.counter("repro.ocr.cache", outcome="miss").inc(misses)


def _cache_counts(pipeline: "VS2Pipeline") -> Tuple[int, int]:
    cache = getattr(pipeline, "cache", None)
    return (getattr(cache, "hits", 0), getattr(cache, "misses", 0))


def _run_chunk(chunk: List[Tuple[int, "Document"]]):
    """Run one chunk in a worker; returns per-doc outcomes plus the
    metrics, trace spans and metric-registry dump accumulated *by this
    chunk* (all drained, so successive chunks in the same worker never
    double-count)."""
    assert _WORKER_PIPELINE is not None, "worker initialiser did not run"
    cache_before = _cache_counts(_WORKER_PIPELINE)
    out = [_run_one(_WORKER_PIPELINE, index, doc, _WORKER_TRACER) for index, doc in chunk]
    _emit_cache_counters(_WORKER_PIPELINE, cache_before)
    sample_resources(get_registry(), worker=f"pid{os.getpid()}")
    spans = [span.to_dict() for span in _WORKER_TRACER.drain()]
    registry_dump = get_registry().drain().to_dict()
    return out, _WORKER_PIPELINE.metrics.drain().to_dict(), spans, registry_dump


def _warm_worker(spin_s: float) -> int:
    """Warm-up task for :meth:`WarmProcessPool.boot`: occupy a worker
    long enough that concurrent warm-up submissions cannot be served by
    an idle worker and force the executor to spawn fresh ones."""
    deadline = time.perf_counter() + spin_s
    spins = 0
    while time.perf_counter() < deadline:
        spins += 1
    return spins


# ----------------------------------------------------------------------
# The warm pool
# ----------------------------------------------------------------------
class WarmProcessPool:
    """A persistent process pool whose workers boot the pipeline once.

    :meth:`CorpusRunner._run_parallel` historically constructed a fresh
    :class:`ProcessPoolExecutor` per run, paying worker boot (embedding
    tables, pattern libraries, holdout mining) on every call.  A
    ``WarmProcessPool`` hoists that pool out of the runner: build one,
    hand it to any number of :class:`CorpusRunner` instances via the
    ``pool`` parameter, and the same already-initialised workers serve
    every run until :meth:`close`.

    The pool owns the worker-side initialisation arguments (dataset,
    config, factory, tracing, fault plan) — runners sharing the pool
    must be built consistently with them, since ``_init_worker`` runs
    once per worker, not once per run.  Chunk results still drain the
    worker-side tracer/metrics/registry per chunk, so successive runs
    through one pool never double-count.

    The executor boots lazily on first :meth:`executor` call and boots
    again transparently after :meth:`close` — a drained server can be
    restarted.  Not thread-safe for concurrent first boot; callers
    (the serve layer) boot it before starting any request threads.
    """

    def __init__(
        self,
        dataset: str,
        config: Optional["VS2Config"] = None,
        workers: int = 2,
        pipeline_factory: Optional[PipelineFactory] = None,
        trace_enabled: bool = False,
        fault_plan: Optional["FaultPlan"] = None,
    ):
        self.dataset = dataset.upper()
        self.config = config
        self.workers = max(1, int(workers))
        self.pipeline_factory = pipeline_factory
        self.trace_enabled = bool(trace_enabled)
        self.fault_plan = fault_plan
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, booting it on first use.  Raises
        ``OSError``/``ValueError`` when the platform cannot spawn
        processes — callers degrade exactly as for a cold pool."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self.dataset,
                    self.config,
                    self.pipeline_factory,
                    self.trace_enabled,
                    self.fault_plan,
                ),
            )
        return self._executor

    def boot(self) -> "WarmProcessPool":
        """Force the executor *and every worker process* to exist now.

        ``ProcessPoolExecutor`` forks workers lazily — one per
        submission that finds no idle worker — so merely creating the
        executor would still fork workers on the first real run.  For
        the serve layer that first run happens after the event loop and
        its threads exist, and a child forked then can inherit a held
        lock and deadlock.  The warm-up rounds keep every live worker
        busy while submitting, so each extra submission must spawn a
        fresh process; the private ``_processes`` peek is only a stop
        condition (when the attribute is missing the rounds just run to
        the cap)."""
        executor = self.executor()
        for _ in range(8):
            processes = getattr(executor, "_processes", None)
            if processes is not None and len(processes) >= self.workers:
                break
            futures = [
                executor.submit(_warm_worker, 0.05) for _ in range(self.workers)
            ]
            for future in futures:
                future.result()
        return self

    @property
    def booted(self) -> bool:
        return self._executor is not None

    def close(self) -> None:
        """Shut the executor down, joining every worker.  Idempotent;
        the pool can boot again afterwards."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "WarmProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class CorpusRunner:
    """Run the VS2 pipeline over a corpus, serially or across a pool.

    Parameters
    ----------
    dataset:
        ``"D1"`` / ``"D2"`` / ``"D3"`` — which pipeline wiring to build.
    config:
        Optional :class:`~repro.core.config.VS2Config` override (must be
        picklable when ``workers > 1``).
    workers:
        Process count.  ``<= 1`` runs serially in-process.
    chunk_size:
        Documents per dispatched chunk; default balances ~4 chunks per
        worker.
    cache:
        A :class:`TranscriptionCache` for the serial path (workers own
        private caches — transcription is deterministic, so this only
        affects speed, never results).
    pipeline_factory:
        Custom pipeline builder (e.g. for tests or alternative
        configs).  Must be a picklable callable when ``workers > 1``.
    tracer:
        A :class:`repro.trace.Tracer` receiving the run's hierarchical
        spans (``corpus > doc[i] > stage``) and decision events.
        Workers trace into private buffers that are re-parented here in
        deterministic document order, so a normalised export of a
        parallel run is byte-identical to the serial one.
    fault_plan:
        A :class:`~repro.resilience.faults.FaultPlan` to install for
        the run (parent process for serial runs, each worker for
        parallel ones).  The plan's schedule is seeded per document, so
        serial and parallel runs see identical faults.
    supervision:
        A :class:`~repro.resilience.supervisor.SupervisionPolicy`.
        When set, :meth:`run` executes under the supervised layer:
        per-document timeouts with worker replacement, retry of
        transient failures, quarantine and checkpoint/resume.
    registry:
        A :class:`repro.obs.registry.MetricRegistry` receiving the
        run's labeled metrics (doc outcomes, stage accounting,
        resilience decisions, resource high-water marks).  Workers emit
        into their process-local registry; drained dumps ride each
        chunk result and fold in here, so a serial and a parallel run
        produce the same normalized dump (docs/OBSERVABILITY.md).
        A fresh registry is created when not given.
    pool:
        A :class:`WarmProcessPool` to run parallel chunks on instead of
        constructing (and tearing down) a private executor.  The pool's
        worker count governs ``workers``; its boot arguments govern the
        worker-side pipelines, so build the runner consistently with
        them.  Ignored on the serial path and under ``supervision``
        (supervised runs hand-manage their own preemptible workers).
        The runner never shuts a shared pool down — its owner does.
    """

    def __init__(
        self,
        dataset: str,
        config: Optional["VS2Config"] = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        cache: Optional[TranscriptionCache] = None,
        pipeline_factory: Optional[PipelineFactory] = None,
        tracer: Optional[Tracer] = None,
        fault_plan: Optional["FaultPlan"] = None,
        supervision: Optional["SupervisionPolicy"] = None,
        registry: Optional[MetricRegistry] = None,
        pool: Optional[WarmProcessPool] = None,
    ):
        self.dataset = dataset.upper()
        self.config = config
        self.pool = pool
        self.workers = max(1, int(workers if pool is None else pool.workers))
        self.chunk_size = chunk_size
        self.cache = cache
        self.pipeline_factory = pipeline_factory
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_plan = fault_plan
        self.supervision = supervision
        self.registry = registry if registry is not None else MetricRegistry()
        self._serial_pipeline: Optional["VS2Pipeline"] = None

    # ------------------------------------------------------------------
    def run(self, docs: Sequence["Document"]) -> CorpusRunResult:
        """Process every document; never raises for a per-document
        pipeline error (see :class:`CorpusRunResult`)."""
        docs = list(docs)
        get_registry().drain()  # discard ambient samples stranded by earlier runs
        if self.supervision is not None:
            from repro.resilience.supervisor import run_supervised

            return run_supervised(self, docs)
        metrics = PipelineMetrics()
        degrade_reason: Optional[str] = None
        with metrics.stage("corpus") as t, self.tracer.span(
            "corpus", dataset=self.dataset, docs=len(docs)
        ):
            t.items = len(docs)
            # One document is not worth starting an owned pool for; a
            # warm pool is already running, so it takes even one.
            if self.workers <= 1 or (len(docs) <= 1 and self.pool is None):
                slots, failures = self._run_serial(docs, metrics)
            else:
                slots, failures, degrade_reason = self._run_parallel(docs, metrics)
        failures.sort(key=lambda f: (f.doc_index, f.doc_id))
        # Parent-side emissions (serial docs, in-process faults) sit in
        # the ambient registry; fold them plus the stage accounting and
        # this process's resource high-water marks into the run registry.
        self.registry.merge(get_registry().drain())
        ingest_pipeline_metrics(metrics, self.registry)
        sample_resources(self.registry, worker="main")
        return CorpusRunResult(
            results=slots,
            failures=failures,
            metrics=metrics,
            degrade_reason=degrade_reason,
            registry=self.registry,
        )

    # ------------------------------------------------------------------
    def _serial(self) -> "VS2Pipeline":
        if self._serial_pipeline is None:
            from repro.core.pipeline import VS2Pipeline

            if self.pipeline_factory is not None:
                self._serial_pipeline = self.pipeline_factory()
            else:
                self._serial_pipeline = VS2Pipeline(
                    self.dataset,
                    config=self.config,
                    cache=self.cache or TranscriptionCache(),
                    tracer=self.tracer,
                )
        return self._serial_pipeline

    def _run_serial(self, docs, metrics):
        pipeline = self._serial()
        pipeline.metrics.drain()  # only this run's samples
        slots: List[Optional["PipelineResult"]] = [None] * len(docs)
        failures: List[DocumentFailure] = []
        installed = False
        if self.fault_plan is not None and not _faults.is_installed():
            _faults.install(self.fault_plan, tracer=self.tracer)
            installed = True
        cache_before = _cache_counts(pipeline)
        try:
            for index, doc in enumerate(docs):
                _, result, failure = _run_one(pipeline, index, doc, self.tracer)
                slots[index] = result
                if failure is not None:
                    failures.append(failure)
        finally:
            if installed:
                _faults.uninstall()
        _emit_cache_counters(pipeline, cache_before)
        metrics.merge(pipeline.metrics.drain())
        return slots, failures

    def _run_parallel(self, docs, metrics):
        chunk_size = self.chunk_size or max(
            1, math.ceil(len(docs) / (self.workers * 4))
        )
        chunks = [
            list(enumerate(docs))[i : i + chunk_size]
            for i in range(0, len(docs), chunk_size)
        ]
        workers = min(self.workers, len(chunks))
        slots: List[Optional["PipelineResult"]] = [None] * len(docs)
        failures: List[DocumentFailure] = []
        owned = self.pool is None
        try:
            if owned:
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(
                        self.dataset,
                        self.config,
                        self.pipeline_factory,
                        self.tracer.enabled,
                        self.fault_plan,
                    ),
                )
            else:
                executor = self.pool.executor()
        except (OSError, ValueError) as exc:  # no process support: degrade, don't die
            reason = f"{type(exc).__name__}: {exc}"
            _LOG.warning(
                "parallel corpus run degraded to serial (%s workers unavailable): %s",
                workers, reason,
            )
            self.tracer.event("runner.degrade", reason=reason, to="serial")
            slots, failures = self._run_serial(docs, metrics)
            return slots, failures, reason
        adopted: List[Span] = []
        try:
            pending = {executor.submit(_run_chunk, chunk) for chunk in chunks}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    outcomes, chunk_metrics, chunk_spans, chunk_registry = future.result()
                    metrics.merge(PipelineMetrics.from_dict(chunk_metrics))
                    self.registry.merge(MetricRegistry.from_dict(chunk_registry))
                    adopted.extend(Span.from_dict(s) for s in chunk_spans)
                    for index, result, failure in outcomes:
                        slots[index] = result
                        if failure is not None:
                            failures.append(failure)
        finally:
            if owned:
                executor.shutdown()
        # Chunks complete in whichever order the pool schedules them;
        # re-parent worker spans sorted by document index so a traced
        # parallel run is structurally identical to the serial one.
        adopted.sort(key=lambda s: (s.attrs.get("index", -1), s.name))
        for span in adopted:
            self.tracer.adopt(span)
        return slots, failures, None
