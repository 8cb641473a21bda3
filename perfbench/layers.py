"""Span wrappers around each layer's public entry points.

:func:`install` replaces the entry points in the loaded modules of this
process, so a traced sweep runs the unchanged program with a span around
every call into a layer.  Forked pool workers inherit the wrappers, but
their spans die with them: ``faulty.*`` on a ``--jobs`` sweep covers the
parent process only.

Layer (module)          span / counts
frontend.driver         frontend          frontend.calls
workloads.generated     generate          (module build incl. vectorize_pipeline)
core.injector           injector.build    (FaultInjector.__init__)
vm.decode               decode            decode.functions
vm.compile              codegen           codegen.functions, codegen.lines
core.injector           golden            golden.runs, golden.lookups, golden.hits
core.injector           faulty            faulty.runs
core.outcomes           classify          (outputs_equal as bound in core.injector)
analysis.stats          stats             (margin_of_error, is_near_normal)
core.parallel           pool.start, pool.wait
store.recorder          store.record      (claim, replay, record)
store.journal           journal.append, journal.flush, journal.records, journal.bytes
"""

from __future__ import annotations

import functools


def install(rec) -> None:
    """Wrap every layer entry point in this process with spans of ``rec``."""
    from repro.analysis import stats
    from repro.core import campaign, injector, parallel
    from repro.frontend import driver
    from repro.store import journal, recorder
    from repro.vm import compile as vm_compile
    from repro.vm import decode
    from repro.workloads import generated, registry

    frontend = rec.timed("frontend", driver.compile_source, "frontend.calls")
    driver.compile_source = frontend
    registry.compile_source = frontend
    generated.GeneratedWorkload._build = rec.timed(
        "generate", generated.GeneratedWorkload._build
    )

    injector_cls = injector.FaultInjector
    injector_cls.__init__ = rec.timed("injector.build", injector_cls.__init__)
    decode.DecodedFunction.__init__ = rec.timed(
        "decode", decode.DecodedFunction.__init__, "decode.functions"
    )
    vm_compile.CompiledFunction.__init__ = rec.timed(
        "codegen", vm_compile.CompiledFunction.__init__, "codegen.functions"
    )
    build = vm_compile._FunctionCompiler.build

    @functools.wraps(build)
    def counted_build(self):
        build(self)
        if self.sources:
            rec.count("codegen.lines", "\n".join(self.sources).count("\n") + 1)

    vm_compile._FunctionCompiler.build = counted_build

    golden = rec.timed("golden", injector_cls.golden, "golden.runs")

    @functools.wraps(injector_cls.golden)
    def counted_golden(self, *args, **kwargs):
        run = golden(self, *args, **kwargs)
        rec.count("golden.instructions", run.dynamic_instructions)
        return run

    cached_golden = injector_cls.cached_golden

    @functools.wraps(cached_golden)
    def counted_cached_golden(self, *args, **kwargs):
        hits = self.golden_cache.hits
        run = cached_golden(self, *args, **kwargs)
        rec.count("golden.lookups")
        if self.golden_cache.hits != hits:
            rec.count("golden.hits")
        return run

    faulty = rec.timed("faulty", injector_cls.faulty, "faulty.runs")

    @functools.wraps(injector_cls.faulty)
    def counted_faulty(self, *args, **kwargs):
        result = faulty(self, *args, **kwargs)
        rec.count("faulty.instructions", result.faulty_dynamic_instructions)
        return result

    injector_cls.golden = counted_golden
    injector_cls.cached_golden = counted_cached_golden
    injector_cls.faulty = counted_faulty
    injector.outputs_equal = rec.timed("classify", injector.outputs_equal)

    for name in ("margin_of_error", "is_near_normal"):
        wrapped = rec.timed("stats", getattr(stats, name))
        setattr(stats, name, wrapped)
        setattr(campaign, name, wrapped)

    pool = parallel.SweepPool
    pool.__init__ = rec.timed("pool.start", pool.__init__)
    pool.close = rec.timed("pool.wait", pool.close)
    imap_keyed = pool.imap_keyed

    @functools.wraps(imap_keyed)
    def waited_imap_keyed(self, *args, **kwargs):
        return _Waited(rec, imap_keyed(self, *args, **kwargs))

    pool.imap_keyed = waited_imap_keyed

    camp = recorder.CampaignRecorder
    for name in ("claim", "replay", "record"):
        setattr(camp, name, rec.timed("store.record", getattr(camp, name)))
    jrn = journal.Journal
    jrn.append = rec.timed("journal.append", jrn.append, "journal.records")
    flush = rec.timed("journal.flush", jrn.flush)

    @functools.wraps(jrn.flush)
    def counted_flush(self):
        # Every append and flush of these sweeps runs on the main thread,
        # so the buffer cannot change between this read and the write.
        rec.count("journal.bytes", sum(len(line) for line in self._buffer))
        flush(self)

    jrn.flush = counted_flush


class _Waited:
    """An iterator over pool results whose every ``next`` is a wait span."""

    def __init__(self, rec, results):
        self._rec = rec
        self._results = results

    def __iter__(self):
        return self

    def __next__(self):
        with self._rec.span("pool.wait"):
            return next(self._results)


def layer_metrics(traces: list[dict], wall_s: float) -> dict:
    """The per-layer metrics of one traced sweep, from the summaries its
    commands wrote (see ``Recorder.summary``) and its total wall time."""
    self_s: dict = {}
    counts: dict = {}
    for summary in traces:
        for k, v in summary["self"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in summary["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def s(name):
        return self_s.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    out = {
        "import.s": (s("import"), "s"),
        "frontend.s": (s("frontend"), "s"),
        "frontend.calls": (c("frontend.calls"), "count"),
        "generate.s": (s("generate"), "s"),
        "injector.build.s": (s("injector.build"), "s"),
        "decode.s": (s("decode"), "s"),
        "decode.functions": (c("decode.functions"), "count"),
        "codegen.s": (s("codegen"), "s"),
        "codegen.functions": (c("codegen.functions"), "count"),
        "codegen.lines": (c("codegen.lines"), "count"),
        "golden.s": (s("golden"), "s"),
        "golden.runs": (c("golden.runs"), "count"),
        "golden.hit_ratio": (rate(c("golden.hits"), c("golden.lookups")), "ratio"),
        "golden.insn_per_s": (rate(c("golden.instructions"), s("golden")), "insn/s"),
        "faulty.s": (s("faulty"), "s"),
        "faulty.runs": (c("faulty.runs"), "count"),
        "faulty.insn_per_s": (rate(c("faulty.instructions"), s("faulty")), "insn/s"),
        "classify.s": (s("classify"), "s"),
        "stats.s": (s("stats"), "s"),
        "pool.start.s": (s("pool.start"), "s"),
        "pool.wait.s": (s("pool.wait"), "s"),
        "store.record.s": (s("store.record"), "s"),
        "journal.append.s": (s("journal.append"), "s"),
        "journal.flush.s": (s("journal.flush"), "s"),
        "journal.bytes": (c("journal.bytes"), "bytes"),
        "journal.records": (c("journal.records"), "count"),
        "report.s": (s("report"), "s"),
        "verify.s": (s("verify"), "s"),
    }
    out["other.s"] = (wall_s - sum(self_s.values()), "s")
    return out

