"""Differential matrix: the direct engine vs the instrumented reference.

The direct engine's contract is *bit-identical* experiment streams: same
site ids, same dynamic-site order and widths, same RNG-stream consumption,
same records, same outcomes and crash kinds, same dynamic-instruction
totals.  The instrumented engine is VULFI's actual §II-D mechanism, so it
is the oracle; every test here runs both engines on the same schedule and
compares the complete observable stream — including the hard cases the
instrumented chains handle structurally (sign-bit-masked AVX intrinsics,
i1-masked SSE intrinsics, pointer sites' ptrtoint/inttoptr sandwich).
"""

import math
import struct
from random import Random

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    FaultInjector,
    Outcome,
    build_injection_plan,
    enumerate_module_sites,
    filter_sites,
)
from repro.errors import InjectionError
from repro.frontend import compile_source
from repro.ir import FunctionType, IRBuilder, Module, declare_intrinsic
from repro.ir.types import F32, F64, I32, PointerType, vector
from repro.vm.bits import round_f32
from repro.vm.interpreter import Interpreter
from repro.workloads import all_workloads, get_workload, micro_workloads

INT_KERNEL = """
export void k(uniform int a[], uniform int b[], uniform int n) {
    foreach (i = 0 ... n) { b[i] = a[i] * 3 - 2; }
}
"""

FLOAT_KERNEL = """
export void k(uniform float a[], uniform float b[], uniform int n) {
    foreach (i = 0 ... n) { b[i] = a[i] * 1.5 + 0.25; }
}
"""


def int_runner(n=13, seed=0):
    data = np.random.default_rng(seed).integers(-50, 50, n).astype(np.int32)

    def runner(vm):
        pa = vm.memory.store_array(I32, data, "a")
        pb = vm.memory.store_array(I32, np.zeros(n, dtype=np.int32), "b")
        vm.run("k", [pa, pb, n])
        return {"b": vm.memory.load_array(I32, pb, n)}

    return runner


def float_runner(n=13, seed=0):
    data = np.random.default_rng(seed).random(n).astype(np.float32)

    def runner(vm):
        pa = vm.memory.store_array(F32, data, "a")
        pb = vm.memory.store_array(F32, np.zeros(n, dtype=np.float32), "b")
        vm.run("k", [pa, pb, n])
        return {"b": vm.memory.load_array(F32, pb, n)}

    return runner


def experiment_stream(
    module,
    runner_factory,
    engine,
    category="all",
    seeds=range(4),
    respect_masks=True,
    step_limit=500_000,
):
    """Every observable of a seeded experiment sequence, nan-safe.

    ``repr`` comparison sidesteps ``nan != nan`` in
    :class:`InjectionRecord` equality — a bit flip regularly mints NaNs.
    """
    injector = FaultInjector(
        module,
        category=category,
        step_limit=step_limit,
        respect_masks=respect_masks,
        engine=engine,
    )
    stream = []
    for seed in seeds:
        runner = runner_factory(seed=seed)
        golden = injector.golden(runner)
        result = injector.experiment(runner, Random(seed * 7919 + 3), golden=golden)
        stream.append(
            repr(
                (
                    golden.dynamic_sites,
                    golden.dynamic_instructions,
                    bytes(golden.site_widths),
                    result.outcome,
                    result.crash_kind,
                    result.injection,
                    result.dynamic_sites,
                    result.target_index,
                    sorted(result.site_categories),
                )
            )
        )
    return stream


def assert_engines_agree(module, runner_factory, **kwargs):
    direct = experiment_stream(module, runner_factory, "direct", **kwargs)
    instrumented = experiment_stream(module, runner_factory, "instrumented", **kwargs)
    compiled = experiment_stream(module, runner_factory, "compiled", **kwargs)
    assert direct == instrumented
    assert compiled == instrumented


def workload_stream(workload, engine, category="all", seeds=range(3)):
    module = workload.compile("avx")
    injector = FaultInjector(
        module, category=category, step_limit=500_000, engine=engine
    )
    stream = []
    for seed in seeds:
        runner = workload.build_runner(workload.sample_input(Random(seed)))
        golden = injector.golden(runner)
        result = injector.experiment(runner, Random(seed * 7919 + 3), golden=golden)
        stream.append(
            repr(
                (
                    golden.dynamic_sites,
                    golden.dynamic_instructions,
                    bytes(golden.site_widths),
                    result.outcome,
                    result.crash_kind,
                    result.injection,
                    result.target_index,
                    sorted(result.site_categories),
                )
            )
        )
    return stream


class TestRegistryMatrix:
    """Both engines over the workload registry and the site categories."""

    @pytest.mark.parametrize("workload", micro_workloads(), ids=lambda w: w.name)
    @pytest.mark.parametrize("category", ["pure-data", "control", "address"])
    def test_micro_per_category(self, workload, category):
        assert workload_stream(workload, "direct", category) == workload_stream(
            workload, "instrumented", category
        )

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_every_registry_workload(self, workload):
        seeds = range(2)
        oracle = workload_stream(workload, "instrumented", seeds=seeds)
        assert workload_stream(workload, "direct", seeds=seeds) == oracle
        assert workload_stream(workload, "compiled", seeds=seeds) == oracle


class TestPointerSites:
    """Address faults go through the ptrtoint/inttoptr sandwich (§II-D)."""

    def test_address_category_has_pointer_sites(self):
        module = compile_source(INT_KERNEL, "avx")
        sites = filter_sites(enumerate_module_sites(module), "address")
        assert any(isinstance(s.scalar_type, PointerType) for s in sites)

    def test_pointer_differential(self):
        module = compile_source(INT_KERNEL, "avx")
        assert_engines_agree(
            module, int_runner, category="address", seeds=range(8)
        )

    def test_pointer_flip_records_int64(self):
        module = compile_source(INT_KERNEL, "avx")
        injector = FaultInjector(module, category="address", engine="direct")
        runner = int_runner()
        golden = injector.golden(runner)
        # Sweep sites until one lands on a pointer (width 64 in the count
        # run's record); low bits keep the access in-bounds -> not a crash.
        for k, width in enumerate(golden.site_widths, start=1):
            if width == 64:
                result = injector.faulty(runner, golden, k, bit=2)
                assert result.injection.type_name == "Int64"
                break
        else:  # pragma: no cover
            pytest.fail("no pointer site exercised")


class TestMaskedSites:
    """Execution-mask decoding must match the spliced chains bit for bit."""

    def test_avx_sign_int_masked_differential(self):
        # AVX uses the sign-bit mask convention; integer lanes decode the
        # mask with a bare lshr.
        module = compile_source(INT_KERNEL, "avx")
        sites = enumerate_module_sites(module)
        assert any(s.mask is not None for s in sites)
        assert_engines_agree(module, int_runner, seeds=range(8))

    def test_avx_sign_float_masked_differential(self):
        # Float lanes decode the sign-bit mask with bitcast + lshr.
        module = compile_source(FLOAT_KERNEL, "avx")
        sites = enumerate_module_sites(module)
        assert any(s.mask is not None for s in sites)
        assert_engines_agree(module, float_runner, seeds=range(8))

    def test_sse_i1_masked_differential(self):
        # SSE uses <N x i1> masks decoded with zext.
        module = compile_source(INT_KERNEL, "sse")
        assert_engines_agree(module, int_runner, seeds=range(8))

    def test_mask_unaware_ablation_differential(self):
        # respect_masks=False treats every lane as active in both engines;
        # the direct engine must charge the cheaper unmasked chain tax.
        module = compile_source(FLOAT_KERNEL, "avx")
        assert_engines_agree(module, float_runner, respect_masks=False, seeds=range(6))

    def test_masked_dynamic_counts_differ_from_unaware(self):
        # Sanity that the ablation changes anything at all: a partial
        # final iteration means dead lanes, which only the unaware run
        # counts as dynamic sites.
        module = compile_source(FLOAT_KERNEL, "avx")
        aware = FaultInjector(module, engine="direct").golden(float_runner())
        unaware = FaultInjector(module, engine="direct", respect_masks=False).golden(
            float_runner()
        )
        assert unaware.dynamic_sites > aware.dynamic_sites


class TestStepLimitParity:
    """Timeout crashes must trip at identical dynamic-instruction budgets."""

    def test_crash_parity_at_tight_budget(self):
        workload = get_workload("vector_sum")
        module = workload.compile("avx")
        runner = workload.build_runner(workload.sample_input(Random(1)))

        def stream(engine):
            injector = FaultInjector(
                module, category="control", step_limit=500_000, engine=engine
            )
            golden = injector.golden(runner)
            # Re-run every control-site experiment against a budget with no
            # slack: any injected flip that lengthens execution (or loops)
            # must overrun at the same instruction in both engines.
            tight = FaultInjector(
                module,
                category="control",
                step_limit=golden.dynamic_instructions,
                engine=engine,
            )
            return [
                repr(
                    (
                        r.outcome,
                        r.crash_kind,
                        r.injection,
                    )
                )
                for k in range(1, golden.dynamic_sites + 1)
                for r in (tight.faulty(runner, golden, k, bit=0),)
            ]

        oracle = stream("instrumented")
        assert stream("direct") == oracle
        assert stream("compiled") == oracle


class TestEngineApi:
    def test_unknown_engine_rejected(self):
        module = compile_source(INT_KERNEL, "avx")
        with pytest.raises(InjectionError, match="unknown engine"):
            FaultInjector(module, engine="jit")

    def test_engines_constant(self):
        assert ENGINES == ("direct", "instrumented", "compiled")

    def test_direct_engine_keeps_module_pristine(self):
        module = compile_source(INT_KERNEL, "avx")
        version = module.version
        count = len(list(module.get_function("k").instructions()))
        FaultInjector(module, engine="direct")
        assert module.version == version
        assert len(list(module.get_function("k").instructions())) == count

    def test_plan_covers_every_site(self):
        module = compile_source(INT_KERNEL, "avx")
        sites = enumerate_module_sites(module)
        plan = build_injection_plan(sites)
        assert len(plan) == len(sites)

    def test_worker_payload_carries_engine(self):
        module = compile_source(INT_KERNEL, "avx")
        for engine in ENGINES:
            payload = FaultInjector(module, engine=engine).worker_payload()
            assert payload["engine"] == engine
            rebuilt = FaultInjector(**payload)
            assert rebuilt.engine == engine

    def test_direct_site_ids_match_instrumented(self):
        module = compile_source(INT_KERNEL, "avx")
        direct = FaultInjector(module, engine="direct")
        instrumented = FaultInjector(module, engine="instrumented")
        assert [
            (s.site_id, s.lane, str(s.scalar_type), sorted(s.categories))
            for s in direct.sites
        ] == [
            (s.site_id, s.lane, str(s.scalar_type), sorted(s.categories))
            for s in instrumented.sites
        ]


class TestTrigOnInfinity:
    """``llvm.sin``/``llvm.cos`` of ±inf return NaN, as C does, on every
    engine: a bit flip that makes a float infinite must not crash a run."""

    @pytest.mark.parametrize("op", ["sin", "cos"])
    @pytest.mark.parametrize("scalar", [F32, F64], ids=["f32", "f64"])
    @pytest.mark.parametrize("lanes", [None, 4], ids=["scalar", "v4"])
    def test_nan_bit_identical_across_engines(self, op, scalar, lanes):
        ty = scalar if lanes is None else vector(scalar, lanes)
        suffix = f"f{scalar.bits}" if lanes is None else f"v{lanes}f{scalar.bits}"
        module = Module("trig")
        fn = module.add_function("f", FunctionType(ty, (ty,)), ["x"])
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.call(declare_intrinsic(module, f"llvm.{op}.{suffix}"), [fn.args[0]]))
        arg = [math.inf, -math.inf, 0.0, -math.inf] if lanes else -math.inf
        fmt = "<f" if scalar is F32 else "<d"

        def runner(vm):
            r = vm.run("f", [arg])
            return {"bits": [struct.pack(fmt, x) for x in (r if lanes else [r])]}

        outputs = {
            engine: FaultInjector(module, engine=engine).golden(runner).output["bits"]
            for engine in ENGINES
        }
        nan = struct.pack(fmt, float("nan"))
        zero = struct.pack(fmt, getattr(math, op)(0.0))
        expected = [nan, nan, zero, nan] if lanes else [nan]
        assert outputs == {engine: expected for engine in ENGINES}


class TestFloatArguments:
    """A ``float`` kernel argument must be a binary32 value.  A Python
    double passed as one sits unrounded in an f32 register: lane-wise ops
    compute with the double while the compiled engine's packed ops compute
    with its rounding, so the engines disagree by an ulp.  Callers round,
    as a C caller's implicit conversion would; the VM does not."""

    BROADCAST_KERNEL = """
    export void k(uniform float x, uniform float a[], uniform float b[],
                  uniform int n) {
        foreach (i = 0 ... n) { b[i] = x - a[i]; }
    }
    """

    def test_broadcast_binary32_argument_agrees_across_engines(self):
        module = compile_source(self.BROADCAST_KERNEL, "avx")
        data = np.random.default_rng(3).random(64).astype(np.float32)

        def runner(vm):
            pa = vm.memory.store_array(F32, data, "a")
            pb = vm.memory.store_array(F32, np.zeros(64, np.float32), "b")
            vm.run("k", [float(np.float32(0.35)), pa, pb, 64])
            return {"b": vm.memory.load_array(F32, pb, 64).tobytes()}

        expected = (np.float32(0.35) - data).tobytes()
        for engine in ENGINES:
            assert FaultInjector(module, engine=engine).golden(
                runner
            ).output["b"] == expected, engine

    @pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
    def test_workloads_pass_binary32_float_arguments(self, workload, monkeypatch):
        module = workload.compile("avx")
        run = Interpreter.run

        def checking_run(vm, function, args):
            fn = vm.module.get_function(function)
            for formal, actual in zip(fn.args, args):
                if formal.type == F32:
                    assert round_f32(actual) == actual, (fn.name, formal.name)
            return run(vm, function, args)

        monkeypatch.setattr(Interpreter, "run", checking_run)
        workload.make_runner(workload.sample_input(Random(1)))(Interpreter(module))

    def test_fig11_fluidanimate_control_experiment_agrees(self):
        """fig11 smoke, fluidanimate/avx/control, experiment 6: a flip of
        bit 1 in lane 6 of an ``fmul <8 x float>`` (site 963).  The
        compiled engine used to call it an SDC; it is Benign."""
        from repro.core.parallel import draw_experiment
        from repro.experiments.common import cell_seed

        workload = get_workload("fluidanimate")
        module = workload.compile("avx")
        rng = Random(cell_seed("fig11", workload.name, "avx", "control"))
        factory = workload.runner_factory()
        injectors = {
            engine: FaultInjector(module, category="control", engine=engine)
            for engine in ENGINES
        }
        for _ in range(7):
            runner = factory(rng)
            golden, k, bit = draw_experiment(injectors["direct"], runner, rng)
        assert (k, bit) == (32847, 1)
        outputs, results = {}, {}
        for engine, injector in injectors.items():
            golden = injector.golden(runner)
            outputs[engine] = repr(golden.output)
            results[engine] = injector.faulty(runner, golden, k, bit=bit)
        assert len(set(outputs.values())) == 1
        assert {r.injection.site_id for r in results.values()} == {963}
        assert {r.outcome for r in results.values()} == {Outcome.BENIGN}
