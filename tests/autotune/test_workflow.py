"""Tests for the compile-time workflow (DSL in → tuned binary out)."""

import pytest

from repro.autotune.autotuner import OrdinalAutotuner
from repro.autotune.workflow import CompilationWorkflow
from repro.codegen.dsl import kernel_to_dsl
from repro.learn.ranksvm import RankSVMConfig
from repro.machine.executor import SimulatedMachine
from repro.stencil.suite import BENCHMARKS


@pytest.fixture(scope="module")
def workflow(tiny_training_set):
    tuner = OrdinalAutotuner(config=RankSVMConfig(seed=1)).train(tiny_training_set)
    return CompilationWorkflow(tuner, SimulatedMachine(seed=5))


class TestTuneKernel:
    def test_end_to_end(self, workflow):
        kernel = BENCHMARKS["laplacian"].kernel
        binary = workflow.tune_kernel(kernel, (128, 128, 128))
        assert binary.tuning == workflow.autotuner.best(binary.instance)
        assert "#pragma omp" in binary.variant.c_source
        assert binary.compile_seconds > 0
        assert binary.rank_seconds > 0

    def test_binary_cache_on_second_tune(self, workflow):
        kernel = BENCHMARKS["gradient"].kernel
        first = workflow.tune_kernel(kernel, (128, 128, 128))
        second = workflow.tune_kernel(kernel, (256, 256, 256))
        if second.tuning.effective_unroll == first.tuning.effective_unroll:
            assert second.compile_seconds == 0.0

    def test_run_executes_binary(self, workflow):
        kernel = BENCHMARKS["edge"].kernel
        binary = workflow.tune_kernel(kernel, (512, 512, 1))
        measurement = workflow.run(binary)
        assert measurement.time > 0
        assert measurement.execution == binary.execution()


class TestTuneDsl:
    def test_dsl_entry_point(self, workflow):
        kernel = BENCHMARKS["laplacian"].kernel
        text = kernel_to_dsl(kernel)
        binary = workflow.tune_dsl(text, (128, 128, 128))
        assert binary.instance.kernel.buffer_patterns == kernel.buffer_patterns

    def test_dsl_and_kernel_agree(self, workflow):
        kernel = BENCHMARKS["wave"].kernel
        via_kernel = workflow.tune_kernel(kernel, (128, 128, 128))
        via_dsl = workflow.tune_dsl(kernel_to_dsl(kernel), (128, 128, 128))
        assert via_kernel.tuning == via_dsl.tuning
