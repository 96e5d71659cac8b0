"""The compile-time execution workflow (paper §V-C and Fig. 3's right half).

When a new, unseen stencil arrives (as DSL text or a kernel object), the
workflow:

1. extracts its static features,
2. runs the double compilation (PATUS source-to-source + backend compile,
   accounted),
3. asks the trained model to rank the candidate tuning settings —
   no execution of any variant,
4. returns the binary configured with the top-ranked setting, ready to run
   on the (simulated) machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.autotune.autotuner import OrdinalAutotuner
from repro.codegen.compiler import CompiledVariant, PatusCompiler
from repro.codegen.dsl import parse_dsl
from repro.machine.executor import Measurement, SimulatedMachine
from repro.stencil.execution import StencilExecution
from repro.stencil.instance import StencilInstance
from repro.stencil.kernel import StencilKernel
from repro.tuning.vector import TuningVector

__all__ = ["TunedBinary", "CompilationWorkflow"]


@dataclass(frozen=True)
class TunedBinary:
    """Result of the workflow: a compiled variant plus its provenance."""

    variant: CompiledVariant
    instance: StencilInstance
    tuning: TuningVector
    rank_seconds: float
    compile_seconds: float

    def execution(self) -> StencilExecution:
        """The execution this binary performs."""
        return StencilExecution(self.instance, self.tuning)


class CompilationWorkflow:
    """DSL/kernel in → tuned binary out."""

    def __init__(
        self,
        autotuner: OrdinalAutotuner,
        machine: SimulatedMachine,
        compiler: "PatusCompiler | None" = None,
    ) -> None:
        self.autotuner = autotuner
        self.machine = machine
        self.compiler = compiler or PatusCompiler()

    def tune_kernel(
        self,
        kernel: StencilKernel,
        size: tuple[int, int, int],
        candidates: "list[TuningVector] | None" = None,
    ) -> TunedBinary:
        """Run the full §V-C flow for a kernel object."""
        instance = StencilInstance(kernel, size)
        best = self.autotuner.best(instance, candidates)
        variant = self.compiler.compile(kernel, instance.size, best)
        return TunedBinary(
            variant=variant,
            instance=instance,
            tuning=best,
            rank_seconds=self.autotuner.last_rank_seconds,
            compile_seconds=variant.compile_seconds,
        )

    def tune_dsl(
        self,
        text: str,
        size: tuple[int, int, int],
        candidates: "list[TuningVector] | None" = None,
    ) -> TunedBinary:
        """Run the full §V-C flow for DSL source text."""
        kernel, _weights = parse_dsl(text)
        return self.tune_kernel(kernel, size, candidates)

    def run(self, binary: TunedBinary, repeats: int = 3) -> Measurement:
        """Execute the tuned binary on the simulated machine."""
        return self.machine.measure(binary.execution(), repeats=repeats)
