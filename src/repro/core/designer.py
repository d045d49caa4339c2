"""The virtualization designer facade.

Ties the pieces of the paper's framework together (Figure 2): a design
problem, a cost model (what-if optimizer over calibrated parameters),
and a combinatorial search. The resulting :class:`Design` reports the
recommended allocation matrix alongside the default (equal-share)
baseline, and can be applied to a :class:`VirtualMachineMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.core.cost_model import CostModel
from repro.core.problem import AllocationMatrix, VirtualizationDesignProblem
from repro.core.search import SearchAlgorithm, SearchResult, make_algorithm
from repro.core.slo import SloCostModel, SloPolicy
from repro.virt.monitor import VirtualMachineMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.engine import EvaluationEngine


@dataclass
class Design:
    """A recommended virtualization design."""

    problem: VirtualizationDesignProblem
    allocation: AllocationMatrix
    predicted_total_cost: float
    predicted_costs: Dict[str, float]
    default_allocation: AllocationMatrix
    default_total_cost: float
    default_costs: Dict[str, float]
    algorithm: str
    evaluations: int
    #: True when the search stopped early on its evaluation budget or
    #: deadline — the design is best-so-far, not exhaustively optimal.
    stopped: bool = False

    @property
    def predicted_improvement(self) -> float:
        """Fractional predicted cost reduction vs the equal-share default."""
        if self.default_total_cost <= 0:
            return 0.0
        return 1.0 - self.predicted_total_cost / self.default_total_cost

    def summary(self) -> str:
        lines = [
            f"Design via {self.algorithm} "
            f"({self.evaluations} cost evaluations)",
        ]
        for name in self.allocation.workload_names():
            vec = self.allocation.vector_for(name)
            lines.append(
                f"  {name}: cpu={vec.cpu:.2f} mem={vec.memory:.2f} io={vec.io:.2f}"
                f"  predicted={self.predicted_costs[name]:.3f}s"
                f" (default {self.default_costs[name]:.3f}s)"
            )
        lines.append(
            f"  total predicted {self.predicted_total_cost:.3f}s vs "
            f"default {self.default_total_cost:.3f}s "
            f"({100 * self.predicted_improvement:.1f}% better)"
        )
        return "\n".join(lines)


class VirtualizationDesigner:
    """Solves design problems and applies the results."""

    def __init__(self, problem: VirtualizationDesignProblem,
                 cost_model: CostModel,
                 slo: Optional[SloPolicy] = None):
        self._problem = problem
        self._base_cost_model = cost_model
        if slo is not None:
            baseline = self._baseline_costs(cost_model)
            self._cost_model: CostModel = SloCostModel(cost_model, slo, baseline)
        else:
            self._cost_model = cost_model

    @property
    def problem(self) -> VirtualizationDesignProblem:
        return self._problem

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def _baseline_costs(self, cost_model: CostModel) -> Dict[str, float]:
        default = self._problem.default_allocation()
        return {
            spec.name: cost_model.cost(spec, default.vector_for(spec.name))
            for spec in self._problem.specs
        }

    # -- designing -----------------------------------------------------------

    def evaluate(self, allocation: AllocationMatrix) -> Dict[str, float]:
        """Un-penalized cost of each workload under *allocation*.

        Validates the matrix first: a negative share or a resource
        column summing past 1 raises an
        :class:`~repro.util.errors.AllocationError` naming the VM and
        resource, instead of surfacing later as nonsense costs.
        """
        allocation.validate()
        return {
            spec.name: self._base_cost_model.cost(
                spec, allocation.vector_for(spec.name)
            )
            for spec in self._problem.specs
        }

    def design(self, algorithm: Union[str, SearchAlgorithm] = "exhaustive",
               grid: int = 4, max_evaluations: Optional[int] = None,
               deadline_seconds: Optional[float] = None,
               engine: Optional["EvaluationEngine"] = None,
               continuous: bool = False, fine_factor: int = 8) -> Design:
        """Search for the best allocation of the controlled resources.

        *max_evaluations* / *deadline_seconds* bound the search when the
        cost model may be degraded (see ``docs/robustness.md``); an
        *engine* only decides where the search's evaluation batches run
        — the design is the same without one (see
        ``docs/parallelism.md``); with *continuous* the search leaves
        the coarse grid for allocations down to a
        ``1/(grid * fine_factor)`` resolution — pair it with a cost
        model backed by a fitted surrogate so the extra allocations cost
        interpolations, not experiments (``docs/surrogate.md``). All
        apply only when *algorithm* is given by name.
        """
        if isinstance(algorithm, str):
            algorithm = make_algorithm(algorithm, grid,
                                       max_evaluations=max_evaluations,
                                       deadline_seconds=deadline_seconds,
                                       engine=engine, continuous=continuous,
                                       fine_factor=fine_factor)
        result: SearchResult = algorithm.search(self._problem, self._cost_model)

        default = self._problem.default_allocation()
        default_costs = self.evaluate(default)
        chosen_costs = self.evaluate(result.allocation)
        return Design(
            problem=self._problem,
            allocation=result.allocation,
            predicted_total_cost=sum(chosen_costs.values()),
            predicted_costs=chosen_costs,
            default_allocation=default,
            default_total_cost=sum(default_costs.values()),
            default_costs=default_costs,
            algorithm=result.algorithm,
            evaluations=result.evaluations,
            stopped=result.stopped,
        )

    # -- deployment -----------------------------------------------------------

    def apply(self, vmm: VirtualMachineMonitor, design: Design,
              machine_name: Optional[str] = None) -> None:
        """Create or reconfigure one VM per workload with the design's shares.

        Existing VMs with matching names are reconfigured in place (the
        run-time knob Xen exposes); missing ones are created with the
        workload's database attached and started.
        """
        allocation = design.allocation
        allocation.validate()
        existing = {
            name: vmm.vms[name]
            for name in allocation.workload_names() if name in vmm.vms
        }
        if existing:
            vmm.apply_allocation({
                name: allocation.vector_for(name) for name in existing
            })
        for spec in self._problem.specs:
            if spec.name in existing:
                continue
            vm = vmm.create_vm(spec.name, allocation.vector_for(spec.name),
                               machine_name=machine_name)
            vm.attach_guest(spec.database)
            vm.start()
