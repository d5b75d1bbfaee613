"""Online minimum matching on the line under the advice-tape model."""

from .model import (
    Instance,
    InstanceError,
    Matching,
    load_instance,
    make_matching,
    save_instance,
    total_cost,
    validate_instance,
)
from .offline import (
    LRPartition,
    apply_switch,
    brute_force_optimal,
    classify_lr,
    monotone_cost,
    monotone_optimal,
)
from .tape import AdviceTape, AuxTape, TapeUnderflow, word_width
from .lr import LRResult, LRState, lr_oracle, lr_run, lr_serve
from .divide import (
    BlockPlan,
    DivideAdvice,
    DivideResult,
    MarkSets,
    RescaleResult,
    divide_run,
    plan_blocks,
    rescale_run,
)
from .subroutines import make_subroutine
from .generators import FamilyMember, gen_family, gen_uniform, rho_zero, verify_family
from .experiment import (
    ExperimentConfig,
    RunReport,
    emit_report,
    run_algorithm,
    run_experiment,
)

__all__ = [
    "AdviceTape",
    "AuxTape",
    "BlockPlan",
    "DivideAdvice",
    "DivideResult",
    "ExperimentConfig",
    "FamilyMember",
    "Instance",
    "InstanceError",
    "LRPartition",
    "LRResult",
    "LRState",
    "MarkSets",
    "Matching",
    "RescaleResult",
    "RunReport",
    "TapeUnderflow",
    "apply_switch",
    "brute_force_optimal",
    "classify_lr",
    "divide_run",
    "emit_report",
    "gen_family",
    "gen_uniform",
    "load_instance",
    "lr_oracle",
    "lr_run",
    "lr_serve",
    "make_matching",
    "make_subroutine",
    "monotone_cost",
    "monotone_optimal",
    "plan_blocks",
    "rescale_run",
    "rho_zero",
    "run_algorithm",
    "run_experiment",
    "save_instance",
    "total_cost",
    "validate_instance",
    "verify_family",
    "word_width",
]
