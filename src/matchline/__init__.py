"""Online minimum matching on the line under the advice-tape model."""

from .model import (
    Instance,
    InstanceError,
    Matching,
    load_instance,
    save_instance,
    validate_instance,
)
from .offline import brute_force_optimal, monotone_optimal
from .lr import LRResult, lr_oracle, lr_run
from .divide import DivideResult, divide_run, rescale_run
from .subroutines import make_subroutine
from .generators import gen_family, gen_uniform
from .experiment import RunReport, emit_report, run_algorithm, run_instance

__all__ = [
    "DivideResult",
    "Instance",
    "InstanceError",
    "LRResult",
    "Matching",
    "RunReport",
    "brute_force_optimal",
    "divide_run",
    "emit_report",
    "gen_family",
    "gen_uniform",
    "load_instance",
    "lr_oracle",
    "lr_run",
    "make_subroutine",
    "monotone_optimal",
    "rescale_run",
    "run_algorithm",
    "run_instance",
    "save_instance",
    "validate_instance",
]
