"""Probabilistic model checking of finite-state programs under TSO with
probabilistic scheduling and memory updates."""

from .cost import CostFunction, CostResult, expected_avg_cost
from .eagerness import (EagernessParams, GamblerParams, compute_eagerness,
                        compute_mu, gambler_first_passage, gambler_tail_bound,
                        srun_rate)
from .errors import BudgetExceededError, OracleUnknownError
from .lang import Program, ProgramError, next_label, parse_program, print_program, remove_label
from .markov import step_distribution
from .montecarlo import RunSampler, estimate_cond_cost, estimate_reach, sample_run
from .qualitative import never_qual_reach, never_qual_rep_reach, qual_reach, qual_rep_reach
from .quantitative import QuantResult, quant_reach, quant_rep_reach
from .reach import OracleConfig, ReachOracle
from .semantics import (Config, apply_schedule, config_from_json, config_to_json,
                        enabled_indices, initial_config, is_plain, process_step,
                        size, update_successors)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
