"""Dynamic budget allocation and degraded-service scheduling for
mixed-criticality systems: exact admissibility analysis, an event-driven
preemptive scheduler, degradation-avoidance probabilities, workload
generation and reproducible experiment drivers.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceedsWcet,
    BudgetOverrun,
    BudgetSumViolation,
    GenerationTimeout,
    GridOverflow,
    Infeasible,
    InputError,
    InvalidFraction,
    InvalidJobSequence,
    McSchedError,
    NoLcTasks,
    TaskSetParseError,
    WrongMode,
)
from .taskmodel import (
    Criticality,
    McTask,
    TaskSet,
    Time,
    alpha_star_from_per_task,
    as_fraction,
    beta_star_from_lc_estimates,
    distribute_hc_budget_equal,
    load_taskset,
    parse_taskset,
    save_taskset,
    utilizations,
)
from .analysis import (
    SchedVerdict,
    default_x,
    map_to_static,
    max_alpha_given_beta,
    max_beta_given_alpha,
    optimal_beta_for_su,
    static_model_su,
    static_split,
    su_levels,
    theorem1_test,
    threshold_m,
    total_system_utilization,
)
from .meba import MebaState, Mode
from .simulator import (
    EdfUvdMeba,
    EdfVdStatic,
    EventKind,
    FixedBudget,
    Job,
    ScheduleTrace,
    SimConfig,
    TraceEvent,
    Violation,
    check_lemma2_optimality,
    check_mapping_equivalence,
    edf_dispatch_violations,
    make_jobs,
    map_jobs_to_static,
    mode_switch_instant,
    pool_utilization_violations,
    simulate,
    validate_jobs,
    verify_mc_schedulable,
)
from .probability import (
    BUILTIN_DISTRIBUTIONS,
    ExecDistribution,
    load_distribution,
    p_noswitch_dynamic,
    p_noswitch_static,
    parse_distribution,
)
from .generator import (
    BANDS,
    ConstantDemand,
    GenParams,
    GridDemand,
    UniformDemand,
    gen_job_sequence,
    gen_task,
    gen_taskset,
    parse_demand_model,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    Scenario,
    random_feasible_scenario,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
