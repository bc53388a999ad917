"""Sample-based pricing mechanisms with finite-sample guarantees and inference.

Estimate a type distribution from data, price optimally against the estimate,
quantify how far that can be from truly optimal, and bootstrap confidence
intervals for the profit of any menu, the optimal profit, and regret.
"""

from .auction import (
    AuctionSetting,
    ProfitMode,
    SecondOrderCdf,
    auction_profit,
    auction_regret_guarantee,
    optimal_reserve,
)
from .distributions import (
    BetaCdf,
    Cdf,
    EmpiricalStep,
    KernelShape,
    KernelSmoothed,
    KernelSpec,
    Mixture,
    PiecewiseLinear,
    PointMass,
    Sample,
    Uniform,
    draw_sample,
    read_sample,
    sup_distance,
    write_sample,
)
from .environment import (
    Environment,
    PowerCost,
    TypeSpace,
    environment_from_config,
    linear_unit_demand,
    lipschitz_constant,
    separable_screening,
)
from .errors import (
    CollapsedGridError,
    EmpriceError,
    InvalidEnvironmentError,
    InvalidMenuError,
    MissingDensityError,
    TiedSampleError,
    UnsupportedPairError,
)
from .estimators import default_bandwidth, ecdf, interp_ecdf, kernel_cdf
from .experiments import (
    McConfig,
    McResult,
    McRow,
    McTarget,
    parse_distribution,
    run_coverage,
    run_regret,
    true_values,
)
from .guarantees import (
    BoundKind,
    DkwBound,
    GuaranteeFlavor,
    GuaranteeResult,
    InterpEcdfBound,
    KernelBound,
    deviation_bound,
    regret_guarantee,
    sample_complexity,
)
from .inference import (
    CiMethod,
    ComparisonResult,
    ProfitEstimate,
    bootstrap_ci_optimal_profit,
    bootstrap_ci_profit,
    bootstrap_ci_regret,
    bootstrap_compare,
    plugin_normal_ci,
)
from .mechanisms import (
    Allocation,
    ChoiceOutcome,
    Menu,
    consumer_choice,
    expected_profit,
    menu_from_allocation,
    menu_from_dict,
    menu_to_dict,
    per_consumer_profit,
    read_menu,
    write_menu,
)
from .rng import substream
from .solvers import (
    IronedTable,
    SolveMethod,
    SolveResult,
    ironed_virtual_value,
    optimal_profit,
    optimal_screening_menu,
    optimal_uniform_price,
)

__version__ = "0.1.0"
