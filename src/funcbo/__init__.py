"""funcbo: Bayesian optimisation over function spaces.

Optimises an expensive noisy functional by running GP-UCB Bayesian
optimisation on a sequence of low-dimensional random subspaces spanned
by Gaussian-process sample paths, with line-search and random-search
baselines and a reproducible benchmark harness.
"""

from .acquisition import AcqSearchConfig, UcbSchedule, beta
from .errors import (
    ConfigError,
    FuncboError,
    InputError,
    NumericalError,
    ProtocolError,
    ShapeError,
)
from .gp import (
    GPModel,
    empty_model,
    posterior,
    posterior_batch,
    sample_on_grid,
)
from .gridfn import (
    GridFunction,
    GridSpec,
    grid_coordinates,
    l2_dist_sq,
    l2_inner,
    read_function_csv,
    write_function_csv,
)
from .kernels import FunctionalKernelSpec, ScalarKernelSpec
from .objectives import (
    EffectiveDimObjective,
    MatchingObjective,
    lemma1_intersection_estimate,
)
from .optimizer import (
    OptConfig,
    RunRecord,
    Subspace,
    run_fixed_subspace,
    run_linebo_bernstein,
    run_random_search,
    run_s3bfo,
    simple_regret_err,
)

__version__ = "0.1.0"
