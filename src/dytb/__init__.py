"""dytb: a numerical laboratory for dyadic singular-integral models.

The pieces, bottom up: exact piecewise-constant calculus on truncated dyadic
grids (``grid``), perfect dyadic kernels with fast hierarchical application
(``kernels``), systems of accretive test functions (``accretive``), terminal
and stopping-cube constructions with packing and Carleson measurements
(``corona``), twisted martingale calculus and its exact identities
(``twisted``), and norm/testing-constant estimation plus the seeded ratio
experiment (``verify``).  ``cli`` wraps it all for the command line.
"""

__version__ = "0.1.0"

from .grid import (
    DyadicCube,
    GridFunction,
    GridSpec,
    dyadic_maximal,
    lp_norm,
)
from .kernels import (
    PerfectKernel,
    adjoint,
    apply,
    bilinear,
    dense_matrix,
    generate_kernel,
    load_kernel,
    save_kernel,
    size_bound,
    validate_size,
)
from .accretive import AccretiveSystem, validate
from .corona import (
    ConfigError,
    CoronaForest,
    DeltaSearch,
    TbConfig,
    build_corona,
    carleson_constant,
    choose_delta,
    forest_carleson,
    forest_to_json_dict,
    packing_ratio,
    terminal_cubes,
)
from .twisted import (
    SignChoice,
    TwistedContext,
    block_context,
    delta_decomp_check,
    decomposition_identity_check,
    expand,
    make_context,
    measure_comparison_check,
    three_term_check,
    transform,
    twisted_delta,
)
from .verify import (
    ExperimentConfig,
    VerifierReport,
    adversarial_transform_search,
    b_above_aggregation,
    bilinear_expansion_check,
    build_instance,
    epsilon_coefficient,
    form_split,
    identity_suite,
    lanczos_norm,
    main_theorem_experiment,
    operator_norm,
    testing_constant,
)
