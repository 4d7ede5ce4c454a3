"""Wright-Fisher k-allele stationary distributions: simulation and inference.

The stationary law of allele frequencies under selection and
parent-independent mutation is an exponentially tilted Dirichlet.  This
package simulates from it, evaluates its likelihood through reusable
importance pools, and estimates the selection intensity three ways: MLE
with parametric bootstrap, exact confidence intervals from the monotone
homozygosity CDF, and Bayesian posterior sampling.  The likelihood is
unbounded at the composition of strongest selective signal; everything
downstream detects and reports that instability instead of failing
silently.
"""

__version__ = "0.1.0"

from .core import (
    BUNDLED_DATASETS,
    FrequencyParseError,
    Homozygosity,
    MutationParams,
    SelectionModel,
    SimplexPoint,
    bundled_dataset,
    homozygosity,
    parse_frequencies,
    quadratic_form,
)
from .density import (
    OptimalComposition,
    WeightedPool,
    build_mixture_pool,
    build_pool,
    cdf_homozygosity,
    g_sigma,
    log_likelihood,
    log_normalizer,
    neutral_log_density,
    optimal_composition,
    pool_for_sigma_range,
    score_general,
)
from .inference import (
    BootstrapConfig,
    BootstrapResult,
    IntervalEstimate,
    JointMleConfig,
    MleResult,
    MonotoneCiConfig,
    PosteriorChain,
    PosteriorConfig,
    bootstrap,
    mle_joint,
    mle_sigma,
    monotone_ci,
    posterior_sample,
    posterior_summary,
)
from .sampler import (
    RejectionStarvedError,
    SamplerConfig,
    SamplerReport,
    sample_neutral,
    sample_selection,
)
from .study import (
    StudySchemaError,
    StudySpec,
    cdf_panel,
    instability_probability,
    mle_curve,
    run_study,
)
