"""Achievable rates and desk-scale simulation for layered probabilistic
shaping with arbitrary non-negative decoding metrics."""

from .core import (
    Alphabet,
    Pmf,
    binary_entropy,
    cross_entropy,
    divergence,
    entropy,
    uniform_pmf,
)
from .channel import (
    Dmc,
    GridSpec,
    ask_constellation,
    awgn_quantized,
    bit_marginal,
    bsc,
    icm_mixture,
    mary_symmetric,
    maxwell_boltzmann_pmf,
    posterior,
    product_alphabet,
)
from .metric import (
    Metric,
    Quantizer,
    bit_metric_product,
    exp_transform,
    hard_decision_metric,
    likelihood_metric,
    map_quantizer,
    metric_switch,
    posterior_metric,
    power_transform,
)
from .rates import (
    BmdReport,
    RateReport,
    achievable_transmission_rate,
    binary_hard_decision_rate,
    bmd_rate,
    conditional_entropy,
    gmi,
    hard_decision_rate,
    icm_rate,
    lm_rate,
    mutual_information,
    optimize_metric_exponent,
    t_c_epsilon_lower_bound,
    uncertainty,
)
from .typicality import (
    TypicalSpec,
    encoding_failure_bound,
    is_typical,
    rate_of_typical_set,
    typical_set_size,
)
from .empirical import (
    MonteCarloResult,
    SequencePair,
    composition_sorted_rate,
    empirical_code_rate,
    exact_composition_sequence,
    monte_carlo_t_c,
    sample_channel_outputs,
)
from .simulator import (
    SimConfig,
    SimResult,
    pairwise_union_bound,
    run,
)

__version__ = "0.1.0"
