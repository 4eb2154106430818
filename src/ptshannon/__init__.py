"""Finite-blocklength Shannon theory toolkit.

Exact type-class combinatorics, closed-form simplex integrals with their
quadrature and Monte Carlo oracles, saddle-point evaluation of type-lattice
sums, finite-n coding predictions, and seeded protocol simulators.
"""

from .alphabet import (
    Channel,
    Distribution,
    JointDistribution,
    RngStream,
    binary_symmetric_channel,
    info_ratio,
    joint_from,
    make_distribution,
    uniform_distribution,
)
from .coding import (
    ChannelCodingPrediction,
    RateDistortionPrediction,
    SourceCodingSetup,
    channel_coding_prediction,
    codebook_size,
    rate_distortion_prediction,
    source_coding_asymptote,
    source_coding_exact_psuc,
)
from .info_measures import (
    CapacityResult,
    RateDistortionPoint,
    binary_entropy,
    capacity,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    hamming_distortion,
    mutual_information,
    rate_distortion,
    rate_distortion_curve,
    relative_information,
)
from .polytope import (
    SmoothedDelta,
    conditional_simplex_gaussian_integral,
    det_first_order,
    dirichlet_integral,
    sherman_morrison,
    simplex_gaussian_integral,
    smoothed_delta_normalization,
)
from .saddle import (
    SaddleResult,
    constrained_sum_estimate,
    gaussian_correction,
    saddle_of_weights,
)
from .simulate import (
    TrialReport,
    simulate_channel_coding,
    simulate_rate_distortion,
    simulate_source_coding,
)
from .type_classes import (
    ClassSize,
    JointSequenceType,
    SequenceType,
    class_size,
    class_size_int,
    conditional_class_size,
    conditional_type,
    count_types,
    enumerate_types,
    iid_type_probability,
    joint_type_of,
    type_count_identity_check,
    type_of,
)

__version__ = "0.1.0"
