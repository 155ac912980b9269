"""logdec: signed-measure entropy decomposition on outcome subsets.

Shannon entropy of a finite random variable splits into signed
contributions of outcome subsets (atoms), recovered by Moebius inversion
of merge losses.  On top of that decomposition the package provides the
upper-set (ideal) algebra that realises co-informations structurally,
parity certificates that pin the sign of a quantity before any
probabilities are chosen, witness constructions for mixed-parity
systems, and an exhaustive census of deterministic two-input gates.
"""

from .core import (
    CapacityError,
    Distribution,
    OutcomeSpace,
    Partition,
    all_partitions,
    atom_bits,
    common_coarsening,
    common_refinement,
    degree,
    enumerate_complex,
)
from .ideals import Ideal, minimal_antichain
from .measure import (
    entropy,
    merge_loss,
    mu_atom,
    mu_ideal,
    mu_set,
    mu_table,
)
from .contents import (
    coinformation_content,
    coinformation_numeric,
    content,
    content_bruteforce,
    count_expressions,
    ideal_to_variables,
)
from .parity import (
    ParityClass,
    SignSurvey,
    Witness,
    classify_parity,
    sign_survey,
    single_generator_sign,
    witness_distributions,
)
from .gates import (
    GateClassification,
    GateSystem,
    build_gate,
    canonical_classes,
    canonicalize,
    census,
    classify_gate,
    named_gate,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Distribution",
    "GateClassification",
    "GateSystem",
    "Ideal",
    "OutcomeSpace",
    "ParityClass",
    "Partition",
    "SignSurvey",
    "Witness",
    "all_partitions",
    "atom_bits",
    "build_gate",
    "canonical_classes",
    "canonicalize",
    "census",
    "classify_gate",
    "classify_parity",
    "coinformation_content",
    "coinformation_numeric",
    "common_coarsening",
    "common_refinement",
    "content",
    "content_bruteforce",
    "count_expressions",
    "degree",
    "entropy",
    "enumerate_complex",
    "ideal_to_variables",
    "merge_loss",
    "minimal_antichain",
    "mu_atom",
    "mu_ideal",
    "mu_set",
    "mu_table",
    "named_gate",
    "sign_survey",
    "single_generator_sign",
    "witness_distributions",
]
