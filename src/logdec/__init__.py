"""logdec: signed-measure entropy decomposition on outcome subsets.

Shannon entropy of a finite random variable splits into signed
contributions of outcome subsets (atoms), recovered by Moebius inversion
of merge losses.  On top of that decomposition the package provides the
upper-set (ideal) algebra that realises co-informations structurally,
parity certificates that pin the sign of a quantity before any
probabilities are chosen, witness constructions for mixed-parity
systems, and an exhaustive census of deterministic two-input gates.

The exports load lazily: `import logdec` imports no submodule, and
`logdec.X` imports the module that defines X on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_EXPORTS = {
    "core": (
        "CapacityError", "Distribution", "OutcomeSpace", "Partition", "all_partitions",
        "atom_bits", "common_coarsening", "common_refinement", "degree",
        "enumerate_complex",
    ),
    "ideals": ("Ideal", "minimal_antichain"),
    "measure": (
        "entropy", "exact_sign", "merge_loss", "mu_atom", "mu_ideal", "mu_set", "mu_table",
    ),
    "contents": (
        "coinformation_content", "coinformation_numeric", "content", "content_bruteforce",
        "count_expressions", "ideal_to_variables",
    ),
    "parity": (
        "ParityClass", "SignSurvey", "classify_parity", "sign_survey", "witness_distributions",
    ),
    "gates": (
        "GateClassification", "GateSystem", "build_gate", "canonical_classes",
        "canonicalize", "census", "classify_gate", "named_gate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
