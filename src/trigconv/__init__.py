"""trigconv: sequence-condition taxonomy and uniform-convergence checks
for trigonometric series.

The package classifies coefficient sequences against a family of
variation and sector conditions, evaluates partial sums and tail
sup-norms on oscillation-resolving grids, and verifies the implication
chains between the conditions on randomized corpora.  Everything is
deterministic: generators are pure functions of the index, randomized
corpora are pure functions of their seed, and repeated runs serialize
byte-identically.
"""

__version__ = "0.1.0"

from .sequences import (
    ANGLE_TOL,
    REL_TOL,
    CoefficientSequence,
    FamilySpec,
    Sector,
    SequenceError,
    TwoSidedSequence,
    WeightSequence,
    family_sequence,
    format_family_spec,
    parse_family_spec,
    sector_dominance_constant,
    sequence_from_text,
    unit_noise,
    weight_from_spec,
)
from .conditions import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    ConditionReport,
    PrefixView,
    check_group_bv,
    check_orv_weight,
    check_orvqm,
    check_pair_null_and_summable,
    check_pair_sector,
    check_quasimonotone,
    check_rest_bv,
    check_weighted_rest_bv,
    classify,
)
from .series import (
    GridSpec,
    ProbeResult,
    TailNormCurve,
    abel_tail_bound,
    convergence_curve,
    dirichlet_sine,
    testpoint_block_probe,
    truncation_slack,
)
from .harness import (
    InequalityRecord,
    VerificationOutcome,
    corpus_member,
    probe_necessity,
    probe_sufficiency,
    run_sector_implication_corpus,
    run_weighted_implication_corpus,
    verify_equivalence_diagnostics,
    verify_lacunary_counterexample,
    verify_orvqm_implication,
    verify_weighted_bv_implication,
)
from .manifest import file_digest

__all__ = [
    "__version__",
    "ANGLE_TOL",
    "REL_TOL",
    "CoefficientSequence",
    "FamilySpec",
    "Sector",
    "SequenceError",
    "TwoSidedSequence",
    "WeightSequence",
    "family_sequence",
    "format_family_spec",
    "parse_family_spec",
    "sector_dominance_constant",
    "sequence_from_text",
    "unit_noise",
    "weight_from_spec",
    "FAILS",
    "HOLDS",
    "INCONCLUSIVE",
    "ConditionReport",
    "PrefixView",
    "check_group_bv",
    "check_orv_weight",
    "check_orvqm",
    "check_pair_null_and_summable",
    "check_pair_sector",
    "check_quasimonotone",
    "check_rest_bv",
    "check_weighted_rest_bv",
    "classify",
    "GridSpec",
    "ProbeResult",
    "TailNormCurve",
    "abel_tail_bound",
    "convergence_curve",
    "dirichlet_sine",
    "testpoint_block_probe",
    "truncation_slack",
    "InequalityRecord",
    "VerificationOutcome",
    "corpus_member",
    "probe_necessity",
    "probe_sufficiency",
    "run_sector_implication_corpus",
    "run_weighted_implication_corpus",
    "verify_equivalence_diagnostics",
    "verify_lacunary_counterexample",
    "verify_orvqm_implication",
    "verify_weighted_bv_implication",
    "file_digest",
]
