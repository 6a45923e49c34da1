"""ladderlab: free-product normal forms, quantifier-free stability-ladder
search over bounded balls, and Ramsey-based bound certificates."""

from .bounds import (
    BoundCertificate,
    SearchBaseOracle,
    certificate_le,
    check_base_indices,
    check_certificate,
    conjunction_bound,
    disjunction_bound,
    lemma_bound,
    negation_bound,
    replay_certificate,
    theorem_bound,
    verify_certificate,
)
from .errors import (
    AnnotationMismatch,
    ArityMismatch,
    AxiomViolation,
    BallTooLarge,
    BoundTooLarge,
    ContextMismatch,
    DomainTooLarge,
    FactorTooLarge,
    InfiniteFactor,
    InvalidElement,
    LadderLabError,
    LengthExceedsRadius,
    MissingSuppliedIndex,
    SpecParseError,
    UnannotatedSyllable,
    WordParseError,
)
from .freeproduct import Ball, FreeProduct, Letter, ReducedWord
from .groups import FactorElement, FactorGroup, load_group
from .ladder import (
    Formula,
    IndexResult,
    Ladder,
    SearchDomain,
    formula_and,
    formula_not,
    formula_or,
    group_word_formula,
    is_ladder,
    max_ladder,
    qf_stability_index,
    word_formula,
    word_index,
)
from .ramsey import (
    BoundValue,
    bound_from_json,
    bound_to_json,
    is_ge_int,
    le_bound,
    ramsey_upper,
    render_bound,
    sat_min,
)
from .report import VerificationReport, run_verify
from .words import (
    Block,
    BlockDecomposition,
    GroupWord,
    Syllable,
    VariableSymbol,
    block_decompose,
    change_of_variables,
    concat_words,
    evaluate,
    evaluate_in_group,
    expand_assignment,
    interpret_in_template,
    parse_word,
    render_word,
    shape_key,
    word_shape,
)

__version__ = "0.1.0"
