"""Secondary-structure-avoidance (SSA) codes for DNA sequences.

Construction, search, and evaluation of generating sets; capacity via
transition-digraph spectral radii and exact counting; enumerative
encoding/decoding of payloads into fixed-length SSA codewords.
"""

from .sequences import (
    ALPHABET,
    COMPLEMENT,
    BudgetExceededError,
    Witness,
    complement,
    count_all_ssa,
    find_secondary_structure,
    is_tc_dominant,
    parse_sequence,
    reverse_complement,
    window_multiset,
)
from .gensets import (
    GeneratingSet,
    InvalidGeneratingSetError,
    RcClasses,
    ValidationResult,
    heuristic_set_m4,
    heuristic_set_m6_stage,
    in_c_tilde,
    rc_classes,
    read_set_file,
    tc_dominant_set,
    validate,
    write_set_file,
)
from .capacity import (
    F3,
    F5,
    COMPOSITION_BASELINE,
    CapacityReport,
    RecurrenceSpec,
    TransitionDigraph,
    baseline_block_concat_rate,
    binary_reduction_rate,
    block_concat_count,
    build_digraph,
    count_constrained,
    largest_real_root,
    mask_quotient,
    rate_of_set,
    recurrence_counts,
    spectral_radius,
    trivial_upper_bound,
)
from .search import SearchResult, exhaustive_search, greedy_tc_choice, local_search
from .codec import (
    CodecError,
    CodecTable,
    build_codec,
    decode,
    decode_payload,
    encode,
    encode_payload,
)

__version__ = "0.1.0"
