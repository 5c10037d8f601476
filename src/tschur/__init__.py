"""t-Schur measure toolkit: symmetric functions, marked RSK, determinantal
distributions of the first row, and Tracy-Widom asymptotics."""

from .partitions import Partition, partitions, partitions_in_box
from .rsk import (
    Biword,
    Entry,
    MarkedTableau,
    PMatrix,
    RecordingTableau,
    biword_from_matrix,
    insert,
    inverse_rsk,
    longest_increasing,
    matrix_from_biword,
    rsk,
    validate_biword,
    validate_marked_tableau,
)
from .symfunc import (
    SpecializedVars,
    cauchy_check,
    enumerate_marked_tableaux,
    gen_e_coeffs,
    schur_S_t,
    schur_S_t_oracle,
    schur_s,
)
from .measure import (
    EntryDistribution,
    MeasureParams,
    lambda1_cdf_exact,
    lambda1_cdf_mc,
    partition_prob,
    sample_lambda1,
    sample_matrix,
    z_norm,
)

__version__ = "0.1.0"
