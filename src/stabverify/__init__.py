"""stabverify: entanglement verification for graph-state experiments.

Reconstruction, optimal worst-case bounds, and exact PPT robustness from
stabilizer measurement data.
"""

from .bounds import (
    BoundReport,
    BoundValue,
    GeneratorData,
    bound_report,
    er_lower_from_state,
    fidelity_min,
    log_robustness,
    propagate_errors,
    purity_min,
    purity_min_solution,
    rel_entropy_min,
    robustness_min,
)
from .operators import (
    eig_hermitian,
    fidelity_pure,
    graph_diagonal_operator,
    graph_state_vector,
    partial_transpose,
    purity,
    trace_inner,
)
from .pauli import (
    Graph,
    LocalFrame,
    NotTwoColorableError,
    StabilizerCodec,
    TwoColoring,
    two_coloring,
)
from .presets import FRAME_PAPER4, FRAME_PAPER6, GRAPH_PAPER4, GRAPH_PAPER6
from .reconstruct import (
    GraphDiagonalState,
    MeasurementEntry,
    MeasurementRecord,
    RawPopulations,
    RecordFormatError,
    expectations_from_populations,
    load_record,
    ml_fit,
    raw_fidelity,
    raw_purity,
    save_record,
    walsh_populations,
)
from .sdp import (
    SdpSolution,
    all_bipartitions,
    ppt_min_eig,
    ppt_robustness,
    symmetry_reduced_robustness,
)
from .simulate import NoiseModel, apply_noise, exact_expectations, sample_record
from .solver import SdpConvergenceError

__version__ = "0.1.0"
