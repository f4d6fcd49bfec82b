"""Markov chain couplings, their quantized channels, and qsample preparation.

The package builds coupling matrices for finite ergodic Markov chains,
quantizes them into superoperators / Kraus channels whose fixed point is the
qsample of the stationary distribution, and verifies the structural claims
that make the construction work (trace preservation, complete positivity,
Laplacian preservation, coalescence-to-convergence bounds).
"""

from qcoupling.chain import (
    Distribution,
    TransitionMatrix,
    distance_to_stationary,
    mixing_time,
    stationary_distribution,
    validate_chain,
)
from qcoupling.coupling import (
    CoalescenceReport,
    CouplingMatrix,
    RandomMappingRep,
    coalescence_tail_exact,
    coalescence_tail_mc,
    grand_coupling_matrix,
    independent_coupling,
    validate_coupling,
)
from qcoupling.quantize import (
    ChoiMatrix,
    KrausSet,
    Superoperator,
    c_star_superop,
    choi_matrix,
    kraus_from_grand,
    min_choi_eigenvalue,
    quantized_coupling,
)
from qcoupling.evolve import (
    DensityMatrix,
    Qsample,
    evolve_trace,
    qsample,
    trace_distance,
)
from qcoupling.models import (
    GraphSpec,
    colorings_model,
    cycle_coupling_model,
    hardcore_model,
    hypercube_model,
)
from qcoupling.dilation import (
    build_dilation,
    channel_via_dilation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
