"""Random directed networks: strong-connectivity probabilities and CNOT channel dynamics."""

from .connectivity import (
    ConnectivitySession,
    PcCurve,
    Prob,
    lower_bound_pc,
    pc_curve,
    prob_connected_undirected,
    prob_disconnected,
    prob_disconnected_undirected,
    prob_strongly_connected,
)
from .digraph import (
    CostGuardError,
    DirectedGraph,
    McEstimate,
    estimate_pc_monte_carlo,
    exact_pc_bruteforce,
    sample_digraph,
    strongly_connected_counts,
    wilson_interval,
)
from .channels import (
    ChannelSpec,
    SignedPauli,
    asymptotic_channel,
    asymptotic_channel_exact,
    asymptotic_state,
    averaged_channel_ptm,
    channel_ptm,
    cnot_conjugate,
    convergence_trace,
    hs_distance,
    index_to_word,
    index_words,
    state_mixed,
    state_plus,
    state_zero,
    static_average_iterate,
    static_convergence_traces,
)

__version__ = "0.1.0"
