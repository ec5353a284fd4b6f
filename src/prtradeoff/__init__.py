"""Precision/recall ranking tradeoffs along the F-score family.

Quantifies how much the rankings induced by precision and recall disagree
on a set (or distribution) of two-class classification performances,
locates every F-score's ranking on the shortest path between the two, and
finds the beta whose ranking is the optimal tradeoff, together with the
degree of optimality of any candidate score.
"""

from .distributions import (
    DistributionSpec,
    McEstimate,
    RedrawLimitError,
    above_no_skill_spec,
    adapted_beta,
    analytic_tau_above_no_skill,
    analytic_tau_fixed_priors,
    analytic_tau_pr_re_near_oracle,
    beta_for_offset,
    brent_root,
    f1_equidistance_prior,
    fixed_priors_spec,
    fixed_tn_spec,
    golden_section_min,
    mc_kendall_tau,
    mc_optimal_vertex_offset_near_oracle,
    mc_pencil_optimality,
    mc_tau_sides_near_oracle,
    near_oracle_spec,
    optimal_vertex_offset,
    sample_parts,
    sivf_equidistance_prior_near_oracle,
    uniform_spec,
)
from .ingest import (
    IngestError,
    MixedPriorsError,
    MixedSchemaError,
    NegativeCountError,
    ParseError,
    ZeroTotalError,
    ingest,
)
from .manifold import (
    DegenerateSpreadError,
    RankingPath,
    build_path,
    correlations_vs_beta,
    marker_rankings,
    pca_project,
    rank_trajectories,
)
from .ranking import (
    CrossingSummary,
    LengthMismatchError,
    PerformanceSet,
    Ranking,
    discordance,
    kendall_distance,
    kendall_tau,
    pair_crossings,
    rank_by_score,
    ranks_from_values,
    spearman_distance,
)
from .scores import (
    F1,
    FPR,
    IOU,
    PRECISION,
    RECALL,
    SIVF,
    TIE_TOL,
    TNR,
    ImportanceWeights,
    Performance,
    ScoreFunction,
    UndefinedScoreError,
    evaluate,
    fbeta,
    fbeta_importance,
    pencil_vertex_offset,
    ranking_score,
    score_values,
    sivf_importance,
)
from .tradeoff import (
    DegeneratePairError,
    OptimalityBreakdown,
    TradeoffReport,
    ZeroDenominatorError,
    analyze_set,
    crossing_beta_squared,
    equidistance_gap,
    frechet_curve,
    frechet_variance,
    geodesic_check,
    heuristic_beta,
    optimal_beta,
    optimality_decomposition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
