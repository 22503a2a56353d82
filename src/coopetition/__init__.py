"""Laboratory for coopetitive single-slot ad auctions.

Advertisers hold per-click values; an ad is a set of advertisers and every
member of the shown ad collects its own value. The library clears the slot
with coopetitive VCG or with first-price bidding under cooperative envy-free
(CEF) equilibria, computes the egalitarian equilibrium by uniform bid
lowering, bounds equilibrium revenue exactly, cross-checks everything
against brute-force grid oracles, and evaluates a cost-sharing contract
baseline for position auctions with owned ads. All arithmetic is rational.
"""

from .contracts import (
    ContractProfile,
    ContractTerm,
    OwnedAuction,
    PositionOutcome,
    best_response_contract,
    evaluate_contracts,
    parse_owned_auction,
    position_vcg,
    serialize_owned_auction,
)
from .egalitarian import (
    LoweringRound,
    LoweringTrace,
    RoundEvent,
    egalitarian_solve,
    verify_egalitarian,
)
from .mechanisms import (
    VcgResult,
    efficient_winner,
    first_price_clear,
    revenue_lower_bound,
    vcg,
    welfare_ties,
)
from .model import (
    Ad,
    AuctionInstance,
    BidProfile,
    InstanceError,
    Outcome,
    Scalar,
    check_bids,
    display_scalar,
    format_scalar,
    parse_bids,
    parse_instance,
    parse_scalar,
    serialize_instance,
    settle,
    total_bid,
    total_value,
)
from .oracle import (
    GridBudgetError,
    GridSpec,
    enumerate_equilibria_grid,
    enumerate_vertices_bruteforce,
    lexmax_surplus_grid,
    vcg_bruteforce,
)
from .polytope import (
    CefConstraint,
    CefPolytope,
    EquilibriumCertificate,
    EquilibriumResult,
    build_polytope,
    canonical_bids,
    enumerate_vertices,
    first_cef_violation,
    first_ir_violation,
    is_cef,
    is_equilibrium,
    is_ir,
    revenue_range,
    sample_pareto_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "Ad",
    "AuctionInstance",
    "BidProfile",
    "CefConstraint",
    "CefPolytope",
    "ContractProfile",
    "ContractTerm",
    "EquilibriumCertificate",
    "EquilibriumResult",
    "GridBudgetError",
    "GridSpec",
    "InstanceError",
    "LoweringRound",
    "LoweringTrace",
    "Outcome",
    "OwnedAuction",
    "PositionOutcome",
    "RoundEvent",
    "Scalar",
    "VcgResult",
    "best_response_contract",
    "build_polytope",
    "canonical_bids",
    "check_bids",
    "display_scalar",
    "efficient_winner",
    "egalitarian_solve",
    "enumerate_equilibria_grid",
    "enumerate_vertices",
    "enumerate_vertices_bruteforce",
    "evaluate_contracts",
    "first_cef_violation",
    "first_ir_violation",
    "first_price_clear",
    "format_scalar",
    "is_cef",
    "is_equilibrium",
    "is_ir",
    "lexmax_surplus_grid",
    "parse_bids",
    "parse_instance",
    "parse_owned_auction",
    "parse_scalar",
    "position_vcg",
    "revenue_lower_bound",
    "revenue_range",
    "sample_pareto_equilibrium",
    "serialize_instance",
    "serialize_owned_auction",
    "settle",
    "total_bid",
    "total_value",
    "vcg",
    "vcg_bruteforce",
    "verify_egalitarian",
    "welfare_ties",
]
