"""Laboratory for coopetitive single-slot ad auctions.

Advertisers hold per-click values; an ad is a set of advertisers and every
member of the shown ad collects its own value. The library clears the slot
with coopetitive VCG or with first-price bidding under cooperative envy-free
(CEF) equilibria, computes the egalitarian equilibrium by uniform bid
lowering, bounds equilibrium revenue exactly, cross-checks everything
against brute-force grid oracles, and evaluates a cost-sharing contract
baseline for position auctions with owned ads. All arithmetic is rational.
"""

import importlib

__version__ = "0.1.0"

# Public names by home module. A name's module is imported the first time the
# name is read (PEP 562), so `import coopetition` loads no submodule and each
# CLI command loads only the modules it runs.
_EXPORTS = {
    "contracts": (
        "ContractProfile", "ContractTerm", "OwnedAuction", "PositionOutcome",
        "best_response_contract", "evaluate_contracts", "parse_owned_auction",
        "position_vcg", "serialize_owned_auction",
    ),
    "egalitarian": ("LoweringRound", "LoweringTrace", "egalitarian_solve"),
    "mechanisms": (
        "efficient_winner", "first_price_clear", "revenue_lower_bound", "vcg",
        "welfare_ties",
    ),
    "model": (
        "Ad", "AuctionInstance", "BidProfile", "BudgetError", "GridBudgetError",
        "GridSpec", "InstanceError", "InternalError", "Outcome", "Scalar", "check_bids",
        "display_scalar", "format_scalar", "parse_bids", "parse_instance",
        "parse_scalar", "serialize_instance", "settle", "total_bid",
    ),
    "oracle": (
        "enumerate_equilibria_grid", "lexmax_surplus_grid", "vcg_bruteforce", "verify_egalitarian",
    ),
    "polytope": (
        "CefConstraint", "CefPolytope", "EquilibriumResult", "build_polytope",
        "canonical_bids", "is_cef", "is_equilibrium", "is_ir", "revenue_range",
        "sample_pareto_equilibrium",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"simplex"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's home module, or a submodule, on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
