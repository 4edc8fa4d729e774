"""Exception types shared across the toolkit."""


class EndslabError(Exception):
    """Base class for all endslab errors."""


class InvalidParameter(EndslabError, ValueError):
    """An argument violates a documented precondition."""


class Infeasible(EndslabError):
    """The requested computation cannot be carried out within desk-scale limits."""


class BudgetExceeded(Infeasible):
    """Breadth-first exploration hit the node budget before the requested radius."""

    def __init__(self, budget: int, nodes: int, radius_reached: int, radius_requested: int):
        self.budget = budget
        self.nodes = nodes
        self.radius_reached = radius_reached
        self.radius_requested = radius_requested
        super().__init__(
            f"node budget {budget} exceeded after {nodes} vertices: "
            f"reached radius {radius_reached} of requested {radius_requested}"
        )


class TruncationTooSmall(EndslabError):
    """A computation needs vertices beyond the explored truncation radius."""


class NoAxis(EndslabError):
    """The group has no designated bi-infinite geodesic axis."""


class NotGeodesic(EndslabError):
    """The designated axis failed distance verification against the ball table."""


class TrivialPartition(EndslabError):
    """A separation-certified partition collapsed to a single block where a proper one was required."""
