"""Exception types shared across the toolkit."""

from typing import Optional


class EndslabError(Exception):
    """Base class for all endslab errors."""


class InvalidParameter(EndslabError, ValueError):
    """An argument violates a documented precondition."""


class Infeasible(EndslabError):
    """The requested computation cannot be carried out within desk-scale limits."""


class BudgetExceeded(Infeasible):
    """Breadth-first exploration hit the node budget before the requested
    radius, or before exhausting a finite group of the given ``order``.

    The error names the last complete ball: ``radius_reached`` is the
    largest r whose ball B(r) fits in the budget, and ``nodes`` = |B(r)|.
    Both are facts of the group and the budget alone, so a ball table and
    a lean count word the error alike, whatever order they visit the
    vertices of B(r + 1) in."""

    def __init__(self, budget: int, nodes: int, radius_reached: int, radius_requested: int,
                 order: Optional[int] = None):
        self.budget = budget
        self.nodes = nodes
        self.radius_reached = radius_reached
        self.radius_requested = radius_requested
        self.order = order
        goal = (f" of requested {radius_requested}" if order is None else
                f", but the whole group of order {order} was needed")
        super().__init__(
            f"node budget {budget} exceeded by B({radius_reached + 1}); "
            f"B({radius_reached}) has {nodes} vertices: reached radius {radius_reached}{goal}"
        )


class TruncationTooSmall(EndslabError):
    """A computation needs vertices beyond the explored truncation radius."""


class NoAxis(EndslabError):
    """The group has no designated bi-infinite geodesic axis."""


class NotGeodesic(EndslabError):
    """The designated axis failed distance verification against the ball table."""


class TrivialPartition(EndslabError):
    """A separation-certified partition collapsed to a single block where a proper one was required."""
