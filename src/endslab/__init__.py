"""Toolkit for desk-scale experiments on ends of finitely generated groups:
truncated Cayley graphs, end depth, end counts, separation-certified
partitions and virtual-cyclicity detectors."""

from .classify import (Verdict, bounded_sphere_detector, linear_end_depth_check,
                       sphere_bound_criterion, sphere_cover_demo)
from .ends import (EndDepthProfile, EndsEstimate, ObssWitness, WitnessItem,
                   check_obss_witness, end_count_estimate, end_depth,
                   end_depth_profile)
from .errors import (BudgetExceeded, EndslabError, Infeasible, InvalidParameter,
                     NoAxis, NotGeodesic, TruncationTooSmall, TrivialPartition)
from .explore import (DEFAULT_NODE_BUDGET, BallTable, GeodesicAxis,
                      SphereSizeSeries, build_axis, explore, sphere_size_series)
from .glpartition import (FiniteMetricSpace, GlPartition, build_gl_partition,
                          sphere_as_metric_space, verify_gl_partition)
from .groups import GroupOracle, GroupSpec, make_group, parse_group_spec

__version__ = "0.1.0"
