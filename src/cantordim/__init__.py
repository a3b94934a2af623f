"""Exact fractal measures, dimensions, covers and additivity-witness
combinatorics on the Cantor cube under the dyadic ultrametric."""

from .errors import (BuildError, CantorDimError, DepthExceededError,
                     ResourceLimitError, SpecFormatError)
from .hfun import (DyadicHFn, diagonal_dominate, compose, finite_order,
                   grid_inverse, hfn_from_epsilons, multiply, power_hfn,
                   power_log_hfn, precede, table_hfn)
from .measures import (Filtration, MeasureBound, box_content_sequence,
                       box_dimensions, chain_check, covering_number,
                       dbox_on_filtration, extract_optimal_cover,
                       hausdorff_measure_delta, increasing_sets_split,
                       lipschitz_image_check, mass_lower_certificate,
                       product_inequality_check, sparse_I_builder)
from .treeset import (BlockConstraintSet, Budget, CISet, CylinderUnionSet,
                      ExplicitSet, FullCube, ProductSet, SumSet, TreeSet,
                      UnionSet, is_trace_subset)
from .words import ISpec, evens, geometric_blocks, odds, periodic_ispec

__version__ = "0.1.0"
