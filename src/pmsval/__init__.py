"""Exact classification of pseudo monotone sequences in valued fields and
the induced valuation on the rational function field: dominating degrees,
sup/inf of the distance values, rank of the value group, and a brute-force
oracle over concrete p-adic and composite rational-function fields."""

from .engine import (DominatingForm, FactoredRationalFunction, TaggedRoot,
                     check_pcs_equivalence_iii, check_pds_equivalence_iii,
                     dominating_degree, extension_report, v_e)
from .exact import ExactReal
from .groups import (AdjoinedSurd, Cyclic, FormalInteger, FullRational,
                     GroupDescriptor, INFINITY, PPowerDivisible, Value)
from .oracle import (CompositeField, ConcreteRationalFunction, PadicRationals,
                     QtElement, cross_check, fit_pattern, padic_valuation,
                     sequence_configuration)
from .ranktree import (Branch, Leaf, RankResult, auto_probes, enumerate_leaves,
                       rank_of_vE, theorem_rank_check, tree_dot)
from .sequences import (Algebraic, ConstantFrom, Cut, PmsDescriptor, PmsKind,
                        StageChain, Transcendental, Tri,
                        UltrametricConfiguration, beyond_all_deltas,
                        classify_from_prefix, cofinal, is_limit,
                        limit_dichotomy_check)

__version__ = "0.1.0"
