"""Distribution-free property testers for total orderings and decision
lists, with the exact oracles, instance generators and collision experiments
used to validate them."""

from .core import (BitString, FiniteDistribution, PairDistribution, SeededRng,
                   bit_or, bit_xor, clamped_log2, sample, unit, vertex_marginal,
                   xor_shift)
from .oracles import (BudgetExhausted, ComparisonOracle, DistSampler, FunctionOracle,
                      MarginalSampler, PairSampler, PreconditionViolated, QueryLedger,
                      ShiftedSampler, Verdict)
from .dlmodel import (GeneralDLRep, MonotoneDLRep, dominates, eval_dl, eval_mdl,
                      min_index, monotonize, random_dl, random_mdl, table_target)
from .total_order import (TotalConstants, TotalSketch, budget_total, find_block_total,
                          sketch_total, test_local_cycles, test_long_cycles,
                          test_total_ordering)
from .mdl import (BigBlockSet, MdlConstants, MdlRun, MdlSketch, budget_mdl,
                  find_block_mdl, find_rep, monotone_dl_tester, sketch_mdl)
from .dl import (DlConstants, HybridFunction, budget_dl, check_dl, decision_list_tester,
                 index_search, monotone_dl_amplified, test_dl)
from .instances import (InstanceBundle, PlantInfeasible, gen_dl_yes, gen_groups4,
                        gen_mdl_yes, gen_pentagon, gen_planted_violation, gen_total_yes)
from .exact import (DistanceReport, SizeRefusal, dist_dl, dist_mdl,
                    dist_total_orderings, min_vertex_cover_weight)
from .birthday import (CollisionExperiment, run_bipartite_birthday,
                       run_classical_birthday, run_hypergraph_birthday)
from .harness import (RunConfig, TrialReport, load_bundle, oracle_check, run_trials,
                      save_bundle, scaling_experiment, wilson_interval)

__all__ = [name for name in dir() if not name.startswith("_")]
