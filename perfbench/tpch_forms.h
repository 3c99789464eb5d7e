// TPC-H Q1/Q3/Q10/Q12 in the three forms the benchmark runs (SPJA block,
// name-based primitive plan, one-node SpjaBlock plan), and the brute-force
// references the output checks compare against: lineage as the set of base
// rows that satisfy the query's predicates and share the output row's group
// key (the paper's definition), and row-multiset equality of result tables.
#ifndef SMOKE_PERFBENCH_TPCH_FORMS_H_
#define SMOKE_PERFBENCH_TPCH_FORMS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/smoke_engine.h"
#include "plan/plan.h"
#include "workloads/tpch.h"

namespace smokebench {

struct TpchQuery {
  std::string name;         ///< "q1", "q3", "q10", "q12"
  smoke::SPJAQuery spja;    ///< bound to the engine's tables
  smoke::LogicalPlan plan;  ///< Scan→Select→HashJoin→GroupBy, by column name
  smoke::LogicalPlan block; ///< the SPJA block as a one-node plan
  size_t num_keys = 0;      ///< group-by columns leading the output
};

/// Builds the four queries over the TPC-H tables registered in `engine`
/// under the names lineitem, orders, customer and nation.
smoke::Status BuildTpchQueries(const smoke::SmokeEngine& engine,
                               std::vector<TpchQuery>* out);

/// The primitive Q1 plan over `table` (a copy of lineitem registered under
/// that name, e.g. the sharded one).
smoke::Status BuildQ1Plan(const smoke::SmokeEngine& engine,
                          const std::string& table, smoke::LogicalPlan* out);

/// Group key of output row `row`: its first `num_keys` columns, rendered
/// exactly (doubles with every digit).
std::string OutputKey(const smoke::Table& t, smoke::rid_t row,
                      size_t num_keys);

/// Brute-force backward lineage of the output groups in `keys`: per key and
/// per relation (fact name, then dimension names) the sorted distinct base
/// rids of every joined row that passes all predicates and carries the key.
using OracleLineage =
    std::map<std::string, std::map<std::string, std::vector<smoke::rid_t>>>;
OracleLineage BruteForceLineage(const smoke::SPJAQuery& q,
                                const std::set<std::string>& keys);

/// Row-multiset equality of two result tables: key columns exact, the rest
/// within a relative 1e-9 (parallel aggregation may sum in another order).
bool SameRows(const smoke::Table& a, const smoke::Table& b, size_t num_keys,
              std::string* why);

/// True when `a` and `b` differ by at most `rel` relative to the larger.
bool NearlyEqual(double a, double b, double rel);

}  // namespace smokebench

#endif  // SMOKE_PERFBENCH_TPCH_FORMS_H_
