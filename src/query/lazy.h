// Lazy lineage query evaluation (paper Section 2.1, Appendix C): rewrite
// lineage queries as relational queries over the input relations. For a
// group-by base query O = γ_{g1..gn,F}(I), the backward lineage of output o
// is σ_{o.g1=I.g1 ∧ ... ∧ o.gn=I.gn}(I), with the base query's selections
// conjoined.
//
// The unified consumption API reuses these rewrites: TraceStrategy::kLazy
// (query/trace_builder.h) compiles the same predicates into a Scan → Select
// plan instead of a Trace node, and SmokeEngine falls back to them when a
// query's lineage was evicted.
#ifndef SMOKE_QUERY_LAZY_H_
#define SMOKE_QUERY_LAZY_H_

#include <vector>

#include "engine/spja.h"

namespace smoke {

/// True when the lazy backward rewrite can answer traces on `query`
/// *transparently* (the lineage store's eviction fallback): fact table
/// present, no dimension joins (the rescan cannot reconstruct join
/// survivorship), and every group key on the fact table. Shared by the
/// engine's eviction-eligibility gate and TraceBuilder strategy resolution
/// so the two can never disagree.
bool LazyRewriteAvailable(const SPJAQuery& query);

/// Builds the selection predicates (over the fact table) equivalent to "fact
/// row belongs to output group `oid`" of the SPJA base query: the base
/// query's fact filters plus equality on each group-by key with the group's
/// values. Requires all group-by columns to live on the fact table (true for
/// the paper's lazy comparisons — Q1 and the microbenchmarks).
std::vector<Predicate> LazyBackwardPredicates(const SPJAQuery& query,
                                              const Table& output, rid_t oid);

/// Lazily evaluates Lb(oid, fact) as a full selection scan of the fact
/// table. This is the paper's strongest lazy baseline (cheap equality
/// predicates on the group keys).
std::vector<rid_t> LazyBackwardRids(const SPJAQuery& query,
                                    const Table& output, rid_t oid);

}  // namespace smoke

#endif  // SMOKE_QUERY_LAZY_H_
