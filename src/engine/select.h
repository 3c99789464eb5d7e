// Instrumented selection (paper Section 3.2.2).
//
// Selection is an if-condition in a for-loop over the input. Both lineage
// directions are rid arrays. Inject tracks two counters (ctr_i, ctr_o); the
// forward array is pre-allocated from the input cardinality, and the
// backward array can be pre-allocated from a selectivity estimate
// (Smoke-I+EC; overestimating beats resizing — paper Appendix G.1).
// Defer is strictly inferior to Inject for selection and is mapped to
// Inject, as in the paper.
//
// Baseline and Smoke modes filter, then gather: the filter loop records the
// passing rids — the selection vector, which is the backward rid array
// capture keeps (reuse, paper P4) — and the output is then gathered one
// column at a time into exactly-sized columns (Column::Gather). The
// morsel-parallel path does both passes per morsel on the same scheduler.
// The Logic baselines copy each passing row inline with its annotation.
//
// In composable plans this kernel backs the kSelect node (plan/operator.h);
// its rid arrays become the node's lineage fragment.
#ifndef SMOKE_ENGINE_SELECT_H_
#define SMOKE_ENGINE_SELECT_H_

#include <string>
#include <vector>

#include "engine/capture.h"
#include "engine/expr.h"
#include "lineage/query_lineage.h"
#include "storage/table.h"

namespace smoke {

/// Result of a selection: the filtered output plus (optionally) lineage.
/// Under kLogicRid/kLogicIdx the output carries a trailing "prov_rid"
/// annotation column; under kLogicTup trailing copies of all input columns.
struct SelectResult {
  Table output;
  QueryLineage lineage;
};

/// Runs SELECT * FROM input WHERE preds with the capture technique in
/// `opts`. `input_name` labels the lineage endpoint.
SelectResult SelectExec(const Table& input, const std::string& input_name,
                        const std::vector<Predicate>& preds,
                        const CaptureOptions& opts);

/// Morsel/partition execution (plan/operator.h): filters only rows
/// [row_begin, row_end) of `input`. Backward lineage holds absolute input
/// rids; the forward array spans the full input with kInvalidRid outside
/// the view, so fragments of disjoint views concatenate with
/// lineage/fragment_merge.h. Smoke modes and kNone only.
SelectResult SelectExecRange(const Table& input, const std::string& input_name,
                             rid_t row_begin, rid_t row_end,
                             const std::vector<Predicate>& preds,
                             const CaptureOptions& opts);

}  // namespace smoke

#endif  // SMOKE_ENGINE_SELECT_H_
