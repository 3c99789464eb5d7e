#include "engine/select.h"

#include <memory>

#include "common/macros.h"
#include "lineage/fragment_merge.h"
#include "plan/scheduler.h"

namespace smoke {

namespace {

Schema OutputSchema(const Table& input, CaptureMode mode) {
  Schema s = input.schema();
  if (mode == CaptureMode::kLogicRid || mode == CaptureMode::kLogicIdx) {
    s.AddField("prov_rid", DataType::kInt64);
  } else if (mode == CaptureMode::kLogicTup) {
    for (const auto& f : input.schema().fields()) {
      s.AddField("prov_" + f.name, f.type);
    }
  }
  return s;
}

/// Morsel-driven parallel selection (Smoke modes and kNone; kDefer maps to
/// kInject for selection as in the sequential path), in two passes on the
/// same scheduler. Filter: each morsel records the rids of its passing rows
/// — the selection vector, which is also its backward lineage fragment —
/// and a forward fragment of morsel-local output rids. Gather: the output is
/// sized once from the prefix-summed morsel counts and each morsel gathers
/// its rids into its own row range. Merging fragments in morsel order
/// (lineage/fragment_merge.h) makes the result bit-identical to the
/// sequential loop.
SelectResult SelectExecParallel(const Table& input,
                                const std::string& input_name,
                                const PredicateList& plist,
                                const CaptureOptions& opts,
                                TaskScheduler* sched) {
  const size_t n = input.num_rows();
  const bool smoke_capture = IsSmokeMode(opts.mode);
  const bool want_b = smoke_capture && opts.capture_backward;
  const bool want_f = smoke_capture && opts.capture_forward;

  const size_t morsel_rows = opts.morsel_rows > 0
                                 ? opts.morsel_rows
                                 : MorselScheduler::kDefaultMorselRows;
  const std::vector<Morsel> morsels = MakeMorsels(n, morsel_rows);
  const size_t nm = morsels.size();

  // Per-morsel buffers, keyed by morsel index so the merge never depends on
  // which worker ran which morsel.
  std::vector<RidArray> sel_parts(nm);
  std::vector<RidArray> fw_parts(nm);
  std::vector<size_t> counts(nm, 0);
  const double sel = opts.hints != nullptr
                         ? opts.hints->selection_selectivity
                         : -1.0;

  sched->ParallelFor(nm, [&](size_t m, size_t) {
    const Morsel span = morsels[m];
    RidArray& picked = sel_parts[m];
    RidArray fw;
    if (want_f) fw.assign(span.rows(), kInvalidRid);
    if (sel >= 0) {
      picked.reserve(
          static_cast<size_t>(sel * static_cast<double>(span.rows())) + 1);
    }
    for (rid_t r = span.begin; r < span.end; ++r) {
      if (!plist.Eval(r)) continue;
      if (want_f) fw[r - span.begin] = static_cast<rid_t>(picked.size());
      picked.push_back(r);
    }
    counts[m] = picked.size();
    fw_parts[m] = std::move(fw);
  });

  const std::vector<rid_t> offsets = ExclusiveOffsets(counts);
  const rid_t total = offsets[nm];

  SelectResult result;
  result.output = Table(input.schema());
  result.output.Resize(total);
  sched->ParallelFor(nm, [&](size_t m, size_t) {
    result.output.GatherRows(input, sel_parts[m].data(), counts[m],
                             offsets[m]);
  });

  if (opts.mode != CaptureMode::kNone) {
    TableLineage& lin = result.lineage.AddInput(input_name, &input);
    if (want_b) {
      lin.backward =
          LineageIndex::FromArray(ConcatBackwardArrays(std::move(sel_parts)));
    }
    if (want_f) {
      std::vector<rid_t> in_begins(nm);
      for (size_t m = 0; m < nm; ++m) in_begins[m] = morsels[m].begin;
      lin.forward = LineageIndex::FromArray(
          ScatterForwardArrays(n, fw_parts, in_begins, offsets));
    }
  }
  result.lineage.set_output_cardinality(total);
  return result;
}

}  // namespace

SelectResult SelectExecRange(const Table& input, const std::string& input_name,
                             rid_t row_begin, rid_t row_end,
                             const std::vector<Predicate>& preds,
                             const CaptureOptions& opts) {
  SMOKE_CHECK(opts.mode == CaptureMode::kNone || IsSmokeMode(opts.mode));
  SMOKE_CHECK(row_begin <= row_end && row_end <= input.num_rows());
  const size_t n = input.num_rows();
  PredicateList plist(input, preds);

  SelectResult result;
  result.output = Table(input.schema());
  const bool smoke_capture = IsSmokeMode(opts.mode);
  const bool want_b = smoke_capture && opts.capture_backward;
  const bool want_f = smoke_capture && opts.capture_forward;

  // Filter: the passing rids are the selection vector and, when captured,
  // the backward rid array.
  RidArray backward;
  RidArray forward;
  if (want_f) forward.assign(n, kInvalidRid);
  // EC hint: pre-allocate the rid array from the selectivity estimate;
  // underestimates fall back to vector growth.
  const double sel = opts.hints != nullptr
                         ? opts.hints->selection_selectivity
                         : -1.0;
  if (sel >= 0) {
    backward.reserve(
        static_cast<size_t>(sel * static_cast<double>(row_end - row_begin)) +
        1);
  }
  for (rid_t ctr_i = row_begin; ctr_i < row_end; ++ctr_i) {
    if (!plist.Eval(ctr_i)) continue;
    if (want_f) forward[ctr_i] = static_cast<rid_t>(backward.size());
    backward.push_back(ctr_i);
  }
  const rid_t ctr_o = static_cast<rid_t>(backward.size());

  // Gather: one typed loop per column into the exactly-sized output.
  result.output.Resize(ctr_o);
  result.output.GatherRows(input, backward.data(), ctr_o, 0);

  if (opts.mode != CaptureMode::kNone) {
    TableLineage& lin = result.lineage.AddInput(input_name, &input);
    if (want_b) lin.backward = LineageIndex::FromArray(std::move(backward));
    if (want_f) lin.forward = LineageIndex::FromArray(std::move(forward));
  }
  result.lineage.set_output_cardinality(ctr_o);
  return result;
}

SelectResult SelectExec(const Table& input, const std::string& input_name,
                        const std::vector<Predicate>& preds,
                        const CaptureOptions& opts) {
  const size_t n = input.num_rows();

  if (opts.WantsParallel()) {
    PredicateList plist(input, preds);
    if (opts.scheduler != nullptr) {
      return SelectExecParallel(input, input_name, plist, opts,
                                opts.scheduler);
    }
    MorselScheduler local(opts.num_threads);
    return SelectExecParallel(input, input_name, plist, opts, &local);
  }

  // The sequential Smoke/baseline loop is the full-range morsel execution.
  if (opts.mode == CaptureMode::kNone || IsSmokeMode(opts.mode)) {
    return SelectExecRange(input, input_name, 0, static_cast<rid_t>(n),
                           preds, opts);
  }

  // ---- logic / physical baseline modes ----
  PredicateList plist(input, preds);
  SelectResult result;
  result.output = Table(OutputSchema(input, opts.mode));
  TableLineage* lin = &result.lineage.AddInput(input_name, &input);
  const bool phys_capture =
      opts.mode == CaptureMode::kPhysMem || opts.mode == CaptureMode::kPhysBdb;

  if (phys_capture) {
    SMOKE_CHECK(opts.writer != nullptr);
    opts.writer->BeginCapture(n);
  }

  // ctr_i is the loop variable; ctr_o the output counter.
  rid_t ctr_o = 0;
  const bool annotate_rid = opts.mode == CaptureMode::kLogicRid ||
                            opts.mode == CaptureMode::kLogicIdx;
  const bool annotate_tup = opts.mode == CaptureMode::kLogicTup;
  const size_t in_cols = input.num_columns();

  for (rid_t ctr_i = 0; ctr_i < n; ++ctr_i) {
    if (!plist.Eval(ctr_i)) continue;
    result.output.AppendRowFrom(input, ctr_i);
    if (annotate_rid) {
      result.output.mutable_column(in_cols).AppendInt(ctr_i);
    } else if (annotate_tup) {
      for (size_t c = 0; c < in_cols; ++c) {
        result.output.mutable_column(in_cols + c)
            .AppendFrom(input.column(c), ctr_i);
      }
    }
    if (phys_capture) opts.writer->Emit(ctr_o, ctr_i);
    ++ctr_o;
  }

  if (phys_capture) opts.writer->FinishCapture(ctr_o);

  if (opts.mode == CaptureMode::kLogicIdx) {
    // Logic-Idx scans the annotated output to build the same end-to-end
    // indexes Smoke produces (here the annotation scan is the prov_rid
    // column of the output we just materialized).
    RidArray b2;
    RidArray f2(n, kInvalidRid);
    const auto& ann = result.output.column(in_cols).ints();
    for (rid_t o = 0; o < ann.size(); ++o) {
      rid_t r = static_cast<rid_t>(ann[o]);
      if (opts.capture_backward) b2.push_back(r);
      if (opts.capture_forward) f2[r] = o;
    }
    if (opts.capture_backward)
      lin->backward = LineageIndex::FromArray(std::move(b2));
    if (opts.capture_forward)
      lin->forward = LineageIndex::FromArray(std::move(f2));
  }

  result.lineage.set_output_cardinality(ctr_o);
  return result;
}

}  // namespace smoke
