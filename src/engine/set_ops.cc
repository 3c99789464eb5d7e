#include "engine/set_ops.h"

#include <unordered_map>

#include "common/macros.h"
#include "engine/key_encode.h"

namespace smoke {

namespace {

Schema ProjectedSchema(const Table& a, const std::vector<int>& cols) {
  Schema s;
  for (int c : cols) {
    s.AddField(a.schema().field(static_cast<size_t>(c)).name,
               a.schema().field(static_cast<size_t>(c)).type);
  }
  return s;
}

void AppendProjected(const Table& src, rid_t rid,
                     const std::vector<int>& cols, Table* out) {
  for (size_t i = 0; i < cols.size(); ++i) {
    out->mutable_column(i).AppendFrom(
        src.column(static_cast<size_t>(cols[i])), rid);
  }
}

}  // namespace

SetOpResult SetUnionExec(const Table& a, const std::string& a_name,
                         const Table& b, const std::string& b_name,
                         const std::vector<int>& cols,
                         const CaptureOptions& opts) {
  const size_t na = a.num_rows();
  const size_t nb = b.num_rows();
  const bool inject = opts.mode == CaptureMode::kInject;
  const bool defer = opts.mode == CaptureMode::kDefer;

  std::unordered_map<std::string, uint32_t> ht;
  ht.reserve(na);
  std::string key;  // reused by every encode below
  std::vector<RidVec> a_rids, b_rids;   // Inject
  std::vector<rid_t> repr;              // representative rid (A- or B-space)
  std::vector<uint8_t> repr_from_a;

  // ∪ht: build phase over A.
  for (rid_t r = 0; r < na; ++r) {
    EncodeRowKeyInto(a, cols, r, &key);
    bool inserted = false;
    const uint32_t slot = FindOrInsertKey(
        &ht, key, static_cast<uint32_t>(repr.size()), &inserted);
    if (inserted) {
      repr.push_back(r);
      repr_from_a.push_back(1);
      if (inject) {
        a_rids.emplace_back();
        b_rids.emplace_back();
      }
    }
    if (inject) a_rids[slot].PushBack(r);
  }
  // ∪p: probe/append phase over B.
  for (rid_t r = 0; r < nb; ++r) {
    EncodeRowKeyInto(b, cols, r, &key);
    bool inserted = false;
    const uint32_t slot = FindOrInsertKey(
        &ht, key, static_cast<uint32_t>(repr.size()), &inserted);
    if (inserted) {
      repr.push_back(r);
      repr_from_a.push_back(0);
      if (inject) {
        a_rids.emplace_back();
        b_rids.emplace_back();
      }
    }
    if (inject) b_rids[slot].PushBack(r);
  }

  // ∪scan: emit one output row per entry; slot == output rid.
  SetOpResult result;
  result.output = Table(ProjectedSchema(a, cols));
  const size_t num_out = repr.size();
  result.output.Reserve(num_out);
  for (size_t s = 0; s < num_out; ++s) {
    if (repr_from_a[s]) AppendProjected(a, repr[s], cols, &result.output);
    else AppendProjected(b, repr[s], cols, &result.output);
  }

  if (opts.mode == CaptureMode::kNone) return result;
  TableLineage& la = result.lineage.AddInput(a_name, &a);
  TableLineage& lb = result.lineage.AddInput(b_name, &b);
  result.lineage.set_output_cardinality(num_out);

  RidIndex a_bw, b_bw;
  RidArray a_fw(na, kInvalidRid), b_fw(nb, kInvalidRid);
  if (inject) {
    a_bw = RidIndex::FromLists(std::move(a_rids));
    b_bw = RidIndex::FromLists(std::move(b_rids));
    for (size_t s = 0; s < num_out; ++s) {
      for (rid_t r : a_bw.list(s)) a_fw[r] = static_cast<rid_t>(s);
      for (rid_t r : b_bw.list(s)) b_fw[r] = static_cast<rid_t>(s);
    }
  } else if (defer) {
    // ⋈'∪: re-probe the reused hash table for each input relation.
    a_bw.Resize(num_out);
    b_bw.Resize(num_out);
    for (rid_t r = 0; r < na; ++r) {
      uint32_t s = ht.find(EncodeRowKeyInto(a, cols, r, &key))->second;
      a_bw.Append(s, r);
      a_fw[r] = s;
    }
    for (rid_t r = 0; r < nb; ++r) {
      uint32_t s = ht.find(EncodeRowKeyInto(b, cols, r, &key))->second;
      b_bw.Append(s, r);
      b_fw[r] = s;
    }
  }
  if (opts.capture_backward) {
    la.backward = LineageIndex::FromIndex(std::move(a_bw));
    lb.backward = LineageIndex::FromIndex(std::move(b_bw));
  }
  if (opts.capture_forward) {
    la.forward = LineageIndex::FromArray(std::move(a_fw));
    lb.forward = LineageIndex::FromArray(std::move(b_fw));
  }
  return result;
}

SetOpResult BagUnionExec(const Table& a, const std::string& a_name,
                         const Table& b, const std::string& b_name,
                         const CaptureOptions& opts) {
  SMOKE_CHECK(a.num_columns() == b.num_columns());
  const size_t na = a.num_rows();
  const size_t nb = b.num_rows();

  SetOpResult result;
  result.output = Table(a.schema());
  result.output.Reserve(na + nb);
  for (rid_t r = 0; r < na; ++r) result.output.AppendRowFrom(a, r);
  for (rid_t r = 0; r < nb; ++r) result.output.AppendRowFrom(b, r);

  if (opts.mode == CaptureMode::kNone) return result;
  // Lineage is pure offset arithmetic around the boundary rid |A|.
  TableLineage& la = result.lineage.AddInput(a_name, &a);
  TableLineage& lb = result.lineage.AddInput(b_name, &b);
  result.lineage.set_output_cardinality(na + nb);
  RidIndex a_bw(na + nb), b_bw(na + nb);
  RidArray a_fw(na), b_fw(nb);
  for (rid_t r = 0; r < na; ++r) {
    a_bw.Append(r, r);
    a_fw[r] = r;
  }
  for (rid_t r = 0; r < nb; ++r) {
    b_bw.Append(na + r, r);
    b_fw[r] = static_cast<rid_t>(na + r);
  }
  if (opts.capture_backward) {
    la.backward = LineageIndex::FromIndex(std::move(a_bw));
    lb.backward = LineageIndex::FromIndex(std::move(b_bw));
  }
  if (opts.capture_forward) {
    la.forward = LineageIndex::FromArray(std::move(a_fw));
    lb.forward = LineageIndex::FromArray(std::move(b_fw));
  }
  return result;
}

SetOpResult SetIntersectExec(const Table& a, const std::string& a_name,
                             const Table& b, const std::string& b_name,
                             const std::vector<int>& cols,
                             const CaptureOptions& opts) {
  const size_t na = a.num_rows();
  const size_t nb = b.num_rows();
  const bool inject = opts.mode == CaptureMode::kInject;
  const bool defer = opts.mode == CaptureMode::kDefer;

  std::unordered_map<std::string, uint32_t> ht;
  ht.reserve(na);
  std::string key;  // reused by every encode below
  std::vector<RidVec> a_rids, b_rids;
  std::vector<rid_t> repr;
  std::vector<uint8_t> matched;  // the paper's b_bit

  // ∩ht: build over A.
  for (rid_t r = 0; r < na; ++r) {
    EncodeRowKeyInto(a, cols, r, &key);
    bool inserted = false;
    const uint32_t slot = FindOrInsertKey(
        &ht, key, static_cast<uint32_t>(repr.size()), &inserted);
    if (inserted) {
      repr.push_back(r);
      matched.push_back(0);
      if (inject) {
        a_rids.emplace_back();
        b_rids.emplace_back();
      }
    }
    if (inject) a_rids[slot].PushBack(r);
  }
  // ∩p: probe with B.
  for (rid_t r = 0; r < nb; ++r) {
    auto it = ht.find(EncodeRowKeyInto(b, cols, r, &key));
    if (it == ht.end()) continue;
    matched[it->second] = 1;
    if (inject) b_rids[it->second].PushBack(r);
  }

  // ∩scan: emit matched entries.
  SetOpResult result;
  result.output = Table(ProjectedSchema(a, cols));
  std::vector<rid_t> entry_oid(repr.size(), kInvalidRid);
  rid_t oid = 0;
  for (size_t s = 0; s < repr.size(); ++s) {
    if (!matched[s]) continue;
    AppendProjected(a, repr[s], cols, &result.output);
    entry_oid[s] = oid++;
  }

  if (opts.mode == CaptureMode::kNone) return result;
  TableLineage& la = result.lineage.AddInput(a_name, &a);
  TableLineage& lb = result.lineage.AddInput(b_name, &b);
  result.lineage.set_output_cardinality(oid);

  RidIndex a_bw(oid), b_bw(oid);
  RidArray a_fw(na, kInvalidRid), b_fw(nb, kInvalidRid);
  if (inject) {
    // Unmatched entries' a_rids are discarded (the cost Defer avoids).
    for (size_t s = 0; s < repr.size(); ++s) {
      if (entry_oid[s] == kInvalidRid) continue;
      a_bw.list(entry_oid[s]) = std::move(a_rids[s]);
      b_bw.list(entry_oid[s]) = std::move(b_rids[s]);
    }
    for (size_t s = 0; s < repr.size(); ++s) {
      if (entry_oid[s] == kInvalidRid) continue;
      for (rid_t r : a_bw.list(entry_oid[s])) a_fw[r] = entry_oid[s];
      for (rid_t r : b_bw.list(entry_oid[s])) b_fw[r] = entry_oid[s];
    }
  } else if (defer) {
    // ⋈'∩: re-probe for each relation.
    for (rid_t r = 0; r < na; ++r) {
      uint32_t s = ht.find(EncodeRowKeyInto(a, cols, r, &key))->second;
      if (entry_oid[s] == kInvalidRid) continue;
      a_bw.Append(entry_oid[s], r);
      a_fw[r] = entry_oid[s];
    }
    for (rid_t r = 0; r < nb; ++r) {
      auto it = ht.find(EncodeRowKeyInto(b, cols, r, &key));
      if (it == ht.end() || entry_oid[it->second] == kInvalidRid) continue;
      b_bw.Append(entry_oid[it->second], r);
      b_fw[r] = entry_oid[it->second];
    }
  }
  if (opts.capture_backward) {
    la.backward = LineageIndex::FromIndex(std::move(a_bw));
    lb.backward = LineageIndex::FromIndex(std::move(b_bw));
  }
  if (opts.capture_forward) {
    la.forward = LineageIndex::FromArray(std::move(a_fw));
    lb.forward = LineageIndex::FromArray(std::move(b_fw));
  }
  return result;
}

SetOpResult BagIntersectExec(const Table& a, const std::string& a_name,
                             const Table& b, const std::string& b_name,
                             const std::vector<int>& cols,
                             const CaptureOptions& opts) {
  const size_t na = a.num_rows();
  const size_t nb = b.num_rows();
  const bool inject = opts.mode == CaptureMode::kInject;
  const bool defer = opts.mode == CaptureMode::kDefer;

  std::unordered_map<std::string, uint32_t> ht;
  ht.reserve(na);
  std::string key;  // reused by every encode below
  // Inject keeps the duplicate rids themselves; plain/Defer keep counts.
  std::vector<RidVec> a_rids, b_rids;
  std::vector<uint32_t> a_matches, b_matches;
  std::vector<rid_t> repr;

  for (rid_t r = 0; r < na; ++r) {
    EncodeRowKeyInto(a, cols, r, &key);
    bool inserted = false;
    const uint32_t slot = FindOrInsertKey(
        &ht, key, static_cast<uint32_t>(repr.size()), &inserted);
    if (inserted) {
      repr.push_back(r);
      a_matches.push_back(0);
      b_matches.push_back(0);
      if (inject) {
        a_rids.emplace_back();
        b_rids.emplace_back();
      }
    }
    ++a_matches[slot];
    if (inject) a_rids[slot].PushBack(r);
  }
  for (rid_t r = 0; r < nb; ++r) {
    auto it = ht.find(EncodeRowKeyInto(b, cols, r, &key));
    if (it == ht.end()) continue;
    ++b_matches[it->second];
    if (inject) b_rids[it->second].PushBack(r);
  }

  // Scan: entry s emits a_matches[s] * b_matches[s] rows (i outer, j inner).
  SetOpResult result;
  result.output = Table(ProjectedSchema(a, cols));
  std::vector<rid_t> first_oid(repr.size(), kInvalidRid);
  rid_t oid = 0;
  for (size_t s = 0; s < repr.size(); ++s) {
    if (b_matches[s] == 0) continue;
    first_oid[s] = oid;
    const uint32_t rows = a_matches[s] * b_matches[s];
    for (uint32_t k = 0; k < rows; ++k) {
      AppendProjected(a, repr[s], cols, &result.output);
    }
    oid += rows;
  }

  if (opts.mode == CaptureMode::kNone) return result;
  TableLineage& la = result.lineage.AddInput(a_name, &a);
  TableLineage& lb = result.lineage.AddInput(b_name, &b);
  result.lineage.set_output_cardinality(oid);

  // Bag intersection backward lineage is 1-to-1 (rid arrays).
  RidArray a_bw(oid, kInvalidRid), b_bw(oid, kInvalidRid);
  RidIndex a_fw(na), b_fw(nb);

  if (inject) {
    for (size_t s = 0; s < repr.size(); ++s) {
      if (first_oid[s] == kInvalidRid) continue;
      const RidVec& ar = a_rids[s];
      const RidVec& br = b_rids[s];
      for (size_t i = 0; i < ar.size(); ++i) {
        for (size_t j = 0; j < br.size(); ++j) {
          rid_t out = first_oid[s] +
                      static_cast<rid_t>(i * br.size() + j);
          a_bw[out] = ar[i];
          b_bw[out] = br[j];
          a_fw.Append(ar[i], out);
          b_fw.Append(br[j], out);
        }
      }
    }
  } else if (defer) {
    // Re-scan each relation with a per-entry duplicate counter; output rids
    // follow from first_oid and the (i, j) run structure.
    std::vector<uint32_t> seen(repr.size(), 0);
    for (rid_t r = 0; r < na; ++r) {
      uint32_t s = ht.find(EncodeRowKeyInto(a, cols, r, &key))->second;
      if (first_oid[s] == kInvalidRid) {
        continue;
      }
      uint32_t i = seen[s]++;
      a_fw.list(r).Reserve(b_matches[s]);
      for (uint32_t j = 0; j < b_matches[s]; ++j) {
        rid_t out = first_oid[s] + i * b_matches[s] + j;
        a_bw[out] = r;
        a_fw.Append(r, out);
      }
    }
    std::fill(seen.begin(), seen.end(), 0);
    for (rid_t r = 0; r < nb; ++r) {
      auto it = ht.find(EncodeRowKeyInto(b, cols, r, &key));
      if (it == ht.end() || first_oid[it->second] == kInvalidRid) continue;
      uint32_t s = it->second;
      uint32_t j = seen[s]++;
      b_fw.list(r).Reserve(a_matches[s]);
      for (uint32_t i = 0; i < a_matches[s]; ++i) {
        rid_t out = first_oid[s] + i * b_matches[s] + j;
        b_bw[out] = r;
        b_fw.Append(r, out);
      }
    }
  }
  if (opts.capture_backward) {
    la.backward = LineageIndex::FromArray(std::move(a_bw));
    lb.backward = LineageIndex::FromArray(std::move(b_bw));
  }
  if (opts.capture_forward) {
    la.forward = LineageIndex::FromIndex(std::move(a_fw));
    lb.forward = LineageIndex::FromIndex(std::move(b_fw));
  }
  return result;
}

SetOpResult SetDifferenceExec(const Table& a, const std::string& a_name,
                              const Table& b, const std::string& b_name,
                              const std::vector<int>& cols,
                              const CaptureOptions& opts) {
  (void)b_name;
  const size_t na = a.num_rows();
  const size_t nb = b.num_rows();
  const bool inject = opts.mode == CaptureMode::kInject ||
                      opts.mode == CaptureMode::kDefer;

  std::unordered_map<std::string, uint32_t> ht;
  ht.reserve(na);
  std::string key;  // reused by every encode below
  std::vector<RidVec> a_rids;
  std::vector<rid_t> repr;
  std::vector<uint8_t> survives;  // the paper's b_bit, initialized to 1

  for (rid_t r = 0; r < na; ++r) {
    EncodeRowKeyInto(a, cols, r, &key);
    bool inserted = false;
    const uint32_t slot = FindOrInsertKey(
        &ht, key, static_cast<uint32_t>(repr.size()), &inserted);
    if (inserted) {
      repr.push_back(r);
      survives.push_back(1);
      if (inject) a_rids.emplace_back();
    }
    if (inject) a_rids[slot].PushBack(r);
  }
  for (rid_t r = 0; r < nb; ++r) {
    auto it = ht.find(EncodeRowKeyInto(b, cols, r, &key));
    if (it != ht.end()) survives[it->second] = 0;
  }

  SetOpResult result;
  result.output = Table(ProjectedSchema(a, cols));
  std::vector<rid_t> entry_oid(repr.size(), kInvalidRid);
  rid_t oid = 0;
  for (size_t s = 0; s < repr.size(); ++s) {
    if (!survives[s]) continue;
    AppendProjected(a, repr[s], cols, &result.output);
    entry_oid[s] = oid++;
  }

  if (opts.mode == CaptureMode::kNone) return result;
  // Lineage only for A (each output also depends on all of B, which is not
  // materialized — backward queries against B fall back to scanning B).
  TableLineage& la = result.lineage.AddInput(a_name, &a);
  result.lineage.set_output_cardinality(oid);
  RidIndex a_bw(oid);
  RidArray a_fw(na, kInvalidRid);
  for (size_t s = 0; s < repr.size(); ++s) {
    if (entry_oid[s] == kInvalidRid) continue;
    a_bw.list(entry_oid[s]) = std::move(a_rids[s]);
    for (rid_t r : a_bw.list(entry_oid[s])) a_fw[r] = entry_oid[s];
  }
  if (opts.capture_backward)
    la.backward = LineageIndex::FromIndex(std::move(a_bw));
  if (opts.capture_forward)
    la.forward = LineageIndex::FromArray(std::move(a_fw));
  return result;
}

}  // namespace smoke
