#include "lineage/fragment_merge.h"

#include <utility>

#include "common/macros.h"

namespace smoke {

std::vector<rid_t> ExclusiveOffsets(const std::vector<size_t>& counts) {
  std::vector<rid_t> offsets(counts.size() + 1, 0);
  rid_t total = 0;
  for (size_t m = 0; m < counts.size(); ++m) {
    offsets[m] = total;
    total += static_cast<rid_t>(counts[m]);
  }
  offsets[counts.size()] = total;
  return offsets;
}

RidArray ConcatBackwardArrays(std::vector<RidArray> parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  RidArray merged;
  merged.reserve(total);
  for (auto& p : parts) {
    merged.insert(merged.end(), p.begin(), p.end());
    RidArray().swap(p);
  }
  return merged;
}

RidArray ScatterForwardArrays(size_t num_inputs,
                              const std::vector<RidArray>& parts,
                              const std::vector<rid_t>& in_begins,
                              const std::vector<rid_t>& out_offsets) {
  SMOKE_DCHECK(parts.size() == in_begins.size());
  SMOKE_DCHECK(out_offsets.size() >= parts.size());
  RidArray merged(num_inputs, kInvalidRid);
  for (size_t m = 0; m < parts.size(); ++m) {
    const RidArray& p = parts[m];
    const rid_t in_begin = in_begins[m];
    const rid_t shift = out_offsets[m];
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] != kInvalidRid) merged[in_begin + i] = p[i] + shift;
    }
  }
  return merged;
}

RidIndex ConcatIndexParts(std::vector<RidIndex> parts,
                          const std::vector<rid_t>& out_offsets) {
  SMOKE_DCHECK(out_offsets.size() >= parts.size());
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  RidIndex merged(total);
  size_t pos = 0;
  for (size_t m = 0; m < parts.size(); ++m) {
    const rid_t shift = out_offsets[m];
    for (size_t i = 0; i < parts[m].size(); ++i, ++pos) {
      RidVec list = std::move(parts[m].list(i));
      for (size_t j = 0; j < list.size(); ++j) list[j] += shift;
      merged.list(pos) = std::move(list);
    }
    parts[m] = RidIndex();
  }
  return merged;
}

RidIndex InvertBackwardArray(const RidArray& backward, size_t num_inputs) {
  // Exact sizing pass, then fill — appends happen in increasing output rid
  // order, matching the list order of single-threaded capture.
  std::vector<uint32_t> counts(num_inputs, 0);
  for (rid_t in : backward) {
    if (in != kInvalidRid) ++counts[in];
  }
  RidIndex fw(num_inputs);
  for (size_t i = 0; i < num_inputs; ++i) {
    if (counts[i] > 0) fw.list(i).Reserve(counts[i]);
  }
  for (rid_t out = 0; out < backward.size(); ++out) {
    rid_t in = backward[out];
    if (in != kInvalidRid) fw.Append(in, out);
  }
  return fw;
}

// ---- incremental-refresh append builders ----

namespace {

/// Rewrites a sparse index in the dense raw form, which the 1:N builders
/// grow in place. Only trace plans emit the sparse form and they are never
/// refreshable, so this is a fallback, not a refresh path.
void DensifySparse(LineageIndex* idx) {
  if (idx->kind() != LineageIndex::Kind::kSparseIndex) return;
  const SparseRidIndex& sp = idx->sparse_index();
  RidIndex dense(sp.size());
  for (size_t k = 0; k < sp.num_keys(); ++k) {
    for (const rid_t* r = sp.begin(k); r != sp.end(k); ++r) {
      dense.Append(sp.key(k), *r);
    }
  }
  *idx = LineageIndex::FromIndex(std::move(dense));
}

}  // namespace

void AppendArrayValue(LineageIndex* idx, rid_t v) {
  switch (idx->kind()) {
    case LineageIndex::Kind::kArray:
      idx->mutable_array().push_back(v);
      break;
    case LineageIndex::Kind::kEncodedArray:
      idx->mutable_encoded_array().Append(v);
      break;
    default:
      SMOKE_DCHECK(false);
  }
}

void AppendIndexList(LineageIndex* idx, const rid_t* d, size_t n,
                     LineageCodec codec) {
  DensifySparse(idx);
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex: {
      RidIndex& index = idx->mutable_index();
      const size_t i = index.size();
      index.Resize(i + 1);
      if (n > 0) {
        index.list(i).Reserve(n);
        index.list(i).PushBackAll(d, n);
      }
      break;
    }
    case LineageIndex::Kind::kEncodedIndex:
      idx->mutable_encoded_postings().AppendNewList(d, n, codec);
      break;
    default:
      SMOKE_DCHECK(false);
  }
}

void AppendEmptyIndexLists(LineageIndex* idx, size_t count,
                           LineageCodec codec) {
  DensifySparse(idx);
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex:
      idx->mutable_index().Resize(idx->mutable_index().size() + count);
      break;
    case LineageIndex::Kind::kEncodedIndex:
      for (size_t k = 0; k < count; ++k) {
        idx->mutable_encoded_postings().AppendNewList(nullptr, 0, codec);
      }
      break;
    default:
      SMOKE_DCHECK(false);
  }
}

void ExtendIndexList(LineageIndex* idx, size_t i, const rid_t* d, size_t n) {
  DensifySparse(idx);
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex:
      idx->mutable_index().list(i).PushBackAll(d, n);
      break;
    case LineageIndex::Kind::kEncodedIndex:
      idx->mutable_encoded_postings().ExtendList(i, d, n);
      break;
    default:
      SMOKE_DCHECK(false);
  }
}

void InsertSortedIntoIndexList(LineageIndex* idx, size_t i, rid_t v) {
  DensifySparse(idx);
  switch (idx->kind()) {
    case LineageIndex::Kind::kIndex: {
      RidVec& list = idx->mutable_index().list(i);
      size_t pos = 0;
      while (pos < list.size() && list[pos] < v) ++pos;
      if (pos < list.size() && list[pos] == v) return;  // already present
      list.PushBack(v);  // grow, then shift the tail up one slot
      for (size_t j = list.size() - 1; j > pos; --j) list[j] = list[j - 1];
      list[pos] = v;
      break;
    }
    case LineageIndex::Kind::kEncodedIndex:
      idx->mutable_encoded_postings().InsertSortedIntoList(i, v);
      break;
    default:
      SMOKE_DCHECK(false);
  }
}

}  // namespace smoke
