// Lineage index representations (paper Section 3.1).
//
// Three raw physical forms:
//  - RidArray: 1-to-1 relationships (e.g., selection backward/forward,
//    group-by forward). Entry i holds the single rid related to rid i.
//  - RidIndex: 1-to-N relationships (e.g., group-by backward, join forward).
//    Entry i points to an rid array of related rids. Arrays start at
//    capacity 10 and grow 1.5x (RidVec). Sized by the position count.
//  - SparseRidIndex: 1-to-N relationships where few positions are
//    populated (a trace's forward fragment: k traced rids of an N-row
//    relation). Only the populated positions are stored, as sorted keys
//    with CSR offsets into one value array, so it costs O(k), not O(N).
#ifndef SMOKE_LINEAGE_RID_INDEX_H_
#define SMOKE_LINEAGE_RID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rid_vec.h"
#include "common/types.h"
#include "lineage/store/rid_codec.h"

namespace smoke {

/// 1-to-1 lineage: position -> single rid (kInvalidRid = no counterpart,
/// e.g., a selection input tuple that failed the predicate).
using RidArray = std::vector<rid_t>;

/// \brief 1-to-N lineage: position -> rid list.
class RidIndex {
 public:
  RidIndex() = default;
  explicit RidIndex(size_t num_entries) : lists_(num_entries) {}

  size_t size() const { return lists_.size(); }
  void Resize(size_t n) { lists_.resize(n); }

  RidVec& list(size_t i) {
    SMOKE_DCHECK(i < lists_.size());
    return lists_[i];
  }
  const RidVec& list(size_t i) const {
    SMOKE_DCHECK(i < lists_.size());
    return lists_[i];
  }

  void Append(size_t i, rid_t rid) { lists_[i].PushBack(rid); }

  /// Takes ownership of pre-built rid lists (hash-table reuse: Inject moves
  /// the i_rids arrays out of the group/join hash table instead of copying).
  static RidIndex FromLists(std::vector<RidVec> lists) {
    RidIndex idx;
    idx.lists_ = std::move(lists);
    return idx;
  }

  /// Total number of lineage edges stored.
  size_t TotalEdges() const {
    size_t n = 0;
    for (const auto& l : lists_) n += l.size();
    return n;
  }

  size_t MemoryBytes() const {
    size_t b = lists_.capacity() * sizeof(RidVec);
    for (const auto& l : lists_) b += l.MemoryBytes();
    return b;
  }

  /// Total reallocations across all rid arrays (resize-cost ablation).
  uint64_t TotalReallocs() const {
    uint64_t n = 0;
    for (const auto& l : lists_) n += l.realloc_count();
    return n;
  }

 private:
  std::vector<RidVec> lists_;
};

/// \brief Sparse 1-to-N lineage: sorted distinct `keys`, CSR `offsets`
/// (offsets[k]..offsets[k+1] bounds key k's values) and `values`.
/// Positions without a key relate to nothing. `size()` is the full position
/// count, so bounds checks against it behave as for the dense forms.
class SparseRidIndex {
 public:
  SparseRidIndex() = default;
  explicit SparseRidIndex(size_t num_positions) : size_(num_positions) {}

  /// The inverse of `rids` (position i relates to rids[i]) over
  /// `num_positions` positions: key r lists every i with rids[i] == r, in
  /// ascending order. Every rid must be < num_positions. O(k) when `rids`
  /// is ascending, O(k log k) otherwise.
  static SparseRidIndex Invert(const std::vector<rid_t>& rids,
                               size_t num_positions) {
    SparseRidIndex s(num_positions);
    const size_t k = rids.size();
    s.keys_.reserve(k);
    s.values_.reserve(k);
    if (std::is_sorted(rids.begin(), rids.end())) {
      for (size_t i = 0; i < k; ++i) {
        s.PushEdge(rids[i], static_cast<rid_t>(i));
      }
      return s;
    }
    // (rid, position) packed into one word: sorting orders keys, and each
    // key's positions ascending.
    std::vector<uint64_t> edges(k);
    for (size_t i = 0; i < k; ++i) {
      edges[i] = (static_cast<uint64_t>(rids[i]) << 32) | i;
    }
    std::sort(edges.begin(), edges.end());
    for (uint64_t e : edges) {
      s.PushEdge(static_cast<rid_t>(e >> 32), static_cast<rid_t>(e));
    }
    return s;
  }

  size_t size() const { return size_; }
  size_t num_keys() const { return keys_.size(); }
  rid_t key(size_t k) const { return keys_[k]; }
  const rid_t* begin(size_t k) const { return values_.data() + offsets_[k]; }
  const rid_t* end(size_t k) const { return values_.data() + offsets_[k + 1]; }

  /// The slot of position `pos` among the keys, or num_keys() when `pos`
  /// relates to nothing.
  size_t Find(rid_t pos) const {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), pos);
    return it != keys_.end() && *it == pos
               ? static_cast<size_t>(it - keys_.begin())
               : keys_.size();
  }

  /// Appends the list of `pos`, which must exceed every key so far. Empty
  /// lists store nothing.
  void AppendList(rid_t pos, const rid_t* d, size_t n) {
    SMOKE_DCHECK(pos < size_ && (keys_.empty() || pos > keys_.back()));
    for (size_t j = 0; j < n; ++j) PushEdge(pos, d[j]);
  }

  size_t TotalEdges() const { return values_.size(); }

  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(rid_t) +
           offsets_.capacity() * sizeof(uint32_t) +
           values_.capacity() * sizeof(rid_t);
  }

 private:
  /// Adds edge key -> v; keys arrive in non-decreasing order.
  void PushEdge(rid_t key, rid_t v) {
    if (keys_.empty() || keys_.back() != key) {
      if (offsets_.empty()) offsets_.push_back(0);
      keys_.push_back(key);
      offsets_.push_back(offsets_.back());
    }
    values_.push_back(v);
    ++offsets_.back();
  }

  size_t size_ = 0;
  std::vector<rid_t> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<rid_t> values_;
};

/// \brief Tagged union over the physical lineage forms, with a uniform
/// trace interface. Direction and endpoint metadata live in QueryLineage.
///
/// Three raw forms (write-optimized, what capture and traces produce) and
/// two encoded forms (read-optimized, what the compressed lineage store
/// re-encodes retained indexes into at finalize time — lineage/store/; the
/// sparse form is already output-sized and stays raw). Consumers that
/// go through the uniform accessors (TraceInto / ForEachRelated / ValueAt)
/// work over all forms without decompressing whole indexes.
class LineageIndex {
 public:
  enum class Kind : uint8_t {
    kNone,
    kArray,          ///< raw 1:1
    kIndex,          ///< raw 1:N
    kEncodedArray,   ///< compressed 1:1 (lineage/store/rid_codec.h)
    kEncodedIndex,   ///< compressed 1:N posting lists
    kSparseIndex,    ///< raw 1:N over the populated positions only
  };

  LineageIndex() = default;
  static LineageIndex FromArray(RidArray array) {
    LineageIndex idx;
    idx.kind_ = Kind::kArray;
    idx.array_ = std::move(array);
    return idx;
  }
  static LineageIndex FromIndex(RidIndex index) {
    LineageIndex idx;
    idx.kind_ = Kind::kIndex;
    idx.index_ = std::move(index);
    return idx;
  }
  static LineageIndex FromSparseIndex(SparseRidIndex index) {
    LineageIndex idx;
    idx.kind_ = Kind::kSparseIndex;
    idx.sparse_ = std::move(index);
    return idx;
  }
  static LineageIndex FromEncodedArray(EncodedRidArray array) {
    LineageIndex idx;
    idx.kind_ = Kind::kEncodedArray;
    idx.earray_ = std::move(array);
    return idx;
  }
  static LineageIndex FromEncodedPostings(EncodedPostings postings) {
    LineageIndex idx;
    idx.kind_ = Kind::kEncodedIndex;
    idx.epostings_ = std::move(postings);
    return idx;
  }

  Kind kind() const { return kind_; }
  bool empty() const { return kind_ == Kind::kNone; }
  bool encoded() const {
    return kind_ == Kind::kEncodedArray || kind_ == Kind::kEncodedIndex;
  }
  /// True for the 1:1 forms (raw or encoded) — ValueAt is available.
  bool IsOneToOne() const {
    return kind_ == Kind::kArray || kind_ == Kind::kEncodedArray;
  }

  const RidArray& array() const {
    SMOKE_DCHECK(kind_ == Kind::kArray);
    return array_;
  }
  const RidIndex& index() const {
    SMOKE_DCHECK(kind_ == Kind::kIndex);
    return index_;
  }
  const SparseRidIndex& sparse_index() const {
    SMOKE_DCHECK(kind_ == Kind::kSparseIndex);
    return sparse_;
  }
  const EncodedRidArray& encoded_array() const {
    SMOKE_DCHECK(kind_ == Kind::kEncodedArray);
    return earray_;
  }
  const EncodedPostings& encoded_postings() const {
    SMOKE_DCHECK(kind_ == Kind::kEncodedIndex);
    return epostings_;
  }
  RidArray& mutable_array() { return array_; }
  RidIndex& mutable_index() { return index_; }
  EncodedRidArray& mutable_encoded_array() {
    SMOKE_DCHECK(kind_ == Kind::kEncodedArray);
    return earray_;
  }
  EncodedPostings& mutable_encoded_postings() {
    SMOKE_DCHECK(kind_ == Kind::kEncodedIndex);
    return epostings_;
  }

  /// Number of source positions this index is defined over.
  size_t size() const {
    switch (kind_) {
      case Kind::kArray:        return array_.size();
      case Kind::kIndex:        return index_.size();
      case Kind::kEncodedArray: return earray_.size();
      case Kind::kEncodedIndex: return epostings_.num_lists();
      case Kind::kSparseIndex:  return sparse_.size();
      case Kind::kNone:         return 0;
    }
    return 0;
  }

  /// The single rid related to `pos` (1:1 forms only; kInvalidRid = none).
  rid_t ValueAt(rid_t pos) const {
    SMOKE_DCHECK(IsOneToOne());
    return kind_ == Kind::kArray ? array_[pos] : earray_.At(pos);
  }

  /// Calls `f(rid)` for every rid related to source position `pos`, in
  /// stored order. Decode-on-demand for the encoded forms: only the probed
  /// posting list is decoded, never the whole index (in-situ evaluation).
  template <typename F>
  void ForEachRelated(rid_t pos, F&& f) const {
    switch (kind_) {
      case Kind::kArray: {
        rid_t r = array_[pos];
        if (r != kInvalidRid) f(r);
        break;
      }
      case Kind::kIndex: {
        const RidVec& l = index_.list(pos);
        for (rid_t r : l) f(r);
        break;
      }
      case Kind::kEncodedArray: {
        rid_t r = earray_.At(pos);
        if (r != kInvalidRid) f(r);
        break;
      }
      case Kind::kEncodedIndex:
        epostings_.ForEachInList(pos, f);
        break;
      case Kind::kSparseIndex: {
        const size_t k = sparse_.Find(pos);
        if (k == sparse_.num_keys()) break;
        for (const rid_t* r = sparse_.begin(k); r != sparse_.end(k); ++r) f(*r);
        break;
      }
      case Kind::kNone:
        break;
    }
  }

  /// Appends all rids related to source position `pos` into `out`.
  void TraceInto(rid_t pos, std::vector<rid_t>* out) const {
    if (kind_ == Kind::kIndex) {  // bulk append fast path
      const RidVec& l = index_.list(pos);
      out->insert(out->end(), l.begin(), l.end());
      return;
    }
    ForEachRelated(pos, [out](rid_t r) { out->push_back(r); });
  }

  size_t TotalEdges() const {
    switch (kind_) {
      case Kind::kArray: {
        size_t n = 0;
        for (rid_t r : array_) n += (r != kInvalidRid);
        return n;
      }
      case Kind::kIndex:        return index_.TotalEdges();
      case Kind::kEncodedArray: {
        size_t n = 0;
        earray_.ForEach([&n](size_t, rid_t r) { n += (r != kInvalidRid); });
        return n;
      }
      case Kind::kEncodedIndex: return epostings_.TotalEdges();
      case Kind::kSparseIndex:  return sparse_.TotalEdges();
      case Kind::kNone:         return 0;
    }
    return 0;
  }

  size_t MemoryBytes() const {
    switch (kind_) {
      case Kind::kArray:        return array_.capacity() * sizeof(rid_t);
      case Kind::kIndex:        return index_.MemoryBytes();
      case Kind::kEncodedArray: return earray_.MemoryBytes();
      case Kind::kEncodedIndex: return epostings_.MemoryBytes();
      case Kind::kSparseIndex:  return sparse_.MemoryBytes();
      case Kind::kNone:         return 0;
    }
    return 0;
  }

 private:
  Kind kind_ = Kind::kNone;
  RidArray array_;
  RidIndex index_;
  EncodedRidArray earray_;
  EncodedPostings epostings_;
  SparseRidIndex sparse_;
};

}  // namespace smoke

#endif  // SMOKE_LINEAGE_RID_INDEX_H_
