// Byte-encoding of composite keys for hash operators (group-by, set ops).
#ifndef SMOKE_ENGINE_KEY_ENCODE_H_
#define SMOKE_ENGINE_KEY_ENCODE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace smoke {

/// Appends one key part: raw 8-byte ints/doubles, length-prefixed strings.
inline void AppendKeyPart(const Column& col, rid_t rid, std::string* key) {
  switch (col.type()) {
    case DataType::kInt64: {
      int64_t v = col.ints()[rid];
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kFloat64: {
      double v = col.doubles()[rid];
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case DataType::kString: {
      const std::string& v = col.strings()[rid];
      uint32_t len = static_cast<uint32_t>(v.size());
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(v);
      break;
    }
  }
}

/// Overwrites `*key` with row `rid`'s values of `cols` as bytes —
/// injective, suitable as a hash-map key — and returns it. Hot loops pass
/// one buffer for every row, so a composite key longer than the
/// short-string buffer costs an allocation once per loop, not once per row.
inline const std::string& EncodeRowKeyInto(const Table& in,
                                           const std::vector<int>& cols,
                                           rid_t rid, std::string* key) {
  key->clear();
  for (int c : cols) AppendKeyPart(in.column(static_cast<size_t>(c)), rid, key);
  return *key;
}

/// Probe-then-insert on a composite-key map: returns the slot of `key`,
/// inserting it with `fresh` (copying the key) only when absent; sets
/// *inserted accordingly.
inline uint32_t FindOrInsertKey(std::unordered_map<std::string, uint32_t>* map,
                                const std::string& key, uint32_t fresh,
                                bool* inserted) {
  auto it = map->find(key);
  *inserted = it == map->end();
  if (!*inserted) return it->second;
  map->emplace(key, fresh);
  return fresh;
}

}  // namespace smoke

#endif  // SMOKE_ENGINE_KEY_ENCODE_H_
