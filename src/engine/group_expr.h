// Derived integer grouping keys (paper Section 6.4: the drill-down queries
// group by EXTRACT(YEAR/MONTH FROM date) over yyyymmdd-encoded dates, or by
// small decimal columns scaled to integers, e.g. l_tax ×100).
//
// GroupExpr is the key vocabulary of ConsumingSpec / TraceBuilder::GroupBy
// (query/trace_builder.h) and of the plan-level Derive operator
// (plan/plan.h) that consuming queries compile onto; keys are evaluated
// through BoundGroupExpr.
#ifndef SMOKE_ENGINE_GROUP_EXPR_H_
#define SMOKE_ENGINE_GROUP_EXPR_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "storage/table.h"

namespace smoke {

/// A derived integer grouping key over one column of a relation. The
/// source column is an index, or a name (`col_name`) resolved against the
/// input schema by PlanBuilder::Build and cleared once resolved.
struct GroupExpr {
  enum class Kind : uint8_t { kRaw, kYear, kMonth, kScale100 };
  Kind kind = Kind::kRaw;
  int col = -1;
  std::string name;
  std::string col_name;

  static GroupExpr Raw(int col, std::string name) {
    return GroupExpr{Kind::kRaw, col, std::move(name), {}};
  }
  static GroupExpr Year(int col, std::string name = "year") {
    return GroupExpr{Kind::kYear, col, std::move(name), {}};
  }
  static GroupExpr Month(int col, std::string name = "month") {
    return GroupExpr{Kind::kMonth, col, std::move(name), {}};
  }
  static GroupExpr Scale100(int col, std::string name) {
    return GroupExpr{Kind::kScale100, col, std::move(name), {}};
  }

  // Name-based forms, resolved at plan-build time.
  static GroupExpr Raw(std::string col, std::string name) {
    return GroupExpr{Kind::kRaw, -1, std::move(name), std::move(col)};
  }
  static GroupExpr Year(std::string col, std::string name = "year") {
    return GroupExpr{Kind::kYear, -1, std::move(name), std::move(col)};
  }
  static GroupExpr Month(std::string col, std::string name = "month") {
    return GroupExpr{Kind::kMonth, -1, std::move(name), std::move(col)};
  }
  static GroupExpr Scale100(std::string col, std::string name) {
    return GroupExpr{Kind::kScale100, -1, std::move(name), std::move(col)};
  }
};

/// \brief A GroupExpr bound to a table's column payload. kRaw/kYear/kMonth
/// read int64 columns; kScale100 reads a float64 column.
struct BoundGroupExpr {
  GroupExpr::Kind kind = GroupExpr::Kind::kRaw;
  const int64_t* icol = nullptr;
  const double* dcol = nullptr;

  /// Binds `g` against `table`; returns false when the column index is out
  /// of range or its type does not match the expression kind.
  static bool Bind(const Table& table, const GroupExpr& g,
                   BoundGroupExpr* out) {
    int col = g.col;
    if (!g.col_name.empty()) col = table.ColumnIndex(g.col_name);
    if (col < 0 || static_cast<size_t>(col) >= table.num_columns()) {
      return false;
    }
    const Column& c = table.column(static_cast<size_t>(col));
    out->kind = g.kind;
    out->icol = nullptr;
    out->dcol = nullptr;
    if (g.kind == GroupExpr::Kind::kScale100) {
      if (c.type() != DataType::kFloat64) return false;
      out->dcol = c.doubles().data();
    } else {
      // String keys must be dictionary-encoded to int codes first.
      if (c.type() != DataType::kInt64) return false;
      out->icol = c.ints().data();
    }
    return true;
  }

  int64_t Eval(rid_t r) const {
    switch (kind) {
      case GroupExpr::Kind::kRaw:
        return icol[r];
      case GroupExpr::Kind::kYear:
        return icol[r] / 10000;  // yyyymmdd
      case GroupExpr::Kind::kMonth:
        return (icol[r] / 100) % 100;
      case GroupExpr::Kind::kScale100:
        return static_cast<int64_t>(std::llround(dcol[r] * 100.0));
    }
    return 0;
  }
};

}  // namespace smoke

#endif  // SMOKE_ENGINE_GROUP_EXPR_H_
