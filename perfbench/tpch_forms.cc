#include "tpch_forms.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace smokebench {

using smoke::AggSpec;
using smoke::CmpOp;
using smoke::GroupBySpec;
using smoke::JoinSpec;
using smoke::LogicalPlan;
using smoke::PlanBuilder;
using smoke::Predicate;
using smoke::rid_t;
using smoke::ScalarExpr;
using smoke::SmokeEngine;
using smoke::SPJAQuery;
using smoke::Status;
using smoke::Table;

namespace {

const char* const kTpchTables[4] = {"lineitem", "orders", "customer",
                                    "nation"};

ScalarExpr Col(const char* name) { return ScalarExpr::Col(std::string(name)); }

ScalarExpr DiscPrice() {
  return ScalarExpr::Mul(Col("l_extendedprice"),
                         ScalarExpr::Sub(ScalarExpr::Const(1.0),
                                         Col("l_discount")));
}

std::vector<AggSpec> Q1Aggs() {
  return {AggSpec::Sum(Col("l_quantity"), "sum_qty"),
          AggSpec::Sum(Col("l_extendedprice"), "sum_base_price"),
          AggSpec::Sum(DiscPrice(), "sum_disc_price"),
          AggSpec::Sum(ScalarExpr::Mul(DiscPrice(),
                                       ScalarExpr::Add(ScalarExpr::Const(1.0),
                                                       Col("l_tax"))),
                       "sum_charge"),
          AggSpec::Avg(Col("l_quantity"), "avg_qty"),
          AggSpec::Avg(Col("l_extendedprice"), "avg_price"),
          AggSpec::Avg(Col("l_discount"), "avg_disc"),
          AggSpec::Count("count_order")};
}

JoinSpec PkJoin(const char* build_key, const char* probe_key) {
  JoinSpec j;
  j.left_key_name = build_key;
  j.right_key_name = probe_key;
  j.pk_build = true;
  return j;
}

struct Tables {
  const Table* t[4] = {nullptr, nullptr, nullptr, nullptr};
  const Table* lineitem() const { return t[0]; }
  const Table* orders() const { return t[1]; }
  const Table* customer() const { return t[2]; }
  const Table* nation() const { return t[3]; }
};

Status Lookup(const SmokeEngine& engine, Tables* out) {
  for (int i = 0; i < 4; ++i) {
    SMOKE_RETURN_NOT_OK(engine.GetTable(kTpchTables[i], &out->t[i]));
  }
  return Status::OK();
}

Status Q1Plan(const Table* lineitem, const std::string& name,
              LogicalPlan* out) {
  PlanBuilder b;
  int sel = b.Select(b.Scan(lineitem, name),
                     {Predicate::Int("l_shipdate", CmpOp::kLe, 19980902)});
  GroupBySpec g;
  g.key_names = {"l_returnflag", "l_linestatus"};
  g.aggs = Q1Aggs();
  return b.Build(b.GroupBy(sel, g), out);
}

Status Q3Plan(const Tables& t, LogicalPlan* out) {
  PlanBuilder b;
  int cust = b.Select(b.Scan(t.customer(), "customer"),
                      {Predicate::Str("c_mktsegment", CmpOp::kEq, "BUILDING")});
  int ord = b.Select(b.Scan(t.orders(), "orders"),
                     {Predicate::Int("o_orderdate", CmpOp::kLt, 19950315)});
  int co = b.HashJoin(cust, ord, PkJoin("c_custkey", "o_custkey"));
  int li = b.Select(b.Scan(t.lineitem(), "lineitem"),
                    {Predicate::Int("l_shipdate", CmpOp::kGt, 19950315)});
  int col = b.HashJoin(co, li, PkJoin("o_orderkey", "l_orderkey"));
  GroupBySpec g;
  g.key_names = {"l_orderkey", "o_orderdate", "o_shippriority"};
  g.aggs = {AggSpec::Sum(DiscPrice(), "revenue")};
  return b.Build(b.GroupBy(col, g), out);
}

Status Q10Plan(const Tables& t, LogicalPlan* out) {
  PlanBuilder b;
  int nat = b.Scan(t.nation(), "nation");
  int cust = b.Scan(t.customer(), "customer");
  int cn = b.HashJoin(nat, cust, PkJoin("n_nationkey", "c_nationkey"));
  int ord = b.Select(b.Scan(t.orders(), "orders"),
                     {Predicate::Int("o_orderdate", CmpOp::kGe, 19931001),
                      Predicate::Int("o_orderdate", CmpOp::kLt, 19940101)});
  int cno = b.HashJoin(cn, ord, PkJoin("c_custkey", "o_custkey"));
  int li = b.Select(b.Scan(t.lineitem(), "lineitem"),
                    {Predicate::Str("l_returnflag", CmpOp::kEq, "R")});
  int all = b.HashJoin(cno, li, PkJoin("o_orderkey", "l_orderkey"));
  GroupBySpec g;
  g.key_names = {"c_custkey", "c_name",  "c_acctbal",
                 "c_phone",   "n_name",  "c_address"};
  g.aggs = {AggSpec::Sum(DiscPrice(), "revenue")};
  return b.Build(b.GroupBy(all, g), out);
}

Status Q12Plan(const Tables& t, LogicalPlan* out) {
  PlanBuilder b;
  int ord = b.Scan(t.orders(), "orders");
  int li = b.Select(
      b.Scan(t.lineitem(), "lineitem"),
      {Predicate::StrIn("l_shipmode", {"MAIL", "SHIP"}),
       Predicate::ColCmp("l_commitdate", CmpOp::kLt, "l_receiptdate"),
       Predicate::ColCmp("l_shipdate", CmpOp::kLt, "l_commitdate"),
       Predicate::Int("l_receiptdate", CmpOp::kGe, 19940101),
       Predicate::Int("l_receiptdate", CmpOp::kLt, 19950101)});
  int ol = b.HashJoin(ord, li, PkJoin("o_orderkey", "l_orderkey"));
  GroupBySpec g;
  g.key_names = {"l_shipmode"};
  g.aggs = {
      AggSpec::Sum(ScalarExpr::Indicator(Predicate::StrIn(
                       "o_orderpriority", {"1-URGENT", "2-HIGH"})),
                   "high_line_count"),
      AggSpec::Sum(ScalarExpr::Indicator(Predicate::StrIn(
                       "o_orderpriority",
                       {"3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"})),
                   "low_line_count")};
  return b.Build(b.GroupBy(ol, g), out);
}

/// Points an SPJA query built over a throwaway Database at the engine's
/// tables (the query's table pointers must be the registered ones).
void Bind(const Tables& t, SPJAQuery* q) {
  q->fact = t.lineitem();
  for (smoke::SPJADim& d : q->dims) {
    for (int i = 0; i < 4; ++i) {
      if (d.name == kTpchTables[i]) d.table = t.t[i];
    }
  }
}

std::string Render(const smoke::Column& c, rid_t r) {
  switch (c.type()) {
    case smoke::DataType::kInt64:
      return std::to_string(c.ints()[r]);
    case smoke::DataType::kFloat64: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", c.doubles()[r]);
      return buf;
    }
    case smoke::DataType::kString:
      return c.strings()[r];
  }
  return "?";
}

template <typename T>
bool Compare(const T& a, CmpOp op, const T& b) {
  switch (op) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kIn: return false;
  }
  return false;
}

/// Evaluates one predicate on row `r` of `t` — the oracle's own evaluator,
/// independent of the engine's compiled predicates.
bool EvalPredicate(const Table& t, const Predicate& p, rid_t r) {
  const smoke::Column& c = t.column(static_cast<size_t>(p.col));
  if (p.rhs_col >= 0) {
    const smoke::Column& rhs = t.column(static_cast<size_t>(p.rhs_col));
    switch (c.type()) {
      case smoke::DataType::kInt64:
        return Compare(c.ints()[r], p.op, rhs.ints()[r]);
      case smoke::DataType::kFloat64:
        return Compare(c.doubles()[r], p.op, rhs.doubles()[r]);
      case smoke::DataType::kString:
        return Compare(c.strings()[r], p.op, rhs.strings()[r]);
    }
    return false;
  }
  switch (c.type()) {
    case smoke::DataType::kInt64: {
      const int64_t v = c.ints()[r];
      if (p.op == CmpOp::kIn) {
        return std::find(p.in_ints.begin(), p.in_ints.end(), v) !=
               p.in_ints.end();
      }
      return Compare(v, p.op, p.ival);
    }
    case smoke::DataType::kFloat64:
      return Compare(c.doubles()[r], p.op, p.dval);
    case smoke::DataType::kString: {
      const std::string& v = c.strings()[r];
      if (p.op == CmpOp::kIn) {
        return std::find(p.in_strs.begin(), p.in_strs.end(), v) !=
               p.in_strs.end();
      }
      return Compare(v, p.op, p.sval);
    }
  }
  return false;
}

}  // namespace

bool NearlyEqual(double a, double b, double rel) {
  if (a == b) return true;
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

Status BuildTpchQueries(const SmokeEngine& engine,
                        std::vector<TpchQuery>* out) {
  Tables t;
  SMOKE_RETURN_NOT_OK(Lookup(engine, &t));
  const smoke::tpch::Database none;
  out->clear();
  out->resize(4);
  (*out)[0].name = "q1";
  (*out)[0].spja = smoke::tpch::MakeQ1(none);
  (*out)[0].num_keys = 2;
  SMOKE_RETURN_NOT_OK(Q1Plan(t.lineitem(), "lineitem", &(*out)[0].plan));
  (*out)[1].name = "q3";
  (*out)[1].spja = smoke::tpch::MakeQ3(none);
  (*out)[1].num_keys = 3;
  SMOKE_RETURN_NOT_OK(Q3Plan(t, &(*out)[1].plan));
  (*out)[2].name = "q10";
  (*out)[2].spja = smoke::tpch::MakeQ10(none);
  (*out)[2].num_keys = 6;
  SMOKE_RETURN_NOT_OK(Q10Plan(t, &(*out)[2].plan));
  (*out)[3].name = "q12";
  (*out)[3].spja = smoke::tpch::MakeQ12(none);
  (*out)[3].num_keys = 1;
  SMOKE_RETURN_NOT_OK(Q12Plan(t, &(*out)[3].plan));
  for (TpchQuery& q : *out) {
    Bind(t, &q.spja);
    PlanBuilder b;
    SMOKE_RETURN_NOT_OK(b.Build(b.SpjaBlock(q.spja), &q.block));
  }
  return Status::OK();
}

Status BuildQ1Plan(const SmokeEngine& engine, const std::string& table,
                   LogicalPlan* out) {
  const Table* t = nullptr;
  SMOKE_RETURN_NOT_OK(engine.GetTable(table, &t));
  return Q1Plan(t, table, out);
}

std::string OutputKey(const Table& t, rid_t row, size_t num_keys) {
  std::string key;
  for (size_t c = 0; c < num_keys; ++c) {
    if (c > 0) key += '\x1f';
    key += Render(t.column(c), row);
  }
  return key;
}

OracleLineage BruteForceLineage(const SPJAQuery& q,
                                const std::set<std::string>& keys) {
  const size_t nd = q.dims.size();
  // pk value -> rid per dimension.
  std::vector<std::unordered_map<int64_t, rid_t>> pk(nd);
  for (size_t d = 0; d < nd; ++d) {
    const auto& col = q.dims[d].table->column(
        static_cast<size_t>(q.dims[d].pk_col)).ints();
    for (size_t r = 0; r < col.size(); ++r) {
      pk[d][col[r]] = static_cast<rid_t>(r);
    }
  }
  std::map<std::string, std::map<std::string, std::set<rid_t>>> sets;
  std::vector<rid_t> dim_rid(nd);
  const Table& fact = *q.fact;
  for (rid_t r = 0; r < fact.num_rows(); ++r) {
    bool pass = true;
    for (const Predicate& p : q.fact_filters) {
      if (!EvalPredicate(fact, p, r)) {
        pass = false;
        break;
      }
    }
    for (size_t d = 0; pass && d < nd; ++d) {
      const smoke::SPJADim& dim = q.dims[d];
      const Table& src = dim.fk.table == smoke::ColRef::kFact
                             ? fact
                             : *q.dims[static_cast<size_t>(dim.fk.table)].table;
      const rid_t src_rid =
          dim.fk.table == smoke::ColRef::kFact
              ? r
              : dim_rid[static_cast<size_t>(dim.fk.table)];
      const int64_t fk =
          src.column(static_cast<size_t>(dim.fk.col)).ints()[src_rid];
      auto it = pk[d].find(fk);
      if (it == pk[d].end()) {
        pass = false;
        break;
      }
      dim_rid[d] = it->second;
      for (const Predicate& p : dim.filters) {
        if (!EvalPredicate(*dim.table, p, dim_rid[d])) {
          pass = false;
          break;
        }
      }
    }
    if (!pass) continue;
    std::string key;
    for (size_t k = 0; k < q.group_by.size(); ++k) {
      const smoke::ColRef& ref = q.group_by[k];
      if (k > 0) key += '\x1f';
      if (ref.table == smoke::ColRef::kFact) {
        key += Render(fact.column(static_cast<size_t>(ref.col)), r);
      } else {
        const size_t d = static_cast<size_t>(ref.table);
        key += Render(q.dims[d].table->column(static_cast<size_t>(ref.col)),
                      dim_rid[d]);
      }
    }
    if (keys.count(key) == 0) continue;
    auto& per_rel = sets[key];
    per_rel[q.fact_name].insert(r);
    for (size_t d = 0; d < nd; ++d) per_rel[q.dims[d].name].insert(dim_rid[d]);
  }
  OracleLineage out;
  for (const std::string& key : keys) {
    auto& per_rel = out[key];
    per_rel[q.fact_name];
    for (const smoke::SPJADim& d : q.dims) per_rel[d.name];
    for (const auto& [rel, s] : sets[key]) {
      per_rel[rel].assign(s.begin(), s.end());
    }
  }
  return out;
}

bool SameRows(const Table& a, const Table& b, size_t num_keys,
              std::string* why) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    *why = "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
    return false;
  }
  std::multimap<std::string, rid_t> by_key;
  for (rid_t r = 0; r < b.num_rows(); ++r) {
    by_key.emplace(OutputKey(b, r, num_keys), r);
  }
  for (rid_t r = 0; r < a.num_rows(); ++r) {
    const std::string key = OutputKey(a, r, num_keys);
    auto range = by_key.equal_range(key);
    bool matched = false;
    for (auto it = range.first; it != range.second; ++it) {
      bool same = true;
      for (size_t c = num_keys; c < a.num_columns() && same; ++c) {
        const smoke::Column& ca = a.column(c);
        const smoke::Column& cb = b.column(c);
        if (ca.type() != cb.type()) {
          same = false;
        } else if (ca.type() == smoke::DataType::kFloat64) {
          same = NearlyEqual(ca.doubles()[r], cb.doubles()[it->second], 1e-9);
        } else {
          same = Render(ca, r) == Render(cb, it->second);
        }
      }
      if (same) {
        by_key.erase(it);
        matched = true;
        break;
      }
    }
    if (!matched) {
      *why = "row " + std::to_string(r) + " has no match";
      return false;
    }
  }
  return true;
}

}  // namespace smokebench
