#include <algorithm>

#include "common/date.h"
#include "common/strings.h"
#include "server/purpose_call.h"
#include "server/server.h"

namespace grtdb {

namespace {

// Collects the top-level AND conjuncts of a WHERE tree.
void FlattenConjuncts(const sql::Expr* expr,
                      std::vector<const sql::Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == sql::Expr::Kind::kAnd) {
    for (const auto& child : expr->children) {
      FlattenConjuncts(child.get(), out);
    }
    return;
  }
  out->push_back(expr);
}

}  // namespace

Status Server::LockTable(ServerSession* session, const std::string& table,
                         LockMode mode) {
  return lock_manager_.Acquire(
      session->txn_session().current_txn()->id(),
      ResourceId{ResourceKind::kTable,
                 std::hash<std::string>{}(ToLower(table))},
      mode);
}

Status Server::CoerceLiteral(const sql::Literal& literal,
                             const TypeDesc& type, Value* out) const {
  if (literal.kind == sql::Literal::Kind::kParam) {
    // Callers resolve parameters (ResolveParam) before coercing; a kParam
    // arriving here means a '?' outside a prepared execution.
    return Status::InvalidArgument(
        "'?' parameters are only valid in a prepared statement executed "
        "with EXECUTE");
  }
  switch (type.base) {
    case TypeDesc::Base::kInteger:
      if (literal.kind == sql::Literal::Kind::kInteger) {
        *out = Value::Integer(literal.integer);
        return Status::OK();
      }
      break;
    case TypeDesc::Base::kFloat:
      if (literal.kind == sql::Literal::Kind::kFloat) {
        *out = Value::Float(literal.real);
        return Status::OK();
      }
      if (literal.kind == sql::Literal::Kind::kInteger) {
        *out = Value::Float(static_cast<double>(literal.integer));
        return Status::OK();
      }
      break;
    case TypeDesc::Base::kText:
      if (literal.kind == sql::Literal::Kind::kString) {
        *out = Value::Text(literal.text);
        return Status::OK();
      }
      break;
    case TypeDesc::Base::kDate:
      if (literal.kind == sql::Literal::Kind::kString) {
        int64_t day = 0;
        GRTDB_RETURN_IF_ERROR(ParseDate(literal.text, &day));
        *out = Value::Date(day);
        return Status::OK();
      }
      if (literal.kind == sql::Literal::Kind::kInteger) {
        *out = Value::Date(literal.integer);
        return Status::OK();
      }
      break;
    case TypeDesc::Base::kBoolean:
      if (literal.kind == sql::Literal::Kind::kString) {
        if (EqualsIgnoreCase(literal.text, "t") ||
            EqualsIgnoreCase(literal.text, "true")) {
          *out = Value::Boolean(true);
          return Status::OK();
        }
        if (EqualsIgnoreCase(literal.text, "f") ||
            EqualsIgnoreCase(literal.text, "false")) {
          *out = Value::Boolean(false);
          return Status::OK();
        }
      }
      break;
    case TypeDesc::Base::kPointer:
      break;
    case TypeDesc::Base::kOpaque: {
      // Opaque values enter SQL as quoted text; the type's input support
      // function parses them (paper §6.3).
      if (literal.kind == sql::Literal::Kind::kString) {
        const OpaqueType* opaque = types_.FindOpaque(type.opaque_id);
        if (opaque == nullptr) {
          return Status::Corruption("unregistered opaque type id");
        }
        std::vector<uint8_t> bytes;
        GRTDB_RETURN_IF_ERROR(opaque->input(literal.text, &bytes));
        *out = Value::Opaque(type.opaque_id, std::move(bytes));
        return Status::OK();
      }
      break;
    }
  }
  if (literal.kind == sql::Literal::Kind::kNull) {
    *out = Value::Null();
    return Status::OK();
  }
  return Status::InvalidArgument("cannot coerce literal to " +
                                 types_.NameOf(type));
}

Status Server::ResolveParam(const ServerSession* session,
                            const sql::Literal& literal,
                            const sql::Literal** out) const {
  if (literal.kind != sql::Literal::Kind::kParam) {
    *out = &literal;
    return Status::OK();
  }
  const std::vector<sql::Literal>* params =
      session == nullptr ? nullptr : session->bound_params();
  if (params == nullptr || literal.param_index >= params->size()) {
    return Status::InvalidArgument(
        "parameter ?" + std::to_string(literal.param_index + 1) +
        " is not bound; '?' placeholders only execute through EXECUTE");
  }
  *out = &(*params)[literal.param_index];
  return Status::OK();
}

Status Server::EvaluateExpr(MiCallContext& ctx, const sql::Expr& expr,
                            const Table& table, const Row& row, Value* out) {
  switch (expr.kind) {
    case sql::Expr::Kind::kLiteral: {
      // A '?' in a residual conjunct (or any expression an index did not
      // absorb) resolves against the executing session's bindings.
      const sql::Literal* literal = &expr.literal;
      GRTDB_RETURN_IF_ERROR(ResolveParam(ctx.session, *literal, &literal));
      switch (literal->kind) {
        case sql::Literal::Kind::kNull:
          *out = Value::Null();
          return Status::OK();
        case sql::Literal::Kind::kInteger:
          *out = Value::Integer(literal->integer);
          return Status::OK();
        case sql::Literal::Kind::kFloat:
          *out = Value::Float(literal->real);
          return Status::OK();
        case sql::Literal::Kind::kString:
          *out = Value::Text(literal->text);
          return Status::OK();
        case sql::Literal::Kind::kParam:
          break;  // a binding is never itself a parameter
      }
      return Status::Internal("bad literal");
    }
    case sql::Expr::Kind::kColumn: {
      const int index = table.ColumnIndex(expr.column);
      if (index < 0) {
        return Status::NotFound("column '" + expr.column + "'");
      }
      *out = row[static_cast<size_t>(index)];
      return Status::OK();
    }
    case sql::Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& child : expr.children) {
        Value value;
        GRTDB_RETURN_IF_ERROR(EvaluateExpr(ctx, *child, table, row, &value));
        args.push_back(std::move(value));
      }
      // Coerce text literals toward the type of a non-text sibling (dates
      // and opaque values are written as strings in SQL).
      TypeDesc target;
      bool has_target = false;
      for (const Value& value : args) {
        if (!value.is_null() && value.base() != TypeDesc::Base::kText) {
          target = value.type();
          has_target = true;
          break;
        }
      }
      if (has_target) {
        for (Value& value : args) {
          if (!value.is_null() && value.base() == TypeDesc::Base::kText &&
              !(target == value.type())) {
            sql::Literal literal;
            literal.kind = sql::Literal::Kind::kString;
            literal.text = value.text();
            Value coerced;
            if (CoerceLiteral(literal, target, &coerced).ok()) {
              value = std::move(coerced);
            }
          }
        }
      }
      std::vector<TypeDesc> arg_types;
      arg_types.reserve(args.size());
      for (const Value& value : args) arg_types.push_back(value.type());
      const UdrDef* udr = udrs_.Find(expr.func, arg_types);
      if (udr == nullptr || !udr->fn) {
        return Status::NotFound("no function '" + expr.func +
                                "' matching the argument types");
      }
      StatusOr<Value> result = udr->fn(ctx, args);
      if (!result.ok()) return result.status();
      *out = std::move(result).value();
      return Status::OK();
    }
    case sql::Expr::Kind::kNot: {
      Value value;
      GRTDB_RETURN_IF_ERROR(
          EvaluateExpr(ctx, *expr.children[0], table, row, &value));
      if (value.base() != TypeDesc::Base::kBoolean) {
        return Status::InvalidArgument("NOT requires a boolean");
      }
      *out = Value::Boolean(!value.boolean());
      return Status::OK();
    }
    case sql::Expr::Kind::kAnd:
    case sql::Expr::Kind::kOr: {
      const bool is_and = expr.kind == sql::Expr::Kind::kAnd;
      for (const auto& child : expr.children) {
        Value value;
        GRTDB_RETURN_IF_ERROR(
            EvaluateExpr(ctx, *child, table, row, &value));
        if (value.base() != TypeDesc::Base::kBoolean) {
          return Status::InvalidArgument("AND/OR requires booleans");
        }
        if (is_and && !value.boolean()) {
          *out = Value::Boolean(false);
          return Status::OK();
        }
        if (!is_and && value.boolean()) {
          *out = Value::Boolean(true);
          return Status::OK();
        }
      }
      *out = Value::Boolean(is_and);
      return Status::OK();
    }
    case sql::Expr::Kind::kCompare: {
      Value left;
      Value right;
      GRTDB_RETURN_IF_ERROR(
          EvaluateExpr(ctx, *expr.children[0], table, row, &left));
      GRTDB_RETURN_IF_ERROR(
          EvaluateExpr(ctx, *expr.children[1], table, row, &right));
      // Text vs typed-value coercion (dates written as strings).
      auto coerce_side = [&](Value& text_side, const Value& typed_side) {
        if (!text_side.is_null() && !typed_side.is_null() &&
            text_side.base() == TypeDesc::Base::kText &&
            typed_side.base() != TypeDesc::Base::kText) {
          sql::Literal literal;
          literal.kind = sql::Literal::Kind::kString;
          literal.text = text_side.text();
          Value coerced;
          if (CoerceLiteral(literal, typed_side.type(), &coerced).ok()) {
            text_side = std::move(coerced);
          }
        }
      };
      coerce_side(left, right);
      coerce_side(right, left);
      if (left.is_null() || right.is_null()) {
        *out = Value::Boolean(false);
        return Status::OK();
      }
      if (expr.cmp == sql::Expr::CmpOp::kEq ||
          expr.cmp == sql::Expr::CmpOp::kNe) {
        // Equality falls back to deep equality for non-orderable types.
        int cmp = 0;
        bool equal;
        if (left.Compare(right, &cmp).ok()) {
          equal = cmp == 0;
        } else {
          equal = left.Equals(right);
        }
        *out = Value::Boolean(expr.cmp == sql::Expr::CmpOp::kEq ? equal
                                                                : !equal);
        return Status::OK();
      }
      int cmp = 0;
      GRTDB_RETURN_IF_ERROR(left.Compare(right, &cmp));
      bool result = false;
      switch (expr.cmp) {
        case sql::Expr::CmpOp::kLt:
          result = cmp < 0;
          break;
        case sql::Expr::CmpOp::kLe:
          result = cmp <= 0;
          break;
        case sql::Expr::CmpOp::kGt:
          result = cmp > 0;
          break;
        case sql::Expr::CmpOp::kGe:
          result = cmp >= 0;
          break;
        default:
          break;
      }
      *out = Value::Boolean(result);
      return Status::OK();
    }
  }
  return Status::Internal("bad expression");
}

Status Server::RowMatches(MiCallContext& ctx, const sql::Expr* expr,
                          const Table& table, const Row& row, bool* matches) {
  *matches = true;
  if (expr == nullptr) return Status::OK();
  Value value;
  GRTDB_RETURN_IF_ERROR(EvaluateExpr(ctx, *expr, table, row, &value));
  *matches = value.base() == TypeDesc::Base::kBoolean && value.boolean();
  return Status::OK();
}

Status Server::ComputePlanMemo(StatementRun* run, Table* table,
                               const sql::Expr* where, PlanMemo* memo) {
  ServerSession* session = run->ctx.session;
  memo->use_index = false;
  memo->index = nullptr;
  memo->terms.clear();
  memo->residual.clear();
  memo->index_cost = 0.0;
  memo->seq_cost = static_cast<double>(table->row_count());
  if (where == nullptr) return Status::OK();

  std::vector<const sql::Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);

  double best_cost = 0.0;
  for (IndexDef* index : catalog_.IndexesOnTable(table->name())) {
    const OpClassDef* opclass = catalog_.FindOpClass(index->opclasses[0]);
    if (opclass == nullptr) continue;
    const std::string& key_column = index->columns[0];
    const TypeDesc& key_type = index->key_types[0];

    auto is_strategy = [&](const std::string& name) {
      for (const std::string& strategy : opclass->strategies) {
        if (EqualsIgnoreCase(strategy, name)) return true;
      }
      return false;
    };

    MiAmQualDesc qual;
    std::vector<MiAmQualDesc> terms;
    std::vector<PlanTermMemo> term_memos;
    std::vector<const sql::Expr*> residual;
    for (const sql::Expr* conjunct : conjuncts) {
      bool matched = false;
      // NOT f(...) qualifies when f declares a NEGATOR that is itself a
      // strategy function (§5.2: that and COMMUTATOR are the only
      // associations Informix lets a function declare).
      const sql::Expr* call = conjunct;
      bool negated = false;
      if (call->kind == sql::Expr::Kind::kNot &&
          call->children.size() == 1 &&
          call->children[0]->kind == sql::Expr::Kind::kCall) {
        call = call->children[0].get();
        negated = true;
      }
      if (call->kind == sql::Expr::Kind::kCall) {
        // Qualification shapes (§5.1): f(col, const), f(const, col), f(col).
        QualTerm term;
        const sql::Expr* literal_expr = nullptr;
        bool shape_ok = false;
        if (call->children.size() == 2) {
          const sql::Expr* first = call->children[0].get();
          const sql::Expr* second = call->children[1].get();
          const sql::Expr* column_expr = nullptr;
          if (first->kind == sql::Expr::Kind::kColumn &&
              second->kind == sql::Expr::Kind::kLiteral) {
            column_expr = first;
            literal_expr = second;
            term.column_first = true;
          } else if (first->kind == sql::Expr::Kind::kLiteral &&
                     second->kind == sql::Expr::Kind::kColumn) {
            column_expr = second;
            literal_expr = first;
            term.column_first = false;
          }
          if (column_expr != nullptr &&
              EqualsIgnoreCase(column_expr->column, key_column)) {
            // A '?' constant resolves against the session's bindings here;
            // an unbound or uncoercible one sends the conjunct to the
            // residual, same as any other non-indexable constant.
            const sql::Literal* literal = nullptr;
            Value constant;
            if (ResolveParam(session, literal_expr->literal, &literal).ok() &&
                CoerceLiteral(*literal, key_type, &constant).ok()) {
              term.constant = std::move(constant);
              shape_ok = true;
            }
          }
        } else if (call->children.size() == 1 &&
                   call->children[0]->kind == sql::Expr::Kind::kColumn &&
                   EqualsIgnoreCase(call->children[0]->column, key_column)) {
          term.unary = true;
          shape_ok = true;
        }
        if (shape_ok) {
          const TypeDesc pair_types[2] = {key_type, key_type};
          const TypeDesc single_type[1] = {key_type};
          auto find_udr = [&](const std::string& name) {
            return term.unary
                       ? udrs_.Find(name,
                                    std::span<const TypeDesc>(single_type, 1))
                       : udrs_.Find(name,
                                    std::span<const TypeDesc>(pair_types, 2));
          };
          const UdrDef* udr = find_udr(call->func);
          const UdrDef* effective = nullptr;
          bool column_first = term.column_first;
          if (udr != nullptr) {
            if (negated) {
              if (!udr->negator.empty() && is_strategy(udr->negator)) {
                effective = find_udr(udr->negator);
              }
            } else if (is_strategy(udr->name)) {
              effective = udr;
            } else if (!term.unary && !term.column_first &&
                       !udr->commutator.empty() &&
                       is_strategy(udr->commutator)) {
              // f(const, col) with a commutator that is a strategy:
              // rewrite to commutator(col, const).
              effective = find_udr(udr->commutator);
              column_first = true;
            }
          }
          if (effective != nullptr) {
            term.func = effective;
            term.column_first = column_first;
            PlanTermMemo term_memo;
            term_memo.func = effective;
            term_memo.literal_expr = term.unary ? nullptr : literal_expr;
            term_memo.column_first = column_first;
            term_memo.unary = term.unary;
            term_memos.push_back(term_memo);
            MiAmQualDesc term_desc;
            term_desc.op = MiAmQualDesc::Op::kTerm;
            term_desc.term = std::move(term);
            terms.push_back(std::move(term_desc));
            matched = true;
          }
        }
      }
      if (!matched) residual.push_back(conjunct);
    }
    if (terms.empty()) continue;
    if (terms.size() == 1) {
      qual = std::move(terms[0]);
    } else {
      qual.op = MiAmQualDesc::Op::kAnd;
      qual.children = std::move(terms);
    }

    // Cost the candidate with am_scancost when the AM provides it, on the
    // statement's open of the index (which a scan of it then uses).
    double cost = memo->seq_cost * 0.5;
    AccessMethodDef* am = catalog_.FindAccessMethod(index->access_method);
    if (am != nullptr && am->hooks.am_scancost) {
      OpenIndex* open = nullptr;
      GRTDB_RETURN_IF_ERROR(OpenIndexDesc(run, index, &open));
      {
        PurposeCallScope call(this, session, am, obs::PurposeFn::kAmScanCost);
        GRTDB_RETURN_IF_ERROR(
            am->hooks.am_scancost(run->ctx, &open->desc, &qual, &cost));
      }
      // A scan never reads more nodes than the tree holds: the count the
      // last UPDATE STATISTICS measured caps every estimate.
      IndexStatsReport measured;
      if (GetIndexStats(index->name, &measured)) {
        cost = std::min(cost, static_cast<double>(measured.nodes));
      }
    }
    if (!memo->use_index || cost < best_cost) {
      memo->use_index = true;
      memo->index = index;
      memo->terms = std::move(term_memos);
      memo->residual = std::move(residual);
      memo->index_cost = cost;
      best_cost = cost;
    }
  }
  if (memo->use_index && memo->index_cost >= memo->seq_cost &&
      memo->seq_cost > 0) {
    // The optimizer prefers the sequential scan when it is cheaper.
    memo->use_index = false;
  }
  if (!memo->use_index) {
    memo->index = nullptr;
    memo->terms.clear();
    memo->residual.clear();
  }
  return Status::OK();
}

Status Server::BindPlanMemo(ServerSession* session, const PlanMemo& memo,
                            Plan* plan) {
  plan->use_index = memo.use_index;
  plan->index = memo.index;
  plan->qual = MiAmQualDesc{};
  plan->residual = memo.residual;
  plan->index_cost = memo.index_cost;
  plan->seq_cost = memo.seq_cost;
  if (!memo.use_index) return Status::OK();
  // Rebuild the qualification descriptor from the memoized strategy
  // bindings, re-coercing each constant: this is where a '?' parameter
  // picks up this execution's value without re-running the planner.
  const TypeDesc& key_type = memo.index->key_types[0];
  std::vector<MiAmQualDesc> terms;
  terms.reserve(memo.terms.size());
  for (const PlanTermMemo& term_memo : memo.terms) {
    QualTerm term;
    term.func = term_memo.func;
    term.column_first = term_memo.column_first;
    term.unary = term_memo.unary;
    if (!term_memo.unary) {
      const sql::Literal* literal = nullptr;
      GRTDB_RETURN_IF_ERROR(
          ResolveParam(session, term_memo.literal_expr->literal, &literal));
      GRTDB_RETURN_IF_ERROR(CoerceLiteral(*literal, key_type, &term.constant));
    }
    MiAmQualDesc term_desc;
    term_desc.op = MiAmQualDesc::Op::kTerm;
    term_desc.term = std::move(term);
    terms.push_back(std::move(term_desc));
  }
  if (terms.size() == 1) {
    plan->qual = std::move(terms[0]);
  } else {
    plan->qual.op = MiAmQualDesc::Op::kAnd;
    plan->qual.children = std::move(terms);
  }
  return Status::OK();
}

Status Server::PlanQuery(StatementRun* run, Table* table,
                         const sql::Expr* where, Plan* plan) {
  // a = 1 when a cached memo was reused, 0 when this call planned afresh.
  obs::SpanScope plan_span(obs::SpanName::kPlan);
  ServerSession* session = run->ctx.session;
  CachedPlan* cached = session->active_plan();
  if (cached != nullptr) {
    PlanMemo memo;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(cached->memo_mu);
      if (cached->planned) {
        memo = cached->memo;
        have = true;
      }
    }
    if (!have) {
      // Compute WITHOUT holding memo_mu: planning calls am_scancost, which
      // opens the index and may take locks — nothing to hold a mutex
      // across. Racing first executions compute independently; the first
      // store wins and the computation is deterministic for the catalog
      // the shared statement gate holds still.
      GRTDB_RETURN_IF_ERROR(ComputePlanMemo(run, table, where, &memo));
      std::lock_guard<std::mutex> lock(cached->memo_mu);
      if (!cached->planned) {
        cached->memo = memo;
        cached->planned = true;
      } else {
        memo = cached->memo;
      }
    }
    plan_span.set_operands(have ? 1 : 0, 0);
    if (BindPlanMemo(session, memo, plan).ok()) return Status::OK();
    // This execution's parameter would not coerce to the memoized key
    // type; fall through to a fresh plan (not stored), which routes the
    // conjunct to the residual exactly like the text path would.
  }
  PlanMemo memo;
  GRTDB_RETURN_IF_ERROR(ComputePlanMemo(run, table, where, &memo));
  return BindPlanMemo(session, memo, plan);
}

Status Server::ExecInsert(ServerSession* session, const sql::InsertStmt& stmt,
                          ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  if (table == nullptr) return NoWritableTable(stmt.table);
  if (stmt.values.size() != table->columns().size()) {
    return Status::InvalidArgument("INSERT arity mismatch");
  }
  Row row;
  row.reserve(stmt.values.size());
  for (size_t i = 0; i < stmt.values.size(); ++i) {
    const sql::Literal* literal = nullptr;
    GRTDB_RETURN_IF_ERROR(ResolveParam(session, stmt.values[i], &literal));
    Value value;
    GRTDB_RETURN_IF_ERROR(
        CoerceLiteral(*literal, table->columns()[i].type, &value));
    row.push_back(std::move(value));
  }
  return InsertRows(
      session, table,
      [&](const RowSink& insert) { return insert(std::move(row)); }, out);
}

Status Server::InsertRows(
    ServerSession* session, Table* table,
    const std::function<Status(const RowSink&)>& produce, ResultSet* out) {
  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  Status status = LockTable(session, table->name(), LockMode::kExclusive);
  if (status.ok()) status = OpenTableIndexes(&run, table->name());
  uint64_t inserted = 0;
  const RowSink insert = [&](Row row) -> Status {
    RecordId id;
    GRTDB_RETURN_IF_ERROR(table->Insert(std::move(row), &id));
    const Row* stored = nullptr;
    GRTDB_RETURN_IF_ERROR(table->Get(id, &stored));
    for (const std::unique_ptr<OpenIndex>& open : run.opens) {
      if (!open->am->hooks.am_insert) continue;
      Row key_row = KeyRowFor(open->desc, *stored);
      PurposeCallScope call(this, session, open->am,
                            obs::PurposeFn::kAmInsert);
      GRTDB_RETURN_IF_ERROR(open->am->hooks.am_insert(run.ctx, &open->desc,
                                                      key_row, id.Pack()));
    }
    ++inserted;
    return Status::OK();
  };
  if (status.ok()) status = produce(insert);
  if (status.ok()) out->affected = inserted;
  return EndRun(&run, status);
}

Status Server::IndexScan(MiCallContext& ctx, OpenIndex* open,
                         const Table& table, const Plan& plan,
                         const RowVisitor& visit) {
  const PurposeFunctions& hooks = open->am->hooks;
  MiAmScanDesc scan;
  scan.table_desc = &open->desc;
  scan.qual = &plan.qual;
  Status status;
  if (hooks.am_beginscan) {
    PurposeCallScope call(this, ctx.session, open->am,
                          obs::PurposeFn::kAmBeginScan);
    status = hooks.am_beginscan(ctx, &scan);
  }
  while (status.ok()) {
    bool has = false;
    uint64_t retrowid = 0;
    {
      PurposeCallScope call(this, ctx.session, open->am,
                            obs::PurposeFn::kAmGetNext);
      status = hooks.am_getnext(ctx, &scan, &has, &retrowid);
    }
    if (!status.ok() || !has) break;
    const RecordId id = RecordId::Unpack(retrowid);
    const Row* row = nullptr;
    status = table.Get(id, &row);
    if (!status.ok()) break;
    ++ctx.session->profile().rows_scanned;
    bool matches = true;
    for (const sql::Expr* residual : plan.residual) {
      status = RowMatches(ctx, residual, table, *row, &matches);
      if (!status.ok() || !matches) break;
    }
    if (status.ok() && matches) status = visit(id, *row);
  }
  if (hooks.am_endscan) {
    PurposeCallScope call(this, ctx.session, open->am,
                          obs::PurposeFn::kAmEndScan);
    Status end = hooks.am_endscan(ctx, &scan);
    if (status.ok()) status = end;
  }
  return status;
}

Status Server::TableScan(MiCallContext& ctx, const Table& table,
                         const sql::Expr* where, const RowVisitor& visit) {
  // The callback parks an evaluation or visitor error in `status` and stops
  // the scan; Scan's own (traversal) error must not overwrite it.
  Status status;
  Status scan = table.Scan([&](RecordId id, const Row& row) {
    ++ctx.session->profile().rows_scanned;
    bool matches = true;
    status = RowMatches(ctx, where, table, row, &matches);
    if (status.ok() && matches) status = visit(id, row);
    return status.ok();
  });
  return status.ok() ? scan : status;
}

Status Server::ExecSelect(ServerSession* session, const sql::SelectStmt& stmt,
                          ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  std::unique_ptr<Table> system_table;
  if (table == nullptr) {
    const SystemView* view = FindSystemView(stmt.table);
    if (view != nullptr) {
      // System views materialize on demand and are read-only.
      system_table = BuildSystemTable(*view);
      table = system_table.get();
    } else if (EqualsIgnoreCase(stmt.table.substr(0, 3), "sys")) {
      // A sys-prefixed name no view answers to is almost certainly a
      // typo'd system view; list what exists instead of the generic
      // no-such-table error.
      std::vector<std::string> names;
      for (const SystemView& known : SystemViews()) names.push_back(known.name);
      return Status::NotFound("no system view '" + stmt.table +
                              "'; available system views: " +
                              Join(names, ", "));
    } else {
      return Status::NotFound("table '" + stmt.table + "'");
    }
  }
  // Resolve the projection.
  std::vector<int> projection;
  if (stmt.star) {
    for (size_t i = 0; i < table->columns().size(); ++i) {
      projection.push_back(static_cast<int>(i));
      out->columns.push_back(table->columns()[i].name);
    }
  } else if (!stmt.count_star) {
    for (const std::string& column : stmt.columns) {
      const int index = table->ColumnIndex(column);
      if (index < 0) {
        return Status::NotFound("column '" + column + "'");
      }
      projection.push_back(index);
      out->columns.push_back(table->columns()[static_cast<size_t>(index)].name);
    }
  } else {
    out->columns.push_back("count");
  }

  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  Status status = LockTable(session, stmt.table, LockMode::kShared);
  uint64_t count = 0;
  const RowVisitor emit = [&](RecordId, const Row& row) -> Status {
    ++count;
    ++session->profile().rows_returned;
    if (stmt.count_star) return Status::OK();
    for (int column : projection) {
      out->rows.AddCell(RenderValue(row[static_cast<size_t>(column)]));
    }
    out->rows.EndRow();
    return Status::OK();
  };

  Plan plan;
  if (status.ok()) status = PlanQuery(&run, table, stmt.where.get(), &plan);
  if (status.ok() && session->explain()) {
    if (plan.use_index) {
      out->messages.push_back(
          "PLAN: index scan on " + plan.index->name + " using " +
          plan.index->access_method + ", qual: " +
          plan.qual.ToString(plan.index->columns[0],
                             [this](const Value& v) {
                               return RenderValue(v);
                             }) +
          ", cost " + std::to_string(plan.index_cost) + " (seq " +
          std::to_string(plan.seq_cost) + ")");
    } else {
      out->messages.push_back("PLAN: sequential scan");
    }
  }

  if (status.ok() && plan.use_index) {
    // Fig. 6(b) on the statement's open, which the planner's am_scancost
    // probe made unless the plan was cached: am_beginscan -> am_getnext*
    // -> am_endscan, and am_close when the run ends.
    OpenIndex* open = nullptr;
    status = OpenIndexDesc(&run, plan.index, &open);
    if (status.ok()) status = IndexScan(run.ctx, open, *table, plan, emit);
  } else if (status.ok()) {
    status = TableScan(run.ctx, *table, stmt.where.get(), emit);
  }

  if (status.ok() && stmt.count_star) {
    out->rows.AddCell(std::to_string(count));
    out->rows.EndRow();
  }
  if (status.ok()) out->affected = count;
  return EndRun(&run, status);
}

Status Server::ExecDelete(ServerSession* session, const sql::DeleteStmt& stmt,
                          ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  if (table == nullptr) return NoWritableTable(stmt.table);
  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  Status status = LockTable(session, stmt.table, LockMode::kExclusive);
  // Every index on the table, opened once for the statement: the planner's
  // probe and the scan use these opens too.
  if (status.ok()) status = OpenTableIndexes(&run, stmt.table);
  const std::vector<std::unique_ptr<OpenIndex>>& opens = run.opens;

  // An index scan visits the stored row, which Table::Delete frees: take
  // every index's key row before deleting.
  std::vector<Row> key_rows(opens.size());
  auto delete_row = [&](RecordId id, const Row& row) -> Status {
    for (size_t i = 0; i < opens.size(); ++i) {
      key_rows[i] = KeyRowFor(opens[i]->desc, row);
    }
    GRTDB_RETURN_IF_ERROR(table->Delete(id));
    for (size_t i = 0; i < opens.size(); ++i) {
      OpenIndex& open = *opens[i];
      if (!open.am->hooks.am_delete) continue;
      PurposeCallScope call(this, session, open.am,
                            obs::PurposeFn::kAmDelete);
      GRTDB_RETURN_IF_ERROR(open.am->hooks.am_delete(run.ctx, &open.desc,
                                                     key_rows[i], id.Pack()));
    }
    ++out->affected;
    return Status::OK();
  };

  Plan plan;
  if (status.ok()) status = PlanQuery(&run, table, stmt.where.get(), &plan);
  if (status.ok() && session->explain()) {
    out->messages.push_back(plan.use_index
                                ? "PLAN: index scan on " + plan.index->name
                                : "PLAN: sequential scan");
  }

  if (status.ok() && plan.use_index) {
    // §5.5: retrieve qualifying entries with am_getnext, delete one by one.
    OpenIndex* scan_open = nullptr;
    status = OpenIndexDesc(&run, plan.index, &scan_open);
    if (status.ok()) {
      status = IndexScan(run.ctx, scan_open, *table, plan, delete_row);
    }
  } else if (status.ok()) {
    // Sequential scan: collect matches first, then delete.
    std::vector<std::pair<RecordId, Row>> matches;
    status = TableScan(run.ctx, *table, stmt.where.get(),
                       [&](RecordId id, const Row& row) {
                         matches.emplace_back(id, row);
                         return Status::OK();
                       });
    for (size_t i = 0; status.ok() && i < matches.size(); ++i) {
      status = delete_row(matches[i].first, matches[i].second);
    }
  }
  return EndRun(&run, status);
}

Status Server::ExecUpdate(ServerSession* session, const sql::UpdateStmt& stmt,
                          ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  if (table == nullptr) return NoWritableTable(stmt.table);
  // Resolve the assignments.
  std::vector<std::pair<int, Value>> assignments;
  for (const auto& [column, literal] : stmt.assignments) {
    const int index = table->ColumnIndex(column);
    if (index < 0) {
      return Status::NotFound("column '" + column + "'");
    }
    const sql::Literal* resolved = nullptr;
    GRTDB_RETURN_IF_ERROR(ResolveParam(session, literal, &resolved));
    Value value;
    GRTDB_RETURN_IF_ERROR(CoerceLiteral(
        *resolved, table->columns()[static_cast<size_t>(index)].type,
        &value));
    assignments.emplace_back(index, std::move(value));
  }

  StatementRun run;
  GRTDB_RETURN_IF_ERROR(BeginRun(session, &run));
  Status status = LockTable(session, stmt.table, LockMode::kExclusive);

  // Collect matching rows with a sequential scan (updates via index scans
  // would self-invalidate when the new key re-qualifies; Informix also
  // collects first for "Halloween" protection).
  std::vector<std::pair<RecordId, Row>> matches;
  if (status.ok()) {
    status = TableScan(run.ctx, *table, stmt.where.get(),
                       [&](RecordId id, const Row& row) {
                         matches.emplace_back(id, row);
                         return Status::OK();
                       });
  }
  if (status.ok()) status = OpenTableIndexes(&run, stmt.table);

  if (status.ok()) {
    for (auto& [id, old_row] : matches) {
      Row new_row = old_row;
      for (auto& [column, value] : assignments) {
        new_row[static_cast<size_t>(column)] = value;
      }
      status = table->Update(id, new_row);
      if (!status.ok()) break;
      for (auto& open : run.opens) {
        Row old_key = KeyRowFor(open->desc, old_row);
        Row new_key = KeyRowFor(open->desc, new_row);
        bool key_changed = old_key.size() != new_key.size();
        for (size_t i = 0; !key_changed && i < old_key.size(); ++i) {
          if (!old_key[i].Equals(new_key[i])) key_changed = true;
        }
        if (!key_changed || !open->am->hooks.am_update) continue;
        {
          PurposeCallScope call(this, session, open->am,
                                obs::PurposeFn::kAmUpdate);
          status = open->am->hooks.am_update(run.ctx, &open->desc, old_key,
                                             id.Pack(), new_key, id.Pack());
        }
        if (!status.ok()) break;
      }
      if (!status.ok()) break;
      ++out->affected;
    }
  }
  return EndRun(&run, status);
}

}  // namespace grtdb
