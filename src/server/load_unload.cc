#include <fstream>

#include "common/strings.h"
#include "server/server.h"

namespace grtdb {

// LOAD/UNLOAD (paper §6.3, type-support task 3): bulk text transfer using
// the opaque types' import/export support functions. The file format is
// Informix's: one row per line, fields separated by '|'.

Status Server::ExecLoad(ServerSession* session, const sql::LoadStmt& stmt,
                        ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "'");
  }
  std::ifstream in(stmt.path);
  if (!in) {
    return Status::IOError("cannot open '" + stmt.path + "' for LOAD");
  }
  // The whole file is one statement: one transaction, one X lock on the
  // table and one open of each index span it.
  auto load_rows = [&](const RowSink& insert) -> Status {
    std::string line;
    uint64_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (StripWhitespace(line).empty()) continue;
      const std::vector<std::string> fields = SplitAndTrim(line, '|');
      if (fields.size() != table->columns().size()) {
        return Status::InvalidArgument(
            stmt.path + ":" + std::to_string(line_number) + ": expected " +
            std::to_string(table->columns().size()) + " fields, got " +
            std::to_string(fields.size()));
      }
      // Coerce each field: opaque columns go through the type's *import*
      // support function; the rest through the usual literal coercion.
      Row row;
      row.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        const TypeDesc& type = table->columns()[i].type;
        if (type.base == TypeDesc::Base::kOpaque) {
          const OpaqueType* opaque = types_.FindOpaque(type.opaque_id);
          if (opaque == nullptr) {
            return Status::Corruption("unregistered opaque type id");
          }
          std::vector<uint8_t> bytes;
          Status status = opaque->import(fields[i], &bytes);
          if (!status.ok()) {
            return Status::InvalidArgument(
                stmt.path + ":" + std::to_string(line_number) + ": " +
                status.message());
          }
          row.push_back(Value::Opaque(type.opaque_id, std::move(bytes)));
          continue;
        }
        sql::Literal literal;
        bool number_ok = true;
        if (EqualsIgnoreCase(fields[i], "NULL")) {
          literal.kind = sql::Literal::Kind::kNull;
        } else if (type.base == TypeDesc::Base::kInteger) {
          literal.kind = sql::Literal::Kind::kInteger;
          number_ok = ParseInt64(fields[i], &literal.integer);
        } else if (type.base == TypeDesc::Base::kFloat) {
          literal.kind = sql::Literal::Kind::kFloat;
          number_ok = ParseDouble(fields[i], &literal.real);
        } else {
          literal.kind = sql::Literal::Kind::kString;
          literal.text = fields[i];
        }
        if (!number_ok) {
          return Status::InvalidArgument(
              stmt.path + ":" + std::to_string(line_number) + ": field '" +
              fields[i] + "' is not a valid " + types_.NameOf(type));
        }
        Value value;
        Status coerce = CoerceLiteral(literal, type, &value);
        if (!coerce.ok()) {
          return Status::InvalidArgument(stmt.path + ":" +
                                         std::to_string(line_number) + ": " +
                                         coerce.message());
        }
        row.push_back(std::move(value));
      }
      GRTDB_RETURN_IF_ERROR(insert(std::move(row)));
    }
    return Status::OK();
  };
  GRTDB_RETURN_IF_ERROR(InsertRows(session, table, load_rows, out));
  out->messages.push_back(std::to_string(out->affected) +
                          " row(s) loaded from " + stmt.path);
  return Status::OK();
}

Status Server::ExecUnload(ServerSession* session, const sql::UnloadStmt& stmt,
                          ResultSet* out) {
  Table* table = catalog_.FindTable(stmt.table);
  std::unique_ptr<Table> system_table;
  if (table == nullptr) {
    const SystemView* view = FindSystemView(stmt.table);
    if (view == nullptr) return Status::NotFound("table '" + stmt.table + "'");
    system_table = BuildSystemTable(*view);
    table = system_table.get();
  }
  std::ofstream file(stmt.path);
  if (!file) {
    return Status::IOError("cannot open '" + stmt.path + "' for UNLOAD");
  }
  MiCallContext ctx{this, session, current_time_};
  uint64_t unloaded = 0;
  auto write_row = [&](RecordId, const Row& row) {
    std::vector<std::string> fields;
    fields.reserve(row.size());
    for (const Value& value : row) {
      if (!value.is_null() && value.base() == TypeDesc::Base::kOpaque) {
        const OpaqueType* opaque = types_.FindOpaque(value.type().opaque_id);
        std::string text;
        if (opaque != nullptr &&
            opaque->do_export(value.opaque(), &text).ok()) {
          fields.push_back(std::move(text));
          continue;
        }
      }
      fields.push_back(value.ToString());
    }
    file << Join(fields, "|") << "\n";
    ++unloaded;
    return Status::OK();
  };
  GRTDB_RETURN_IF_ERROR(TableScan(ctx, *table, stmt.where.get(), write_row));
  out->affected = unloaded;
  out->messages.push_back(std::to_string(unloaded) + " row(s) unloaded to " +
                          stmt.path);
  return Status::OK();
}

}  // namespace grtdb
