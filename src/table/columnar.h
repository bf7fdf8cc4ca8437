// dqcol v1: write-once binary columnar table files (docs/FORMATS.md).
//
// The one binary codec for tables: an interchange format, and the format
// of the segment store's spill files (table/segment_store.h). A dqcol file
// carries its full schema (attribute names, types and domains) and an
// endianness tag, so it can be opened without out-of-band metadata and
// refuses to load on a foreign machine instead of decoding garbage. Column
// payloads and null bitmaps are stored verbatim in the Table's SoA layout,
// so loading is a near-memcpy — no tokenizing, no value parsing, no
// dictionary lookups — and a CSV -> Table -> dqcol -> Table round trip is
// bitwise identical. Repeat audits of the same extract convert once
// (dqconvert) and then skip CSV parsing entirely.
//
// The reader exposes the same two shapes as the CSV reader: a whole-table
// load and a chunked load feeding a CsvChunkSink, which is the pluggable
// ingest-backend seam (table/ingest_backend.h) the streaming auditor sits
// on.

#ifndef DQ_TABLE_COLUMNAR_H_
#define DQ_TABLE_COLUMNAR_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "table/csv.h"
#include "table/ingest_report.h"
#include "table/table.h"

namespace dq {

/// \brief Raw-column access seam for the dqcol reader/writer (friend of
/// Table and TableChunk). Its reads are the bare codec: they check the
/// file (schema, domains, null sentinels) but record no ingest span,
/// counters or report, so the segment store reloads spill files with
/// ColumnarCodec::Read directly. Ingest goes through the free functions
/// below, which add that instrumentation.
class ColumnarCodec {
 public:
  static Status Write(const Table& table, const std::string& path);
  static Result<Schema> ReadSchema(const std::string& path);
  /// `file_bytes`, when given, receives the byte length of the header and
  /// column blocks the file declares.
  static Result<Table> Read(const Schema& schema, const std::string& path,
                            uint64_t* file_bytes = nullptr);
  /// Returns the number of rows delivered; `file_bytes` as for Read.
  static Result<uint64_t> ReadChunks(const Schema& schema,
                                     const std::string& path,
                                     size_t chunk_rows, CsvChunkSink* sink,
                                     uint64_t* file_bytes);
};

/// \brief Writes `table` (payloads, null bitmaps and schema) to a dqcol v1
/// file at `path`, replacing any existing file.
inline Status WriteDqcolFile(const Table& table, const std::string& path) {
  return ColumnarCodec::Write(table, path);
}

/// \brief Reads just the embedded schema of a dqcol file.
inline Result<Schema> ReadDqcolSchema(const std::string& path) {
  return ColumnarCodec::ReadSchema(path);
}

/// \brief Loads a dqcol file into a Table. The file's embedded schema must
/// match `schema` exactly (names, types, domains, category order); every
/// column is checked against its domain and null bitmap after the bulk
/// load, so the result upholds the same invariants as a CSV ingest.
/// `report`, when given, receives the ingest counters (all records kept —
/// dqcol files are written from already-validated tables, there is no
/// quarantine path).
Result<Table> ReadDqcolFile(const Schema& schema, const std::string& path,
                            IngestReport* report = nullptr);

/// \brief Streaming variant of ReadDqcolFile: delivers the rows to `sink`
/// in chunks of `chunk_rows` (rounded up to a multiple of 64 so null
/// bitmap slices stay word-aligned), keeping memory bounded by one chunk.
/// The delivered record sequence is identical to ReadDqcolFile's rows.
Status ReadDqcolFileChunks(const Schema& schema, const std::string& path,
                           size_t chunk_rows, CsvChunkSink* sink,
                           IngestReport* report = nullptr);

}  // namespace dq

#endif  // DQ_TABLE_COLUMNAR_H_
