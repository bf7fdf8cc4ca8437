// SegmentStore: a chunked columnar store whose segments live in RAM or
// spill to disk under a memory budget.
//
// Ingest appends decoded chunks into an open segment; once the open segment
// reaches segment_rows it is sealed and becomes immutable. Sealed segments
// are the paging unit: when resident bytes exceed memory_budget_bytes the
// store writes the oldest unpinned resident segment to a dqcol spill file
// (table/columnar.h) and frees its columns. Pin() brings a spilled segment
// back through the dqcol reader, so a damaged spill file fails its schema,
// domain and null-sentinel checks instead of loading garbage. Because
// sealed segments never change, the spill file is written once and
// re-eviction is a free drop of the in-memory copy. Segment boundaries
// depend only on the record sequence — never on the budget — so any
// consumer that walks segments in order sees bitwise identical data whether
// nothing, some, or everything spilled. Without a budget nothing ever
// spills, and a store whose segment_rows exceeds the input holds it as one
// segment: the same Table a whole-file read builds.
//
// Residency accounting uses Table::byte_size() (column payloads + null
// bitmaps + schema string pool), published through the segstore.* metrics.

#ifndef DQ_TABLE_SEGMENT_STORE_H_
#define DQ_TABLE_SEGMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace dq {

struct SegmentStoreOptions {
  /// Rows per sealed segment: appended chunks are split so every segment
  /// but the last holds exactly this many rows, whatever the ingest batch
  /// size.
  size_t segment_rows = 65536;

  /// Resident-byte cap across all segments; 0 = unlimited (never spill).
  uint64_t memory_budget_bytes = 0;

  /// Spill root (created if missing). Each store spills into its own
  /// fresh subdirectory of it, so stores sharing a root never touch each
  /// other's files. Required when memory_budget_bytes > 0.
  std::string spill_dir;
};

/// \brief Spillable sequence of immutable columnar segments.
///
/// Lifecycle: Append() chunks in record order, then Finish() exactly once
/// (seals the open segment), then Pin()/Unpin() segments for reading, walk
/// them with ForEachSegment() or Materialize() the whole table. Not
/// thread-safe; callers serialize.
class SegmentStore {
 public:
  SegmentStore(Schema schema, SegmentStoreOptions options);

  /// Spill files are scratch owned by this store; the destructor deletes
  /// its run subdirectory, then the spill root if that emptied out.
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Spill and residency traffic of one store instance. The same numbers
  /// feed the process-wide segstore.* metrics; tests read them here so they
  /// are not polluted by other stores in the process.
  struct Stats {
    uint64_t segments_sealed = 0;
    uint64_t spill_writes = 0;        ///< segment files written (first evictions)
    uint64_t spill_bytes_written = 0;
    uint64_t spill_reads = 0;         ///< segment loads from disk (Pin misses)
    uint64_t spill_bytes_read = 0;
    uint64_t evictions = 0;           ///< residents dropped (incl. re-evictions)
    uint64_t resident_bytes_peak = 0;
  };

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_segments() const { return segments_.size(); }
  const Stats& stats() const { return stats_; }
  uint64_t resident_bytes() const { return resident_bytes_; }

  /// First global row index of segment `i` (segments partition [0,
  /// num_rows) in order).
  size_t segment_base_row(size_t i) const { return segments_[i].base_row; }
  size_t segment_num_rows(size_t i) const { return segments_[i].rows; }
  bool segment_resident(size_t i) const {
    return segments_[i].table.has_value();
  }

  /// \brief Appends the kept slots of a decoded chunk (keep == nullptr
  /// keeps all), sealing and possibly spilling when the open segment fills.
  Status Append(const TableChunk& chunk,
                const std::vector<uint8_t>* keep = nullptr);

  /// \brief Seals the open segment (if non-empty) and enforces the budget.
  /// Must be called once, after the last Append and before any Pin.
  Status Finish();

  /// \brief Returns segment `i` resident, loading it from its spill file if
  /// needed, and holds it resident until the matching Unpin. Pins nest.
  Result<const Table*> Pin(size_t i);

  /// \brief Releases a pin and re-enforces the budget (a reloaded segment
  /// over budget is dropped again; its spill file already exists).
  Status Unpin(size_t i);

  /// \brief Calls `visit(segment, base_row)` for every segment in row
  /// order, each pinned for the duration of its call; stops at the first
  /// error. Resident memory stays within the budget plus one segment.
  Status ForEachSegment(
      const std::function<Status(const Table& segment, size_t base_row)>&
          visit);

  /// \brief Deterministic in-order assembly of every segment into `out`
  /// (column-to-column appends; equals the table a plain ReadCsv builds).
  Status Materialize(Table* out);

 private:
  struct Segment {
    size_t base_row = 0;
    size_t rows = 0;
    uint64_t bytes = 0;          ///< byte_size at seal time (stable: immutable)
    std::optional<Table> table;  ///< resident copy; nullopt when evicted
    bool on_disk = false;        ///< spill file written (write-once)
    int pins = 0;
    std::string path;
  };

  Status SealOpen();
  Status MakeRunDir();
  Status EnforceBudget();
  Status SpillSegment(Segment* seg);
  Status LoadSegment(Segment* seg);
  void PublishGauges();

  Schema schema_;
  SegmentStoreOptions options_;
  Table open_;              ///< the one mutable segment, appended into
  uint64_t open_bytes_ = 0; ///< open_.byte_size(), cached per Append
  std::vector<Segment> segments_;
  size_t num_rows_ = 0;
  uint64_t resident_bytes_ = 0;  ///< sealed residents + open segment
  bool finished_ = false;
  std::string run_dir_;  ///< this store's subdirectory of spill_dir
  Stats stats_;
};

}  // namespace dq

#endif  // DQ_TABLE_SEGMENT_STORE_H_
