#include "table/segment_store.h"

#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "table/columnar.h"

namespace dq {

SegmentStore::SegmentStore(Schema schema, SegmentStoreOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      open_(schema_) {
  open_bytes_ = open_.byte_size();
  resident_bytes_ = open_bytes_;
  stats_.resident_bytes_peak = resident_bytes_;
}

SegmentStore::~SegmentStore() {
  if (run_dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(run_dir_, ec);
  // Only removes the spill root when no other store still spills there.
  std::filesystem::remove(options_.spill_dir, ec);
}

Status SegmentStore::Append(const TableChunk& chunk,
                            const std::vector<uint8_t>* keep) {
  DQ_DCHECK(!finished_);
  // The chunk is appended in slot ranges that end where the open segment
  // reaches segment_rows, so segments seal at exactly segment_rows kept
  // records whatever the ingest batch size.
  const size_t cap = std::max<size_t>(1, options_.segment_rows);
  size_t begin = 0;
  while (begin < chunk.num_rows()) {
    size_t room = cap - open_.num_rows();
    size_t end = begin;
    for (; end < chunk.num_rows() && room > 0; ++end) {
      if (keep == nullptr || (*keep)[end] != 0) --room;
    }
    const size_t before = open_.num_rows();
    open_.AppendChunk(chunk, keep, begin, end);
    num_rows_ += open_.num_rows() - before;
    const uint64_t new_bytes = open_.byte_size();
    resident_bytes_ += new_bytes - open_bytes_;
    open_bytes_ = new_bytes;
    if (open_.num_rows() >= cap) {
      DQ_RETURN_NOT_OK(SealOpen());
      DQ_RETURN_NOT_OK(EnforceBudget());
    }
    begin = end;
  }
  PublishGauges();
  return Status::OK();
}

Status SegmentStore::Finish() {
  DQ_DCHECK(!finished_);
  finished_ = true;
  if (open_.num_rows() > 0) {
    DQ_RETURN_NOT_OK(SealOpen());
  } else {
    // Drop the empty open table's accounting (schema pool bytes).
    resident_bytes_ -= open_bytes_;
    open_bytes_ = 0;
  }
  // The ingested table's footprint, as a whole-file read reports it.
  uint64_t table_bytes = 0;
  for (const Segment& seg : segments_) table_bytes += seg.bytes;
  obs::GetGauge("table.bytes")->Set(static_cast<double>(table_bytes));
  DQ_RETURN_NOT_OK(EnforceBudget());
  PublishGauges();
  return Status::OK();
}

Status SegmentStore::SealOpen() {
  Segment seg;
  seg.base_row = segments_.empty()
                     ? 0
                     : segments_.back().base_row + segments_.back().rows;
  seg.rows = open_.num_rows();
  seg.bytes = open_bytes_;
  seg.table = std::move(open_);
  segments_.push_back(std::move(seg));
  ++stats_.segments_sealed;
  static obs::Counter* const sealed =
      obs::GetCounter("segstore.segments_sealed");
  sealed->Add(1);
  // A fresh open segment; its empty-table footprint joins the residency.
  open_ = Table(schema_);
  open_bytes_ = open_.byte_size();
  resident_bytes_ += open_bytes_;
  return Status::OK();
}

Status SegmentStore::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return Status::OK();
  // FIFO: evict the oldest unpinned resident first. Streaming consumers
  // walk segments in order, so the oldest resident is the furthest from
  // being needed again.
  for (Segment& seg : segments_) {
    if (resident_bytes_ <= options_.memory_budget_bytes) break;
    if (!seg.table.has_value() || seg.pins > 0) continue;
    DQ_RETURN_NOT_OK(SpillSegment(&seg));
  }
  return Status::OK();
}

Status SegmentStore::MakeRunDir() {
  if (!run_dir_.empty()) return Status::OK();
  if (options_.spill_dir.empty()) {
    return Status::InvalidArgument(
        "segment store has a memory budget but no spill_dir");
  }
  // A concurrent store sharing the root removes it when its own run
  // directory was the last entry; that can land between creating the root
  // and creating the run directory, so retry once.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::error_code ec;
    std::filesystem::create_directories(options_.spill_dir, ec);
    if (ec) {
      return Status::IOError("cannot create spill dir '" +
                             options_.spill_dir + "': " + ec.message());
    }
    std::string dir = options_.spill_dir + "/run-XXXXXX";
    if (::mkdtemp(dir.data()) != nullptr) {
      run_dir_ = std::move(dir);
      return Status::OK();
    }
    if (errno != ENOENT) break;
  }
  return Status::IOError("cannot create a run directory under spill dir '" +
                         options_.spill_dir + "': " + std::strerror(errno));
}

Status SegmentStore::SpillSegment(Segment* seg) {
  if (!seg->on_disk) {
    DQ_RETURN_NOT_OK(MakeRunDir());
    const size_t index = static_cast<size_t>(seg - segments_.data());
    seg->path = run_dir_ + "/seg-" + std::to_string(index) + ".dqcol";
    DQ_RETURN_NOT_OK(WriteDqcolFile(*seg->table, seg->path));
    seg->on_disk = true;
    ++stats_.spill_writes;
    const auto written =
        static_cast<uint64_t>(std::filesystem::file_size(seg->path));
    stats_.spill_bytes_written += written;
    static obs::Counter* const writes = obs::GetCounter("segstore.spill_writes");
    static obs::Counter* const wbytes =
        obs::GetCounter("segstore.spill_bytes_written");
    writes->Add(1);
    wbytes->Add(written);
  }
  // Immutable + on disk: dropping the resident copy loses nothing.
  seg->table.reset();
  resident_bytes_ -= seg->bytes;
  ++stats_.evictions;
  return Status::OK();
}

Status SegmentStore::LoadSegment(Segment* seg) {
  // The bare codec read: a spill reload is paging, not ingest, so it
  // records only segstore.* traffic.
  uint64_t read_bytes = 0;
  DQ_ASSIGN_OR_RETURN(Table t,
                      ColumnarCodec::Read(schema_, seg->path, &read_bytes));
  if (t.num_rows() != seg->rows) {
    return Status::IOError("spill file '" + seg->path +
                           "' does not match its segment");
  }
  seg->table = std::move(t);
  resident_bytes_ += seg->bytes;
  if (resident_bytes_ > stats_.resident_bytes_peak) {
    stats_.resident_bytes_peak = resident_bytes_;
  }
  ++stats_.spill_reads;
  stats_.spill_bytes_read += read_bytes;
  static obs::Counter* const reads = obs::GetCounter("segstore.spill_reads");
  static obs::Counter* const rbytes =
      obs::GetCounter("segstore.spill_bytes_read");
  reads->Add(1);
  rbytes->Add(read_bytes);
  return Status::OK();
}

Result<const Table*> SegmentStore::Pin(size_t i) {
  DQ_DCHECK(finished_ && i < segments_.size());
  Segment& seg = segments_[i];
  if (!seg.table.has_value()) {
    DQ_RETURN_NOT_OK(LoadSegment(&seg));
    PublishGauges();
  }
  ++seg.pins;
  return &*seg.table;
}

Status SegmentStore::Unpin(size_t i) {
  DQ_DCHECK(i < segments_.size());
  Segment& seg = segments_[i];
  DQ_DCHECK(seg.pins > 0);
  --seg.pins;
  DQ_RETURN_NOT_OK(EnforceBudget());
  PublishGauges();
  return Status::OK();
}

Status SegmentStore::ForEachSegment(
    const std::function<Status(const Table&, size_t)>& visit) {
  for (size_t i = 0; i < segments_.size(); ++i) {
    DQ_ASSIGN_OR_RETURN(const Table* seg, Pin(i));
    Status visited = visit(*seg, segments_[i].base_row);
    DQ_RETURN_NOT_OK(Unpin(i));
    DQ_RETURN_NOT_OK(visited);
  }
  return Status::OK();
}

Status SegmentStore::Materialize(Table* out) {
  DQ_DCHECK(finished_);
  *out = Table(schema_);
  out->Reserve(num_rows_);
  return ForEachSegment([out](const Table& seg, size_t) {
    out->AppendFrom(seg);
    return Status::OK();
  });
}

void SegmentStore::PublishGauges() {
  if (resident_bytes_ > stats_.resident_bytes_peak) {
    stats_.resident_bytes_peak = resident_bytes_;
  }
  static obs::Gauge* const resident =
      obs::GetGauge("segstore.resident_bytes");
  static obs::Gauge* const peak =
      obs::GetGauge("segstore.resident_bytes_peak");
  static obs::Gauge* const budget =
      obs::GetGauge("segstore.memory_budget_bytes");
  resident->Set(static_cast<double>(resident_bytes_));
  peak->Set(static_cast<double>(stats_.resident_bytes_peak));
  budget->Set(static_cast<double>(options_.memory_budget_bytes));
}

}  // namespace dq
