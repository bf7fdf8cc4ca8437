#include "audit/stream_audit.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "audit/review.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "table/ingest_backend.h"

namespace dq {

namespace {

/// Single-pass ingest fan-out: every kept record lands in the segment
/// store (columnar, spillable) when there is one and is offered to the
/// reservoir (row form, bounded) when there is one. Records are offered in
/// global order — OnChunk is called serially by the ingest reader — which
/// is what keeps the sample chunking-invariant.
class StreamingIngestSink : public CsvChunkSink {
 public:
  StreamingIngestSink(SegmentStore* store, ReservoirSampler* sampler)
      : store_(store), sampler_(sampler) {}

  Status OnChunk(const TableChunk& chunk,
                 const std::vector<uint8_t>& keep) override {
    for (size_t i = 0; sampler_ != nullptr && i < chunk.num_rows(); ++i) {
      if (keep[i] != 0) sampler_->Offer(chunk.MaterializeRow(i));
    }
    return store_ != nullptr ? store_->Append(chunk, &keep) : Status::OK();
  }

 private:
  SegmentStore* store_;
  ReservoirSampler* sampler_;
};

/// Structure induction on the induction source: the input's `store`, or a
/// --train file. `sampler` is the reservoir that sampled the source during
/// its pass (under a budget), or null when the source stays resident: a
/// one-segment source within sample_rows is then read in place, anything
/// else through a reservoir filled here.
Status InduceModel(const Schema& schema, const StreamAuditOptions& options,
                   SegmentStore* store, ReservoirSampler* sampler,
                   StreamAuditResult* result) {
  SegmentStore* source = store;
  std::optional<SegmentStore> train_store;
  if (!options.train_path.empty()) {
    if (sampler == nullptr) {
      SegmentStoreOptions resident;
      resident.segment_rows = options.store.segment_rows;
      train_store.emplace(schema, resident);
    }
    StreamingIngestSink sink(train_store ? &*train_store : nullptr, sampler);
    DQ_RETURN_NOT_OK(ReadTableFileChunks(options.train_format, schema,
                                         options.train_path, options.csv,
                                         &sink, &result->train_ingest));
    result->timings.ingest_ms += result->train_ingest.parse_ms;
    if (train_store) DQ_RETURN_NOT_OK(train_store->Finish());
    source = train_store ? &*train_store : nullptr;
  }
  Table sample(schema);
  const Table* train = &sample;
  const bool in_place = sampler == nullptr && source->num_segments() == 1 &&
                        source->num_rows() <= options.sample_rows;
  if (in_place) {
    DQ_ASSIGN_OR_RETURN(train, source->Pin(0));
  } else if (sampler != nullptr) {
    sample = sampler->BuildSampleTable(schema);
  } else {
    ReservoirSampler resident(
        std::max<size_t>(1, std::min(options.sample_rows, source->num_rows())),
        options.sample_seed);
    DQ_RETURN_NOT_OK(source->ForEachSegment([&](const Table& seg, size_t) {
      for (size_t r = 0; r < seg.num_rows(); ++r) resident.Offer(seg.row(r));
      return Status::OK();
    }));
    sample = resident.BuildSampleTable(schema);
  }
  result->sampled_rows = train->num_rows();
  Result<AuditModel> model =
      Auditor(options.auditor).Induce(*train, &result->timings);
  if (in_place) DQ_RETURN_NOT_OK(source->Unpin(0));
  DQ_RETURN_NOT_OK(model.status());
  result->model = std::move(*model);
  return Status::OK();
}

}  // namespace

Result<StreamAuditResult> RunStreamingAudit(const Schema& schema,
                                            const std::string& input_path,
                                            const StreamAuditOptions& options,
                                            IngestReport* ingest) {
  if (options.sample_rows == 0) {
    return Status::InvalidArgument("sample_rows must be positive");
  }
  IngestReport local_ingest;
  if (ingest == nullptr) ingest = &local_ingest;
  const bool induce = options.model == nullptr;
  std::optional<ReservoirSampler> sampler;
  if (induce && options.store.memory_budget_bytes > 0) {
    sampler.emplace(options.sample_rows, options.sample_seed);
  }
  ReservoirSampler* const input_sampler =
      sampler.has_value() && options.train_path.empty() ? &*sampler : nullptr;

  StreamAuditResult result;
  result.store = std::make_unique<SegmentStore>(schema, options.store);
  SegmentStore& store = *result.store;
  StreamingIngestSink sink(&store, input_sampler);
  DQ_RETURN_NOT_OK(ReadTableFileChunks(options.format, schema, input_path,
                                       options.csv, &sink, ingest));
  DQ_RETURN_NOT_OK(store.Finish());
  result.timings.ingest_ms = ingest->parse_ms;
  result.total_rows = store.num_rows();

  const int threads = ResolveThreadCount(options.auditor.num_threads);
  result.timings.threads_used = threads;
  if (induce) {
    DQ_RETURN_NOT_OK(InduceModel(schema, options, &store,
                                 sampler.has_value() ? &*sampler : nullptr,
                                 &result));
  }

  // Deviation detection per segment. Records are scored independently of
  // one another (Def. 7/8 look only at the model), so segment-local checks
  // see the same confidences a whole-table check would. Only each
  // segment's suspicious list survives — the per-record score vectors die
  // with the segment, so check memory is bounded by the pin window plus
  // the flagged rows.
  //
  // Each window of up to `threads` segments is pinned serially (the store
  // is not thread-safe), checked concurrently into pre-assigned report
  // slots with threads / window workers per segment, then merged and
  // unpinned serially in segment order. Per-segment reports are
  // thread-count invariant and the merge order is fixed, so the ranking is
  // bitwise identical for every thread count. The worker spans stitch
  // under the caller's span, so the trace tree is too.
  const WallTimer check_timer;
  const auto window = static_cast<size_t>(threads);
  const obs::TaskContext trace_ctx = obs::Tracer::Global().CurrentContext();
  std::vector<const Table*> pinned(window);
  std::vector<Result<AuditReport>> reports;
  for (size_t s0 = 0; s0 < store.num_segments(); s0 += window) {
    const size_t count = std::min(window, store.num_segments() - s0);
    for (size_t i = 0; i < count; ++i) {
      DQ_ASSIGN_OR_RETURN(pinned[i], store.Pin(s0 + i));
    }
    AuditorConfig segment_config = options.auditor;
    segment_config.num_threads =
        std::max(1, threads / static_cast<int>(count));
    const Auditor segment_auditor(segment_config);
    reports.assign(count, Status::Internal("segment check did not run"));
    ParallelFor(threads, count, [&](size_t i) {
      obs::TaskScope task_scope(trace_ctx);
      reports[i] = induce ? segment_auditor.Audit(result.model, *pinned[i])
                          : options.model->Check(*pinned[i], segment_config);
    });
    for (size_t i = 0; i < count; ++i) {
      if (!reports[i].ok()) return reports[i].status();
      AuditReport& report = *reports[i];
      const size_t base = store.segment_base_row(s0 + i);
      result.suspicious.reserve(result.suspicious.size() +
                                report.suspicious.size());
      for (Suspicion& suspicion : report.suspicious) {
        suspicion.row += base;  // segment-local -> global row index
        result.suspicious.push_back(std::move(suspicion));
      }
      DQ_RETURN_NOT_OK(store.Unpin(s0 + i));
    }
  }

  // Merge: each per-segment list is already stable-ranked (confidence
  // descending, row ascending on ties), and the lists were concatenated in
  // base-row order, so ties across segments sit in global row order too.
  // One stable sort by confidence alone therefore reproduces exactly the
  // ranking one check over the whole table emits.
  std::stable_sort(result.suspicious.begin(), result.suspicious.end(),
                   [](const Suspicion& a, const Suspicion& b) {
                     return a.error_confidence > b.error_confidence;
                   });
  result.timings.audit_ms = check_timer.ElapsedMs();
  result.store_stats = store.stats();
  return result;
}

Status WriteCorrectedCsvFile(const StreamAuditResult& result,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  CsvOptions csv;
  if (result.store->num_segments() == 0) {
    return WriteCsv(Table(result.store->schema()), &out, csv);
  }
  return result.store->ForEachSegment([&](const Table& seg, size_t base) {
    Table corrected = seg;
    for (const Suspicion& s : result.suspicious) {
      if (s.row < base || s.row - base >= seg.num_rows()) continue;
      corrected.SetCell(s.row - base, static_cast<size_t>(s.attr),
                        s.suggestion);
    }
    Status written = WriteCsv(corrected, &out, csv);
    csv.write_header = false;  // once, before the first segment
    return written;
  });
}

Result<std::string> ExplainStreamedRow(const StreamAuditResult& result,
                                       size_t row,
                                       const AuditorConfig& config) {
  SegmentStore& store = *result.store;
  if (row >= store.num_rows()) {
    return Status::OutOfRange("row index " + std::to_string(row));
  }
  size_t segment = store.num_segments() - 1;
  while (store.segment_base_row(segment) > row) --segment;
  const size_t base = store.segment_base_row(segment);
  DQ_ASSIGN_OR_RETURN(const Table* seg, store.Pin(segment));
  Result<SuspicionDetail> detail =
      ExplainRecord(result.model, *seg, row - base, config);
  std::string sheet;
  if (detail.ok()) {
    sheet = RenderSuspicionDetail(*detail, result.model, *seg, base);
  }
  DQ_RETURN_NOT_OK(store.Unpin(segment));
  DQ_RETURN_NOT_OK(detail.status());
  return sheet;
}

Status WriteStreamAuditReportCsv(const std::vector<Suspicion>& suspicious,
                                 const Schema& schema, std::ostream* out) {
  *out << "rank,row,error_confidence,attribute,observed,suggestion,support\n";
  size_t rank = 1;
  for (const Suspicion& s : suspicious) {
    if (s.attr < 0 || static_cast<size_t>(s.attr) >= schema.num_attributes()) {
      return Status::InvalidArgument("report does not match the schema");
    }
    *out << rank++ << ',' << s.row << ','
         << FormatDouble(s.error_confidence, 6) << ','
         << CsvQuote(schema.attribute(static_cast<size_t>(s.attr)).name, ',')
         << ',' << CsvQuote(schema.ValueToString(s.attr, s.observed), ',')
         << ',' << CsvQuote(schema.ValueToString(s.attr, s.suggestion), ',')
         << ',' << FormatDouble(s.support, 1) << '\n';
  }
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteStreamAuditReportCsvFile(const std::vector<Suspicion>& suspicious,
                                     const Schema& schema,
                                     const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteStreamAuditReportCsv(suspicious, schema, &f);
}

}  // namespace dq
