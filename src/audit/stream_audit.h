// The audit pipeline: ingest -> SegmentStore -> model -> per-segment check
// -> in-order merge. Every dqaudit run, with or without a memory budget,
// goes through RunStreamingAudit.
//
//   1. Ingest streams the input once (CSV or dqcol) into a SegmentStore.
//      Without a memory budget nothing spills; with one, sealed segments
//      past the budget spill to disk.
//   2. The model is the given persisted StructureModel, or else one induced
//      on the induction source (train_path if set, else the input). Under a
//      budget the source does not stay in RAM, so a ReservoirSampler draws a
//      uniform sample_rows-row sample of it during its one pass. Without a
//      budget the source is resident: induction reads a one-segment input
//      in place (no copy) and samples only a source larger than
//      sample_rows.
//   3. Deviation detection walks the segments in windows — Pin, check
//      (Auditor::Audit, or StructureModel::Check for a persisted model),
//      offset rows by the segment's base row, Unpin — keeping only each
//      segment's suspicious list, then merges the lists into the global
//      ranking with one stable sort by error confidence.
//
// The result keeps the store, so consumers that need the records (expert
// rules, the corrected table, review sheets) walk it segment by segment
// afterwards.
//
// Determinism: the sample depends only on (seed, record sequence); segment
// boundaries depend only on the record sequence; the merged ranking equals
// the ranking one check over the whole table would produce with the same
// model. Hence the report is bitwise identical for every memory budget,
// segment size and thread count, and — when sample_rows covers the source,
// where the sample IS the source in original order — identical to
// inducing on the whole table.

#ifndef DQ_AUDIT_STREAM_AUDIT_H_
#define DQ_AUDIT_STREAM_AUDIT_H_

#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/structure_model.h"
#include "mining/sample.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/segment_store.h"

namespace dq {

struct StreamAuditOptions {
  /// Reservoir capacity for the induction sample. When this reaches the
  /// source size the sample is the full source and the model equals the
  /// one induced on the whole table.
  size_t sample_rows = 200000;

  /// Seed of the reservoir's RNG (fixed default: rerunning the same file
  /// with the same options gives the same report).
  uint64_t sample_seed = 2003;

  /// Segment sizing, memory budget and spill directory.
  SegmentStoreOptions store;

  /// CSV dialect, error policy and decode threads for every file read.
  CsvOptions csv;

  /// On-disk format of the input file (CSV text or dqcol columnar). The
  /// dqcol path feeds the same chunk sink, so the audit output is byte
  /// identical for a faithfully converted file.
  IngestFormat format = IngestFormat::kCsv;

  /// Induce on this file instead of the input (sec. 2.2's asynchronous
  /// regime); empty = the input. Read in `train_format`.
  std::string train_path;
  IngestFormat train_format = IngestFormat::kCsv;

  /// Check against this persisted model instead of inducing one; not
  /// owned. train_path and sample_rows are then unused.
  const StructureModel* model = nullptr;

  AuditorConfig auditor;
};

/// \brief Everything an audit run produces. Unlike AuditReport there are
/// no per-record vectors — only the ranked suspicious list, so the result's
/// footprint beyond the store scales with the number of flagged records.
struct StreamAuditResult {
  AuditModel model;  ///< the induced model; empty under options.model
  AuditTimings timings;  ///< audit_ms is the check phase's wall time
  IngestReport train_ingest;  ///< ingest of options.train_path, if read
  size_t total_rows = 0;    ///< rows audited (kept by ingest)
  size_t sampled_rows = 0;  ///< rows the model was trained on
  /// Globally ranked suspicions (error confidence descending, row
  /// ascending on ties); Suspicion::row is the global row index.
  std::vector<Suspicion> suspicious;
  SegmentStore::Stats store_stats;  ///< at the end of the run
  /// The audited input. Its spill files live as long as it does.
  std::unique_ptr<SegmentStore> store;
};

/// \brief Runs the audit over a CSV or dqcol file (options.format).
/// Segments are pinned in a window of up to num_threads and checked
/// concurrently; each gets num_threads / window workers, so a one-segment
/// input is checked at the full width. The merge walks segments in order,
/// so the ranking is bitwise identical for every thread count. `ingest`,
/// when given, receives the input's ingest report — also when the run
/// fails, so a caller can still publish the quarantine of a failed read.
Result<StreamAuditResult> RunStreamingAudit(const Schema& schema,
                                            const std::string& input_path,
                                            const StreamAuditOptions& options,
                                            IngestReport* ingest = nullptr);

/// \brief Writes the audited input as CSV with every suspicion's suggested
/// correction applied (sec. 5.3), one segment at a time: the same bytes
/// Auditor::ApplyCorrections plus WriteCsvFile give for the whole table.
Status WriteCorrectedCsvFile(const StreamAuditResult& result,
                             const std::string& path);

/// \brief The review sheet (audit/review.h) of global row `row`, rendered
/// from the segment that holds it; `config` supplies the confidence level
/// and null policy. Needs an induced model.
Result<std::string> ExplainStreamedRow(const StreamAuditResult& result,
                                       size_t row,
                                       const AuditorConfig& config);

/// \brief Writes the ranked suspicions in the report CSV format
/// (rank,row,error_confidence,attribute,observed,suggestion,support).
Status WriteStreamAuditReportCsv(const std::vector<Suspicion>& suspicious,
                                 const Schema& schema, std::ostream* out);

Status WriteStreamAuditReportCsvFile(const std::vector<Suspicion>& suspicious,
                                     const Schema& schema,
                                     const std::string& path);

}  // namespace dq

#endif  // DQ_AUDIT_STREAM_AUDIT_H_
