// dqaudit — command-line data auditing for CSV and dqcol files.
//
// Usage:
//   dqaudit --schema spec.txt --data table.csv [options]
//
// Every run is one pipeline (audit/stream_audit.h): ingest into a segment
// store -> model (loaded, or induced on --train or the input) -> check
// segment by segment -> ranked merge -> output. Without --memory-budget the
// input stays in RAM as one segment; with one, segments spill to disk and
// induction trains on a reservoir sample. Every option composes with
// --memory-budget.
//
// Options:
//   --schema FILE      schema specification (see table/schema_spec.h)
//   --data FILE        data to audit (CSV needs a header row)
//   --train FILE       data to induce on (default: the audit data;
//                      sec. 2.2's asynchronous regime)
//   --format FMT       on-disk format of --data and --train: csv or dqcol
//                      (default: infer from the extension — '.dqcol' means
//                      dqcol, anything else CSV). The audit report is byte
//                      identical across formats for a faithfully converted
//                      file (see dqconvert)
//   --min-conf X       minimal error confidence (default 0.8)
//   --level X          confidence level for the bounds (default 0.95)
//   --inducer NAME     c45 | naive-bayes | knn | oner (default c45)
//   --split-mode MODE  c4.5 split evaluator: histogram (default; binned
//                      scans, sibling subtraction, intra-tree parallelism)
//                      or exact (the reference SLIQ row sweep)
//   --save-model FILE  persist the induced structure model (the compiled
//                      C4.5 trees, `dqmodel v2`)
//   --load-model FILE  skip induction, check against a persisted model
//   --top N            print the N strongest suspicions (default 20)
//   --explain N        print review sheets for the top N suspicions (needs
//                      an induced model; not printed under --load-model)
//   --rules            print the induced structure model
//   --corrected FILE   write the auto-corrected table as CSV
//   --report FILE      write the ranked suspicions as CSV
//   --summary          print the per-attribute flag summary (including
//                      per-attribute induction times when inducing)
//   --threads N        worker threads for ingest, induction and checking
//                      (default 0 = hardware concurrency; any non-positive
//                      value means the hardware default; results are
//                      identical for every thread count)
//   --memory-budget N  out-of-core mode: hold at most N bytes of resident
//                      table data (suffixes K/M/G/T, e.g. 64M). Segments
//                      past the budget spill to --spill-dir; induction
//                      trains on a reservoir sample of --train or --data
//                      (--sample-rows). The ranked report is identical for
//                      every budget
//   --sample-rows N    reservoir sample size under --memory-budget
//                      (default 200000; >= the row count trains on the
//                      whole source and reproduces the unbudgeted audit
//                      exactly). Unused without a budget
//   --spill-dir DIR    where segments spill (default: <data>.spill,
//                      removed after the run)
//   --segment-rows N   rows per segment under --memory-budget (default
//                      65536; the paging granularity — smaller segments
//                      spill sooner. Results are identical for every
//                      value). Without a budget the input is one segment
//   --rules-file FILE  expert-written TDG rules (sec. 3.2) checked
//                      deterministically against the data: per-rule
//                      violation counts plus example rows
//   --lint             run the dqlint check battery over --rules-file
//                      before auditing; lint errors abort with exit code 1
//   --on-error MODE    fail (default): abort on the first malformed CSV
//                      record; skip: quarantine malformed records into an
//                      ingest report and audit the survivors
//   --ingest-report F  write the ingest quarantine report as JSON (also
//                      when a malformed record aborts the run)
//   --trace-out FILE   write the span tree of the run as Chrome trace-event
//                      JSON (load in Perfetto / chrome://tracing); the tree
//                      is identical for every --threads value
//   --metrics-out FILE write the metrics registry snapshot (counters,
//                      gauges, histograms) as JSON, with the run manifest
//   --history DIR      append one run-history record (manifest + audit
//                      summary + metrics snapshot) to DIR/history.jsonl;
//                      dqmon reads the ledger back for drift detection
//   --history-max-runs N
//                      compact the ledger after appending: keep only the
//                      newest N records (kept lines stay byte-identical;
//                      damaged lines are dropped). Requires --history
//   --log-level LEVEL  debug | info | warn | error | off (default info)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/rule_export.h"
#include "audit/stream_audit.h"
#include "audit/summary.h"
#include "audit/structure_model.h"
#include "common/parallel.h"
#include "lint/lint.h"
#include "logic/rule_parser.h"
#include "obs/history.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "table/ingest_backend.h"
#include "table/schema_spec.h"
#include "flag_parse.h"

using namespace dq;

namespace {

struct Options {
  std::string schema_path;
  std::string data_path;
  std::string train_path;
  std::string save_model_path;
  std::string load_model_path;
  std::string corrected_path;
  std::string report_path;
  std::string rules_path;
  std::string on_error = "fail";
  std::string ingest_report_path;
  std::string trace_out_path;
  std::string metrics_out_path;
  std::string history_dir;
  std::string format;  ///< "", "csv" or "dqcol"; "" = infer from extension
  size_t history_max_runs = 0;  ///< 0 = never compact
  double min_conf = 0.8;
  double level = 0.95;
  std::string inducer = "c45";
  std::string split_mode = "histogram";
  int top = 20;
  int explain = 0;
  int threads = 0;
  uint64_t memory_budget = 0;  ///< 0 = the input stays in RAM
  size_t sample_rows = 200000;
  size_t segment_rows = 65536;
  std::string spill_dir;
  bool print_rules = false;
  bool print_summary = false;
  bool lint = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: dqaudit --schema spec.txt --data table.csv\n"
               "  [--train t.csv] [--format csv|dqcol]\n"
               "  [--min-conf 0.8] [--level 0.95]\n"
               "  [--inducer c45|naive-bayes|knn|oner]\n"
               "  [--split-mode histogram|exact] [--save-model m]\n"
               "  [--load-model m] [--top 20] [--explain 5] [--rules]\n"
               "  [--corrected out.csv] [--report report.csv]\n"
               "  [--summary] [--threads 0] [--rules-file r.rules] [--lint]\n"
               "  [--memory-budget 64M [--sample-rows 200000]\n"
               "   [--spill-dir DIR] [--segment-rows 65536]]\n"
               "  [--on-error fail|skip] [--ingest-report report.json]\n"
               "  [--trace-out trace.json] [--metrics-out metrics.json]\n"
               "  [--history DIR] [--history-max-runs N]\n"
               "  [--log-level debug|info|warn|error|off]\n");
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--schema" && need_value(&opts->schema_path)) continue;
    if (arg == "--data" && need_value(&opts->data_path)) continue;
    if (arg == "--train" && need_value(&opts->train_path)) continue;
    if (arg == "--save-model" && need_value(&opts->save_model_path)) continue;
    if (arg == "--load-model" && need_value(&opts->load_model_path)) continue;
    if (arg == "--corrected" && need_value(&opts->corrected_path)) continue;
    if (arg == "--report" && need_value(&opts->report_path)) continue;
    if (arg == "--rules-file" && need_value(&opts->rules_path)) continue;
    if (arg == "--inducer" && need_value(&opts->inducer)) continue;
    if (arg == "--split-mode" && need_value(&opts->split_mode)) continue;
    if (arg == "--on-error" && need_value(&opts->on_error)) continue;
    if (arg == "--ingest-report" && need_value(&opts->ingest_report_path)) {
      continue;
    }
    if (arg == "--trace-out" && need_value(&opts->trace_out_path)) continue;
    if (arg == "--metrics-out" && need_value(&opts->metrics_out_path)) {
      continue;
    }
    if (arg == "--history" && need_value(&opts->history_dir)) continue;
    if (arg == "--format" && need_value(&opts->format)) continue;
    if (arg == "--spill-dir" && need_value(&opts->spill_dir)) continue;
    // Valued flags whose parse prints its own diagnostic, and switches.
    constexpr int kMaxInt = std::numeric_limits<int>::max();
    constexpr int64_t kMaxSize = std::numeric_limits<int64_t>::max();
    bool parsed = true;
    if (arg == "--history-max-runs" && need_value(&value)) {
      parsed = ParseSizeFlag(arg, value, 1, kMaxSize, &opts->history_max_runs);
    } else if (arg == "--log-level" && need_value(&value)) {
      parsed = ParseLogLevelFlag(arg, value);
    } else if (arg == "--min-conf" && need_value(&value)) {
      parsed = ParseDoubleFlag(arg, value, 0.0, 1.0, &opts->min_conf);
    } else if (arg == "--level" && need_value(&value)) {
      parsed = ParseDoubleFlag(arg, value, 0.0, 1.0, &opts->level);
    } else if (arg == "--top" && need_value(&value)) {
      parsed = ParseIntFlag32(arg, value, 0, kMaxInt, &opts->top);
    } else if (arg == "--explain" && need_value(&value)) {
      parsed = ParseIntFlag32(arg, value, 0, kMaxInt, &opts->explain);
    } else if (arg == "--threads" && need_value(&value)) {
      // Any non-positive value is normalized to the hardware default by
      // ResolveThreadCount; the parse only rejects non-numbers.
      parsed = ParseIntFlag32(arg, value, std::numeric_limits<int>::min(),
                              kMaxInt, &opts->threads);
    } else if (arg == "--memory-budget" && need_value(&value)) {
      parsed = ParseByteSizeFlag(arg, value, /*require_positive=*/true,
                                 &opts->memory_budget);
    } else if (arg == "--sample-rows" && need_value(&value)) {
      parsed = ParseSizeFlag(arg, value, 1, kMaxSize, &opts->sample_rows);
    } else if (arg == "--segment-rows" && need_value(&value)) {
      parsed = ParseSizeFlag(arg, value, 1, kMaxSize, &opts->segment_rows);
    } else if (arg == "--rules") {
      opts->print_rules = true;
    } else if (arg == "--summary") {
      opts->print_summary = true;
    } else if (arg == "--lint") {
      opts->lint = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
    if (!parsed) return false;
  }
  if (opts->schema_path.empty() || opts->data_path.empty()) {
    return false;
  }
  if (opts->lint && opts->rules_path.empty()) {
    std::fprintf(stderr, "--lint requires --rules-file\n");
    return false;
  }
  if (opts->on_error != "fail" && opts->on_error != "skip") {
    std::fprintf(stderr, "--on-error must be 'fail' or 'skip'\n");
    return false;
  }
  if (opts->history_max_runs > 0 && opts->history_dir.empty()) {
    std::fprintf(stderr, "--history-max-runs requires --history\n");
    return false;
  }
  if (opts->split_mode != "histogram" && opts->split_mode != "exact") {
    std::fprintf(stderr, "--split-mode must be 'histogram' or 'exact'\n");
    return false;
  }
  return true;
}

Result<InducerKind> InducerFromName(const std::string& name) {
  if (name == "c45") return InducerKind::kC45;
  if (name == "naive-bayes") return InducerKind::kNaiveBayes;
  if (name == "knn") return InducerKind::kKnn;
  if (name == "oner") return InducerKind::kOneR;
  return Status::InvalidArgument("unknown inducer '" + name + "'");
}

/// Prints the outcome of the check: for an induced model the timings line
/// and the suspicious count, for a persisted one the rule count; then the
/// top-ranked rows (with the training support behind an induced model's
/// prediction).
void PrintAuditOutcome(const Options& opts, const Schema& schema,
                       const StreamAuditResult& result,
                       const StructureModel* persisted) {
  const AuditTimings& timings = result.timings;
  if (persisted != nullptr) {
    std::printf("checked against %zu persisted rules: %zu suspicious "
                "records\n",
                persisted->TotalRules(), result.suspicious.size());
  } else {
    // Only the exact split evaluator presorts.
    char presort[48] = "";
    if (opts.split_mode == "exact") {
      std::snprintf(presort, sizeof(presort), "c4.5 presort %.1f ms, ",
                    timings.presort_ms);
    }
    std::printf("timings (threads=%d): ingest %.1f ms, induce %.1f ms "
                "(encode %.1f ms, %stree build %.1f ms), audit %.1f ms\n",
                timings.threads_used, timings.ingest_ms, timings.induce_ms,
                timings.encode_ms, presort, timings.tree_build_ms,
                timings.audit_ms);
    std::printf("%zu of %zu records suspicious at minimal error confidence "
                "%.2f\n",
                result.suspicious.size(), result.total_rows, opts.min_conf);
  }
  const size_t limit = std::min<size_t>(result.suspicious.size(),
                                        static_cast<size_t>(opts.top));
  for (size_t i = 0; i < limit; ++i) {
    const Suspicion& s = result.suspicious[i];
    // One call per row for a persisted-model check: batch checks print
    // every flagged row.
    std::printf("  row %6zu  conf %.4f  %s = %s -> suggest %s%s", s.row,
                s.error_confidence,
                schema.attribute(static_cast<size_t>(s.attr)).name.c_str(),
                schema.ValueToString(s.attr, s.observed).c_str(),
                schema.ValueToString(s.attr, s.suggestion).c_str(),
                persisted != nullptr ? "\n" : "");
    if (persisted == nullptr) std::printf(" (support %.0f)\n", s.support);
  }
}

/// Expert-rule deviation check (deterministic violations of the
/// domain-expert dependencies, complementing the structure model): counts
/// each rule's violating rows segment by segment and prints the per-rule
/// lines. Returns (rule, count) pairs for the history record.
Result<std::vector<std::pair<std::string, uint64_t>>> CheckExpertRules(
    const std::vector<Rule>& rules, const Schema& schema,
    SegmentStore* store) {
  std::vector<size_t> counts(rules.size(), 0);
  std::vector<size_t> first(rules.size(), 0);
  DQ_RETURN_NOT_OK(store->ForEachSegment([&](const Table& seg, size_t base) {
    for (size_t r = 0; r < seg.num_rows(); ++r) {
      const Row row = seg.row(r);
      for (size_t ri = 0; ri < rules.size(); ++ri) {
        if (!rules[ri].Violates(row)) continue;
        if (counts[ri]++ == 0) first[ri] = base + r;
      }
    }
    return Status::OK();
  }));
  std::vector<std::pair<std::string, uint64_t>> violations;
  size_t total_violations = 0;
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const std::string text = rules[ri].ToString(schema);
    total_violations += counts[ri];
    violations.emplace_back(text, static_cast<uint64_t>(counts[ri]));
    if (counts[ri] > 0) {
      std::printf("expert rule %zu violated by %zu rows (first: row %zu): "
                  "%s\n",
                  ri + 1, counts[ri], first[ri], text.c_str());
    }
  }
  std::printf("expert rules: %zu rules, %zu violating row/rule pairs\n",
              rules.size(), total_violations);
  return violations;
}

/// Run-history append (--history): one compact JSONL record per run for
/// dqmon's drift detection. Appended before the metrics/trace export so
/// the embedded metrics snapshot never depends on which export flags were
/// also given. Timing phases are recorded as 0 under a fixed test clock
/// (DQ_UTC_OVERRIDE_MS) so two identical runs yield byte-identical lines.
Status AppendHistory(
    const Options& opts, obs::RunManifest* manifest,
    const StreamAuditResult& result,
    std::vector<std::pair<std::string, uint64_t>> rule_violations) {
  if (opts.history_dir.empty()) return Status::OK();
  obs::Span span("history.append");
  manifest->StampWallClock();
  obs::HistoryRecord record;
  record.manifest = *manifest;
  const std::vector<Suspicion>& suspicious = result.suspicious;
  record.summary.records = result.total_rows;
  record.summary.suspicious = suspicious.size();
  record.summary.suspicion_rate =
      result.total_rows > 0 ? static_cast<double>(suspicious.size()) /
                                  static_cast<double>(result.total_rows)
                            : 0.0;
  record.summary.rule_violations = std::move(rule_violations);
  const size_t top_k = std::min(suspicious.size(), obs::AuditSummary::kTopK);
  for (size_t i = 0; i < top_k; ++i) {
    record.summary.top_confidences.push_back(suspicious[i].error_confidence);
  }
  const bool fixed_clock = obs::EpochClockOverridden();
  const AuditTimings& timings = result.timings;
  record.summary.timings_ms = {
      {"ingest", fixed_clock ? 0.0 : timings.ingest_ms},
      {"induce", fixed_clock ? 0.0 : timings.induce_ms},
      {"audit", fixed_clock ? 0.0 : timings.audit_ms},
  };
  record.metrics = obs::MetricsRegistry::Global().Snapshot();
  obs::HistoryStore store(opts.history_dir);
  DQ_RETURN_NOT_OK(store.Append(record));
  std::printf("appended history record to %s\n", store.ledger_path().c_str());
  if (opts.history_max_runs == 0) return Status::OK();
  size_t dropped_runs = 0;
  size_t dropped_damaged = 0;
  DQ_RETURN_NOT_OK(
      store.Compact(opts.history_max_runs, &dropped_runs, &dropped_damaged));
  if (dropped_runs > 0 || dropped_damaged > 0) {
    std::printf("compacted history ledger to newest %zu runs "
                "(%zu old records, %zu damaged lines dropped)\n",
                opts.history_max_runs, dropped_runs, dropped_damaged);
  }
  return Status::OK();
}

int Fail(const Status& status) {
  DQ_LOG_ERROR("dqaudit", "%s", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  // Recording a handful of phase spans costs nothing measurable, and an
  // always-on tracer lets the timings line below report ingest through the
  // same span tree the exported trace shows.
  obs::Tracer::Global().SetEnabled(true);

  obs::RunManifest manifest = obs::MakeRunManifest("dqaudit", argc, argv);
  manifest.threads_requested = opts.threads;
  manifest.threads_used = ResolveThreadCount(opts.threads);
  for (const auto& [label, path] :
       {std::pair<const char*, const std::string&>{"schema", opts.schema_path},
        {"data", opts.data_path}, {"train", opts.train_path},
        {"rules", opts.rules_path}, {"model", opts.load_model_path}}) {
    if (!path.empty()) (void)obs::AddInputFileHash(&manifest, label, path);
  }
  auto schema = ParseSchemaSpecFile(opts.schema_path);
  if (!schema.ok()) return Fail(schema.status());
  StreamAuditOptions stream;
  // --format pins both inputs; otherwise each path's extension decides.
  stream.format = InferIngestFormat(opts.data_path);
  stream.train_format = InferIngestFormat(opts.train_path);
  if (!opts.format.empty()) {
    auto parsed_format = IngestFormatFromName(opts.format);
    if (!parsed_format.ok()) return Fail(parsed_format.status());
    stream.format = stream.train_format = *parsed_format;
  }
  stream.csv.on_error = opts.on_error == "skip"
                            ? CsvErrorPolicy::kSkipAndReport
                            : CsvErrorPolicy::kFail;
  stream.csv.num_threads = opts.threads;
  AuditorConfig& config = stream.auditor;
  config.min_error_confidence = opts.min_conf;
  config.confidence_level = opts.level;
  config.num_threads = opts.threads;
  auto kind = InducerFromName(opts.inducer);
  if (!kind.ok()) return Fail(kind.status());
  config.inducer = *kind;
  config.c45.split_mode = opts.split_mode == "exact" ? SplitMode::kExact
                                                     : SplitMode::kHistogram;

  // Expert rules are linted and parsed before the audit, so a rejected
  // file costs no ingest.
  std::vector<Rule> expert_rules;
  if (!opts.rules_path.empty()) {
    if (opts.lint) {
      Linter linter(&*schema);
      auto lint_result = linter.LintFileAt(opts.rules_path);
      if (!lint_result.ok()) return Fail(lint_result.status());
      std::fputs(RenderLintText(*lint_result, opts.rules_path).c_str(),
                 stderr);
      if (lint_result->HasErrors()) {
        DQ_LOG_ERROR("dqaudit",
                     "rule file rejected by lint; fix the errors above or "
                     "rerun without --lint");
        return 1;
      }
    }
    auto parsed = ParseRuleFileAt(*schema, opts.rules_path);
    if (!parsed.ok()) return Fail(parsed.status());
    expert_rules = std::move(*parsed);
  }
  // Checking via a persisted structure model needs no induction.
  std::optional<StructureModel> persisted;
  if (!opts.load_model_path.empty()) {
    obs::Span span("model.load");
    auto loaded = StructureModel::LoadFromFile(*schema, opts.load_model_path);
    if (!loaded.ok()) return Fail(loaded.status());
    persisted = std::move(*loaded);
  }

  // One pipeline for every run (audit/stream_audit.h). Without a budget the
  // input stays resident as one segment and induction reads all of it in
  // place; with one, segments spill and induction trains on a reservoir
  // sample. The ranked report is identical for every budget value.
  const bool budgeted = opts.memory_budget > 0;
  constexpr size_t kWhole = std::numeric_limits<size_t>::max();
  stream.sample_rows = budgeted ? opts.sample_rows : kWhole;
  stream.store.segment_rows = budgeted ? opts.segment_rows : kWhole;
  stream.store.memory_budget_bytes = opts.memory_budget;
  stream.store.spill_dir =
      opts.spill_dir.empty() ? opts.data_path + ".spill" : opts.spill_dir;
  stream.train_path = opts.train_path;
  stream.model = persisted.has_value() ? &*persisted : nullptr;
  IngestReport ingest;
  auto result = RunStreamingAudit(*schema, opts.data_path, stream, &ingest);
  if (!result.ok()) {
    if (!opts.ingest_report_path.empty()) {
      (void)ingest.WriteJsonFile(opts.ingest_report_path);
    }
    return Fail(result.status());
  }

  std::printf("%s %zu records x %zu attributes from %s\n",
              budgeted ? "streamed" : "loaded", result->total_rows,
              schema->num_attributes(), opts.data_path.c_str());
  if (budgeted) {
    const SegmentStore::Stats& st = result->store_stats;
    std::printf("memory budget %llu bytes: %llu segments sealed, "
                "%llu spill writes (%llu bytes), %llu spill reads, "
                "peak resident %llu bytes\n",
                static_cast<unsigned long long>(opts.memory_budget),
                static_cast<unsigned long long>(st.segments_sealed),
                static_cast<unsigned long long>(st.spill_writes),
                static_cast<unsigned long long>(st.spill_bytes_written),
                static_cast<unsigned long long>(st.spill_reads),
                static_cast<unsigned long long>(st.resident_bytes_peak));
  }
  if (ingest.HasErrors()) {
    std::printf("ingest: %s\n", ingest.Summary().c_str());
    std::fputs(ingest.RenderText().c_str(), stderr);
  }
  if (!opts.ingest_report_path.empty()) {
    Status written = ingest.WriteJsonFile(opts.ingest_report_path);
    if (!written.ok()) return Fail(written);
    std::printf("wrote ingest report to %s\n",
                opts.ingest_report_path.c_str());
  }

  std::vector<std::pair<std::string, uint64_t>> rule_violation_counts;
  if (!opts.rules_path.empty()) {
    auto counted =
        CheckExpertRules(expert_rules, *schema, result->store.get());
    if (!counted.ok()) return Fail(counted.status());
    rule_violation_counts = std::move(*counted);
  }

  if (!persisted.has_value()) {
    const IngestReport& train_ingest = result->train_ingest;
    if (train_ingest.HasErrors()) {
      std::printf("ingest (train): %s\n", train_ingest.Summary().c_str());
      std::fputs(train_ingest.RenderText().c_str(), stderr);
    }
    if (budgeted) {
      std::printf("induced on %zu sampled records (reservoir capacity %zu)\n",
                  result->sampled_rows, opts.sample_rows);
    }
    if (opts.print_rules) {
      std::printf("%s", RenderStructureModel(result->model, *schema).c_str());
    }
    if (!opts.save_model_path.empty()) {
      obs::Span span("model.save");
      StructureModel structure =
          StructureModel::FromAuditModel(result->model, *schema);
      Status saved = structure.SaveToFile(opts.save_model_path);
      if (!saved.ok()) return Fail(saved);
      std::printf("persisted %zu rules to %s\n", structure.TotalRules(),
                  opts.save_model_path.c_str());
    }
  }
  PrintAuditOutcome(opts, *schema, *result,
                    persisted.has_value() ? &*persisted : nullptr);
  for (size_t i = 0; !persisted.has_value() && i < result->suspicious.size() &&
                     i < static_cast<size_t>(opts.explain);
       ++i) {
    auto sheet = ExplainStreamedRow(*result, result->suspicious[i].row, config);
    if (sheet.ok()) std::printf("\n%s", sheet->c_str());
  }

  if (opts.print_summary) {
    const AuditSummary summary =
        SummarizeSuspicions(result->suspicious, result->total_rows);
    std::printf("\n%s\n", RenderAuditSummary(summary, *schema).c_str());
    if (!persisted.has_value()) {
      std::printf("\ninduction time per attribute:\n");
      for (const auto& [attr, ms] : result->timings.induce_attr_ms) {
        std::printf("  %-12s %8.1f ms\n",
                    schema->attribute(static_cast<size_t>(attr)).name.c_str(),
                    ms);
      }
    }
  }

  if (!opts.report_path.empty()) {
    obs::Span span("report.write");
    Status written = WriteStreamAuditReportCsvFile(result->suspicious,
                                                   *schema, opts.report_path);
    if (!written.ok()) return Fail(written);
    std::printf("wrote ranked report to %s\n", opts.report_path.c_str());
  }

  if (!opts.corrected_path.empty()) {
    obs::Span span("corrected.write");
    Status written = WriteCorrectedCsvFile(*result, opts.corrected_path);
    if (!written.ok()) return Fail(written);
    std::printf("\nwrote corrected table to %s\n", opts.corrected_path.c_str());
  }

  manifest.threads_used = result->timings.threads_used;
  Status history_appended = AppendHistory(opts, &manifest, *result,
                                         std::move(rule_violation_counts));
  if (!history_appended.ok()) return Fail(history_appended);
  Status exported = obs::ExportRun(&manifest, opts.trace_out_path,
                                   opts.metrics_out_path, stdout);
  if (!exported.ok()) return Fail(exported);
  return 0;
}
