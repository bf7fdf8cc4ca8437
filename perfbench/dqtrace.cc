// dqtrace — the traced, in-process twin of the benchmark's dqaudit
// operations.
//
// Usage:
//   dqtrace kernel
//   dqtrace classic   --schema S --data D --threads N --report R --out DIR
//   dqtrace loadcheck --schema S --train T --threads N --model M --out DIR
//                     BATCH.csv...
//   dqtrace stream    --schema S --data D --threads N --memory-budget BYTES
//                     --sample-rows K --spill-dir X --report R --out DIR
//
// `kernel` prints the CSV structural-scan kernel this machine dispatches
// to. The other modes make the library calls the matching dqaudit
// invocation makes, with the same configuration:
//
//   classic    dqaudit --threads N --report R
//   loadcheck  set-up: dqaudit --threads N --save-model M on T; then per
//              batch: dqaudit --load-model M --threads 1
//   stream     dqaudit --memory-budget BYTES --sample-rows K --threads N
//              --spill-dir X --report R
//
// Every call is wrapped in a span named after it ("bench.read_table",
// "bench.induce", ...) under one root span "bench.run", and the global
// tracer is on, so the library's own spans nest under the benchmark's.
// On success DIR holds trace.json (Chrome trace events), metrics.json (the
// metrics registry), summary.json (per-operation wall times and work
// counts) and flagged-<i>.txt (the rows operation i flagged, ascending).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/stream_audit.h"
#include "audit/structure_model.h"
#include "common/parallel.h"
#include "eval/report_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "table/csv_scan.h"
#include "table/ingest_backend.h"
#include "table/schema_spec.h"

using namespace dq;

namespace {

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  const std::string& Get(const std::string& name) const {
    static const std::string kEmpty;
    auto it = flags.find(name);
    return it == flags.end() ? kEmpty : it->second;
  }
};

// Work counts and wall times the trace does not carry.
struct Summary {
  std::vector<double> op_ms;
  uint64_t rows_models_scored = 0;
  uint64_t rows_checked = 0;
  uint64_t rules_total = 0;
  uint64_t flagged_total = 0;
  std::vector<std::vector<size_t>> flagged;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<size_t> FlaggedRows(const std::vector<Suspicion>& suspicious) {
  std::vector<size_t> rows;
  rows.reserve(suspicious.size());
  for (const Suspicion& s : suspicious) rows.push_back(s.row);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The configuration dqaudit builds from its defaults and --threads.
AuditorConfig DqauditConfig(int threads) {
  AuditorConfig config;
  config.num_threads = threads;
  config.c45.split_mode = SplitMode::kHistogram;
  return config;
}

CsvOptions DqauditCsvOptions(int threads) {
  CsvOptions csv;
  csv.num_threads = threads;
  return csv;
}

Result<Table> TracedRead(const Schema& schema, const std::string& path,
                         int threads) {
  obs::Span span("bench.read_table");
  return ReadTableFile(InferIngestFormat(path), schema, path,
                       DqauditCsvOptions(threads));
}

Status RunClassic(const Schema& schema, const Args& args, int threads,
                  Summary* summary) {
  const auto start = std::chrono::steady_clock::now();
  auto data = TracedRead(schema, args.Get("--data"), threads);
  if (!data.ok()) return data.status();
  const Auditor auditor(DqauditConfig(threads));
  Result<AuditModel> model = [&] {
    obs::Span span("bench.induce");
    return auditor.Induce(*data);
  }();
  if (!model.ok()) return model.status();
  Result<AuditReport> report = [&] {
    obs::Span span("bench.audit");
    return auditor.Audit(*model, *data);
  }();
  if (!report.ok()) return report.status();
  {
    obs::Span span("bench.report_write");
    Status written =
        WriteAuditReportCsvFile(*report, *data, args.Get("--report"));
    if (!written.ok()) return written;
  }
  summary->op_ms.push_back(MsSince(start));
  summary->rows_models_scored += data->num_rows() * model->num_models();
  summary->flagged_total += report->NumFlagged();
  summary->flagged.push_back(FlaggedRows(report->suspicious));
  return Status::OK();
}

Status RunLoadCheck(const Schema& schema, const Args& args, int threads,
                    Summary* summary) {
  // Set-up, as `dqaudit --threads N --save-model M --top 0` on the
  // training table: induce, persist, then audit the training table.
  {
    auto train = TracedRead(schema, args.Get("--train"), threads);
    if (!train.ok()) return train.status();
    const Auditor auditor(DqauditConfig(threads));
    Result<AuditModel> model = [&] {
      obs::Span span("bench.induce");
      return auditor.Induce(*train);
    }();
    if (!model.ok()) return model.status();
    {
      obs::Span span("bench.model_save");
      Status saved = StructureModel::FromAuditModel(*model, schema)
                         .SaveToFile(args.Get("--model"));
      if (!saved.ok()) return saved;
    }
    Result<AuditReport> report = [&] {
      obs::Span span("bench.audit");
      return auditor.Audit(*model, *train);
    }();
    if (!report.ok()) return report.status();
    summary->rows_models_scored += train->num_rows() * model->num_models();
  }

  // One batch, as `dqaudit --load-model M --threads 1`. That path writes
  // no report (it ignores --report), so neither does this one.
  const AuditorConfig batch_config = DqauditConfig(1);
  for (const std::string& batch_path : args.positional) {
    const auto start = std::chrono::steady_clock::now();
    auto batch = TracedRead(schema, batch_path, 1);
    if (!batch.ok()) return batch.status();
    Result<StructureModel> model = [&] {
      obs::Span span("bench.model_load");
      return StructureModel::LoadFromFile(schema, args.Get("--model"));
    }();
    if (!model.ok()) return model.status();
    Result<AuditReport> report = [&] {
      obs::Span span("bench.check");
      return model->Check(*batch, batch_config);
    }();
    if (!report.ok()) return report.status();
    summary->op_ms.push_back(MsSince(start));
    summary->rows_checked += batch->num_rows();
    summary->rules_total = model->TotalRules();
    summary->flagged_total += report->NumFlagged();
    summary->flagged.push_back(FlaggedRows(report->suspicious));
  }
  return Status::OK();
}

Status RunStream(const Schema& schema, const Args& args, int threads,
                 Summary* summary) {
  StreamAuditOptions stream;
  stream.sample_rows = std::stoull(args.Get("--sample-rows"));
  stream.store.memory_budget_bytes =
      std::stoull(args.Get("--memory-budget"));
  stream.store.spill_dir = args.Get("--spill-dir");
  stream.csv = DqauditCsvOptions(threads);
  stream.format = InferIngestFormat(args.Get("--data"));
  stream.auditor = DqauditConfig(threads);

  const auto start = std::chrono::steady_clock::now();
  Result<StreamAuditResult> result = [&] {
    obs::Span span("bench.stream");
    return RunStreamingAudit(schema, args.Get("--data"), stream);
  }();
  if (!result.ok()) return result.status();
  {
    obs::Span span("bench.report_write");
    Status written = WriteStreamAuditReportCsvFile(
        result->suspicious, schema, args.Get("--report"));
    if (!written.ok()) return written;
  }
  summary->op_ms.push_back(MsSince(start));
  summary->rows_models_scored +=
      result->total_rows * result->model.num_models();
  summary->flagged_total += result->suspicious.size();
  summary->flagged.push_back(FlaggedRows(result->suspicious));
  return Status::OK();
}

Status WriteSummary(const Summary& summary, const std::string& dir) {
  for (size_t i = 0; i < summary.flagged.size(); ++i) {
    std::ofstream rows(dir + "/flagged-" + std::to_string(i) + ".txt");
    for (size_t row : summary.flagged[i]) rows << row << '\n';
    if (!rows) return Status::IOError("cannot write flagged rows to " + dir);
  }
  std::ofstream out(dir + "/summary.json");
  out << "{\"rows_models_scored\": " << summary.rows_models_scored
      << ", \"rows_checked\": " << summary.rows_checked
      << ", \"rules_total\": " << summary.rules_total
      << ", \"flagged_total\": " << summary.flagged_total
      << ", \"op_ms\": [";
  for (size_t i = 0; i < summary.op_ms.size(); ++i) {
    out << (i == 0 ? "" : ", ") << summary.op_ms[i];
  }
  out << "]}\n";
  if (!out) return Status::IOError("cannot write " + dir + "/summary.json");
  return Status::OK();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= argc) return false;
      args->flags[arg] = argv[++i];
    } else {
      args->positional.push_back(arg);
    }
  }
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "dqtrace: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: dqtrace kernel | classic | loadcheck | "
                         "stream [flags] (see dqtrace.cc)\n");
    return 2;
  }
  if (args.mode == "kernel") {
    std::printf("%s\n", csvscan::SimdLevel());
    return 0;
  }
  auto schema = ParseSchemaSpecFile(args.Get("--schema"));
  if (!schema.ok()) return Fail(schema.status());
  const int threads =
      ResolveThreadCount(std::atoi(args.Get("--threads").c_str()));
  const std::string& out_dir = args.Get("--out");

  obs::Tracer::Global().SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  Summary summary;
  Status ran = Status::OK();
  {
    obs::Span root("bench.run");
    if (args.mode == "classic") {
      ran = RunClassic(*schema, args, threads, &summary);
    } else if (args.mode == "loadcheck") {
      ran = RunLoadCheck(*schema, args, threads, &summary);
    } else if (args.mode == "stream") {
      ran = RunStream(*schema, args, threads, &summary);
    } else {
      ran = Status::InvalidArgument("unknown mode '" + args.mode + "'");
    }
  }
  if (!ran.ok()) return Fail(ran);

  obs::SyncPoolMetrics();
  Status written =
      obs::Tracer::Global().WriteChromeTraceFile(out_dir + "/trace.json");
  if (written.ok()) {
    written = obs::MetricsRegistry::Global().WriteJsonFile(out_dir +
                                                           "/metrics.json");
  }
  if (written.ok()) written = WriteSummary(summary, out_dir);
  if (!written.ok()) return Fail(written);
  return 0;
}
