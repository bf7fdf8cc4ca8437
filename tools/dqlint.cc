// dqlint — static analyzer for TDG-rule programs.
//
// Usage:
//   dqlint --schema spec.txt [options] rules.rules [more.rules ...]
//
// Options:
//   --schema FILE     schema specification (see table/schema_spec.h)
//   --format FMT      text | json (default text)
//   --disable LIST    comma-separated check IDs or names to suppress
//                     (e.g. DQ022 or subsumed-rule)
//   --strict          warnings also fail the run (exit 1)
//   --quiet           suppress diagnostics; exit code only
//   --list-checks     print the check registry and exit
//   --trace-out FILE  write the span tree of the run as Chrome trace-event
//                     JSON (load in Perfetto / chrome://tracing)
//   --metrics-out FILE write the metrics registry snapshot as JSON
//   --log-level LEVEL debug | info | warn | error | off (default info)
//
// Exit codes: 0 = clean (or warnings without --strict), 1 = findings at the
// failing severity, 2 = usage or I/O error. Designed for CI gating: run it
// over every rule file a deployment ships.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "flag_parse.h"
#include "lint/lint.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/schema_spec.h"

using namespace dq;

namespace {

struct Options {
  std::string schema_path;
  std::string format = "text";
  std::vector<std::string> rule_files;
  LintOptions lint;
  bool strict = false;
  bool quiet = false;
  bool list_checks = false;
  std::string trace_out_path;
  std::string metrics_out_path;
};

void Usage() {
  std::fprintf(stderr,
               "usage: dqlint --schema spec.txt [--format text|json]\n"
               "  [--disable DQ022,tautological-conclusion] [--strict]\n"
               "  [--quiet] [--list-checks] [--trace-out trace.json]\n"
               "  [--metrics-out metrics.json]\n"
               "  [--log-level debug|info|warn|error|off]\n"
               "  rules.rules [more.rules ...]\n");
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
    if (arg == "--format" && need_value(&opts->format)) continue;
    if (arg == "--disable" && need_value(&value)) {
      for (const std::string& item : SplitString(value, ',')) {
        std::string_view trimmed = TrimWhitespace(item);
        if (!trimmed.empty()) opts->lint.disabled.insert(std::string(trimmed));
      }
      continue;
    }
    if (arg == "--strict") {
      opts->strict = true;
      continue;
    }
    if (arg == "--quiet") {
      opts->quiet = true;
      continue;
    }
    if (arg == "--list-checks") {
      opts->list_checks = true;
      continue;
    }
    if (arg == "--trace-out" && need_value(&opts->trace_out_path)) continue;
    if (arg == "--metrics-out" && need_value(&opts->metrics_out_path)) {
      continue;
    }
    if (arg == "--log-level" && need_value(&value)) {
      if (!ParseLogLevelFlag(arg, value)) return false;
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
    opts->rule_files.push_back(arg);
  }
  if (opts->list_checks) return true;
  if (opts->format != "text" && opts->format != "json") {
    std::fprintf(stderr, "unknown --format '%s'\n", opts->format.c_str());
    return false;
  }
  return !opts->schema_path.empty() && !opts->rule_files.empty();
}

void ListChecks() {
  std::printf("%-7s %-24s %-8s %s\n", "ID", "NAME", "SEVERITY", "SUMMARY");
  for (const LintCheckInfo& check : LintChecks()) {
    std::printf("%-7s %-24s %-8s %s\n", check.id, check.name,
                LintSeverityToString(check.severity), check.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  if (opts.list_checks) {
    ListChecks();
    return 0;
  }
  obs::Tracer::Global().SetEnabled(true);

  obs::RunManifest manifest = obs::MakeRunManifest("dqlint", argc, argv);
  (void)obs::AddInputFileHash(&manifest, "schema", opts.schema_path);
  for (const std::string& path : opts.rule_files) {
    (void)obs::AddInputFileHash(&manifest, "rules:" + path, path);
  }

  auto schema = ParseSchemaSpecFile(opts.schema_path);
  if (!schema.ok()) {
    DQ_LOG_ERROR("dqlint", "%s", schema.status().ToString().c_str());
    return 2;
  }

  Linter linter(&*schema, opts.lint);
  bool failed = false;
  size_t errors = 0;
  size_t warnings = 0;
  for (size_t f = 0; f < opts.rule_files.size(); ++f) {
    const std::string& path = opts.rule_files[f];
    obs::Span span("lint.file", static_cast<int64_t>(f));
    auto result = linter.LintFileAt(path);
    if (!result.ok()) {
      DQ_LOG_ERROR("dqlint", "%s", result.status().ToString().c_str());
      return 2;
    }
    if (!opts.quiet) {
      const std::string rendered = opts.format == "json"
                                       ? RenderLintJson(*result, path)
                                       : RenderLintText(*result, path);
      std::fputs(rendered.c_str(), stdout);
    }
    errors += result->NumErrors();
    warnings += result->NumWarnings();
    if (result->HasErrors() || (opts.strict && result->NumWarnings() > 0)) {
      failed = true;
    }
  }
  obs::GetCounter("lint.files_checked")->Add(opts.rule_files.size());
  obs::GetCounter("lint.errors")->Add(errors);
  obs::GetCounter("lint.warnings")->Add(warnings);

  Status exported =
      obs::ExportRun(&manifest, opts.trace_out_path, opts.metrics_out_path);
  if (!exported.ok()) {
    DQ_LOG_ERROR("dqlint", "%s", exported.ToString().c_str());
    return 2;
  }
  return failed ? 1 : 0;
}
