#include "eval/report_io.h"

#include <fstream>
#include <ostream>

#include "audit/stream_audit.h"

namespace dq {

Status WriteAuditReportCsv(const AuditReport& report, const Table& data,
                           std::ostream* out) {
  // The pipeline's writer (audit/stream_audit.h), after the one check it
  // cannot make without the table: every reported row exists.
  for (const Suspicion& s : report.suspicious) {
    if (s.row >= data.num_rows()) {
      return Status::InvalidArgument("report does not match the table");
    }
  }
  return WriteStreamAuditReportCsv(report.suspicious, data.schema(), out);
}

Status WriteAuditReportCsvFile(const AuditReport& report, const Table& data,
                               const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteAuditReportCsv(report, data, &f);
}

}  // namespace dq
