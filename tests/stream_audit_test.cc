// Streaming audit end-to-end properties: chunked QUIS generation is
// bitwise identical to one-shot, and the out-of-core audit reproduces the
// classic in-memory ranking exactly — with and without spilling.

#include "audit/stream_audit.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/review.h"
#include "audit/structure_model.h"
#include "common/timer.h"
#include "eval/report_io.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "quis/quis_sample.h"
#include "table/columnar.h"
#include "table/csv.h"

namespace dq {
namespace {

QuisConfig SmallQuis() {
  QuisConfig config;
  config.num_records = 2500;
  config.seed = 17;
  return config;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      ASSERT_TRUE(a.cell(r, c).StrictEquals(b.cell(r, c)))
          << "row " << r << " attr " << c;
    }
  }
}

void ExpectSameSuspicions(const std::vector<Suspicion>& a,
                          const std::vector<Suspicion>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row) << "rank " << i;
    EXPECT_EQ(a[i].error_confidence, b[i].error_confidence) << "rank " << i;
    EXPECT_EQ(a[i].attr, b[i].attr) << "rank " << i;
    EXPECT_TRUE(a[i].observed.StrictEquals(b[i].observed)) << "rank " << i;
    EXPECT_TRUE(a[i].suggestion.StrictEquals(b[i].suggestion)) << "rank " << i;
    EXPECT_EQ(a[i].support, b[i].support) << "rank " << i;
  }
}

TEST(QuisStreamGeneratorTest, ChunkedGenerationMatchesOneShot) {
  const QuisConfig config = SmallQuis();
  auto one_shot = GenerateQuisSample(config);
  ASSERT_TRUE(one_shot.ok());

  auto gen = QuisStreamGenerator::Create(config);
  ASSERT_TRUE(gen.ok());
  Table assembled(gen->schema());
  Table chunk;
  size_t chunks = 0;
  while (!gen->done()) {
    // 97 does not divide 2500, so the last chunk is a partial one.
    ASSERT_TRUE(gen->NextChunk(97, &chunk).ok());
    assembled.AppendFrom(chunk);
    ++chunks;
  }
  EXPECT_GT(chunks, 20u);
  EXPECT_EQ(gen->records_generated(), config.num_records);
  ExpectTablesEqual(one_shot->table, assembled);

  // Planted-dependency bookkeeping survives chunking unchanged.
  EXPECT_EQ(gen->planted_deviation_row(), one_shot->planted_deviation_row);
  EXPECT_EQ(gen->brv404_count(), one_shot->brv404_count);
  EXPECT_EQ(gen->kbm01_gbm901_count(), one_shot->kbm01_gbm901_count);
  EXPECT_EQ(gen->kbm01_gbm901_brv501_count(),
            one_shot->kbm01_gbm901_brv501_count);
}

class StreamAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sample = GenerateQuisSample(SmallQuis());
    ASSERT_TRUE(sample.ok());
    table_ = std::move(sample->table);
    csv_path_ = TestPath(".csv");
    ASSERT_TRUE(WriteCsvFile(table_, csv_path_).ok());
  }

  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(csv_path_, ignored);
    std::filesystem::remove(TestPath(".dqcol"), ignored);
  }

  /// Scratch path named after the running test: ctest runs every test of
  /// this suite as its own process, concurrently under -j, so a shared
  /// fixed path would let one test overwrite another's input mid-read.
  static std::string TestPath(const std::string& suffix) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/stream_audit_" + info->name() + suffix;
  }

  StreamAuditOptions FullSampleOptions() const {
    StreamAuditOptions options;
    options.sample_rows = table_.num_rows() * 2;  // sample == full table
    options.store.segment_rows = 300;
    return options;
  }

  Table table_{Schema()};
  std::string csv_path_;
};

TEST_F(StreamAuditTest, StreamingEqualsClassicWhenSampleCoversTable) {
  const StreamAuditOptions options = FullSampleOptions();
  Auditor auditor(options.auditor);
  auto model = auditor.Induce(table_);
  ASSERT_TRUE(model.ok());
  auto classic = auditor.Audit(*model, table_);
  ASSERT_TRUE(classic.ok());
  ASSERT_GT(classic->suspicious.size(), 0u);

  auto streamed = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->total_rows, table_.num_rows());
  EXPECT_EQ(streamed->sampled_rows, table_.num_rows());
  ExpectSameSuspicions(classic->suspicious, streamed->suspicious);

  // And the two report writers emit identical bytes for identical input.
  std::ostringstream classic_csv;
  ASSERT_TRUE(WriteAuditReportCsv(*classic, table_, &classic_csv).ok());
  std::ostringstream stream_csv;
  ASSERT_TRUE(WriteStreamAuditReportCsv(streamed->suspicious, table_.schema(),
                                        &stream_csv)
                  .ok());
  EXPECT_EQ(classic_csv.str(), stream_csv.str());
}

TEST_F(StreamAuditTest, ReportIsInvariantUnderMemoryBudget) {
  StreamAuditOptions unbudgeted = FullSampleOptions();
  auto wide = RunStreamingAudit(table_.schema(), csv_path_, unbudgeted);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->store_stats.spill_writes, 0u);

  StreamAuditOptions budgeted = FullSampleOptions();
  budgeted.store.memory_budget_bytes = 8 * 1024;  // forces spilling
  budgeted.store.spill_dir = TestPath("_spill");
  auto tight = RunStreamingAudit(table_.schema(), csv_path_, budgeted);
  ASSERT_TRUE(tight.ok());
  EXPECT_GT(tight->store->num_segments(), 1u);
  EXPECT_GT(tight->store_stats.spill_writes, 0u);
  EXPECT_GT(tight->store_stats.spill_reads, 0u);

  ExpectSameSuspicions(wide->suspicious, tight->suspicious);
  // The result owns the store, so its spill files outlive the run; the
  // spill directory is removed once the store is gone.
  EXPECT_TRUE(std::filesystem::exists(budgeted.store.spill_dir));
  tight->store.reset();
  EXPECT_FALSE(std::filesystem::exists(budgeted.store.spill_dir));
}

TEST_F(StreamAuditTest, SubSampledModelStillRanksDeterministically) {
  StreamAuditOptions options = FullSampleOptions();
  options.sample_rows = 800;  // genuine subsample
  auto first = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->sampled_rows, 800u);
  auto second = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(second.ok());
  ExpectSameSuspicions(first->suspicious, second->suspicious);
  // Ranking is confidence-descending with row-ascending tie-breaks.
  for (size_t i = 1; i < first->suspicious.size(); ++i) {
    const Suspicion& prev = first->suspicious[i - 1];
    const Suspicion& cur = first->suspicious[i];
    EXPECT_TRUE(prev.error_confidence > cur.error_confidence ||
                (prev.error_confidence == cur.error_confidence &&
                 prev.row < cur.row))
        << "rank " << i;
  }
}

TEST_F(StreamAuditTest, SegmentParallelRankingIsThreadCountInvariant) {
  // The bounded-window parallel checker must reproduce the serial ranking
  // bit for bit: per-segment reports are thread-count invariant and the
  // merge walks segments in order regardless of who computed them.
  StreamAuditOptions serial = FullSampleOptions();
  serial.auditor.num_threads = 1;
  auto one = RunStreamingAudit(table_.schema(), csv_path_, serial);
  ASSERT_TRUE(one.ok());
  ASSERT_GT(one->suspicious.size(), 0u);
  // Segments seal at exactly segment_rows: 2,500 rows make 9 segments, so
  // every thread count below checks more than one window of segments and
  // merges across them.
  EXPECT_EQ(one->store->num_segments(), 9u);
  for (int threads : {2, 3, 8}) {
    StreamAuditOptions parallel = FullSampleOptions();
    parallel.auditor.num_threads = threads;
    auto many = RunStreamingAudit(table_.schema(), csv_path_, parallel);
    ASSERT_TRUE(many.ok()) << "threads=" << threads;
    ExpectSameSuspicions(one->suspicious, many->suspicious);
  }
}

TEST_F(StreamAuditTest, DqcolInputReproducesCsvReport) {
  // Convert the CSV to dqcol and stream-audit both: the ingest backend
  // seam must make the report independent of the on-disk format.
  auto loaded = ReadCsvFile(table_.schema(), csv_path_);
  ASSERT_TRUE(loaded.ok());
  const std::string dqcol_path = TestPath(".dqcol");
  ASSERT_TRUE(WriteDqcolFile(*loaded, dqcol_path).ok());

  const StreamAuditOptions csv_options = FullSampleOptions();
  auto from_csv = RunStreamingAudit(table_.schema(), csv_path_, csv_options);
  ASSERT_TRUE(from_csv.ok());

  StreamAuditOptions dqcol_options = FullSampleOptions();
  dqcol_options.format = IngestFormat::kDqcol;
  auto from_dqcol =
      RunStreamingAudit(table_.schema(), dqcol_path, dqcol_options);
  ASSERT_TRUE(from_dqcol.ok());
  EXPECT_EQ(from_dqcol->total_rows, from_csv->total_rows);
  ExpectSameSuspicions(from_csv->suspicious, from_dqcol->suspicious);

  std::ostringstream csv_report;
  ASSERT_TRUE(WriteStreamAuditReportCsv(from_csv->suspicious, table_.schema(),
                                        &csv_report)
                  .ok());
  std::ostringstream dqcol_report;
  ASSERT_TRUE(WriteStreamAuditReportCsv(from_dqcol->suspicious,
                                        table_.schema(), &dqcol_report)
                  .ok());
  EXPECT_EQ(csv_report.str(), dqcol_report.str());
}

TEST_F(StreamAuditTest, RejectsZeroSampleRows) {
  StreamAuditOptions options = FullSampleOptions();
  options.sample_rows = 0;
  auto result = RunStreamingAudit(table_.schema(), csv_path_, options);
  EXPECT_FALSE(result.ok());
}

TEST_F(StreamAuditTest, AuditMsIsTheCheckPhaseWallTime) {
  // Segments are checked concurrently, so summing their busy times would
  // overstate the phase; audit_ms must fit inside the call's own wall time.
  StreamAuditOptions options = FullSampleOptions();
  options.store.segment_rows = 100;  // 25 segments
  options.csv.batch_records = 100;
  options.auditor.num_threads = 4;
  const WallTimer call;
  auto result = RunStreamingAudit(table_.schema(), csv_path_, options);
  const double call_ms = call.ElapsedMs();
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->store->num_segments(), 4u);
  EXPECT_GT(result->timings.audit_ms, 0.0);
  EXPECT_LE(result->timings.audit_ms, call_ms);
  EXPECT_LE(result->timings.ingest_ms + result->timings.induce_ms +
                result->timings.audit_ms,
            call_ms);
}

TEST_F(StreamAuditTest, TraceTreeIsThreadCountInvariant) {
  // The per-segment check spans stitch under the caller's span, so the
  // stitched tree is the same whichever thread ran each segment.
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool was_enabled = tracer.enabled();
  tracer.SetEnabled(true);
  auto tree_at = [&](int threads) {
    tracer.Reset();
    StreamAuditOptions options = FullSampleOptions();
    options.csv.batch_records = 100;  // many segments, several windows
    options.auditor.num_threads = threads;
    {
      obs::Span root("test.run");
      EXPECT_TRUE(RunStreamingAudit(table_.schema(), csv_path_, options).ok());
    }
    return tracer.TreeSummary();
  };
  const std::string serial = tree_at(1);
  const std::string parallel = tree_at(4);
  tracer.Reset();
  tracer.SetEnabled(was_enabled);
  EXPECT_NE(serial.find("audit.score"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

TEST_F(StreamAuditTest, PersistedModelCheckMatchesWholeTableCheck) {
  StreamAuditOptions options = FullSampleOptions();
  const Auditor auditor(options.auditor);
  auto induced = auditor.Induce(table_);
  ASSERT_TRUE(induced.ok());
  const StructureModel model =
      StructureModel::FromAuditModel(*induced, table_.schema());
  auto whole = model.Check(table_, options.auditor);
  ASSERT_TRUE(whole.ok());
  ASSERT_GT(whole->suspicious.size(), 0u);

  options.model = &model;
  options.store.memory_budget_bytes = 8 * 1024;  // forces spilling
  options.store.spill_dir = TestPath("_spill");
  auto streamed = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(streamed.ok());
  EXPECT_GT(streamed->store_stats.spill_writes, 0u);
  EXPECT_EQ(streamed->model.num_models(), 0u);  // nothing induced
  ExpectSameSuspicions(whole->suspicious, streamed->suspicious);
}

TEST_F(StreamAuditTest, TrainPathIsTheInductionSource) {
  // Induce on the first 1500 rows, audit all 2500: equal to Induce on the
  // training table plus Audit of the whole table, with and without a
  // spilling budget (whose reservoir then samples the training file).
  Table train(table_.schema());
  for (size_t r = 0; r < 1500; ++r) {
    train.AppendRowUnchecked(table_.row(r));
  }
  const std::string train_path = TestPath("_train.csv");
  ASSERT_TRUE(WriteCsvFile(train, train_path).ok());
  StreamAuditOptions options = FullSampleOptions();
  const Auditor auditor(options.auditor);
  auto model = auditor.Induce(train);
  ASSERT_TRUE(model.ok());
  auto classic = auditor.Audit(*model, table_);
  ASSERT_TRUE(classic.ok());

  options.train_path = train_path;
  auto resident = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident->sampled_rows, 1500u);
  EXPECT_EQ(resident->train_ingest.records_kept, 1500u);
  ExpectSameSuspicions(classic->suspicious, resident->suspicious);

  options.store.memory_budget_bytes = 8 * 1024;
  options.store.spill_dir = TestPath("_spill");
  auto spilled = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(spilled.ok());
  EXPECT_GT(spilled->store_stats.spill_writes, 0u);
  EXPECT_EQ(spilled->sampled_rows, 1500u);
  ExpectSameSuspicions(classic->suspicious, spilled->suspicious);
  std::filesystem::remove(train_path);
}

TEST_F(StreamAuditTest, OneSegmentInputInducesInPlace) {
  // Without a budget a one-segment input is the induction table itself:
  // the model and ranking equal the whole-table audit's.
  StreamAuditOptions options = FullSampleOptions();
  options.store.segment_rows = table_.num_rows() + 1;
  auto result = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->store->num_segments(), 1u);
  EXPECT_EQ(result->sampled_rows, table_.num_rows());
  const Auditor auditor(options.auditor);
  auto model = auditor.Induce(table_);
  ASSERT_TRUE(model.ok());
  auto classic = auditor.Audit(*model, table_);
  ASSERT_TRUE(classic.ok());
  ExpectSameSuspicions(classic->suspicious, result->suspicious);
}

TEST_F(StreamAuditTest, SegmentConsumersMatchTheWholeTable) {
  // The corrected table and the review sheets read the records back
  // segment by segment, spilled or not, and equal their whole-table forms.
  StreamAuditOptions options = FullSampleOptions();
  const Auditor auditor(options.auditor);
  auto model = auditor.Induce(table_);
  ASSERT_TRUE(model.ok());
  auto classic = auditor.Audit(*model, table_);
  ASSERT_TRUE(classic.ok());
  auto corrected = auditor.ApplyCorrections(*classic, table_);
  ASSERT_TRUE(corrected.ok());
  std::ostringstream expected_csv;
  ASSERT_TRUE(WriteCsv(*corrected, &expected_csv).ok());

  options.store.memory_budget_bytes = 8 * 1024;
  options.store.spill_dir = TestPath("_spill");
  auto streamed = RunStreamingAudit(table_.schema(), csv_path_, options);
  ASSERT_TRUE(streamed.ok());
  const std::string path = TestPath("_corrected.csv");
  ASSERT_TRUE(WriteCorrectedCsvFile(*streamed, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected_csv.str());
  std::filesystem::remove(path);

  for (size_t i = 0; i < 5; ++i) {
    const size_t row = classic->suspicious[i].row;
    auto detail = ExplainRecord(*model, table_, row, options.auditor);
    ASSERT_TRUE(detail.ok());
    auto sheet = ExplainStreamedRow(*streamed, row, options.auditor);
    ASSERT_TRUE(sheet.ok());
    EXPECT_EQ(*sheet, RenderSuspicionDetail(*detail, *model, table_));
  }
  EXPECT_FALSE(
      ExplainStreamedRow(*streamed, table_.num_rows(), options.auditor).ok());
}

TEST_F(StreamAuditTest, FailedIngestStillReportsItsQuarantine) {
  const std::string bad_path = TestPath("_bad.csv");
  {
    std::ifstream in(csv_path_, std::ios::binary);
    std::ofstream out(bad_path, std::ios::binary);
    out << in.rdbuf() << "too,few\n";
  }
  IngestReport ingest;
  auto result = RunStreamingAudit(table_.schema(), bad_path,
                                  FullSampleOptions(), &ingest);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(ingest.records_quarantined, 1u);
  EXPECT_EQ(ingest.records_kept, table_.num_rows());
  std::filesystem::remove(bad_path);
}

}  // namespace
}  // namespace dq
