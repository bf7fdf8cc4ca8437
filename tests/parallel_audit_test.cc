// Determinism tests for the parallel audit pipeline: every thread count
// must produce bitwise-identical models, reports and metrics, and the
// presorted C4.5 path must grow exactly the tree the per-node-sort path
// grows.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/auditor.h"
#include "audit/structure_model.h"
#include "common/random.h"
#include "eval/test_environment.h"
#include "mining/c45.h"
#include "obs/metrics.h"
#include "quis/quis_sample.h"

namespace dq {
namespace {

Schema AuditSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2"}).ok());
  EXPECT_TRUE(s.AddNominal("W", {"w0", "w1", "w2", "w3"}).ok());
  return s;
}

/// Y deterministically mirrors X; W random. Plants `errors` deviating
/// records at the front.
Table PlantedTable(size_t rows, size_t errors, uint64_t seed) {
  Schema s = AuditSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t y = x;
    if (r < errors) y = (x + 1) % 3;  // deviation
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    row[2] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

std::string Serialized(const AuditModel& model, const Schema& schema) {
  StructureModel sm = StructureModel::FromAuditModel(model, schema);
  std::ostringstream out;
  EXPECT_TRUE(sm.SerializeTo(&out).ok());
  return out.str();
}

void ExpectIdenticalReports(const AuditReport& a, const AuditReport& b) {
  ASSERT_EQ(a.record_confidence.size(), b.record_confidence.size());
  for (size_t r = 0; r < a.record_confidence.size(); ++r) {
    EXPECT_EQ(a.record_confidence[r], b.record_confidence[r]) << "row " << r;
    EXPECT_EQ(a.record_attr[r], b.record_attr[r]) << "row " << r;
    EXPECT_EQ(a.record_support[r], b.record_support[r]) << "row " << r;
    EXPECT_TRUE(a.record_suggestion[r].StrictEquals(b.record_suggestion[r]))
        << "row " << r;
    EXPECT_EQ(a.IsFlagged(r), b.IsFlagged(r)) << "row " << r;
  }
  ASSERT_EQ(a.suspicious.size(), b.suspicious.size());
  for (size_t i = 0; i < a.suspicious.size(); ++i) {
    EXPECT_EQ(a.suspicious[i].row, b.suspicious[i].row) << "rank " << i;
    EXPECT_EQ(a.suspicious[i].error_confidence,
              b.suspicious[i].error_confidence)
        << "rank " << i;
    EXPECT_EQ(a.suspicious[i].attr, b.suspicious[i].attr) << "rank " << i;
  }
}

TEST(ParallelAuditTest, ThreadCountDoesNotChangeModelOrReport) {
  Table t = PlantedTable(3000, 5, 40);

  AuditorConfig serial_cfg;
  serial_cfg.num_threads = 1;
  Auditor serial(serial_cfg);
  auto serial_model = serial.Induce(t);
  ASSERT_TRUE(serial_model.ok()) << serial_model.status();
  auto serial_report = serial.Audit(*serial_model, t);
  ASSERT_TRUE(serial_report.ok());

  AuditorConfig parallel_cfg;
  parallel_cfg.num_threads = 4;
  Auditor parallel(parallel_cfg);
  AuditTimings timings;
  auto parallel_model = parallel.Induce(t, &timings);
  ASSERT_TRUE(parallel_model.ok()) << parallel_model.status();
  auto parallel_report = parallel.Audit(*parallel_model, t, &timings);
  ASSERT_TRUE(parallel_report.ok());

  EXPECT_EQ(timings.threads_used, 4);
  EXPECT_EQ(timings.induce_attr_ms.size(), t.schema().num_attributes());
  EXPECT_EQ(Serialized(*serial_model, t.schema()),
            Serialized(*parallel_model, t.schema()));
  ExpectIdenticalReports(*serial_report, *parallel_report);
}

TEST(ParallelAuditTest, WideThreadCountsAgreeWithSerial) {
  Table t = PlantedTable(3000, 5, 40);

  AuditorConfig serial_cfg;
  serial_cfg.num_threads = 1;
  Auditor serial(serial_cfg);
  auto serial_model = serial.Induce(t);
  ASSERT_TRUE(serial_model.ok()) << serial_model.status();
  auto serial_report = serial.Audit(*serial_model, t);
  ASSERT_TRUE(serial_report.ok());

  for (int threads : {2, 8}) {
    AuditorConfig cfg;
    cfg.num_threads = threads;
    Auditor auditor(cfg);
    auto model = auditor.Induce(t);
    ASSERT_TRUE(model.ok()) << "threads=" << threads;
    auto report = auditor.Audit(*model, t);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    EXPECT_EQ(Serialized(*serial_model, t.schema()),
              Serialized(*model, t.schema()))
        << "threads=" << threads;
    ExpectIdenticalReports(*serial_report, *report);
  }
}

TEST(ParallelAuditTest, AuditSharesOneProcessPool) {
  // Every parallel loop of Induce (encode, induction) and Audit (scoring)
  // runs on the one process pool: at most its creation shows up here,
  // never a pool per call site.
  Table t = PlantedTable(2000, 3, 42);
  AuditorConfig cfg;
  cfg.num_threads = 4;
  Auditor auditor(cfg);
  obs::SyncPoolMetrics();
  const double before = obs::GetGauge("pool.pools_created")->Value();
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  auto report = auditor.Audit(*model, t);
  ASSERT_TRUE(report.ok());
  obs::SyncPoolMetrics();
  EXPECT_LE(obs::GetGauge("pool.pools_created")->Value() - before, 1.0);
}

TEST(ParallelAuditTest, EncodeCacheIsBuiltOncePerAudit) {
  Table t = PlantedTable(2000, 3, 42);
  obs::Counter* const builds = obs::GetCounter("audit.encode_builds");
  for (int threads : {1, 2, 8}) {
    AuditorConfig cfg;
    cfg.num_threads = threads;
    Auditor auditor(cfg);
    const uint64_t before = builds->Value();
    auto model = auditor.Induce(t);
    ASSERT_TRUE(model.ok());
    auto report = auditor.Audit(*model, t);
    ASSERT_TRUE(report.ok());
    // The whole audit — k parallel inductions plus scoring — shares ONE
    // EncodedDataset build.
    EXPECT_EQ(builds->Value() - before, 1u) << "threads=" << threads;
  }
}

TEST(ParallelAuditTest, StructureModelCheckMatchesAcrossThreadCounts) {
  Table t = PlantedTable(2500, 4, 77);
  AuditorConfig cfg;
  cfg.num_threads = 1;
  Auditor auditor(cfg);
  auto model = auditor.Induce(t);
  ASSERT_TRUE(model.ok());
  StructureModel sm = StructureModel::FromAuditModel(*model, t.schema());

  auto serial = sm.Check(t, cfg);
  ASSERT_TRUE(serial.ok());
  cfg.num_threads = 4;
  auto parallel = sm.Check(t, cfg);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalReports(*serial, *parallel);
}

TEST(ParallelAuditTest, EvaluationMetricsMatchAcrossThreadCounts) {
  TestEnvironmentConfig cfg;
  cfg.num_records = 2000;
  cfg.num_rules = 20;
  cfg.seed = 11;
  cfg.auditor.num_threads = 1;
  auto serial = TestEnvironment(cfg).Run();
  ASSERT_TRUE(serial.ok()) << serial.status();
  cfg.auditor.num_threads = 4;
  auto parallel = TestEnvironment(cfg).Run();
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  EXPECT_EQ(serial->sensitivity, parallel->sensitivity);
  EXPECT_EQ(serial->specificity, parallel->specificity);
  EXPECT_EQ(serial->correction_improvement, parallel->correction_improvement);
  EXPECT_EQ(serial->flagged, parallel->flagged);
  EXPECT_EQ(serial->detection.true_positive, parallel->detection.true_positive);
  EXPECT_EQ(serial->detection.true_negative, parallel->detection.true_negative);
}

// --- presort vs. per-node-sort equivalence ----------------------------------------

Schema MiningSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2", "y3"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

/// Class depends on both X and a Z threshold; `null_prob` pokes missing
/// values into Z to exercise the fractional-weight replication.
Table MixedTable(size_t rows, double null_prob, uint64_t seed) {
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    const double z = rng.UniformReal(0, 100);
    int32_t cls = z <= 50.0 ? x : (x + 1) % 3;
    if (rng.Bernoulli(0.03)) cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    row[2] = rng.Bernoulli(null_prob) ? Value::Null() : Value::Numeric(z);
    row[3] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

void ExpectSameTree(const Table& t) {
  auto enc = ClassEncoder::Fit(t, 3, 8);
  ASSERT_TRUE(enc.ok());
  TrainingData td;
  td.table = &t;
  td.class_attr = 3;
  td.base_attrs = {0, 1, 2};
  td.encoder = &*enc;

  // The presort flag only exists on the exact evaluator; pin it so the
  // histogram default cannot make both sides take the same path.
  C45Config presorted_cfg;
  presorted_cfg.split_mode = SplitMode::kExact;
  presorted_cfg.presort = true;
  C45Tree presorted(presorted_cfg);
  ASSERT_TRUE(presorted.Train(td).ok());

  C45Config legacy_cfg;
  legacy_cfg.split_mode = SplitMode::kExact;
  legacy_cfg.presort = false;
  C45Tree legacy(legacy_cfg);
  ASSERT_TRUE(legacy.Train(td).ok());

  EXPECT_EQ(presorted.NodeCount(), legacy.NodeCount());
  EXPECT_EQ(presorted.LeafCount(), legacy.LeafCount());
  EXPECT_EQ(presorted.ToString(t.schema()), legacy.ToString(t.schema()));

  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Row probe(4);
    probe[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    probe[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    probe[2] = rng.Bernoulli(0.1) ? Value::Null()
                                  : Value::Numeric(rng.UniformReal(0, 100));
    const Prediction a = presorted.Predict(probe);
    const Prediction b = legacy.Predict(probe);
    ASSERT_EQ(a.distribution.size(), b.distribution.size());
    for (size_t c = 0; c < a.distribution.size(); ++c) {
      EXPECT_DOUBLE_EQ(a.distribution[c], b.distribution[c]);
    }
    EXPECT_DOUBLE_EQ(a.support, b.support);
  }
}

TEST(C45PresortTest, MatchesLegacyOnNumericSplits) {
  ExpectSameTree(MixedTable(2000, 0.0, 5));
}

TEST(C45PresortTest, MatchesLegacyWithMissingValues) {
  ExpectSameTree(MixedTable(2000, 0.15, 6));
}

TEST(C45PresortTest, MatchesLegacyOnNominalOnlyData) {
  // No ordered attribute at all: the presort flag must be a no-op.
  ExpectSameTree(MixedTable(500, 1.0, 7));
}

TEST(C45PresortTest, QuisAuditIsIdenticalUnderPresortAndThreads) {
  QuisConfig qcfg;
  qcfg.num_records = 5000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());

  AuditorConfig legacy_cfg;
  legacy_cfg.num_threads = 1;
  legacy_cfg.c45.split_mode = SplitMode::kExact;
  legacy_cfg.c45.presort = false;
  Auditor legacy(legacy_cfg);
  auto legacy_model = legacy.Induce(sample->table);
  ASSERT_TRUE(legacy_model.ok());
  auto legacy_report = legacy.Audit(*legacy_model, sample->table);
  ASSERT_TRUE(legacy_report.ok());

  AuditorConfig fast_cfg;
  fast_cfg.num_threads = 4;  // presort on by default
  fast_cfg.c45.split_mode = SplitMode::kExact;
  Auditor fast(fast_cfg);
  auto fast_model = fast.Induce(sample->table);
  ASSERT_TRUE(fast_model.ok());
  auto fast_report = fast.Audit(*fast_model, sample->table);
  ASSERT_TRUE(fast_report.ok());

  EXPECT_EQ(Serialized(*legacy_model, sample->table.schema()),
            Serialized(*fast_model, sample->table.schema()));
  ExpectIdenticalReports(*legacy_report, *fast_report);
}

}  // namespace
}  // namespace dq
