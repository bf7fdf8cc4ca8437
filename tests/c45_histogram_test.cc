// Histogram split evaluator tests: value binning, exact-vs-histogram tree
// identity in the bins-cover-every-distinct-value regime, invariance under
// sibling subtraction and intra-tree thread counts, and statistical
// equivalence of full audits when binning is genuinely lossy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "audit/auditor.h"
#include "common/parallel.h"
#include "common/random.h"
#include "mining/c45.h"
#include "mining/encoded_dataset.h"
#include "mining/histogram.h"
#include "quis/quis_sample.h"

namespace dq {
namespace {

// --- BuildAttributeBins ---------------------------------------------------

std::vector<uint32_t> SortOrder(const std::vector<double>& col) {
  std::vector<uint32_t> order;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!std::isnan(col[r])) order.push_back(static_cast<uint32_t>(r));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&col](uint32_t x, uint32_t y) { return col[x] < col[y]; });
  return order;
}

TEST(AttributeBinsTest, FewDistinctValuesGetOneBinEach) {
  const std::vector<double> col = {5.0, 1.0, 5.0, 3.0, 1.0, 3.0, 3.0};
  const AttributeBins bins =
      BuildAttributeBins(col.data(), SortOrder(col), col.size(), 255);
  ASSERT_EQ(bins.num_bins, 3);
  EXPECT_EQ(bins.lower, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_EQ(bins.upper, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_EQ(bins.codes,
            (std::vector<uint8_t>{2, 0, 2, 1, 0, 1, 1}));
}

TEST(AttributeBinsTest, NullRowsGetTheNullCode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> col = {2.0, nan, 1.0, nan};
  const AttributeBins bins =
      BuildAttributeBins(col.data(), SortOrder(col), col.size(), 255);
  ASSERT_EQ(bins.num_bins, 2);
  EXPECT_EQ(bins.codes[0], 1);
  EXPECT_EQ(bins.codes[1], kNullBinCode);
  EXPECT_EQ(bins.codes[2], 0);
  EXPECT_EQ(bins.codes[3], kNullBinCode);
}

TEST(AttributeBinsTest, AllNullColumnYieldsZeroBins) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> col = {nan, nan};
  const AttributeBins bins =
      BuildAttributeBins(col.data(), SortOrder(col), col.size(), 255);
  EXPECT_EQ(bins.num_bins, 0);
  EXPECT_EQ(bins.codes[0], kNullBinCode);
}

TEST(AttributeBinsTest, ManyDistinctValuesRespectBudgetAndRuns) {
  Rng rng(31);
  std::vector<double> col(20000);
  for (double& v : col) {
    // ~1000 distinct values, heavy ties: runs must never be split.
    v = static_cast<double>(rng.UniformInt(0, 999));
  }
  const std::vector<uint32_t> order = SortOrder(col);
  for (const int budget : {255, 64, 16, 1}) {
    const AttributeBins bins =
        BuildAttributeBins(col.data(), order, col.size(), budget);
    ASSERT_GE(bins.num_bins, 1) << "budget " << budget;
    ASSERT_LE(bins.num_bins, budget) << "budget " << budget;
    for (int b = 0; b + 1 < bins.num_bins; ++b) {
      // Bins are ordered and disjoint: equal values share one bin.
      EXPECT_LE(bins.lower[static_cast<size_t>(b)],
                bins.upper[static_cast<size_t>(b)]);
      EXPECT_LT(bins.upper[static_cast<size_t>(b)],
                bins.lower[static_cast<size_t>(b) + 1]);
    }
    for (size_t r = 0; r < col.size(); ++r) {
      const uint8_t code = bins.codes[r];
      ASSERT_NE(code, kNullBinCode);
      EXPECT_GE(col[r], bins.lower[code]);
      EXPECT_LE(col[r], bins.upper[code]);
    }
  }
}

// --- exact vs histogram tree identity ------------------------------------

Schema MiningSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2", "y3"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNominal("CLS", {"c0", "c1", "c2"}).ok());
  return s;
}

/// Null-free table whose numeric attribute takes at most 101 distinct
/// values: per-distinct bins cover every threshold the exact sweep tests,
/// and unit weights make all histogram sums integer-exact, so the two
/// evaluators must grow the SAME tree.
Table QuantizedTable(size_t rows, uint64_t seed) {
  Schema s = MiningSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    const double z = static_cast<double>(rng.UniformInt(0, 100));
    int32_t cls = z <= 50.0 ? x : (x + 1) % 3;
    if (rng.Bernoulli(0.03)) cls = static_cast<int32_t>(rng.UniformInt(0, 2));
    Row row(4);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    row[2] = Value::Numeric(z);
    row[3] = Value::Nominal(cls);
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

C45Tree TrainTree(const Table& t, const ClassEncoder& enc, C45Config cfg,
                  int num_threads = 1,
                  const EncodedDataset* cache = nullptr) {
  TrainingData td;
  td.table = &t;
  td.class_attr = 3;
  td.base_attrs = {0, 1, 2};
  td.encoder = &enc;
  td.encoded = cache;
  td.num_threads = num_threads;
  cfg.min_error_confidence = 0.8;
  C45Tree tree(cfg);
  EXPECT_TRUE(tree.Train(td).ok());
  return tree;
}

void ExpectSameTrees(const C45Tree& a, const C45Tree& b, const Table& t) {
  EXPECT_EQ(a.NodeCount(), b.NodeCount());
  EXPECT_EQ(a.LeafCount(), b.LeafCount());
  EXPECT_EQ(a.ToString(t.schema()), b.ToString(t.schema()));
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Row probe(4);
    probe[0] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 2)));
    probe[1] = Value::Nominal(static_cast<int32_t>(rng.UniformInt(0, 3)));
    probe[2] = rng.Bernoulli(0.1)
                   ? Value::Null()
                   : Value::Numeric(rng.UniformReal(0, 100));
    const Prediction pa = a.Predict(probe);
    const Prediction pb = b.Predict(probe);
    ASSERT_EQ(pa.distribution.size(), pb.distribution.size());
    for (size_t c = 0; c < pa.distribution.size(); ++c) {
      EXPECT_EQ(pa.distribution[c], pb.distribution[c]);
    }
    EXPECT_EQ(pa.support, pb.support);
  }
}

TEST(C45HistogramTest, MatchesExactWhenBinsCoverEveryDistinctValue) {
  const Table t = QuantizedTable(4000, 9);
  auto enc = ClassEncoder::Fit(t, 3, 8);
  ASSERT_TRUE(enc.ok());

  C45Config exact_cfg;
  exact_cfg.split_mode = SplitMode::kExact;
  const C45Tree exact = TrainTree(t, *enc, exact_cfg);

  C45Config hist_cfg;
  hist_cfg.split_mode = SplitMode::kHistogram;
  const C45Tree hist = TrainTree(t, *enc, hist_cfg);

  EXPECT_GT(exact.NodeCount(), 1u);  // the comparison must not be vacuous
  ExpectSameTrees(exact, hist, t);
}

TEST(C45HistogramTest, MatchesExactThroughTheSharedEncodeCache) {
  const Table t = QuantizedTable(3000, 10);
  const EncodedDataset cache = EncodedDataset::Build(t, 8);
  const std::optional<ClassEncoder>& enc = cache.encoder(3);
  ASSERT_TRUE(enc.has_value());

  C45Config exact_cfg;
  exact_cfg.split_mode = SplitMode::kExact;
  const C45Tree exact = TrainTree(t, *enc, exact_cfg, 1, &cache);

  C45Config hist_cfg;
  hist_cfg.split_mode = SplitMode::kHistogram;
  const C45Tree hist = TrainTree(t, *enc, hist_cfg, 1, &cache);

  ExpectSameTrees(exact, hist, t);
}

TEST(C45HistogramTest, SubtractionDoesNotChangeTheTree) {
  // Large homogeneous children so the subtraction path actually triggers.
  const Table t = QuantizedTable(12000, 11);
  auto enc = ClassEncoder::Fit(t, 3, 8);
  ASSERT_TRUE(enc.ok());

  C45Config scan_cfg;
  scan_cfg.histogram_subtraction = false;
  const C45Tree scanned = TrainTree(t, *enc, scan_cfg);

  C45Config sub_cfg;
  sub_cfg.histogram_subtraction = true;
  const C45Tree subtracted = TrainTree(t, *enc, sub_cfg);

  ExpectSameTrees(scanned, subtracted, t);
}

TEST(C45HistogramTest, NodeParallelInductionIsBitwiseThreadInvariant) {
  const Table t = QuantizedTable(6000, 12);
  auto enc = ClassEncoder::Fit(t, 3, 8);
  ASSERT_TRUE(enc.ok());

  C45Config cfg;
  cfg.parallel_min_insts = 1;  // force pooled dispatch on every level
  const C45Tree serial = TrainTree(t, *enc, cfg);
  for (const int threads : {1, 2, 8}) {
    const C45Tree pooled = TrainTree(t, *enc, cfg, threads);
    ExpectSameTrees(serial, pooled, t);
  }
}

TEST(C45HistogramTest, CoarseBinsStillGrowAUsefulTree) {
  // ~1000 distinct values >> 255 bins: binning is genuinely lossy, the
  // tree must still train and classify the dominant dependency.
  Schema s;
  ASSERT_TRUE(s.AddNumeric("V", 0.0, 1000.0).ok());
  ASSERT_TRUE(s.AddNominal("CLS", {"lo", "hi"}).ok());
  Table t(s);
  Rng rng(13);
  for (size_t r = 0; r < 20000; ++r) {
    const double v = static_cast<double>(rng.UniformInt(0, 999));
    Row row(2);
    row[0] = Value::Numeric(v);
    row[1] = Value::Nominal(v <= 499.0 ? 0 : 1);
    t.AppendRowUnchecked(std::move(row));
  }
  auto enc = ClassEncoder::Fit(t, 1, 8);
  ASSERT_TRUE(enc.ok());
  TrainingData td;
  td.table = &t;
  td.class_attr = 1;
  td.base_attrs = {0};
  td.encoder = &*enc;
  C45Tree tree;  // histogram mode is the default
  ASSERT_TRUE(tree.Train(td).ok());
  EXPECT_GT(tree.NodeCount(), 1u);
  int correct = 0;
  for (int i = 0; i < 400; ++i) {
    const double v = static_cast<double>(rng.UniformInt(0, 999));
    Row probe(2);
    probe[0] = Value::Numeric(v);
    const Prediction p = tree.Predict(probe);
    if (p.PredictedClass() == (v <= 499.0 ? 0 : 1)) ++correct;
  }
  EXPECT_GE(correct, 390);  // the split boundary may land a few values off
}

// --- statistical equivalence on the QUIS surrogate ------------------------

// True when the binary runs under ASan/TSan: the full-scale QUIS audit
// below is a Release-grade statistical check and would dominate sanitizer
// lanes (which cover the same code through the smaller parity tests).
constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

TEST(C45HistogramTest, QuisAuditIsStatisticallyEquivalentToExact) {
  if (kSanitized) {
    GTEST_SKIP() << "full-scale QUIS audit skipped under sanitizers";
  }
  // The benchmark's full configuration (bench_quis_audit): 200k records,
  // seed 2003. At this scale the lossy-binned trees converge with the
  // exact ones; at toy scales (e.g. 20k) individual classifiers can
  // legitimately differ -- a 255-bin GBM tree splits DISPLACEMENT once
  // more than the exact sweep and lands on ~2x fewer high-confidence
  // errors, which is a better model, not an equivalence failure.
  QuisConfig qcfg;
  qcfg.num_records = 200000;
  qcfg.seed = 2003;
  auto sample = GenerateQuisSample(qcfg);
  ASSERT_TRUE(sample.ok());

  auto run = [&](SplitMode mode) {
    AuditorConfig cfg;
    cfg.min_error_confidence = 0.8;
    cfg.num_threads = 1;
    cfg.c45.split_mode = mode;
    Auditor auditor(cfg);
    auto model = auditor.Induce(sample->table);
    EXPECT_TRUE(model.ok());
    auto report = auditor.Audit(*model, sample->table);
    EXPECT_TRUE(report.ok());
    return std::move(*report);
  };
  const AuditReport exact = run(SplitMode::kExact);
  const AuditReport hist = run(SplitMode::kHistogram);

  // The planted deviation must rank first under BOTH evaluators.
  auto rank_of = [&](const AuditReport& r) {
    for (size_t i = 0; i < r.suspicious.size(); ++i) {
      if (r.suspicious[i].row == sample->planted_deviation_row) return i + 1;
    }
    return size_t{0};
  };
  EXPECT_EQ(rank_of(exact), 1u);
  EXPECT_EQ(rank_of(hist), 1u);

  // Suspicious-record volume within 1% of the exact evaluator.
  const double ex = static_cast<double>(exact.NumFlagged());
  const double hi = static_cast<double>(hist.NumFlagged());
  EXPECT_GT(ex, 0.0);
  EXPECT_NEAR(hi, ex, 0.01 * ex);
}

}  // namespace
}  // namespace dq
