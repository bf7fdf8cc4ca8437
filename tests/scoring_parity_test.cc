// Compiled scoring parity: Auditor::Audit scores induced C4.5 trees
// column-wise over their compiled flat arrays, block by block with the
// models outer. These tests hold it to an oracle that shares none of that
// code: the per-record loop the engine replaced -- one materialized Row
// per record, Def. 7 at every model, Def. 8 as a strict running maximum in
// model order -- over the recursive missing-value walk of the linked tree
// C45Tree::Train induces and compiles (the tests induce it again through
// Train's first step; Train itself frees it). The two reports must be
// equal bit for bit.
//
// The audited table is a polluted QUIS sample with nulls in split
// attributes (fractional routing), nominal codes outside every category
// split's children, and trees with empty leaves.

#include <algorithm>
#include <cstring>
#include <vector>

#include "audit/auditor.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "mining/encoded_dataset.h"
#include "quis/quis_sample.h"
#include "stats/confidence.h"

namespace dq {

/// Induces the linked tree a C45Tree compiles, through Train's first step.
struct C45TreeTestPeer {
  using Node = C45Tree::Node;

  /// The linked tree C45Tree(config).Train(data) compiles.
  static std::unique_ptr<Node> InduceTree(const C45Config& config,
                                          const TrainingData& data) {
    C45Tree tree(config);
    auto root = tree.InduceTree(data);
    EXPECT_TRUE(root.ok()) << root.status();
    return root.ok() ? std::move(*root) : nullptr;
  }

  /// C4.5's missing-value classification over the linked nodes, written
  /// the way Predict computed it before trees were compiled: a null on a
  /// split is spread over the branches by their known training weight (the
  /// first branch when none was known), an unseen category takes the first
  /// branch, an empty leaf votes its majority with no support.
  static Prediction Predict(const Node& root, const Row& row) {
    Prediction out;
    out.distribution.assign(root.class_counts.size(), 0.0);
    Walk(root, row, 1.0, &out.distribution, &out.support);
    double total = 0.0;
    for (double p : out.distribution) total += p;
    if (total > kEps) {
      for (double& p : out.distribution) p /= total;
    }
    return out;
  }

 private:
  static constexpr double kEps = 1e-9;

  static void Walk(const C45Tree::Node& node, const Row& row, double weight,
                   std::vector<double>* dist, double* support) {
    if (node.IsLeaf()) {
      if (node.weight > kEps) {
        for (size_t c = 0; c < node.class_counts.size(); ++c) {
          (*dist)[c] += weight * node.class_counts[c] / node.weight;
        }
        *support += weight * node.weight;
      } else {
        (*dist)[static_cast<size_t>(node.majority)] += weight;
      }
      return;
    }
    const Value& v = row[static_cast<size_t>(node.split_attr)];
    if (v.is_null()) {
      if (node.known_weight <= kEps) {
        Walk(*node.children[0], row, weight, dist, support);
        return;
      }
      for (size_t b = 0; b < node.children.size(); ++b) {
        if (node.child_weights[b] <= kEps) continue;
        Walk(*node.children[b], row,
             weight * node.child_weights[b] / node.known_weight, dist,
             support);
      }
      return;
    }
    size_t b;
    if (node.ordered_split) {
      b = v.OrderedValue() <= node.threshold ? 0 : 1;
    } else {
      const int32_t code = v.nominal_code();
      if (code < 0 || static_cast<size_t>(code) >= node.children.size()) {
        Walk(*node.children[0], row, weight, dist, support);
        return;
      }
      b = static_cast<size_t>(code);
    }
    Walk(*node.children[b], row, weight, dist, support);
  }
};

namespace {

/// Per attribute model of an AuditModel: the linked tree its C4.5 tree was
/// compiled from, null for other inducers.
using LinkedTrees = std::vector<std::unique_ptr<C45TreeTestPeer::Node>>;

/// Induces the linked trees of `model` again on `train` with the inputs
/// Auditor::Induce gave each Train call.
LinkedTrees InduceLinkedTrees(const AuditModel& model, const Table& train,
                              const AuditorConfig& config) {
  const EncodedDataset encoded = EncodedDataset::Build(
      train, config.numeric_class_bins, 1, config.c45.histogram_bins);
  LinkedTrees linked;
  for (const AttributeModel& am : model.models()) {
    const auto* tree = dynamic_cast<const C45Tree*>(am.classifier.get());
    if (tree == nullptr) {
      linked.emplace_back();
      continue;
    }
    TrainingData td;
    td.table = &train;
    td.class_attr = am.class_attr;
    td.base_attrs = am.base_attrs;
    td.encoder = &am.encoder;
    td.encoded = &encoded;
    linked.push_back(C45TreeTestPeer::InduceTree(tree->config(), td));
  }
  return linked;
}

/// Linked-tree walk for C4.5 models, Predict for every other inducer.
Prediction OraclePredict(const AttributeModel& am,
                         const C45TreeTestPeer::Node* linked,
                         const Row& row) {
  return linked != nullptr ? C45TreeTestPeer::Predict(*linked, row)
                           : am.classifier->Predict(row);
}

/// argmax of a distribution: the first class with the largest positive
/// probability, -1 when none is positive.
int OracleArgmax(const std::vector<double>& dist) {
  int best = -1;
  double best_p = 0.0;
  for (size_t i = 0; i < dist.size(); ++i) {
    if (dist[i] > best_p) {
      best_p = dist[i];
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Def. 7: leftBound(P(predicted)) - rightBound(P(observed)), floored at 0.
double OracleErrorConfidence(const Prediction& pred, int observed,
                             const AuditorConfig& config) {
  const int predicted = OracleArgmax(pred.distribution);
  if (predicted < 0 || pred.support <= 0.0) return 0.0;
  if (observed == predicted) return 0.0;
  if (observed < 0 && !config.flag_null_values) return 0.0;
  const double p_pred = pred.distribution[static_cast<size_t>(predicted)];
  const double p_obs =
      observed < 0 || static_cast<size_t>(observed) >= pred.distribution.size()
          ? 0.0
          : pred.distribution[static_cast<size_t>(observed)];
  return std::max(0.0,
                  LeftBound(p_pred, pred.support, config.confidence_level) -
                      RightBound(p_obs, pred.support,
                                 config.confidence_level));
}

/// The pre-compilation Audit: per record, a Row and one prediction per
/// model.
AuditReport OracleAudit(const AuditModel& model, const LinkedTrees& linked,
                        const Table& data, const AuditorConfig& config) {
  AuditReport report;
  const size_t n = data.num_rows();
  report.record_confidence.assign(n, 0.0);
  report.record_attr.assign(n, -1);
  report.record_suggestion.assign(n, Value::Null());
  report.record_support.assign(n, 0.0);
  report.flagged.assign(n, false);
  for (size_t r = 0; r < n; ++r) {
    const Row row = data.row(r);
    for (size_t m = 0; m < model.models().size(); ++m) {
      const AttributeModel& am = model.models()[m];
      const int observed =
          am.encoder.Encode(row[static_cast<size_t>(am.class_attr)]);
      const Prediction pred = OraclePredict(am, linked[m].get(), row);
      const double conf = OracleErrorConfidence(pred, observed, config);
      if (conf > report.record_confidence[r]) {
        report.record_confidence[r] = conf;
        report.record_attr[r] = am.class_attr;
        report.record_suggestion[r] =
            am.encoder.Representative(OracleArgmax(pred.distribution));
        report.record_support[r] = pred.support;
      }
    }
    if (report.record_attr[r] >= 0 &&
        report.record_confidence[r] >= config.min_error_confidence) {
      report.flagged[r] = true;
      Suspicion s;
      s.row = r;
      s.error_confidence = report.record_confidence[r];
      s.attr = report.record_attr[r];
      s.observed = data.cell(r, static_cast<size_t>(s.attr));
      s.suggestion = report.record_suggestion[r];
      s.support = report.record_support[r];
      report.suspicious.push_back(s);
    }
  }
  std::stable_sort(report.suspicious.begin(), report.suspicious.end(),
                   [](const Suspicion& a, const Suspicion& b) {
                     return a.error_confidence > b.error_confidence;
                   });
  return report;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitwiseEqual(const AuditReport& oracle, const AuditReport& got) {
  ASSERT_EQ(oracle.record_confidence.size(), got.record_confidence.size());
  for (size_t r = 0; r < oracle.record_confidence.size(); ++r) {
    ASSERT_TRUE(SameBits(oracle.record_confidence[r],
                         got.record_confidence[r]))
        << "row " << r << ": " << oracle.record_confidence[r] << " vs "
        << got.record_confidence[r];
    ASSERT_EQ(oracle.record_attr[r], got.record_attr[r]) << "row " << r;
    ASSERT_TRUE(
        oracle.record_suggestion[r].StrictEquals(got.record_suggestion[r]))
        << "row " << r;
    ASSERT_TRUE(SameBits(oracle.record_support[r], got.record_support[r]))
        << "row " << r;
  }
  EXPECT_EQ(oracle.flagged, got.flagged);
  ASSERT_EQ(oracle.suspicious.size(), got.suspicious.size());
  for (size_t i = 0; i < oracle.suspicious.size(); ++i) {
    const Suspicion& a = oracle.suspicious[i];
    const Suspicion& b = got.suspicious[i];
    EXPECT_EQ(a.row, b.row) << "rank " << i;
    EXPECT_TRUE(SameBits(a.error_confidence, b.error_confidence))
        << "rank " << i;
    EXPECT_EQ(a.attr, b.attr) << "rank " << i;
    EXPECT_TRUE(a.observed.StrictEquals(b.observed)) << "rank " << i;
    EXPECT_TRUE(a.suggestion.StrictEquals(b.suggestion)) << "rank " << i;
    EXPECT_TRUE(SameBits(a.support, b.support)) << "rank " << i;
  }
}

class ScoringParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    QuisConfig quis;
    quis.num_records = 6000;
    quis.seed = 29;
    quis.noise_prob = 0.05;
    auto sample = GenerateQuisSample(quis);
    ASSERT_TRUE(sample.ok());
    train_ = new Table(std::move(sample->table));
    // Nulls in every attribute, training and audited rows alike: a null
    // on a split attribute is routed fractionally down the tree.
    Rng rng(101);
    const size_t attrs = train_->num_attributes();
    for (size_t r = 0; r < train_->num_rows(); ++r) {
      for (size_t a = 0; a < attrs; ++a) {
        if (rng.Bernoulli(0.03)) train_->SetCell(r, a, Value::Null());
      }
    }
    // The audited table adds nominal codes no category split has a child
    // for (SetCell leaves the domain unchecked).
    data_ = new Table(*train_);
    const Schema& schema = data_->schema();
    for (size_t r = 0; r < data_->num_rows(); r += 37) {
      const auto a = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(attrs) - 1));
      if (schema.attribute(a).type != DataType::kNominal) continue;
      const auto domain =
          static_cast<int32_t>(schema.attribute(a).categories.size());
      data_->SetCell(r, a, Value::Nominal(domain + (r % 3 == 0 ? 5 : 0)));
    }
  }

  static void TearDownTestSuite() {
    delete train_;
    delete data_;
    train_ = nullptr;
    data_ = nullptr;
  }

  static Table* train_;
  static Table* data_;
};

Table* ScoringParityTest::train_ = nullptr;
Table* ScoringParityTest::data_ = nullptr;

/// Counts, over the compiled trees of `model`, the audited records that
/// fork on a null, the records holding a code some category split has no
/// child for, and the empty leaves.
struct Coverage {
  size_t forks = 0;
  size_t unseen_codes = 0;
  size_t empty_leaves = 0;
};

Coverage MeasureCoverage(const AuditModel& model, const Table& data) {
  Coverage cov;
  for (const AttributeModel& am : model.models()) {
    const auto* tree = dynamic_cast<const C45Tree*>(am.classifier.get());
    if (tree == nullptr) continue;
    const FlatTree& flat = tree->flat();
    const std::vector<ColumnSpan> columns = ColumnSpans(data);
    for (const FlatTree::Leaf& leaf : flat.leaves) {
      if (leaf.weight <= FlatTree::kEps) ++cov.empty_leaves;
    }
    for (size_t r = 0; r < data.num_rows(); ++r) {
      if (flat.Find(TableRecord{columns.data(), r}) == FlatTree::kFork) {
        ++cov.forks;
      }
      for (const FlatTree::Node& node : flat.nodes) {
        if (node.kind != FlatTree::Node::Kind::kCategory) continue;
        const auto attr = static_cast<size_t>(node.attr);
        if (!data.is_null(r, attr) &&
            data.code_at(r, attr) >= node.num_children) {
          ++cov.unseen_codes;
          break;
        }
      }
    }
  }
  return cov;
}

TEST_F(ScoringParityTest, CompiledTreesMatchRowOracleInBothSplitModes) {
  for (SplitMode mode : {SplitMode::kHistogram, SplitMode::kExact}) {
    AuditorConfig config;
    config.c45.split_mode = mode;
    config.num_threads = 1;
    auto model = Auditor(config).Induce(*train_);
    ASSERT_TRUE(model.ok());
    const Coverage cov = MeasureCoverage(*model, *data_);
    EXPECT_GT(cov.forks, 0u) << SplitModeToString(mode);
    EXPECT_GT(cov.unseen_codes, 0u) << SplitModeToString(mode);
    EXPECT_GT(cov.empty_leaves, 0u) << SplitModeToString(mode);

    const AuditReport oracle = OracleAudit(
        *model, InduceLinkedTrees(*model, *train_, config), *data_, config);
    ASSERT_GT(oracle.suspicious.size(), 0u);
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::string(SplitModeToString(mode)) +
                   " threads=" + std::to_string(threads));
      config.num_threads = threads;
      auto report = Auditor(config).Audit(*model, *data_);
      ASSERT_TRUE(report.ok());
      ExpectBitwiseEqual(oracle, *report);
    }
  }
}

TEST_F(ScoringParityTest, NullsScoredOnlyWhenFlagged) {
  AuditorConfig config;
  config.flag_null_values = false;
  config.min_error_confidence = 0.5;
  auto model = Auditor(config).Induce(*train_);
  ASSERT_TRUE(model.ok());
  const LinkedTrees linked = InduceLinkedTrees(*model, *train_, config);
  for (int threads : {1, 4}) {
    config.num_threads = threads;
    auto report = Auditor(config).Audit(*model, *data_);
    ASSERT_TRUE(report.ok());
    ExpectBitwiseEqual(OracleAudit(*model, linked, *data_, config), *report);
  }
}

TEST_F(ScoringParityTest, AuditAtAnotherLevelThanInduction) {
  // The trees are induced (and pruned) at the default level; the audit's
  // own level sets Def. 7's bounds.
  auto model = Auditor().Induce(*train_);
  ASSERT_TRUE(model.ok());
  const LinkedTrees linked = InduceLinkedTrees(*model, *train_, {});
  AuditorConfig config;
  config.confidence_level = 0.9;
  for (int threads : {1, 4}) {
    config.num_threads = threads;
    auto report = Auditor(config).Audit(*model, *data_);
    ASSERT_TRUE(report.ok());
    ExpectBitwiseEqual(OracleAudit(*model, linked, *data_, config), *report);
  }
}

TEST_F(ScoringParityTest, PredictMatchesTheLeafTable) {
  // A record that reaches one leaf is predicted with exactly the values
  // the leaf table stores for it.
  auto model = Auditor().Induce(*train_);
  ASSERT_TRUE(model.ok());
  size_t checked = 0;
  const std::vector<ColumnSpan> columns = ColumnSpans(*data_);
  for (const AttributeModel& am : model->models()) {
    const auto& tree = dynamic_cast<const C45Tree&>(*am.classifier);
    const FlatTree& flat = tree.flat();
    for (size_t r = 0; r < data_->num_rows(); r += 7) {
      const int32_t hit = flat.Find(TableRecord{columns.data(), r});
      if (hit < 0) continue;
      const Prediction pred = tree.Predict(data_->row(r));
      const FlatTree::Leaf& leaf = flat.leaves[static_cast<size_t>(hit)];
      ASSERT_TRUE(SameBits(pred.support, leaf.support));
      ASSERT_EQ(pred.PredictedClass(), leaf.predicted);
      for (int c = 0; c < flat.num_classes; ++c) {
        ASSERT_TRUE(SameBits(pred.distribution[static_cast<size_t>(c)],
                             flat.distribution(hit)[c]));
      }
      if (leaf.predicted >= 0) {
        ASSERT_TRUE(leaf.suggestion.StrictEquals(
            am.encoder.Representative(leaf.predicted)));
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST_F(ScoringParityTest, PredictEqualsTheLinkedTreeWalk) {
  // C45Tree::Predict (ExplainRecord, the benches) walks the compiled
  // arrays; every record, forks and unseen codes included, gets the linked
  // walk's distribution and support bit for bit. So do records whose value
  // sits exactly on an ordered split point (which the training values,
  // split at midpoints, never do).
  const Schema& schema = data_->schema();
  for (SplitMode mode : {SplitMode::kHistogram, SplitMode::kExact}) {
    SCOPED_TRACE(SplitModeToString(mode));
    AuditorConfig config;
    config.c45.split_mode = mode;
    auto model = Auditor(config).Induce(*train_);
    ASSERT_TRUE(model.ok());
    const LinkedTrees linked = InduceLinkedTrees(*model, *train_, config);
    for (size_t m = 0; m < model->models().size(); ++m) {
      const AttributeModel& am = model->models()[m];
      const auto& tree = dynamic_cast<const C45Tree&>(*am.classifier);
      ASSERT_NE(linked[m], nullptr);
      const auto expect_same = [&](const Row& row) {
        const Prediction want = C45TreeTestPeer::Predict(*linked[m], row);
        const Prediction got = tree.Predict(row);
        ASSERT_TRUE(SameBits(want.support, got.support));
        ASSERT_EQ(want.distribution.size(), got.distribution.size());
        for (size_t c = 0; c < want.distribution.size(); ++c) {
          ASSERT_TRUE(SameBits(want.distribution[c], got.distribution[c]))
              << "class " << c;
        }
      };
      for (size_t r = 0; r < data_->num_rows(); ++r) {
        SCOPED_TRACE("row " + std::to_string(r));
        expect_same(data_->row(r));
      }
      for (const FlatTree::Node& node : tree.flat().nodes) {
        const auto attr = static_cast<size_t>(node.attr);
        if (node.kind != FlatTree::Node::Kind::kOrdered ||
            schema.attribute(attr).type != DataType::kNumeric) {
          continue;
        }
        for (size_t r = 0; r < data_->num_rows(); r += 61) {
          SCOPED_TRACE("row " + std::to_string(r) + " at a split point");
          Row row = data_->row(r);
          row[attr] = Value::Numeric(node.threshold);
          expect_same(row);
        }
      }
    }
  }
}

TEST_F(ScoringParityTest, RowInducersShareTheEngine) {
  // Naive Bayes has no compiled tree: the engine queries it per Row.
  AuditorConfig config;
  config.inducer = InducerKind::kNaiveBayes;
  auto model = Auditor(config).Induce(*train_);
  ASSERT_TRUE(model.ok());
  const AuditReport oracle = OracleAudit(
      *model, InduceLinkedTrees(*model, *train_, config), *data_, config);
  for (int threads : {1, 4}) {
    config.num_threads = threads;
    auto report = Auditor(config).Audit(*model, *data_);
    ASSERT_TRUE(report.ok());
    ExpectBitwiseEqual(oracle, *report);
  }
}

}  // namespace
}  // namespace dq
