// Tests for the persisted structure model (sec. 2.2 asynchrony: induce
// offline, check later) and the interactive review module (sec. 5.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "audit/review.h"
#include "audit/structure_model.h"
#include "common/random.h"
#include "quis/quis_sample.h"
#include "mutation.h"

namespace dq {
namespace {

Schema ModelSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("X", {"x0", "x1", "x2"}).ok());
  EXPECT_TRUE(s.AddNominal("Y", {"y0", "y1", "y2"}).ok());
  EXPECT_TRUE(s.AddNumeric("Z", 0.0, 100.0).ok());
  return s;
}

/// Y mirrors X; Z depends on X (x * 30 + noise); plants `errors` deviations
/// in Y at the front.
Table ModelTable(size_t rows, size_t errors, uint64_t seed) {
  Schema s = ModelSchema();
  Table t(s);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int32_t x = static_cast<int32_t>(rng.UniformInt(0, 2));
    int32_t y = x;
    if (r < errors) y = (x + 1) % 3;
    Row row(3);
    row[0] = Value::Nominal(x);
    row[1] = Value::Nominal(y);
    row[2] = Value::Numeric(30.0 * x + rng.UniformReal(0.0, 10.0));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

struct Fixture {
  Table table;
  AuditorConfig config;
  Auditor auditor;
  AuditModel model;

  explicit Fixture(size_t rows = 3000, size_t errors = 4, uint64_t seed = 60)
      : table(ModelTable(rows, errors, seed)), auditor(MakeConfig()) {
    auto induced = auditor.Induce(table);
    EXPECT_TRUE(induced.ok()) << induced.status();
    model = std::move(*induced);
  }
  static AuditorConfig MakeConfig() {
    AuditorConfig c;
    c.min_error_confidence = 0.8;
    return c;
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every record field and the ranked list, doubles compared bit for bit.
void ExpectSameReport(const AuditReport& want, const AuditReport& got) {
  ASSERT_EQ(want.record_confidence.size(), got.record_confidence.size());
  for (size_t r = 0; r < want.record_confidence.size(); ++r) {
    ASSERT_TRUE(SameBits(want.record_confidence[r], got.record_confidence[r]))
        << "row " << r << ": " << want.record_confidence[r] << " vs "
        << got.record_confidence[r];
    ASSERT_EQ(want.record_attr[r], got.record_attr[r]) << "row " << r;
    ASSERT_TRUE(
        want.record_suggestion[r].StrictEquals(got.record_suggestion[r]))
        << "row " << r;
    ASSERT_TRUE(SameBits(want.record_support[r], got.record_support[r]))
        << "row " << r;
    ASSERT_EQ(want.IsFlagged(r), got.IsFlagged(r)) << "row " << r;
  }
  ASSERT_EQ(want.suspicious.size(), got.suspicious.size());
  for (size_t i = 0; i < want.suspicious.size(); ++i) {
    const Suspicion& a = want.suspicious[i];
    const Suspicion& b = got.suspicious[i];
    ASSERT_EQ(a.row, b.row) << "rank " << i;
    ASSERT_TRUE(SameBits(a.error_confidence, b.error_confidence))
        << "rank " << i;
    ASSERT_EQ(a.attr, b.attr) << "rank " << i;
    ASSERT_TRUE(a.observed.StrictEquals(b.observed)) << "rank " << i;
    ASSERT_TRUE(a.suggestion.StrictEquals(b.suggestion)) << "rank " << i;
    ASSERT_TRUE(SameBits(a.support, b.support)) << "rank " << i;
  }
}

/// Checks one record through a one-row table.
AuditReport CheckOne(const StructureModel& sm, const Schema& schema,
                     const Row& row, const AuditorConfig& config) {
  Table t(schema);
  EXPECT_TRUE(t.AppendRow(row).ok());
  auto report = sm.Check(t, config);
  EXPECT_TRUE(report.ok()) << report.status();
  return std::move(*report);
}

Result<StructureModel> ParseModel(const Schema& schema,
                                  const std::string& text) {
  std::istringstream is(text);
  return StructureModel::Deserialize(schema, &is);
}

/// `table` with nulls and values copied from other rows sprayed over
/// roughly `rate` of its cells (deterministic in `seed`).
Table Polluted(const Table& table, double rate, uint64_t seed) {
  Table out(table.schema());
  Rng rng(seed);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out.AppendRowFrom(table, r);
    for (size_t c = 0; c < table.num_attributes(); ++c) {
      const double u = rng.UniformReal(0.0, 1.0);
      if (u < rate / 2) {
        out.SetCell(r, c, Value::Null());
      } else if (u < rate) {
        const auto other = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(table.num_rows()) - 1));
        out.SetCell(r, c, table.cell(other, c));
      }
    }
  }
  return out;
}

/// Two compiled trees agree array for array, doubles bit for bit.
void ExpectSameTree(const FlatTree& want, const FlatTree& got) {
  ASSERT_EQ(want.num_classes, got.num_classes);
  ASSERT_EQ(want.nodes.size(), got.nodes.size());
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    const FlatTree::Node& a = want.nodes[i];
    const FlatTree::Node& b = got.nodes[i];
    ASSERT_EQ(a.kind, b.kind) << "node " << i;
    ASSERT_EQ(a.index, b.index) << "node " << i;
    if (a.kind == FlatTree::Node::Kind::kLeaf) continue;
    ASSERT_EQ(a.attr, b.attr) << "node " << i;
    ASSERT_EQ(a.num_children, b.num_children) << "node " << i;
    ASSERT_TRUE(SameBits(a.threshold, b.threshold)) << "node " << i;
    ASSERT_TRUE(SameBits(want.known_weight[i], got.known_weight[i]));
  }
  ASSERT_EQ(want.children, got.children);
  ASSERT_EQ(want.child_weight.size(), got.child_weight.size());
  for (size_t i = 0; i < want.child_weight.size(); ++i) {
    ASSERT_TRUE(SameBits(want.child_weight[i], got.child_weight[i]));
  }
  ASSERT_EQ(want.leaves.size(), got.leaves.size());
  for (size_t i = 0; i < want.leaves.size(); ++i) {
    const FlatTree::Leaf& a = want.leaves[i];
    const FlatTree::Leaf& b = got.leaves[i];
    ASSERT_TRUE(SameBits(a.support, b.support)) << "leaf " << i;
    ASSERT_EQ(a.predicted, b.predicted) << "leaf " << i;
    ASSERT_TRUE(a.suggestion.StrictEquals(b.suggestion)) << "leaf " << i;
    ASSERT_TRUE(SameBits(a.weight, b.weight)) << "leaf " << i;
    ASSERT_EQ(a.majority, b.majority) << "leaf " << i;
    ASSERT_TRUE(SameBits(a.expected_error_confidence,
                         b.expected_error_confidence))
        << "leaf " << i;
  }
  for (auto v : {&FlatTree::distributions, &FlatTree::counts}) {
    ASSERT_EQ((want.*v).size(), (got.*v).size());
    for (size_t i = 0; i < (want.*v).size(); ++i) {
      ASSERT_TRUE(SameBits((want.*v)[i], (got.*v)[i]));
    }
  }
}

/// A hand-written model of ModelSchema: Y predicted from X. X = x0 leads
/// to a leaf of 100 training records, 99 of them y1; x1 and x2 lead to an
/// empty leaf voting y0.
const char* const kMinimalModel =
    "dqmodel v2\n"
    "attrset 1 nominal\n"
    "tree 4 2\n"
    "node cat 0 3 100 100 1 0 2 0 3\n"
    "node leaf 0\n"
    "node leaf 1\n"
    "node leaf 1\n"
    "leaf 1 100 0.5 3 1 99 0\n"
    "leaf 0 0 0 3 0 0 0\n"
    "end\n";

/// kMinimalModel with its `line`-th line (from 0) replaced by `with`.
std::string MinimalModelWith(size_t line, const std::string& with) {
  std::istringstream in(kMinimalModel);
  std::string out;
  std::string text;
  for (size_t i = 0; std::getline(in, text); ++i) {
    out += (i == line ? with : text) + "\n";
  }
  return out;
}

TEST(StructureModelTest, BuildsNonEmptyRuleSets) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  EXPECT_GT(sm.TotalRules(), 0u);
  ASSERT_EQ(sm.trees().size(), f.model.num_models());
  for (size_t i = 0; i < sm.trees().size(); ++i) {
    const AttributeTree& at = sm.trees()[i];
    EXPECT_EQ(at.class_attr, f.model.models()[i].class_attr);
    EXPECT_EQ(at.tree.num_classes, at.encoder.num_classes());
    EXPECT_FALSE(at.tree.nodes.empty());
  }
}

TEST(StructureModelTest, CheckFlagsPlantedErrors) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  auto report = sm.Check(f.table, f.config);
  ASSERT_TRUE(report.ok());
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(report->IsFlagged(r)) << "planted row " << r;
  }
}

TEST(StructureModelTest, CheckAgreesWithTreeAudit) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  auto checked = sm.Check(f.table, f.config);
  auto audited = f.auditor.Audit(f.model, f.table);
  ASSERT_TRUE(checked.ok());
  ASSERT_TRUE(audited.ok());
  ExpectSameReport(*audited, *checked);
}

TEST(StructureModelTest, SerializationRoundTrip) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  std::istringstream is(os.str());
  auto back = StructureModel::Deserialize(f.table.schema(), &is);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->TotalRules(), sm.TotalRules());
  // The loaded trees are the saved ones, and saving them again writes the
  // same bytes.
  ASSERT_EQ(back->trees().size(), sm.trees().size());
  for (size_t i = 0; i < sm.trees().size(); ++i) {
    EXPECT_EQ(back->trees()[i].class_attr, sm.trees()[i].class_attr);
    ExpectSameTree(sm.trees()[i].tree, back->trees()[i].tree);
  }
  std::ostringstream again;
  ASSERT_TRUE(back->SerializeTo(&again).ok());
  EXPECT_EQ(again.str(), os.str());
}

TEST(StructureModelTest, RoundTripPreservesDiscretizedEncoders) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  // The Z attribute (numeric class) has a discretized encoder.
  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  std::istringstream is(os.str());
  auto back = StructureModel::Deserialize(f.table.schema(), &is);
  ASSERT_TRUE(back.ok());
  bool seen = false;
  for (const AttributeTree& at : back->trees()) {
    if (at.class_attr == 2) {
      seen = true;
      EXPECT_TRUE(at.encoder.is_discretized());
      EXPECT_GT(at.encoder.num_classes(), 1);
    }
  }
  EXPECT_TRUE(seen);
}

TEST(StructureModelTest, FileRoundTrip) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  const std::string path = testing::TempDir() + "/dq_structure_model.dqmodel";
  ASSERT_TRUE(sm.SaveToFile(path).ok());
  auto back = StructureModel::LoadFromFile(f.table.schema(), path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->TotalRules(), sm.TotalRules());
}

TEST(StructureModelTest, DeserializeRejectsGarbage) {
  Schema s = ModelSchema();
  ASSERT_TRUE(ParseModel(s, kMinimalModel).ok());
  EXPECT_FALSE(ParseModel(s, "not a model\n").ok());
  EXPECT_FALSE(ParseModel(s, "dqmodel v2\nbogus tag\nend\n").ok());
  // Missing 'end'.
  EXPECT_FALSE(ParseModel(s, MinimalModelWith(9, "")).ok());
  // Node before any attrset.
  EXPECT_FALSE(ParseModel(s, "dqmodel v2\nnode leaf 0\nend\n").ok());
  // An attrset without its tree.
  EXPECT_FALSE(ParseModel(s, "dqmodel v2\nattrset 1 nominal\nend\n").ok());
  // Fewer node lines than announced.
  EXPECT_FALSE(ParseModel(s, MinimalModelWith(2, "tree 5 2")).ok());
}

TEST(StructureModelTest, RejectsV1ModelsWithAResaveHint) {
  // v1 stored rule text without branch weights, so it cannot reproduce
  // the fractional routing of nulls; it is refused, not misread.
  const auto sm = ParseModel(ModelSchema(),
                             "dqmodel v1\n"
                             "attrset 1 nominal\n"
                             "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\n"
                             "cond 0 cat 0\n"
                             "end\n");
  ASSERT_FALSE(sm.ok());
  EXPECT_NE(sm.status().message().find("dqmodel v1"), std::string::npos)
      << sm.status();
  EXPECT_NE(sm.status().message().find("re-save"), std::string::npos)
      << sm.status();
}

TEST(StructureModelTest, MinimalHandAuthoredModel) {
  Schema s = ModelSchema();
  auto sm = ParseModel(s, kMinimalModel);
  ASSERT_TRUE(sm.ok()) << sm.status();
  ASSERT_EQ(sm->TotalRules(), 1u);  // the empty leaf is no rule

  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(0),
                           Value::Numeric(1.0)})
                  .ok());  // deviates (the leaf says Y=y1)
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(1),
                           Value::Numeric(1.0)})
                  .ok());  // conforms
  ASSERT_TRUE(t.AppendRow({Value::Nominal(2), Value::Nominal(1),
                           Value::Numeric(1.0)})
                  .ok());  // empty leaf: no training support
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Nominal(0),
                           Value::Numeric(1.0)})
                  .ok());  // null X forks by the branch weights: all x0
  AuditorConfig config;
  config.min_error_confidence = 0.8;
  auto report = sm->Check(t, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->IsFlagged(0));
  EXPECT_FALSE(report->IsFlagged(1));
  EXPECT_FALSE(report->IsFlagged(2));
  EXPECT_TRUE(report->IsFlagged(3));
  EXPECT_EQ(report->record_confidence[3], report->record_confidence[0]);
  EXPECT_EQ(report->suspicious[0].suggestion.nominal_code(), 1);
}

TEST(StructureModelTest, CheckRecordMatchesBatchCheck) {
  // A record checked on its own gets the verdict the batch check gave it.
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  auto report = sm.Check(f.table, f.config);
  ASSERT_TRUE(report.ok());
  for (size_t r = 0; r < 200; ++r) {
    const AuditReport one =
        CheckOne(sm, f.table.schema(), f.table.row(r), f.config);
    EXPECT_EQ(one.IsFlagged(0), report->IsFlagged(r)) << "row " << r;
    EXPECT_DOUBLE_EQ(one.record_confidence[0], report->record_confidence[r]);
  }
}

TEST(StructureModelTest, CheckRecordOnConformingRecord) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  Row row(3);
  row[0] = Value::Nominal(1);
  row[1] = Value::Nominal(1);  // consistent with Y == X
  row[2] = Value::Numeric(32.0);
  const AuditReport report = CheckOne(sm, f.table.schema(), row, f.config);
  EXPECT_FALSE(report.IsFlagged(0));
  EXPECT_TRUE(report.suspicious.empty());
}

TEST(StructureModelTest, CheckRecordOnDeviatingRecord) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  Row row(3);
  row[0] = Value::Nominal(1);
  row[1] = Value::Nominal(2);  // violates Y == X
  row[2] = Value::Numeric(32.0);
  const AuditReport report = CheckOne(sm, f.table.schema(), row, f.config);
  EXPECT_TRUE(report.IsFlagged(0));
  EXPECT_GE(report.record_confidence[0], 0.8);
  EXPECT_GT(report.record_support[0], 0.0);
  ASSERT_EQ(report.suspicious.size(), 1u);
}

// --- Save -> load -> check is the in-process audit --------------------------

TEST(StructureModelTest, SaveLoadCheckEqualsAuditOnPollutedQuis) {
  // QUIS mixes nominal, numeric and date attributes, so the trees hold
  // category and threshold splits. The audited table adds nulls on split
  // attributes (C4.5's fractional routing), values the training data
  // never paired, and nominal codes no category split has a child for.
  QuisConfig quis;
  quis.num_records = 3000;
  quis.seed = 23;
  auto sample = GenerateQuisSample(quis);
  ASSERT_TRUE(sample.ok());
  const Table& train = sample->table;
  const Schema& schema = train.schema();
  Table data = Polluted(train, 0.15, 5);
  Rng rng(17);
  size_t unseen = 0;
  for (size_t r = 0; r < data.num_rows(); r += 29) {
    const auto a = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(data.num_attributes()) - 1));
    if (schema.attribute(a).type != DataType::kNominal) continue;
    const auto domain =
        static_cast<int32_t>(schema.attribute(a).categories.size());
    data.SetCell(r, a, Value::Nominal(domain + static_cast<int32_t>(r % 3)));
    ++unseen;
  }
  ASSERT_GT(unseen, 10u);

  for (double min_conf : {0.5, 0.8}) {
    AuditorConfig config = Fixture::MakeConfig();
    config.min_error_confidence = min_conf;
    Auditor auditor(config);
    auto model = auditor.Induce(train);
    ASSERT_TRUE(model.ok());
    std::ostringstream os;
    ASSERT_TRUE(
        StructureModel::FromAuditModel(*model, schema).SerializeTo(&os).ok());
    auto loaded = ParseModel(schema, os.str());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_GT(loaded->TotalRules(), 20u);

    for (int threads : {1, 4}) {
      for (bool flag_nulls : {true, false}) {
        SCOPED_TRACE("min_conf " + std::to_string(min_conf) + " threads " +
                     std::to_string(threads) +
                     (flag_nulls ? " flagging nulls" : ""));
        config.num_threads = threads;
        config.flag_null_values = flag_nulls;
        auto audited = Auditor(config).Audit(*model, data);
        ASSERT_TRUE(audited.ok());
        ASSERT_GT(audited->suspicious.size(), 0u);
        auto checked = loaded->Check(data, config);
        ASSERT_TRUE(checked.ok());
        ExpectSameReport(*audited, *checked);

        // Not vacuous: flagged records whose winning tree forks them on a
        // null, i.e. records a model without branch weights would score
        // differently.
        const std::vector<ColumnSpan> columns = ColumnSpans(data);
        size_t forked = 0;
        for (const Suspicion& s : audited->suspicious) {
          for (const AttributeModel& am : model->models()) {
            if (am.class_attr != s.attr) continue;
            const auto& tree = dynamic_cast<const C45Tree&>(*am.classifier);
            if (tree.flat().Find(TableRecord{columns.data(), s.row}) ==
                FlatTree::kFork) {
              ++forked;
            }
          }
        }
        EXPECT_GT(forked, 0u);
      }
    }
  }
}

TEST(StructureModelTest, EqualConfidenceGoesToTheFirstAttributeModel) {
  // Both trees send (X=x0, Y=y0) to a leaf that dissents with the same
  // confidence; Definition 8's maximum keeps the first model's verdict on
  // a tie.
  const Schema s = ModelSchema();
  auto sm = ParseModel(s,
                       "dqmodel v2\n"
                       "attrset 0 nominal\n"
                       "tree 4 2\n"
                       "node cat 1 3 100 100 1 0 2 0 3\n"
                       "node leaf 0\n"
                       "node leaf 1\n"
                       "node leaf 1\n"
                       "leaf 1 100 0.5 3 1 99 0\n"
                       "leaf 0 0 0 3 0 0 0\n"
                       "attrset 1 nominal\n"
                       "tree 4 2\n"
                       "node cat 0 3 100 100 1 0 2 0 3\n"
                       "node leaf 0\n"
                       "node leaf 1\n"
                       "node leaf 1\n"
                       "leaf 1 100 0.5 3 1 99 0\n"
                       "leaf 0 0 0 3 0 0 0\n"
                       "end\n");
  ASSERT_TRUE(sm.ok()) << sm.status();
  const AuditReport report =
      CheckOne(*sm, s, {Value::Nominal(0), Value::Nominal(0),
                        Value::Numeric(1.0)},
               Fixture::MakeConfig());
  ASSERT_EQ(report.suspicious.size(), 1u);
  EXPECT_EQ(report.suspicious[0].attr, 0);
}

TEST(StructureModelTest, CheckRejectsTableOfAnotherSchema) {
  // The walk reads typed columns, so a table whose attribute types differ
  // from the model's schema is refused instead of misread.
  Fixture f;
  const StructureModel sm =
      StructureModel::FromAuditModel(f.model, f.table.schema());
  Schema other;
  ASSERT_TRUE(other.AddNumeric("X", 0.0, 3.0).ok());
  ASSERT_TRUE(other.AddNumeric("Y", 0.0, 3.0).ok());
  ASSERT_TRUE(other.AddNumeric("Z", 0.0, 100.0).ok());
  Table t(other);
  ASSERT_TRUE(t.AppendRow({Value::Numeric(1.0), Value::Numeric(1.0),
                           Value::Numeric(30.0)})
                  .ok());
  EXPECT_FALSE(sm.Check(t, f.config).ok());
}

// --- Reader hardening -------------------------------------------------------

TEST(StructureModelTest, RejectsNodeTablesThatAreNotOneTree) {
  const Schema s = ModelSchema();
  struct Case {
    const char* what;
    std::string model;
    const char* line;    // the line the error must name
    const char* reason;  // and what it must say
  };
  const std::vector<Case> cases = {
      {"a split pointing at itself",
       MinimalModelWith(3, "node cat 0 3 100 100 0 0 2 0 3"), "line 4",
       "does not follow its parent"},
      {"a split pointing back at an earlier node",
       "dqmodel v2\nattrset 1 nominal\ntree 4 1\n"
       "node le 2 50 10 5 1 5 2\n"
       "node le 2 20 10 5 0 5 3\n"
       "node leaf 0\nnode leaf 0\n"
       "leaf 1 10 0 3 0 10 0\nend\n",
       "line 5", "does not follow its parent"},
      {"a child index past the node count",
       MinimalModelWith(3, "node cat 0 3 100 100 1 0 2 0 4"), "line 4",
       "does not follow its parent"},
      {"a node with two parents",
       MinimalModelWith(3, "node cat 0 3 100 100 1 0 2 0 2"), "line 4",
       "two parents"},
      {"an unreachable node",
       "dqmodel v2\nattrset 1 nominal\ntree 4 1\n"
       "node le 2 50 10 5 1 5 2\n"
       "node leaf 0\nnode leaf 0\nnode leaf 0\n"
       "leaf 1 10 0 3 0 10 0\nend\n",
       "line 7", "node 3 is unreachable"},
      {"a leaf index past the leaf table", MinimalModelWith(4, "node leaf 2"),
       "line 5", "leaf index out of range"},
  };
  for (const Case& c : cases) {
    auto sm = ParseModel(s, c.model);
    ASSERT_FALSE(sm.ok()) << c.what;
    const std::string& message = sm.status().message();
    EXPECT_NE(message.find(c.line), std::string::npos)
        << c.what << ": " << sm.status();
    EXPECT_NE(message.find(c.reason), std::string::npos)
        << c.what << ": " << sm.status();
  }

  // A chain of threshold splits: its depth is bounded by the reader, since
  // the fork walk recurses once per level.
  const auto chain = [](size_t splits) {
    std::string text = "dqmodel v2\nattrset 1 nominal\ntree " +
                       std::to_string(2 * splits + 1) + " 1\n";
    for (size_t k = 0; k < splits; ++k) {
      text += "node le 2 50 2 1 " + std::to_string(2 * k + 1) + " 1 " +
              std::to_string(2 * k + 2) + "\nnode leaf 0\n";
    }
    return text + "node leaf 0\nleaf 1 10 0 3 0 10 0\nend\n";
  };
  EXPECT_TRUE(ParseModel(s, chain(1000)).ok());
  auto deep = ParseModel(s, chain(5000));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("deeper than"), std::string::npos)
      << deep.status();
}

TEST(StructureModelTest, RejectsOutOfDomainFields) {
  const Schema s = ModelSchema();
  // Line numbers of kMinimalModel (from 0): 2 tree, 3 the split, 4-6 the
  // leaf nodes, 7-8 the leaf table.
  const std::vector<std::tuple<const char*, size_t, std::string, const char*>> cases = {
      {"majority class past the class count", 7, "leaf 3 100 0.5 3 1 99 0", "majority class out of range"},
      {"negative majority class", 7, "leaf -1 100 0.5 3 1 99 0", "majority class out of range"},
      {"class-count arity mismatch", 7, "leaf 1 100 0.5 2 1 99", "class count arity mismatch"},
      {"negative class count", 7, "leaf 1 100 0.5 3 -1 99 0", "negative class count"},
      {"negative leaf weight", 7, "leaf 1 -100 0.5 3 1 99 0", "negative leaf weight"},
      {"non-finite leaf weight", 7, "leaf 1 inf 0.5 3 1 99 0", "malformed leaf"},
      {"non-finite expected error confidence", 7,
       "leaf 1 100 nan 3 1 99 0", "malformed leaf"},
      {"inflated class count", 7, "leaf 1 100 0.5 99999999999 1 99 0", "malformed leaf"},
      {"count past size_t", 7,
       "leaf 1 100 0.5 999999999999999999999999 1 99 0", "malformed leaf"},
      {"trailing data on a leaf line", 7, "leaf 1 100 0.5 3 1 99 0 x", "malformed leaf"},
      {"split attribute out of range", 3, "node cat 9 3 100 100 1 0 2 0 3", "split attribute out of range"},
      {"negative split attribute", 3, "node cat -1 3 100 100 1 0 2 0 3", "split attribute out of range"},
      {"category split on a numeric attribute", 3,
       "node cat 2 3 100 100 1 0 2 0 3", "category split on ordered"},
      {"category arity other than the domain's", 3,
       "node cat 0 2 100 100 1 0 2", "arity differs from the domain"},
      {"threshold split on a nominal attribute", 3,
       "node le 0 1 100 100 1 0 2", "threshold split on nominal"},
      {"non-finite threshold", 3, "node le 2 nan 100 100 1 0 2", "malformed threshold"},
      {"negative known weight", 3, "node cat 0 3 -1 100 1 0 2 0 3", "malformed known weight"},
      {"negative branch weight", 3, "node cat 0 3 100 -100 1 0 2 0 3", "malformed branch"},
      {"non-finite branch weight", 3, "node cat 0 3 100 inf 1 0 2 0 3", "malformed branch"},
      {"negative child index", 3, "node cat 0 3 100 100 -1 0 2 0 3", "malformed branch"},
      {"trailing data on a node line", 3,
       "node cat 0 3 100 100 1 0 2 0 3 7", "trailing data"},
      {"unknown node kind", 3, "node gt 2 1 100 100 1 0 2", "unknown node kind"},
      {"negative leaf index", 4, "node leaf -1", "leaf index out of range"},
      {"inflated node count", 2, "tree 99999999999 2", "exceeds the remaining input"},
      {"inflated leaf count", 2, "tree 4 99999999999", "exceeds the remaining input"},
      {"empty tree", 2, "tree 0 0", "empty tree"},
      {"class attribute out of range", 1, "attrset 7 nominal", "out of range"},
  };
  for (const auto& [what, line, with, reason] : cases) {
    auto sm = ParseModel(s, MinimalModelWith(line, with));
    ASSERT_FALSE(sm.ok()) << what;
    EXPECT_NE(sm.status().message().find(
                  "line " + std::to_string(line + 1) + ": "),
              std::string::npos)
        << what << ": " << sm.status();
    EXPECT_NE(sm.status().message().find(reason), std::string::npos)
        << what << ": " << sm.status();
  }
  // Inflated discretizer counts on an attrset line.
  EXPECT_FALSE(
      ParseModel(s, "dqmodel v2\nattrset 2 discretized 99999999999 1 2 3\nend\n")
          .ok());
  EXPECT_FALSE(
      ParseModel(s, "dqmodel v2\nattrset 2 discretized 1 5 99999999999 1 2\nend\n")
          .ok());
}

TEST(StructureModelTest, MutatedModelsYieldStatusNotCrash) {
  Fixture f(2000, 10, 63);
  const StructureModel sm =
      StructureModel::FromAuditModel(f.model, f.table.schema());
  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  const std::string text = os.str();
  ASSERT_TRUE(ParseModel(f.table.schema(), text).ok());

  size_t accepted = 0;
  size_t rejected = 0;
  double slowest_ms = 0.0;
  for (const std::string& mutant : Mutants(text, 2003)) {
    const auto start = std::chrono::steady_clock::now();
    auto parsed = ParseModel(f.table.schema(), mutant);
    slowest_ms = std::max(
        slowest_ms, std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    if (!parsed.ok()) {
      ++rejected;
      EXPECT_NE(parsed.status().message().find("dqmodel"), std::string::npos)
          << parsed.status();
      continue;
    }
    ++accepted;
    // Whatever loads must also check without touching memory it does not
    // own (the sanitizer builds run this suite).
    auto report = parsed->Check(f.table, f.config);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->record_confidence.size(), f.table.num_rows());
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);  // some flips land in harmless digits
  // Parsing is one bounded pass: no mutant may stall the reader.
  EXPECT_LT(slowest_ms, 2000.0);
}

// --- Review (sec. 5.3) -----------------------------------------------------------

TEST(ReviewTest, ExplainsPlantedDeviation) {
  Fixture f;
  auto detail = ExplainRecord(f.model, f.table, 0, f.config);
  ASSERT_TRUE(detail.ok());
  EXPECT_GT(detail->combined_confidence, 0.8);
  ASSERT_FALSE(detail->dissenting.empty());
  // Dissenting opinions are sorted strongest first.
  for (size_t i = 1; i < detail->dissenting.size(); ++i) {
    EXPECT_GE(detail->dissenting[i - 1].error_confidence,
              detail->dissenting[i].error_confidence);
  }
  // Each opinion carries a usable distribution.
  for (const ClassifierOpinion& o : detail->dissenting) {
    double total = 0.0;
    for (double p : o.distribution) total += p;
    EXPECT_NEAR(total, 1.0, 1e-6);
    EXPECT_GT(o.support, 0.0);
  }
}

TEST(ReviewTest, CleanRecordHasNoDissent) {
  Fixture f;
  auto detail = ExplainRecord(f.model, f.table, f.table.num_rows() - 1,
                              f.config);
  ASSERT_TRUE(detail.ok());
  EXPECT_LT(detail->combined_confidence, 0.8);
}

TEST(ReviewTest, RenderMentionsObservedAndPredicted) {
  Fixture f;
  auto detail = ExplainRecord(f.model, f.table, 0, f.config);
  ASSERT_TRUE(detail.ok());
  const std::string sheet = RenderSuspicionDetail(*detail, f.model, f.table);
  EXPECT_NE(sheet.find("observed"), std::string::npos);
  EXPECT_NE(sheet.find("predicted"), std::string::npos);
  EXPECT_NE(sheet.find("distribution"), std::string::npos);
}

TEST(ReviewTest, RowOutOfRangeRejected) {
  Fixture f;
  EXPECT_FALSE(ExplainRecord(f.model, f.table, f.table.num_rows(),
                             f.config)
                   .ok());
}

}  // namespace
}  // namespace dq
