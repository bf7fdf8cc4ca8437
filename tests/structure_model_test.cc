// Tests for the persistent rule-set structure model (sec. 2.2 asynchrony,
// sec. 5.4 rule export) and the interactive review module (sec. 5.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "audit/error_confidence.h"
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

/// Reference checker: the first-match rule scan over StructureRule::Matches
/// that the compiled-tree walk replaced. Kept here as the oracle the walk
/// must reproduce field for field.
AuditReport RuleScanOracle(const StructureModel& sm, const Table& data,
                           const AuditorConfig& config) {
  AuditReport report;
  const size_t n = data.num_rows();
  report.record_confidence.assign(n, 0.0);
  report.record_attr.assign(n, -1);
  report.record_suggestion.assign(n, Value::Null());
  report.record_support.assign(n, 0.0);
  report.flagged.assign(n, false);
  for (size_t r = 0; r < n; ++r) {
    const Row row = data.row(r);
    for (const AttributeRuleSet& set : sm.rule_sets()) {
      const StructureRule* matched = nullptr;
      for (const StructureRule& rule : set.rules) {
        if (rule.Matches(row)) {
          matched = &rule;
          break;
        }
      }
      if (matched == nullptr || matched->support <= 0.0) continue;
      Prediction pred;
      pred.support = matched->support;
      for (double c : matched->class_counts) {
        pred.distribution.push_back(c / matched->support);
      }
      const double conf = ErrorConfidence(
          pred, set.encoder.Encode(row[static_cast<size_t>(set.class_attr)]),
          config.confidence_level, config.flag_null_values);
      if (conf > report.record_confidence[r]) {
        report.record_confidence[r] = conf;
        report.record_attr[r] = set.class_attr;
        report.record_suggestion[r] =
            set.encoder.Representative(matched->majority_class);
        report.record_support[r] = matched->support;
      }
    }
    const int attr = report.record_attr[r];
    if (attr < 0 ||
        report.record_confidence[r] < config.min_error_confidence) {
      continue;
    }
    report.flagged[r] = true;
    Suspicion s;
    s.row = r;
    s.error_confidence = report.record_confidence[r];
    s.attr = attr;
    s.observed = data.cell(r, static_cast<size_t>(attr));
    s.suggestion = report.record_suggestion[r];
    s.support = report.record_support[r];
    report.suspicious.push_back(std::move(s));
  }
  std::stable_sort(report.suspicious.begin(), report.suspicious.end(),
                   [](const Suspicion& a, const Suspicion& b) {
                     return a.error_confidence > b.error_confidence;
                   });
  return report;
}

void ExpectSameReport(const AuditReport& want, const AuditReport& got) {
  ASSERT_EQ(want.record_confidence.size(), got.record_confidence.size());
  for (size_t r = 0; r < want.record_confidence.size(); ++r) {
    ASSERT_EQ(want.record_confidence[r], got.record_confidence[r])
        << "row " << r;
    ASSERT_EQ(want.record_attr[r], got.record_attr[r]) << "row " << r;
    ASSERT_TRUE(
        want.record_suggestion[r].StrictEquals(got.record_suggestion[r]))
        << "row " << r;
    ASSERT_EQ(want.record_support[r], got.record_support[r]) << "row " << r;
    ASSERT_EQ(want.IsFlagged(r), got.IsFlagged(r)) << "row " << r;
  }
  ASSERT_EQ(want.suspicious.size(), got.suspicious.size());
  for (size_t i = 0; i < want.suspicious.size(); ++i) {
    const Suspicion& a = want.suspicious[i];
    const Suspicion& b = got.suspicious[i];
    ASSERT_EQ(a.row, b.row) << "rank " << i;
    ASSERT_EQ(a.error_confidence, b.error_confidence) << "rank " << i;
    ASSERT_EQ(a.attr, b.attr) << "rank " << i;
    ASSERT_TRUE(a.observed.StrictEquals(b.observed)) << "rank " << i;
    ASSERT_TRUE(a.suggestion.StrictEquals(b.suggestion)) << "rank " << i;
    ASSERT_EQ(a.support, b.support) << "rank " << i;
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

TEST(StructureModelTest, BuildsNonEmptyRuleSets) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  EXPECT_GT(sm.TotalRules(), 0u);
  EXPECT_FALSE(sm.rule_sets().empty());
  for (const AttributeRuleSet& set : sm.rule_sets()) {
    for (const StructureRule& rule : set.rules) {
      EXPECT_EQ(rule.class_attr, set.class_attr);
      EXPECT_EQ(static_cast<int>(rule.class_counts.size()),
                set.encoder.num_classes());
    }
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
  // Rule-set checking and tree-based auditing coincide for records with
  // fully known path attributes (which is all of them here).
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  auto rule_report = sm.Check(f.table, f.config);
  auto tree_report = f.auditor.Audit(f.model, f.table);
  ASSERT_TRUE(rule_report.ok());
  ASSERT_TRUE(tree_report.ok());
  EXPECT_EQ(rule_report->NumFlagged(), tree_report->NumFlagged());
  for (size_t r = 0; r < f.table.num_rows(); ++r) {
    EXPECT_EQ(rule_report->IsFlagged(r), tree_report->IsFlagged(r))
        << "row " << r;
    if (rule_report->IsFlagged(r)) {
      EXPECT_NEAR(rule_report->record_confidence[r],
                  tree_report->record_confidence[r], 1e-9);
    }
  }
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

  // The deserialized model checks identically.
  auto before = sm.Check(f.table, f.config);
  auto after = back->Check(f.table, f.config);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->NumFlagged(), after->NumFlagged());
  for (size_t r = 0; r < f.table.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(before->record_confidence[r],
                     after->record_confidence[r]);
  }
}

TEST(StructureModelTest, RoundTripPreservesDiscretizedEncoders) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  // The Z attribute (numeric class) must have a discretized encoder if it
  // produced rules.
  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  std::istringstream is(os.str());
  auto back = StructureModel::Deserialize(f.table.schema(), &is);
  ASSERT_TRUE(back.ok());
  for (const AttributeRuleSet& set : back->rule_sets()) {
    if (set.class_attr == 2) {
      EXPECT_TRUE(set.encoder.is_discretized());
      EXPECT_GT(set.encoder.num_classes(), 1);
    }
  }
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
  {
    std::istringstream is("not a model\n");
    EXPECT_FALSE(StructureModel::Deserialize(s, &is).ok());
  }
  {
    std::istringstream is("dqmodel v1\nbogus tag\nend\n");
    EXPECT_FALSE(StructureModel::Deserialize(s, &is).ok());
  }
  {
    // Missing 'end'.
    std::istringstream is("dqmodel v1\nattrset 0 nominal\n");
    EXPECT_FALSE(StructureModel::Deserialize(s, &is).ok());
  }
  {
    // Rule before any attrset.
    std::istringstream is(
        "dqmodel v1\nrule 0 10 1 0.5 counts 3 10 0 0 conds 0\nend\n");
    EXPECT_FALSE(StructureModel::Deserialize(s, &is).ok());
  }
  {
    // Class-count arity mismatch (X has 3 categories).
    std::istringstream is(
        "dqmodel v1\nattrset 0 nominal\n"
        "rule 0 10 1 0.5 counts 2 10 0 conds 0\nend\n");
    EXPECT_FALSE(StructureModel::Deserialize(s, &is).ok());
  }
  {
    // Attribute index out of range in a condition.
    std::istringstream is(
        "dqmodel v1\nattrset 0 nominal\n"
        "rule 0 10 1 0.5 counts 3 10 0 0 conds 1\ncond 9 cat 0\nend\n");
    EXPECT_FALSE(StructureModel::Deserialize(s, &is).ok());
  }
}

TEST(StructureModelTest, MinimalHandAuthoredModel) {
  Schema s = ModelSchema();
  std::istringstream is(
      "dqmodel v1\n"
      "attrset 1 nominal\n"
      "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\n"
      "cond 0 cat 0\n"
      "end\n");
  auto sm = StructureModel::Deserialize(s, &is);
  ASSERT_TRUE(sm.ok()) << sm.status();
  ASSERT_EQ(sm->TotalRules(), 1u);

  // A record matching the rule with a deviating Y is flagged.
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(0),
                           Value::Numeric(1.0)})
                  .ok());  // deviates (rule says Y=y1)
  ASSERT_TRUE(t.AppendRow({Value::Nominal(0), Value::Nominal(1),
                           Value::Numeric(1.0)})
                  .ok());  // conforms
  ASSERT_TRUE(t.AppendRow({Value::Nominal(2), Value::Nominal(0),
                           Value::Numeric(1.0)})
                  .ok());  // rule does not apply
  AuditorConfig config;
  config.min_error_confidence = 0.8;
  auto report = sm->Check(t, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->IsFlagged(0));
  EXPECT_FALSE(report->IsFlagged(1));
  EXPECT_FALSE(report->IsFlagged(2));
  EXPECT_EQ(report->suspicious[0].suggestion.nominal_code(), 1);
}

TEST(StructureModelTest, NullPathValueMatchesNoRule) {
  Fixture f;
  StructureModel sm = StructureModel::FromAuditModel(f.model, f.table.schema());
  Table t(f.table.schema());
  ASSERT_TRUE(
      t.AppendRow({Value::Null(), Value::Nominal(0), Value::Numeric(5.0)})
          .ok());
  auto report = sm.Check(t, f.config);
  ASSERT_TRUE(report.ok());
  // The Y rules condition on X; with X null no rule matches, so the only
  // possible flags come from other attribute models.
  for (const Suspicion& s : report->suspicious) {
    EXPECT_NE(s.attr, 1);
  }
}

TEST(StructureModelTest, DropUselessShrinksButLosesPureLeafDetection) {
  // The sec. 5.4 reduction removes zero-expErrorConf (pure) leaves: the
  // model shrinks, but a *new* record deviating inside a pure partition is
  // no longer caught — the reason keep-all is the checking default. Train
  // on pristine data so every Y leaf is pure.
  Fixture f(3000, /*errors=*/0, 61);
  StructureModel full =
      StructureModel::FromAuditModel(f.model, f.table.schema(), false);
  StructureModel reduced =
      StructureModel::FromAuditModel(f.model, f.table.schema(), true);
  EXPECT_LT(reduced.TotalRules(), full.TotalRules());

  Row row(3);
  row[0] = Value::Nominal(1);
  row[1] = Value::Nominal(0);  // violates Y == X
  row[2] = Value::Numeric(31.0);
  const Schema& schema = f.table.schema();
  const AuditReport full_report = CheckOne(full, schema, row, f.config);
  EXPECT_TRUE(full_report.IsFlagged(0));
  const AuditReport reduced_report = CheckOne(reduced, schema, row, f.config);
  EXPECT_LT(reduced_report.record_confidence[0],
            full_report.record_confidence[0]);
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

// --- Compiled-tree checker vs the rule-scan oracle --------------------------

TEST(StructureModelTest, CheckEqualsRuleScanOnPollutedQuis) {
  // QUIS mixes nominal, numeric and date attributes, so the trees hold
  // category and threshold splits; the pollution adds nulls on split
  // attributes and values the training data never paired.
  QuisConfig quis;
  quis.num_records = 3000;
  quis.seed = 23;
  auto sample = GenerateQuisSample(quis);
  ASSERT_TRUE(sample.ok());
  const Table& train = sample->table;
  Auditor auditor(Fixture::MakeConfig());
  auto model = auditor.Induce(train);
  ASSERT_TRUE(model.ok());
  const StructureModel sm =
      StructureModel::FromAuditModel(*model, train.schema());
  ASSERT_GT(sm.TotalRules(), 20u);

  std::ostringstream os;
  ASSERT_TRUE(sm.SerializeTo(&os).ok());
  auto loaded = ParseModel(train.schema(), os.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  const Table data = Polluted(train, 0.15, 5);
  for (int threads : {1, 4}) {
    AuditorConfig config = Fixture::MakeConfig();
    config.num_threads = threads;
    const AuditReport oracle = RuleScanOracle(sm, data, config);
    ASSERT_GT(oracle.suspicious.size(), 0u);
    auto compiled = sm.Check(data, config);
    ASSERT_TRUE(compiled.ok());
    ExpectSameReport(oracle, *compiled);
    auto reloaded = loaded->Check(data, config);
    ASSERT_TRUE(reloaded.ok());
    ExpectSameReport(oracle, *reloaded);
    // The null-flagging policy reaches the walk unchanged.
    config.flag_null_values = false;
    auto no_nulls = sm.Check(data, config);
    ASSERT_TRUE(no_nulls.ok());
    ExpectSameReport(RuleScanOracle(sm, data, config), *no_nulls);
  }
}

TEST(StructureModelTest, CheckEqualsRuleScanWithDroppedLeaves) {
  // drop_useless removes leaves, leaving category children and threshold
  // sides with no rule below them: those records must match nothing.
  Fixture f(3000, 20, 62);
  const StructureModel reduced =
      StructureModel::FromAuditModel(f.model, f.table.schema(), true);
  const Table data = Polluted(f.table, 0.2, 9);
  const AuditReport oracle = RuleScanOracle(reduced, data, f.config);
  auto compiled = reduced.Check(data, f.config);
  ASSERT_TRUE(compiled.ok());
  ExpectSameReport(oracle, *compiled);
}

TEST(StructureModelTest, EqualConfidenceGoesToTheFirstAttributeModel) {
  // Both rules apply to (X=x0, Y=y0) and dissent with the same confidence;
  // Definition 8's maximum keeps the first model's verdict on a tie.
  const Schema s = ModelSchema();
  auto sm = ParseModel(s,
                       "dqmodel v1\n"
                       "attrset 0 nominal\n"
                       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\n"
                       "cond 1 cat 0\n"
                       "attrset 1 nominal\n"
                       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\n"
                       "cond 0 cat 0\n"
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

TEST(StructureModelTest, RejectsRuleSetsThatAreNotOneTree) {
  const Schema s = ModelSchema();
  const std::string head = "dqmodel v1\nattrset 1 nominal\n";
  const std::string rule = "rule 1 100 0.99 0.5 counts 3 1 99 0 conds ";
  struct Case {
    const char* what;
    std::string body;
    const char* line;    // the line the error must name
    const char* reason;  // and what it must say
  };
  const std::vector<Case> cases = {
      {"split on another attribute under the same prefix",
       rule + "1\ncond 0 cat 0\n" + rule + "1\ncond 2 le 50\n", "line 5",
       "splits differently"},
      {"threshold disagreeing with the sibling rule",
       rule + "1\ncond 2 le 50\n" + rule + "1\ncond 2 gt 40\n", "line 5",
       "splits differently"},
      {"category split against a threshold split",
       rule + "2\ncond 2 le 50\ncond 0 cat 1\n" + rule +
           "2\ncond 2 le 50\ncond 2 le 20\n",
       "line 6", "splits differently"},
      {"rule ending at an inner node",
       rule + "2\ncond 0 cat 0\ncond 2 le 10\n" + rule + "1\ncond 0 cat 0\n",
       "line 6", "inner node"},
      {"rule extending past a leaf",
       rule + "1\ncond 0 cat 0\n" + rule + "2\ncond 0 cat 0\ncond 2 le 10\n",
       "line 5", "extends a path"},
      {"duplicate leaf", rule + "0\n" + rule + "0\n", "line 4",
       "duplicate leaf"},
  };
  for (const Case& c : cases) {
    auto sm = ParseModel(s, head + c.body + "end\n");
    ASSERT_FALSE(sm.ok()) << c.what;
    const std::string& message = sm.status().message();
    EXPECT_NE(message.find(c.line), std::string::npos)
        << c.what << ": " << sm.status();
    EXPECT_NE(message.find("not a decision tree"), std::string::npos)
        << c.what << ": " << sm.status();
    EXPECT_NE(message.find(c.reason), std::string::npos)
        << c.what << ": " << sm.status();
  }
  // The same conditions in a consistent tree load fine.
  auto ok = ParseModel(s, head + rule + "1\ncond 2 le 50\n" + rule +
                              "1\ncond 2 gt 50\nend\n");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(StructureModelTest, RejectsOutOfDomainFields) {
  const Schema s = ModelSchema();
  const std::string head = "dqmodel v1\nattrset 1 nominal\n";
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"majority class past the class count",
       "rule 3 100 0.99 0.5 counts 3 1 99 0 conds 0\n"},
      {"negative majority class",
       "rule -1 100 0.99 0.5 counts 3 1 99 0 conds 0\n"},
      {"category outside the domain",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\ncond 0 cat 3\n"},
      {"negative category",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\ncond 0 cat -1\n"},
      {"category split on a numeric attribute",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\ncond 2 cat 0\n"},
      {"threshold split on a nominal attribute",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\ncond 0 le 1\n"},
      {"non-finite threshold",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 1\ncond 2 le nan\n"},
      {"non-finite support", "rule 1 inf 0.99 0.5 counts 3 1 99 0 conds 0\n"},
      {"inflated class count",
       "rule 1 100 0.99 0.5 counts 99999999999 1 99 0 conds 0\n"},
      {"count past size_t", "rule 1 100 0.99 0.5 counts "
                            "999999999999999999999999 1 99 0 conds 0\n"},
      {"inflated condition count",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 99999999999\n"},
      {"trailing data on a rule line",
       "rule 1 100 0.99 0.5 counts 3 1 99 0 conds 0 x\n"},
  };
  for (const auto& [what, body] : cases) {
    auto sm = ParseModel(s, head + body + "end\n");
    EXPECT_FALSE(sm.ok()) << what;
  }
  // Inflated discretizer counts on an attrset line.
  EXPECT_FALSE(
      ParseModel(s, "dqmodel v1\nattrset 2 discretized 99999999999 1 2 3\nend\n")
          .ok());
  EXPECT_FALSE(
      ParseModel(s, "dqmodel v1\nattrset 2 discretized 1 5 99999999999 1 2\nend\n")
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
