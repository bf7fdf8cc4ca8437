// Tests for the textual TDG-rule parser (expert-written dependencies,
// sec. 3.2).

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "logic/rule_parser.h"
#include "mutation.h"
#include "table/date.h"
#include "table/schema_spec.h"

namespace dq {
namespace {

Schema ParserSchema() {
  Schema s;
  EXPECT_TRUE(s.AddNominal("BRV", {"401", "404", "501"}).ok());
  EXPECT_TRUE(s.AddNominal("GBM", {"901", "902", "911"}).ok());
  EXPECT_TRUE(s.AddNominal("KBM", {"01", "02"}).ok());
  EXPECT_TRUE(s.AddNumeric("N", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddNumeric("M", 0.0, 100.0).ok());
  EXPECT_TRUE(s.AddDate("D", DaysFromCivil({1990, 1, 1}),
                        DaysFromCivil({2003, 12, 31}))
                  .ok());
  return s;
}

TEST(RuleParserTest, PaperHeadlineRule) {
  Schema s = ParserSchema();
  auto rule = ParseRule(s, "BRV = 404 -> GBM = 901");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->ToString(s), "BRV = 404 -> GBM = 901");
  Row row(6);
  row[0] = Value::Nominal(1);  // 404
  row[1] = Value::Nominal(2);  // 911 -- violates
  EXPECT_TRUE(rule->Violates(row));
  row[1] = Value::Nominal(0);  // 901
  EXPECT_FALSE(rule->Violates(row));
}

TEST(RuleParserTest, ConjunctivePremise) {
  Schema s = ParserSchema();
  auto rule = ParseRule(s, "KBM = 01 AND GBM = 901 -> BRV = 501");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->premise.CountAtoms(), 2u);
  EXPECT_EQ(rule->premise.kind(), Formula::Kind::kAnd);
}

TEST(RuleParserTest, PrecedenceAndParentheses) {
  Schema s = ParserSchema();
  // AND binds tighter than OR.
  auto f = ParseFormula(s, "BRV = 401 OR BRV = 404 AND GBM = 901");
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_EQ(f->kind(), Formula::Kind::kOr);
  ASSERT_EQ(f->children().size(), 2u);
  EXPECT_EQ(f->children()[1].kind(), Formula::Kind::kAnd);

  auto g = ParseFormula(s, "(BRV = 401 OR BRV = 404) AND GBM = 901");
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->kind(), Formula::Kind::kAnd);
  EXPECT_EQ(g->children()[0].kind(), Formula::Kind::kOr);
}

TEST(RuleParserTest, NumericDateAndNullAtoms) {
  Schema s = ParserSchema();
  auto f = ParseFormula(
      s, "N < 5.5 AND M > 50 AND D > 1999-12-31 AND KBM isnotnull");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->CountAtoms(), 4u);
  Row row(6);
  row[3] = Value::Numeric(2.0);
  row[4] = Value::Numeric(80.0);
  row[5] = Value::Date(DaysFromCivil({2001, 5, 5}));
  row[2] = Value::Nominal(0);
  EXPECT_TRUE(f->Evaluate(row));
  row[2] = Value::Null();
  EXPECT_FALSE(f->Evaluate(row));
}

TEST(RuleParserTest, RelationalAtoms) {
  Schema s = ParserSchema();
  auto f = ParseFormula(s, "N < M");
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_TRUE(f->is_atom());
  EXPECT_TRUE(f->atom().rhs_is_attr);
  EXPECT_EQ(f->atom().rhs_attr, 4);

  // Same-category-list nominal equality.
  auto g = ParseFormula(s, "N != M");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->atom().op, AtomOp::kNeq);
}

TEST(RuleParserTest, QuotedOperandForcesConstant) {
  Schema s;
  // A category spelled like an attribute name.
  ASSERT_TRUE(s.AddNominal("A", {"B", "x"}).ok());
  ASSERT_TRUE(s.AddNominal("B", {"B", "x"}).ok());
  auto relational = ParseFormula(s, "A = B");
  ASSERT_TRUE(relational.ok());
  EXPECT_TRUE(relational->atom().rhs_is_attr);
  auto constant = ParseFormula(s, "A = 'B'");
  ASSERT_TRUE(constant.ok());
  EXPECT_FALSE(constant->atom().rhs_is_attr);
  EXPECT_EQ(constant->atom().rhs_value.nominal_code(), 0);
}

TEST(RuleParserTest, KeywordsAreCaseInsensitive) {
  Schema s = ParserSchema();
  auto f = ParseFormula(s, "BRV = 401 and GBM = 901 or KBM IsNull");
  ASSERT_TRUE(f.ok()) << f.status();
  EXPECT_EQ(f->kind(), Formula::Kind::kOr);
}

TEST(RuleParserTest, ErrorsCarryOffsets) {
  Schema s = ParserSchema();
  auto missing_arrow = ParseRule(s, "BRV = 404 GBM = 901");
  ASSERT_FALSE(missing_arrow.ok());
  EXPECT_NE(missing_arrow.status().message().find("expected '->'"),
            std::string::npos);

  auto unknown_attr = ParseFormula(s, "NOPE = 1");
  ASSERT_FALSE(unknown_attr.ok());
  EXPECT_NE(unknown_attr.status().message().find("unknown attribute"),
            std::string::npos);

  auto bad_value = ParseFormula(s, "BRV = 999");
  ASSERT_FALSE(bad_value.ok());

  auto ordered_on_nominal = ParseFormula(s, "BRV < 404");
  ASSERT_FALSE(ordered_on_nominal.ok());

  auto unbalanced = ParseFormula(s, "(BRV = 404");
  ASSERT_FALSE(unbalanced.ok());
  EXPECT_NE(unbalanced.status().message().find("expected ')'"),
            std::string::npos);

  auto unterminated = ParseFormula(s, "BRV = '404");
  ASSERT_FALSE(unterminated.ok());

  auto trailing = ParseFormula(s, "BRV = 404 )");
  ASSERT_FALSE(trailing.ok());
}

TEST(RuleParserTest, MixedTypeRelationalRejected) {
  Schema s = ParserSchema();
  auto f = ParseFormula(s, "N = BRV");
  EXPECT_FALSE(f.ok());
}

TEST(RuleParserTest, RoundTripThroughToString) {
  // Parsing the printed form of a parsed formula yields the same
  // evaluation behaviour.
  Schema s = ParserSchema();
  const char* inputs[] = {
      "BRV = 404 -> GBM = 901",
      "(N < 20 OR N > 80) AND BRV != 401 -> KBM = 02",
      "D > 2000-01-01 AND KBM isnotnull -> M > 10",
  };
  for (const char* input : inputs) {
    auto rule = ParseRule(s, input);
    ASSERT_TRUE(rule.ok()) << input << ": " << rule.status();
    auto reparsed = ParseRule(s, rule->ToString(s));
    ASSERT_TRUE(reparsed.ok()) << rule->ToString(s);
    EXPECT_EQ(rule->ToString(s), reparsed->ToString(s));
  }
}

// Expects ParseRuleDetailed to fail on `text` and returns the error.
ParseError DetailedError(const Schema& s, const std::string& text,
                         size_t line = 1) {
  ParsedRule parsed;
  ParseError error;
  EXPECT_FALSE(ParseRuleDetailed(s, text, line, &parsed, &error)) << text;
  return error;
}

TEST(RuleParserTest, DetailedSyntaxErrorLocations) {
  Schema s = ParserSchema();

  ParseError missing_arrow = DetailedError(s, "BRV = 404 GBM = 901");
  EXPECT_EQ(missing_arrow.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(missing_arrow.loc.line, 1u);
  EXPECT_EQ(missing_arrow.loc.column, 11u);  // the stray 'GBM'
  EXPECT_EQ(missing_arrow.token, "GBM");
  EXPECT_NE(missing_arrow.message.find("expected '->'"), std::string::npos);

  ParseError unbalanced = DetailedError(s, "(BRV = 404 -> GBM = 901");
  EXPECT_EQ(unbalanced.kind, ParseError::Kind::kSyntax);
  EXPECT_NE(unbalanced.message.find("expected ')'"), std::string::npos);

  ParseError unterminated = DetailedError(s, "BRV = '404 -> GBM = 901");
  EXPECT_EQ(unterminated.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(unterminated.loc.column, 7u);  // where the quote opened

  ParseError trailing = DetailedError(s, "BRV = 404 -> GBM = 901 )");
  EXPECT_EQ(trailing.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(trailing.loc.column, 24u);
  EXPECT_EQ(trailing.token, ")");

  ParseError empty_premise = DetailedError(s, "-> GBM = 901");
  EXPECT_EQ(empty_premise.kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(empty_premise.loc.column, 1u);
}

TEST(RuleParserTest, DetailedSemanticErrorKinds) {
  Schema s = ParserSchema();

  ParseError unknown = DetailedError(s, "NOPE = 1 -> BRV = 404", 7);
  EXPECT_EQ(unknown.kind, ParseError::Kind::kUnknownAttribute);
  EXPECT_EQ(unknown.loc.line, 7u);  // caller-provided line number sticks
  EXPECT_EQ(unknown.loc.column, 1u);
  EXPECT_EQ(unknown.token, "NOPE");

  ParseError bad_value = DetailedError(s, "BRV = 404 -> GBM = 999");
  EXPECT_EQ(bad_value.kind, ParseError::Kind::kBadConstant);
  EXPECT_EQ(bad_value.loc.column, 20u);  // the offending constant itself
  EXPECT_EQ(bad_value.token, "999");

  ParseError ordered_nominal = DetailedError(s, "BRV < 404 -> GBM = 901");
  EXPECT_EQ(ordered_nominal.kind, ParseError::Kind::kTypeMismatch);
  EXPECT_EQ(ordered_nominal.loc.column, 7u);

  ParseError mixed_relational = DetailedError(s, "N = BRV -> GBM = 901");
  EXPECT_EQ(mixed_relational.kind, ParseError::Kind::kTypeMismatch);

  ParseError bad_number = DetailedError(s, "N < abc -> GBM = 901");
  EXPECT_EQ(bad_number.kind, ParseError::Kind::kBadConstant);

  ParseError bad_date = DetailedError(s, "D > 1999-13-99 -> GBM = 901");
  EXPECT_EQ(bad_date.kind, ParseError::Kind::kBadConstant);
}

TEST(RuleParserTest, DetailedErrorRendering) {
  Schema s = ParserSchema();
  ParseError error = DetailedError(s, "NOPE = 1 -> BRV = 404", 3);
  const std::string rendered = error.Render();
  EXPECT_NE(rendered.find("line 3"), std::string::npos);
  EXPECT_NE(rendered.find("column 1"), std::string::npos);
  EXPECT_NE(rendered.find("'NOPE'"), std::string::npos);
  EXPECT_FALSE(error.ToStatus().ok());
  EXPECT_NE(error.ToStatus().message().find("NOPE"), std::string::npos);
}

TEST(RuleParserTest, DetailedParseRecordsAtomLocations) {
  Schema s = ParserSchema();
  ParsedRule parsed;
  ParseError error;
  ASSERT_TRUE(ParseRuleDetailed(s, "BRV = 404 AND KBM = 01 -> GBM = 901", 5,
                                &parsed, &error))
      << error.Render();
  EXPECT_EQ(parsed.loc.line, 5u);
  EXPECT_EQ(parsed.loc.column, 1u);
  ASSERT_EQ(parsed.premise_atom_locs.size(), 2u);
  EXPECT_EQ(parsed.premise_atom_locs[0].column, 1u);   // BRV
  EXPECT_EQ(parsed.premise_atom_locs[1].column, 15u);  // KBM
  ASSERT_EQ(parsed.consequent_atom_locs.size(), 1u);
  EXPECT_EQ(parsed.consequent_atom_locs[0].column, 27u);  // GBM
  EXPECT_EQ(parsed.text, "BRV = 404 AND KBM = 01 -> GBM = 901");
}

TEST(RuleParserTest, LenientFileParseCollectsAllErrors) {
  Schema s = ParserSchema();
  std::istringstream in(
      "# comment\n"
      "BRV = 404 -> GBM = 901\n"
      "(BRV = 404 -> GBM = 901\n"
      "NOPE = 1 -> BRV = 404\n"
      "KBM = 01 -> BRV = 501\n");
  RuleFileParse parse = ParseRuleFileLenient(s, &in);
  ASSERT_EQ(parse.rules.size(), 2u);
  EXPECT_EQ(parse.rules[0].loc.line, 2u);
  EXPECT_EQ(parse.rules[1].loc.line, 5u);
  ASSERT_EQ(parse.errors.size(), 2u);
  EXPECT_EQ(parse.errors[0].loc.line, 3u);
  EXPECT_EQ(parse.errors[0].kind, ParseError::Kind::kSyntax);
  EXPECT_EQ(parse.errors[1].loc.line, 4u);
  EXPECT_EQ(parse.errors[1].kind, ParseError::Kind::kUnknownAttribute);
}

TEST(RuleParserTest, RuleFileWithCommentsAndErrors) {
  Schema s = ParserSchema();
  std::istringstream good(
      "# expert dependencies\n"
      "BRV = 404 -> GBM = 901\n"
      "\n"
      "KBM = 01 AND GBM = 901 -> BRV = 501\n");
  auto rules = ParseRuleFile(s, &good);
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(rules->size(), 2u);

  std::istringstream bad("BRV = 404 -> GBM = 901\nbroken line\n");
  auto failed = ParseRuleFile(s, &bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("line 2"), std::string::npos);
}

// --- Mutated rule files --------------------------------------------------

/// Parenthesis nesting far past any real rule, balanced and not.
std::vector<std::string> NestingMutants() {
  const auto nested = [](size_t depth) {
    return std::string(depth, '(') + "GROUP = G1" + std::string(depth, ')') +
           " -> FAMILY = F2\n";
  };
  std::string flat = "GROUP = G1";
  for (int i = 0; i < 20000; ++i) flat += " AND FAMILY = F2";
  return {nested(100), nested(1000), nested(200000),
          std::string(500000, '(') + "\n", flat + " -> PLANT = KASSEL\n"};
}

TEST(RuleFileMutationTest, MutatedRuleFilesYieldStatusNotCrash) {
  const std::string dir = DQ_TESTDATA_DIR;
  const std::string path = ::testing::TempDir() + "/rule_mutant.rules";
  const std::pair<const char*, const char*> seeds[] = {
      {"parts.spec", "parts.rules"},
      {"parts.spec", "parts_bad.rules"},
      {"quis_full.spec", "quis_expert.rules"}};
  size_t accepted = 0;
  size_t rejected = 0;
  double slowest_ms = 0.0;
  for (const auto& [spec, rules] : seeds) {
    auto schema = ParseSchemaSpecFile(dir + "/" + spec);
    ASSERT_TRUE(schema.ok()) << schema.status();
    const Row nulls(schema->num_attributes(), Value::Null());
    std::vector<std::string> mutants =
        Mutants(ReadTextFile(dir + "/" + rules), 2003);
    for (std::string& m : NestingMutants()) mutants.push_back(std::move(m));
    for (const std::string& mutant : mutants) {
      WriteTextFile(path, mutant);
      Result<std::vector<Rule>> parsed = Status::Internal("not parsed");
      slowest_ms = std::max(slowest_ms, TimeMs([&] {
        parsed = ParseRuleFileAt(*schema, path);
        ASSERT_TRUE(ParseRuleFileLenientAt(*schema, path).ok());
      }));
      if (!parsed.ok()) {
        ++rejected;
        EXPECT_FALSE(parsed.status().message().empty());
        continue;
      }
      ++accepted;
      // Whatever parses must also render and evaluate.
      for (const Rule& rule : *parsed) {
        EXPECT_FALSE(rule.ToString(*schema).empty());
        (void)rule.Violates(nulls);
      }
    }
  }
  std::filesystem::remove(path);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);  // some flips land in comments or digits
  EXPECT_LT(slowest_ms, 2000.0);
}

TEST(RuleParserTest, NestingIsBounded) {
  Schema s = ParserSchema();
  const auto nested = [](size_t depth) {
    return std::string(depth, '(') + "BRV = 404" + std::string(depth, ')') +
           " -> GBM = 901";
  };
  EXPECT_TRUE(ParseRule(s, nested(256)).ok());
  auto deep = ParseRule(s, nested(257));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("nested deeper"), std::string::npos);
}

}  // namespace
}  // namespace dq
