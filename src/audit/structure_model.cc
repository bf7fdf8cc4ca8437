#include "audit/structure_model.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "common/strings.h"

namespace dq {

namespace {

std::string FullPrecision(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string AttrName(const Schema& schema, int attr) {
  return "'" + schema.attribute(static_cast<size_t>(attr)).name + "'";
}

std::vector<DataType> AttributeTypes(const Schema& schema) {
  std::vector<DataType> types;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    types.push_back(schema.attribute(a).type);
  }
  return types;
}

/// The empty tree an attribute's rules are inserted into.
FlatTree RuleTree(const ClassEncoder& encoder) {
  FlatTree tree;
  tree.nodes.emplace_back();
  tree.num_classes = encoder.num_classes();
  return tree;
}

/// Adds `set.rules[index]` to `tree` as one root-to-leaf path ending in
/// leaf `index`. Fails when a condition is outside the schema or the rules
/// stop forming one tree.
Status InsertRule(const Schema& schema, const AttributeRuleSet& set,
                  size_t index, FlatTree* tree) {
  using Kind = SplitCondition::Kind;
  using NodeKind = FlatTree::Node::Kind;
  std::vector<FlatTree::Node>& nodes = tree->nodes;
  std::vector<int32_t>& children = tree->children;
  const StructureRule& rule = set.rules[index];
  size_t node = 0;
  for (size_t depth = 0; depth < rule.conditions.size(); ++depth) {
    const SplitCondition& cond = rule.conditions[depth];
    if (cond.attr < 0 ||
        static_cast<size_t>(cond.attr) >= schema.num_attributes()) {
      return Status::InvalidArgument("condition attribute " +
                                     std::to_string(cond.attr) +
                                     " out of range");
    }
    const AttributeDef& def = schema.attribute(static_cast<size_t>(cond.attr));
    const bool nominal = def.type == DataType::kNominal;
    const auto num_categories = static_cast<int32_t>(def.categories.size());
    if (cond.kind == Kind::kCategory) {
      if (!nominal) {
        return Status::InvalidArgument("category condition on ordered "
                                       "attribute " +
                                       AttrName(schema, cond.attr));
      }
      if (cond.category < 0 || cond.category >= num_categories) {
        return Status::InvalidArgument(
            "category " + std::to_string(cond.category) +
            " outside the domain of " + AttrName(schema, cond.attr));
      }
    } else {
      if (nominal) {
        return Status::InvalidArgument("threshold condition on nominal "
                                       "attribute " +
                                       AttrName(schema, cond.attr));
      }
      if (std::isnan(cond.threshold)) {
        return Status::InvalidArgument("NaN threshold");
      }
    }

    const NodeKind split =
        cond.kind == Kind::kCategory ? NodeKind::kCategory : NodeKind::kOrdered;
    FlatTree::Node& at = nodes[node];
    if (at.kind == NodeKind::kEmpty) {
      const int32_t width = split == NodeKind::kCategory ? num_categories : 2;
      if (children.size() + static_cast<size_t>(width) >
          static_cast<size_t>(INT32_MAX)) {
        return Status::InvalidArgument("too many category splits");
      }
      at.kind = split;
      at.attr = cond.attr;
      at.threshold = cond.threshold;
      at.index = static_cast<int32_t>(children.size());
      at.num_children = width;
      children.resize(children.size() + static_cast<size_t>(width),
                      FlatTree::kNoMatch);
    } else if (at.kind == NodeKind::kLeaf) {
      return Status::InvalidArgument(
          "not a decision tree: condition " + std::to_string(depth + 1) +
          " extends a path an earlier rule already ends at");
    } else if (at.kind != split || at.attr != cond.attr ||
               (split == NodeKind::kOrdered &&
                at.threshold != cond.threshold)) {
      return Status::InvalidArgument(
          "not a decision tree: condition " + std::to_string(depth + 1) +
          " splits differently from an earlier rule with the same prefix");
    }

    const int32_t branch = cond.kind == Kind::kCategory ? cond.category
                           : cond.kind == Kind::kLessEq ? 0
                                                        : 1;
    int32_t& slot = children[static_cast<size_t>(at.index + branch)];
    if (slot < 0) {
      if (nodes.size() >= static_cast<size_t>(INT32_MAX)) {
        return Status::InvalidArgument("too many tree nodes");
      }
      slot = static_cast<int32_t>(nodes.size());
      nodes.emplace_back();  // invalidates at
    }
    node = static_cast<size_t>(slot);
  }

  FlatTree::Node& leaf = nodes[node];
  if (leaf.kind == NodeKind::kLeaf) {
    return Status::InvalidArgument(
        "not a decision tree: duplicate leaf (an earlier rule has the same "
        "conditions)");
  }
  if (leaf.kind != NodeKind::kEmpty) {
    return Status::InvalidArgument(
        "not a decision tree: rule ends at an inner node of earlier rules");
  }
  leaf.kind = NodeKind::kLeaf;
  leaf.index = static_cast<int32_t>(index);

  // What the checker reports for a match, computed once per rule the way
  // the rule scan computed it per record: the support-normalized counts.
  const auto num_classes = static_cast<size_t>(tree->num_classes);
  tree->leaves.resize(index + 1);
  tree->distributions.resize((index + 1) * num_classes, 0.0);
  FlatTree::Leaf& entry = tree->leaves[index];
  double* dist = tree->distributions.data() + index * num_classes;
  if (rule.support > 0.0) {
    entry.support = rule.support;
    for (size_t c = 0; c < num_classes; ++c) {
      dist[c] = rule.class_counts[c] / rule.support;
    }
    entry.predicted = PredictedClassOf(dist, num_classes);
  }
  entry.suggestion = set.encoder.Representative(rule.majority_class);
  return Status::OK();
}

}  // namespace

StructureModel StructureModel::FromAuditModel(const AuditModel& model,
                                              const Schema& schema,
                                              bool drop_useless) {
  StructureModel out;
  out.attr_types_ = AttributeTypes(schema);
  for (const AttributeModel& am : model.models()) {
    AttributeRuleSet set;
    set.class_attr = am.class_attr;
    set.encoder = am.encoder;
    set.rules = ExtractRules(am, drop_useless);
    if (set.rules.empty()) continue;
    FlatTree tree = RuleTree(set.encoder);
    for (size_t i = 0; i < set.rules.size(); ++i) {
      // C4.5 paths over the schema the tree was induced on always form
      // one tree; a failure here is a bug in rule extraction.
      const Status inserted = InsertRule(schema, set, i, &tree);
      DQ_DCHECK(inserted.ok());
      (void)inserted;
    }
    out.rule_sets_.push_back(std::move(set));
    out.trees_.push_back(std::move(tree));
  }
  return out;
}

size_t StructureModel::TotalRules() const {
  size_t n = 0;
  for (const AttributeRuleSet& set : rule_sets_) n += set.rules.size();
  return n;
}

Result<AuditReport> StructureModel::Check(const Table& data,
                                          const AuditorConfig& config) const {
  if (!trees_.empty() && AttributeTypes(data.schema()) != attr_types_) {
    return Status::InvalidArgument(
        "table schema does not match the structure model's schema");
  }
  std::vector<ScoringModel> models;
  for (size_t s = 0; s < trees_.size(); ++s) {
    models.push_back({rule_sets_[s].class_attr, &rule_sets_[s].encoder,
                      &trees_[s], nullptr});
  }
  AuditReport report = ScoreRecords(models, data, config);
  RankSuspicions(data, config.min_error_confidence, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Serialization

Status StructureModel::SerializeTo(std::ostream* out) const {
  *out << "dqmodel v1\n";
  for (const AttributeRuleSet& set : rule_sets_) {
    *out << "attrset " << set.class_attr;
    if (set.encoder.is_discretized()) {
      const auto& disc = *set.encoder.discretizer();
      *out << " discretized " << disc.cut_points().size();
      for (double c : disc.cut_points()) *out << ' ' << FullPrecision(c);
      *out << ' ' << disc.num_bins();
      for (int b = 0; b < disc.num_bins(); ++b) {
        *out << ' ' << FullPrecision(disc.Representative(b));
      }
      *out << '\n';
    } else {
      *out << " nominal\n";
    }
    for (const StructureRule& rule : set.rules) {
      *out << "rule " << rule.majority_class << ' '
           << FullPrecision(rule.support) << ' ' << FullPrecision(rule.purity)
           << ' ' << FullPrecision(rule.expected_error_confidence)
           << " counts " << rule.class_counts.size();
      for (double c : rule.class_counts) *out << ' ' << FullPrecision(c);
      *out << " conds " << rule.conditions.size() << '\n';
      for (const SplitCondition& cond : rule.conditions) {
        *out << "cond " << cond.attr << ' ';
        switch (cond.kind) {
          case SplitCondition::Kind::kCategory:
            *out << "cat " << cond.category;
            break;
          case SplitCondition::Kind::kLessEq:
            *out << "le " << FullPrecision(cond.threshold);
            break;
          case SplitCondition::Kind::kGreater:
            *out << "gt " << FullPrecision(cond.threshold);
            break;
        }
        *out << '\n';
      }
    }
  }
  *out << "end\n";
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status StructureModel::SaveToFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open '" + path + "' for writing");
  return SerializeTo(&f);
}

namespace {

Status ModelParseError(size_t line_no, const std::string& what) {
  return Status::IOError("dqmodel parse error at line " +
                         std::to_string(line_no) + ": " + what);
}

/// The shortest possible condition line, "cond 0 le 0\n": a rule cannot
/// announce more conditions than the remaining bytes could hold.
constexpr size_t kMinCondLineBytes = 12;

/// Non-blank lines of an in-memory model, numbered from 1; a trailing CR
/// is dropped.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  bool Next() {
    while (!rest_.empty()) {
      const size_t end = rest_.find('\n');
      line_ = rest_.substr(0, end);
      rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                        : end + 1);
      ++line_no_;
      if (!line_.empty() && line_.back() == '\r') line_.remove_suffix(1);
      if (!TrimWhitespace(line_).empty()) return true;
    }
    return false;
  }
  std::string_view line() const { return line_; }
  size_t line_no() const { return line_no_; }
  /// Bytes after the current line.
  size_t remaining() const { return rest_.size(); }

 private:
  std::string_view rest_;
  std::string_view line_;
  size_t line_no_ = 0;
};

/// Whitespace-separated tokens of one line, parsed with std::from_chars.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  bool Word(std::string_view* out) {
    SkipSpace();
    size_t end = 0;
    while (end < rest_.size() && !IsSpace(rest_[end])) ++end;
    if (end == 0) return false;
    *out = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return true;
  }

  /// An integer, or a finite double (every number the writer emits is).
  template <typename T>
  bool Number(T* out) {
    std::string_view word;
    if (!Word(&word)) return false;
    T value{};
    const auto [ptr, ec] =
        std::from_chars(word.data(), word.data() + word.size(), value);
    if (ec != std::errc() || ptr != word.data() + word.size()) return false;
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) return false;
    }
    *out = value;
    return true;
  }

  /// "N v1 ... vN"; N is bounded by what the rest of the line can hold
  /// (each value takes a separator and a digit) before anything is
  /// allocated.
  bool CountedDoubles(std::vector<double>* out) {
    size_t count = 0;
    if (!Number(&count) || count > rest_.size() / 2) return false;
    out->resize(count);
    for (double& v : *out) {
      if (!Number(&v)) return false;
    }
    return true;
  }

  bool Done() {
    SkipSpace();
    return rest_.empty();
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }
  void SkipSpace() {
    size_t n = 0;
    while (n < rest_.size() && IsSpace(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

/// The rest of `in`; `size_hint` (the file size, when known) sizes the
/// buffer once instead of growing it by doubling.
Result<std::string> ReadAll(std::istream* in, uintmax_t size_hint) {
  std::string text;
  text.reserve(static_cast<size_t>(size_hint));
  char buf[1 << 16];
  while (in->read(buf, sizeof(buf)) || in->gcount() > 0) {
    text.append(buf, static_cast<size_t>(in->gcount()));
  }
  if (in->bad()) return Status::IOError("stream read failed");
  return text;
}

}  // namespace

Result<StructureModel> StructureModel::Parse(const Schema& schema,
                                             std::string_view text) {
  StructureModel model;
  model.attr_types_ = AttributeTypes(schema);
  LineCursor lines(text);
  if (!lines.Next() || lines.line() != "dqmodel v1") {
    return ModelParseError(lines.line_no(), "missing 'dqmodel v1' header");
  }

  while (lines.Next()) {
    const size_t line_no = lines.line_no();
    Tokens tok(lines.line());
    std::string_view tag;
    tok.Word(&tag);  // the line is not blank
    if (tag == "end") {
      if (!tok.Done()) return ModelParseError(line_no, "trailing data");
      return model;
    }
    if (tag == "attrset") {
      int attr = -1;
      std::string_view kind;
      if (!tok.Number(&attr) || !tok.Word(&kind)) {
        return ModelParseError(line_no, "malformed attrset");
      }
      std::optional<EqualFrequencyDiscretizer> disc;
      if (kind == "discretized") {
        std::vector<double> cuts;
        std::vector<double> reps;
        if (!tok.CountedDoubles(&cuts) || !tok.CountedDoubles(&reps)) {
          return ModelParseError(line_no, "malformed discretizer");
        }
        auto built = EqualFrequencyDiscretizer::FromParts(std::move(cuts),
                                                          std::move(reps));
        if (!built.ok()) {
          return ModelParseError(line_no, built.status().message());
        }
        disc = std::move(*built);
      } else if (kind != "nominal") {
        return ModelParseError(line_no,
                               "unknown encoder kind '" + std::string(kind) +
                                   "'");
      }
      if (!tok.Done()) return ModelParseError(line_no, "trailing data");
      auto encoder = ClassEncoder::FromParts(schema, attr, std::move(disc));
      if (!encoder.ok()) {
        return ModelParseError(line_no, encoder.status().message());
      }
      AttributeRuleSet set;
      set.class_attr = attr;
      set.encoder = std::move(*encoder);
      model.rule_sets_.push_back(std::move(set));
      model.trees_.push_back(RuleTree(model.rule_sets_.back().encoder));
      continue;
    }
    if (tag != "rule") {
      return ModelParseError(line_no,
                             "unknown tag '" + std::string(tag) + "'");
    }

    if (model.rule_sets_.empty()) {
      return ModelParseError(line_no, "rule before attrset");
    }
    AttributeRuleSet& set = model.rule_sets_.back();
    StructureRule rule;
    rule.class_attr = set.class_attr;
    std::string_view counts_tag;
    if (!tok.Number(&rule.majority_class) || !tok.Number(&rule.support) ||
        !tok.Number(&rule.purity) ||
        !tok.Number(&rule.expected_error_confidence) ||
        !tok.Word(&counts_tag) || counts_tag != "counts" ||
        !tok.CountedDoubles(&rule.class_counts)) {
      return ModelParseError(line_no, "malformed rule");
    }
    std::string_view conds_tag;
    size_t nconds = 0;
    if (!tok.Word(&conds_tag) || conds_tag != "conds" ||
        !tok.Number(&nconds) || !tok.Done()) {
      return ModelParseError(line_no, "malformed rule conditions count");
    }
    const int num_classes = set.encoder.num_classes();
    if (rule.class_counts.size() != static_cast<size_t>(num_classes)) {
      return ModelParseError(line_no, "class count arity mismatch");
    }
    if (rule.majority_class < 0 || rule.majority_class >= num_classes) {
      return ModelParseError(line_no, "majority class out of range");
    }
    if (nconds > lines.remaining() / kMinCondLineBytes) {
      return ModelParseError(line_no,
                             "condition count exceeds the remaining input");
    }
    rule.conditions.reserve(nconds);
    for (size_t i = 0; i < nconds; ++i) {
      if (!lines.Next()) {
        return ModelParseError(lines.line_no(), "truncated conditions");
      }
      Tokens cs(lines.line());
      std::string_view cond_tag;
      std::string_view op;
      SplitCondition cond;
      if (!cs.Word(&cond_tag) || cond_tag != "cond" ||
          !cs.Number(&cond.attr) || !cs.Word(&op)) {
        return ModelParseError(lines.line_no(), "malformed cond");
      }
      bool operand = false;
      if (op == "cat") {
        cond.kind = SplitCondition::Kind::kCategory;
        operand = cs.Number(&cond.category);
      } else if (op == "le" || op == "gt") {
        cond.kind = op == "le" ? SplitCondition::Kind::kLessEq
                               : SplitCondition::Kind::kGreater;
        operand = cs.Number(&cond.threshold);
      } else {
        return ModelParseError(lines.line_no(),
                               "unknown cond op '" + std::string(op) + "'");
      }
      if (!operand || !cs.Done()) {
        return ModelParseError(lines.line_no(), "malformed cond operand");
      }
      rule.conditions.push_back(cond);
    }
    set.rules.push_back(std::move(rule));
    Status inserted = InsertRule(schema, set, set.rules.size() - 1,
                                 &model.trees_.back());
    if (!inserted.ok()) return ModelParseError(line_no, inserted.message());
  }
  return ModelParseError(lines.line_no(), "missing 'end'");
}

Result<StructureModel> StructureModel::Deserialize(const Schema& schema,
                                                   std::istream* in) {
  DQ_ASSIGN_OR_RETURN(std::string text, ReadAll(in, 0));
  return Parse(schema, text);
}

Result<StructureModel> StructureModel::LoadFromFile(const Schema& schema,
                                                    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open '" + path + "' for reading");
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  DQ_ASSIGN_OR_RETURN(std::string text, ReadAll(&f, ec ? 0 : size));
  return Parse(schema, text);
}

}  // namespace dq
