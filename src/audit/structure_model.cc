#include "audit/structure_model.h"

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

std::vector<DataType> AttributeTypes(const Schema& schema) {
  std::vector<DataType> types;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    types.push_back(schema.attribute(a).type);
  }
  return types;
}

}  // namespace

StructureModel StructureModel::FromAuditModel(const AuditModel& model,
                                              const Schema& schema) {
  StructureModel out;
  out.attr_types_ = AttributeTypes(schema);
  for (const AttributeModel& am : model.models()) {
    const auto* tree = dynamic_cast<const C45Tree*>(am.classifier.get());
    if (tree == nullptr || tree->flat().nodes.empty()) continue;
    out.trees_.push_back({am.class_attr, am.encoder, tree->flat()});
  }
  return out;
}

size_t StructureModel::TotalRules() const {
  size_t n = 0;
  for (const AttributeTree& at : trees_) {
    for (const FlatTree::Node& node : at.tree.nodes) {
      if (node.kind == FlatTree::Node::Kind::kLeaf &&
          at.tree.leaves[static_cast<size_t>(node.index)].weight > 0.0) {
        ++n;
      }
    }
  }
  return n;
}

Result<AuditReport> StructureModel::Check(const Table& data,
                                          const AuditorConfig& config) const {
  if (!trees_.empty() && AttributeTypes(data.schema()) != attr_types_) {
    return Status::InvalidArgument(
        "table schema does not match the structure model's schema");
  }
  std::vector<ScoringModel> models;
  for (const AttributeTree& at : trees_) {
    models.push_back({at.class_attr, &at.encoder, &at.tree, nullptr});
  }
  AuditReport report = ScoreRecords(models, data, config);
  RankSuspicions(data, config.min_error_confidence, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Serialization

Status StructureModel::SerializeTo(std::ostream* out) const {
  using Kind = FlatTree::Node::Kind;
  *out << "dqmodel v2\n";
  for (const AttributeTree& at : trees_) {
    *out << "attrset " << at.class_attr;
    if (at.encoder.is_discretized()) {
      const auto& disc = *at.encoder.discretizer();
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
    const FlatTree& tree = at.tree;
    *out << "tree " << tree.nodes.size() << ' ' << tree.leaves.size() << '\n';
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      const FlatTree::Node& node = tree.nodes[i];
      if (node.kind == Kind::kLeaf) {
        *out << "node leaf " << node.index << '\n';
        continue;
      }
      *out << "node ";
      if (node.kind == Kind::kOrdered) {
        *out << "le " << node.attr << ' ' << FullPrecision(node.threshold);
      } else {
        *out << "cat " << node.attr << ' ' << node.num_children;
      }
      *out << ' ' << FullPrecision(tree.known_weight[i]);
      for (int32_t b = 0; b < node.num_children; ++b) {
        const auto slot = static_cast<size_t>(node.index + b);
        *out << ' ' << FullPrecision(tree.child_weight[slot]) << ' '
             << tree.children[slot];
      }
      *out << '\n';
    }
    for (size_t i = 0; i < tree.leaves.size(); ++i) {
      const FlatTree::Leaf& leaf = tree.leaves[i];
      *out << "leaf " << leaf.majority << ' ' << FullPrecision(leaf.weight)
           << ' ' << FullPrecision(leaf.expected_error_confidence) << ' '
           << tree.num_classes;
      const double* counts = tree.class_counts(static_cast<int32_t>(i));
      for (int c = 0; c < tree.num_classes; ++c) {
        *out << ' ' << FullPrecision(counts[c]);
      }
      *out << '\n';
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

/// The shortest node and leaf lines, "node leaf 0\n" and "leaf 0 0 0 1 0\n":
/// a tree cannot announce more of them than the remaining bytes could hold.
constexpr size_t kMinNodeLineBytes = 12;
constexpr size_t kMinLeafLineBytes = 15;

/// Deepest tree the reader accepts. Induction stops at
/// C45Config::max_depth (40 by default); the bound keeps the recursive
/// fork walk of a crafted file off the end of the stack.
constexpr size_t kMaxTreeDepth = 4096;

bool NonNegative(double v) { return v >= 0.0; }

/// Reads one attribute's `tree` block (the cursor is on its attrset line)
/// into `tree`, whose num_classes is set.
Status ParseTree(const Schema& schema, const ClassEncoder& encoder,
                 LineCursor* lines, FlatTree* tree) {
  using Kind = FlatTree::Node::Kind;
  if (!lines->Next()) return ModelParseError(lines->line_no(), "missing tree");
  size_t num_nodes = 0;
  size_t num_leaves = 0;
  {
    Tokens tok(lines->line());
    std::string_view tag;
    if (!tok.Word(&tag) || tag != "tree" || !tok.Number(&num_nodes) ||
        !tok.Number(&num_leaves) || !tok.Done()) {
      return ModelParseError(lines->line_no(), "malformed tree line");
    }
  }
  if (num_nodes == 0) return ModelParseError(lines->line_no(), "empty tree");
  const size_t remaining = lines->remaining();
  if (num_nodes > static_cast<size_t>(INT32_MAX) ||
      num_leaves > static_cast<size_t>(INT32_MAX) ||
      num_nodes > remaining / kMinNodeLineBytes ||
      num_leaves > (remaining - num_nodes * kMinNodeLineBytes) /
                       kMinLeafLineBytes) {
    return ModelParseError(lines->line_no(),
                           "node or leaf count exceeds the remaining input");
  }
  tree->nodes.resize(num_nodes);
  tree->known_weight.assign(num_nodes, 0.0);
  // Each node but the root has exactly one parent that precedes it: the
  // nodes form one tree, with no cycle, and its depth is known per node.
  std::vector<size_t> depth(num_nodes, 0);
  std::vector<bool> has_parent(num_nodes, false);
  for (size_t i = 0; i < num_nodes; ++i) {
    if (!lines->Next()) {
      return ModelParseError(lines->line_no(), "truncated tree");
    }
    const size_t line_no = lines->line_no();
    Tokens tok(lines->line());
    std::string_view tag;
    std::string_view kind;
    if (!tok.Word(&tag) || tag != "node" || !tok.Word(&kind)) {
      return ModelParseError(line_no, "malformed node");
    }
    FlatTree::Node& node = tree->nodes[i];
    if (kind == "leaf") {
      if (!tok.Number(&node.index) || !tok.Done()) {
        return ModelParseError(line_no, "malformed leaf node");
      }
      if (node.index < 0 || static_cast<size_t>(node.index) >= num_leaves) {
        return ModelParseError(line_no, "leaf index out of range");
      }
      continue;
    }
    if (kind != "le" && kind != "cat") {
      return ModelParseError(line_no,
                             "unknown node kind '" + std::string(kind) + "'");
    }
    if (!tok.Number(&node.attr) || node.attr < 0 ||
        static_cast<size_t>(node.attr) >= schema.num_attributes()) {
      return ModelParseError(line_no, "split attribute out of range");
    }
    const AttributeDef& def = schema.attribute(static_cast<size_t>(node.attr));
    const bool nominal = def.type == DataType::kNominal;
    if (kind == "le") {
      if (nominal) {
        return ModelParseError(line_no, "threshold split on nominal "
                                        "attribute '" + def.name + "'");
      }
      node.kind = Kind::kOrdered;
      node.num_children = 2;
      if (!tok.Number(&node.threshold)) {
        return ModelParseError(line_no, "malformed threshold");
      }
    } else {
      if (!nominal) {
        return ModelParseError(line_no, "category split on ordered "
                                        "attribute '" + def.name + "'");
      }
      node.kind = Kind::kCategory;
      if (!tok.Number(&node.num_children) || node.num_children <= 0 ||
          static_cast<size_t>(node.num_children) != def.categories.size()) {
        return ModelParseError(line_no, "category split arity differs from "
                                        "the domain of '" + def.name + "'");
      }
    }
    if (!tok.Number(&tree->known_weight[i]) ||
        !NonNegative(tree->known_weight[i])) {
      return ModelParseError(line_no, "malformed known weight");
    }
    node.index = static_cast<int32_t>(tree->children.size());
    for (int32_t b = 0; b < node.num_children; ++b) {
      double weight = 0.0;
      size_t child = 0;
      if (!tok.Number(&weight) || !NonNegative(weight) ||
          !tok.Number(&child)) {
        return ModelParseError(line_no, "malformed branch");
      }
      if (child <= i || child >= num_nodes) {
        return ModelParseError(line_no, "child index " +
                                            std::to_string(child) +
                                            " does not follow its parent "
                                            "inside the tree");
      }
      if (has_parent[child]) {
        return ModelParseError(line_no, "node " + std::to_string(child) +
                                            " has two parents");
      }
      has_parent[child] = true;
      depth[child] = depth[i] + 1;
      if (depth[child] >= kMaxTreeDepth) {
        return ModelParseError(line_no, "tree deeper than " +
                                            std::to_string(kMaxTreeDepth) +
                                            " levels");
      }
      tree->child_weight.push_back(weight);
      tree->children.push_back(static_cast<int32_t>(child));
    }
    if (!tok.Done()) return ModelParseError(line_no, "trailing data");
  }
  for (size_t i = 1; i < num_nodes; ++i) {
    if (!has_parent[i]) {
      return ModelParseError(lines->line_no(),
                             "node " + std::to_string(i) + " is unreachable");
    }
  }

  const int num_classes = tree->num_classes;
  std::vector<double> counts;
  for (size_t i = 0; i < num_leaves; ++i) {
    if (!lines->Next()) {
      return ModelParseError(lines->line_no(), "truncated leaf table");
    }
    const size_t line_no = lines->line_no();
    Tokens tok(lines->line());
    std::string_view tag;
    int32_t majority = -1;
    double weight = 0.0;
    double expected_error_confidence = 0.0;
    if (!tok.Word(&tag) || tag != "leaf" || !tok.Number(&majority) ||
        !tok.Number(&weight) || !tok.Number(&expected_error_confidence) ||
        !tok.CountedDoubles(&counts) || !tok.Done()) {
      return ModelParseError(line_no, "malformed leaf");
    }
    if (counts.size() != static_cast<size_t>(num_classes)) {
      return ModelParseError(line_no, "class count arity mismatch");
    }
    if (majority < 0 || majority >= num_classes) {
      return ModelParseError(line_no, "majority class out of range");
    }
    if (!NonNegative(weight) || !NonNegative(expected_error_confidence)) {
      return ModelParseError(line_no, "negative leaf weight");
    }
    for (double c : counts) {
      if (!NonNegative(c)) {
        return ModelParseError(line_no, "negative class count");
      }
    }
    const int32_t leaf = tree->AppendLeaf(counts.data(), weight, majority,
                                          expected_error_confidence);
    FlatTree::Leaf& entry = tree->leaves[static_cast<size_t>(leaf)];
    if (entry.predicted >= 0) {
      entry.suggestion = encoder.Representative(entry.predicted);
    }
  }
  return Status::OK();
}

}  // namespace

Result<StructureModel> StructureModel::Parse(const Schema& schema,
                                             std::string_view text) {
  StructureModel model;
  model.attr_types_ = AttributeTypes(schema);
  LineCursor lines(text);
  if (!lines.Next()) {
    return ModelParseError(lines.line_no(), "missing 'dqmodel v2' header");
  }
  if (lines.line() == "dqmodel v1") {
    return ModelParseError(
        lines.line_no(),
        "dqmodel v1 is no longer read: it stores no branch weights, so it "
        "cannot route nulls as the induced trees do; re-save the model "
        "with dqaudit --save-model");
  }
  if (lines.line() != "dqmodel v2") {
    return ModelParseError(lines.line_no(), "missing 'dqmodel v2' header");
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
    if (tag != "attrset") {
      return ModelParseError(line_no,
                             "unknown tag '" + std::string(tag) + "'");
    }
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
    AttributeTree& at = model.trees_.emplace_back();
    at.class_attr = attr;
    at.encoder = std::move(*encoder);
    at.tree.num_classes = at.encoder.num_classes();
    DQ_RETURN_NOT_OK(ParseTree(schema, at.encoder, &lines, &at.tree));
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
