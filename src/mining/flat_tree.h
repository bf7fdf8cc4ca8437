// Compiled decision trees: one contiguous node array plus a leaf table per
// tree, the layout of forest inference engines (QuickScorer, Lucchese et
// al., SIGIR 2015). A FlatTree is the only form of an induced C4.5 model:
// C45Tree compiles its pruned tree into one at the end of Train, the
// auditor scores with it, rule export reads its root-to-leaf paths, and a
// StructureModel persists and reloads it node for node (`dqmodel v2`).
//
// A walk reads the split values of one record through a record view -- the
// typed columns of a Table or a materialized Row -- so scoring a table
// never builds a Row. Nulls follow C4.5's missing-value classification: a
// null on a split with known training weight forks the record down every
// branch, weighted by the branch's share of that weight; on a split with
// no known weight it takes the first branch, as does a category the split
// has no child for.

#ifndef DQ_MINING_FLAT_TREE_H_
#define DQ_MINING_FLAT_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mining/classifier.h"
#include "table/table.h"

namespace dq {

/// \brief One typed column of a Table as raw spans: `num` for numeric
/// attributes, `code` for nominal codes and date day counts.
struct ColumnSpan {
  const double* num = nullptr;
  const int32_t* code = nullptr;
  const uint64_t* nulls = nullptr;  ///< bit r set = cell r is null
};

/// \brief The spans of every column of `table`, resolved once per scoring
/// pass so a walk reads a split value with one load.
inline std::vector<ColumnSpan> ColumnSpans(const Table& table) {
  std::vector<ColumnSpan> spans(table.num_attributes());
  for (size_t a = 0; a < spans.size(); ++a) {
    spans[a].nulls = table.null_words(a).data();
    if (table.schema().attribute(a).type == DataType::kNumeric) {
      spans[a].num = table.numeric_col(a).data();
    } else {
      spans[a].code = table.code_col(a).data();
    }
  }
  return spans;
}

/// \brief Split values of one record, read from a Table's typed columns
/// (the spans of ColumnSpans): Table::is_null, code_at and ordered_at
/// without the per-call column lookup.
struct TableRecord {
  const ColumnSpan* cols;
  size_t row;
  bool is_null(size_t attr) const {
    return (cols[attr].nulls[row >> 6] >> (row & 63)) & 1u;
  }
  int32_t code(size_t attr) const { return cols[attr].code[row]; }
  double ordered(size_t attr) const {
    return cols[attr].num != nullptr ? cols[attr].num[row]
                                     : static_cast<double>(cols[attr].code[row]);
  }
};

/// \brief Split values of one materialized Row.
struct RowRecord {
  const Row* row;
  bool is_null(size_t attr) const { return (*row)[attr].is_null(); }
  int32_t code(size_t attr) const { return (*row)[attr].nominal_code(); }
  double ordered(size_t attr) const { return (*row)[attr].OrderedValue(); }
};

/// \brief One condition along a root-to-leaf path.
struct SplitCondition {
  int attr = -1;
  enum class Kind { kCategory, kLessEq, kGreater } kind = Kind::kCategory;
  int32_t category = 0;
  double threshold = 0.0;

  std::string ToString(const Schema& schema) const;
};

/// \brief A decision tree compiled into flat arrays.
struct FlatTree {
  /// Find's result when a null splits the record (Distribute).
  static constexpr int32_t kFork = -1;

  /// Training weights at or below this are empty (C4.5's epsilon).
  static constexpr double kEps = 1e-9;

  struct Node {
    enum class Kind : uint8_t { kLeaf, kCategory, kOrdered };
    Kind kind = Kind::kLeaf;
    int32_t attr = -1;  ///< split attribute
    /// kLeaf: index into `leaves`. Split: offset of its children in
    /// `children`; an ordered split has two (value <= threshold, value >
    /// threshold), a category split one per category of the domain.
    int32_t index = 0;
    int32_t num_children = 0;
    double threshold = 0.0;  ///< kOrdered split point
  };

  /// What a record that reaches a leaf is scored with (Def. 7), and the
  /// training statistics it is derived from.
  struct Leaf {
    double support = 0.0;    ///< training instances behind the prediction
    int32_t predicted = -1;  ///< argmax of the distribution, -1 if none
    Value suggestion;        ///< correction proposal (sec. 5.3)
    double weight = 0.0;     ///< training weight
    int32_t majority = 0;    ///< majority class; an empty leaf's vote
    /// Def. 9 value of the leaf (sec. 5.4's rule reduction reads it).
    double expected_error_confidence = 0.0;
  };

  /// Preorder: nodes[0] is the root and every child comes after its
  /// parent. Each node has one parent; empty leaves share a leaf entry.
  std::vector<Node> nodes;
  std::vector<int32_t> children;  ///< node indices
  std::vector<Leaf> leaves;
  int num_classes = 0;
  /// leaves x num_classes: each leaf's class distribution.
  std::vector<double> distributions;

  // Fractional null routing (Distribute).
  std::vector<double> known_weight;  ///< per node: weight with known value
  std::vector<double> child_weight;  ///< parallel to children: branch weight
  std::vector<double> counts;        ///< leaves x num_classes: class counts

  const double* distribution(int32_t leaf) const {
    return distributions.data() +
           static_cast<size_t>(leaf) * static_cast<size_t>(num_classes);
  }
  const double* class_counts(int32_t leaf) const {
    return counts.data() +
           static_cast<size_t>(leaf) * static_cast<size_t>(num_classes);
  }

  /// \brief The leaf `rec` reaches, or kFork when a null on a split must
  /// be routed fractionally (Distribute). O(depth).
  template <typename Record>
  int32_t Find(const Record& rec) const {
    int32_t at = 0;
    for (;;) {
      const Node& node = nodes[static_cast<size_t>(at)];
      if (node.kind == Node::Kind::kLeaf) return node.index;
      at = Step(at, rec);
      if (at == kFork) return kFork;
    }
  }

  /// \brief C4.5 missing-value classification: walks `rec` down every
  /// branch a null on a split leads to, weighting each by its share of
  /// the known training weight, and sums the leaves' class frequencies
  /// into `dist` (num_classes zeros on entry), which ends normalized.
  /// Returns the support (training weight) behind `dist`.
  template <typename Record>
  double Distribute(const Record& rec, double* dist) const {
    double support = 0.0;
    Route(rec, 0, 1.0, dist, &support);
    Normalize(dist);
    return support;
  }

  /// \brief Calls `visitor(conditions, leaf)` for every root-to-leaf path,
  /// in preorder: the decision tree -> rule set transformation (sec. 5.4).
  template <typename Visitor>
  void VisitPaths(Visitor&& visitor) const {
    if (nodes.empty()) return;
    std::vector<SplitCondition> path;
    VisitFrom(0, &path, visitor);
  }

  /// \brief Appends a leaf from its training class counts (num_classes of
  /// them), weight, majority class and Def. 9 value, and derives what a
  /// record that reaches only this leaf is scored with: the distribution
  /// Distribute would compute and its argmax. The caller sets the
  /// suggestion. Returns the leaf's index.
  int32_t AppendLeaf(const double* class_counts, double weight,
                     int32_t majority, double expected_error_confidence) {
    const auto i = static_cast<int32_t>(leaves.size());
    const auto nc = static_cast<size_t>(num_classes);
    Leaf& leaf = leaves.emplace_back();
    leaf.weight = weight;
    leaf.majority = majority;
    leaf.expected_error_confidence = expected_error_confidence;
    counts.insert(counts.end(), class_counts, class_counts + nc);
    const size_t offset = distributions.size();
    distributions.resize(offset + nc);
    double* dist = distributions.data() + offset;
    Accumulate(i, 1.0, dist, &leaf.support);
    Normalize(dist);
    leaf.predicted = PredictedClassOf(dist, nc);
    return i;
  }

  /// \brief Adds leaf `i`'s class frequencies at `weight` to `dist`: the
  /// one expression both Distribute and the leaf table are computed with.
  void Accumulate(int32_t i, double weight, double* dist,
                  double* support) const {
    const Leaf& leaf = leaves[static_cast<size_t>(i)];
    if (leaf.weight > kEps) {
      const double* c = class_counts(i);
      for (int k = 0; k < num_classes; ++k) {
        dist[k] += weight * c[k] / leaf.weight;
      }
      *support += weight * leaf.weight;
    } else {
      // Empty training leaf: its majority, with zero support.
      dist[leaf.majority] += weight;
    }
  }

  void Normalize(double* dist) const {
    double total = 0.0;
    for (int k = 0; k < num_classes; ++k) total += dist[k];
    if (total > kEps) {
      for (int k = 0; k < num_classes; ++k) dist[k] /= total;
    }
  }

 private:
  /// Child of split `at` for a record, or kFork for a null on a split with
  /// known training weight.
  template <typename Record>
  int32_t Step(int32_t at, const Record& rec) const {
    const Node& node = nodes[static_cast<size_t>(at)];
    const auto attr = static_cast<size_t>(node.attr);
    int32_t branch = 0;
    if (rec.is_null(attr)) {
      if (known_weight[static_cast<size_t>(at)] > kEps) return kFork;
    } else if (node.kind == Node::Kind::kOrdered) {
      branch = rec.ordered(attr) <= node.threshold ? 0 : 1;
    } else {
      const int32_t code = rec.code(attr);
      if (code >= 0 && code < node.num_children) branch = code;
    }
    return children[static_cast<size_t>(node.index + branch)];
  }

  template <typename Record>
  void Route(const Record& rec, int32_t at, double weight, double* dist,
             double* support) const {
    const Node& node = nodes[static_cast<size_t>(at)];
    if (node.kind == Node::Kind::kLeaf) {
      Accumulate(node.index, weight, dist, support);
      return;
    }
    const int32_t next = Step(at, rec);
    if (next != kFork) {
      Route(rec, next, weight, dist, support);
      return;
    }
    for (int32_t b = 0; b < node.num_children; ++b) {
      const auto slot = static_cast<size_t>(node.index + b);
      if (child_weight[slot] <= kEps) continue;
      Route(rec, children[slot],
            weight * child_weight[slot] /
                known_weight[static_cast<size_t>(at)],
            dist, support);
    }
  }

  template <typename Visitor>
  void VisitFrom(int32_t at, std::vector<SplitCondition>* path,
                 Visitor& visitor) const {
    const Node& node = nodes[static_cast<size_t>(at)];
    if (node.kind == Node::Kind::kLeaf) {
      visitor(static_cast<const std::vector<SplitCondition>&>(*path),
              node.index);
      return;
    }
    for (int32_t b = 0; b < node.num_children; ++b) {
      SplitCondition cond;
      cond.attr = node.attr;
      if (node.kind == Node::Kind::kOrdered) {
        cond.kind = b == 0 ? SplitCondition::Kind::kLessEq
                           : SplitCondition::Kind::kGreater;
        cond.threshold = node.threshold;
      } else {
        cond.category = b;
      }
      path->push_back(cond);
      VisitFrom(children[static_cast<size_t>(node.index + b)], path, visitor);
      path->pop_back();
    }
  }
};

}  // namespace dq

#endif  // DQ_MINING_FLAT_TREE_H_
