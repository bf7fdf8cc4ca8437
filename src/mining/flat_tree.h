// Compiled decision trees: one contiguous node array plus a leaf table per
// tree, the layout of forest inference engines (QuickScorer, Lucchese et
// al., SIGIR 2015). Both checkers of the multiple classification approach
// walk it: the C4.5 trees an audit induces (C45Tree compiles itself at the
// end of Train) and the persisted rule sets of a StructureModel (compiled
// from their root-to-leaf rules when built or loaded).
//
// A walk reads the split values of one record through a record view -- the
// typed columns of a Table or a materialized Row -- so scoring a table
// never builds a Row. Split nodes say where a null and a category without
// a child go, which is where the two checkers differ: an induced C4.5 tree
// routes a null fractionally down every branch with training weight
// (C4.5's missing-value classification) and sends unseen categories down
// its first branch, while a rule set matches nothing there.

#ifndef DQ_MINING_FLAT_TREE_H_
#define DQ_MINING_FLAT_TREE_H_

#include <cstdint>
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

/// \brief A decision tree compiled into flat arrays.
struct FlatTree {
  /// Find results that are not leaf indices.
  static constexpr int32_t kNoMatch = -1;  ///< no leaf applies
  static constexpr int32_t kFork = -2;     ///< a null splits the record

  /// Training weights at or below this are empty (C4.5's epsilon).
  static constexpr double kEps = 1e-9;

  struct Node {
    enum class Kind : uint8_t { kEmpty, kLeaf, kCategory, kOrdered };
    Kind kind = Kind::kEmpty;  ///< kEmpty: a path no leaf ends on (yet)
    /// Split: where a null, and (category splits) a code with no child,
    /// lead: kNoMatch, kFork (nulls only) or 0, the first branch.
    int8_t on_null = kNoMatch;
    int8_t on_unseen = kNoMatch;
    int32_t attr = -1;  ///< split attribute
    /// kLeaf: index into `leaves`. Split: offset of its children in
    /// `children`; an ordered split has two (value <= threshold, value >
    /// threshold), a category split one per category of the domain.
    int32_t index = kNoMatch;
    int32_t num_children = 0;
    double threshold = 0.0;  ///< kOrdered split point
  };

  /// What a record that reaches a leaf is scored with (Def. 7).
  struct Leaf {
    double support = 0.0;    ///< training instances behind the prediction
    int32_t predicted = -1;  ///< argmax of the distribution, -1 if none
    Value suggestion;        ///< correction proposal (sec. 5.3)
    double weight = 0.0;     ///< fractional routing: training weight
    int32_t majority = 0;    ///< fractional routing: an empty leaf's vote
  };

  std::vector<Node> nodes;         ///< nodes[0] is the root
  std::vector<int32_t> children;   ///< node indices; kNoMatch = no child
  std::vector<Leaf> leaves;
  int num_classes = 0;
  /// leaves x num_classes: each leaf's class distribution.
  std::vector<double> distributions;

  // Fractional null routing (Distribute); filled by C4.5 trees only.
  std::vector<double> known_weight;  ///< per node: weight with known value
  std::vector<double> child_weight;  ///< parallel to children: branch weight
  std::vector<double> counts;        ///< leaves x num_classes: class counts

  const double* distribution(int32_t leaf) const {
    return distributions.data() +
           static_cast<size_t>(leaf) * static_cast<size_t>(num_classes);
  }

  /// \brief The leaf `rec` reaches, kNoMatch, or kFork when a null on a
  /// split must be routed fractionally (Distribute). O(depth).
  template <typename Record>
  int32_t Find(const Record& rec) const {
    int32_t at = 0;
    for (;;) {
      const Node& node = nodes[static_cast<size_t>(at)];
      if (node.kind == Node::Kind::kLeaf || node.kind == Node::Kind::kEmpty) {
        return node.index;
      }
      at = Step(node, rec);
      if (at < 0) return at;
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

  /// \brief Appends a leaf of a tree with fractional routing from its
  /// training class counts (num_classes of them), weight and majority
  /// class, and derives what a record that reaches only this leaf is
  /// scored with: the distribution Distribute would compute and its
  /// argmax. The caller sets the suggestion. Returns the leaf's index.
  int32_t AppendLeaf(const double* class_counts, double weight,
                     int32_t majority) {
    const auto i = static_cast<int32_t>(leaves.size());
    const auto nc = static_cast<size_t>(num_classes);
    Leaf& leaf = leaves.emplace_back();
    leaf.weight = weight;
    leaf.majority = majority;
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
      const double* c = counts.data() + static_cast<size_t>(i) *
                                            static_cast<size_t>(num_classes);
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
  /// Child of split `node` for a record, the null case included.
  template <typename Record>
  int32_t Step(const Node& node, const Record& rec) const {
    const auto attr = static_cast<size_t>(node.attr);
    int32_t branch;
    if (rec.is_null(attr)) {
      if (node.on_null < 0) return node.on_null;
      branch = node.on_null;
    } else if (node.kind == Node::Kind::kOrdered) {
      branch = rec.ordered(attr) <= node.threshold ? 0 : 1;
    } else {
      branch = rec.code(attr);
      if (branch < 0 || branch >= node.num_children) {
        if (node.on_unseen < 0) return node.on_unseen;
        branch = node.on_unseen;
      }
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
    const int32_t next = Step(node, rec);
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
};

}  // namespace dq

#endif  // DQ_MINING_FLAT_TREE_H_
