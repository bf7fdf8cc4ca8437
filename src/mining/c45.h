// C4.5 decision tree induction and classification (sec. 5.1), with the
// data-auditing adjustments of sec. 5.4.
//
// Implemented faithfully to the paper's description:
//  * ID3 information gain refined to C4.5's gain ratio ("C4.5 divides the
//    information gain by split information"), including the restriction to
//    splits with at least average gain;
//  * numerical base attributes through binary threshold splits over the
//    occurring values;
//  * missing-value handling by distributing training instances over
//    branches with fractional weights and combining leaf distributions at
//    classification time;
//  * classic pessimistic-error subtree replacement (sec. 5.1.2) driven by
//    a parameterizable confidence, kept as the unadjusted baseline;
//  * the paper's adjustments (sec. 5.4): minInst pre-pruning derived from
//    the user's minimal error confidence, and integrated pruning by
//    *expected error confidence* (Def. 9) applied during construction.
//
// Expected-error-confidence semantics: errorConf values below the user's
// minimal error confidence "are mostly not useful in reality" (sec. 5.4),
// so they contribute zero to Def. 9 here; a subtree is replaced by a leaf
// exactly when the leaf attains a strictly higher expected error
// confidence, i.e. when partitioning does not increase the error detection
// capability.

#ifndef DQ_MINING_C45_H_
#define DQ_MINING_C45_H_

#include <array>
#include <memory>

#include "mining/classifier.h"
#include "mining/flat_tree.h"

namespace dq {

enum class PruningMode {
  kNone,
  kPessimistic,              ///< classic C4.5 subtree replacement
  kExpectedErrorConfidence,  ///< the paper's integrated Def. 9 pruning
};

const char* PruningModeToString(PruningMode mode);

enum class SplitMode {
  /// Histogram split evaluation (LightGBM-style): ordered attributes are
  /// bucketed once per table into <= 255 equal-frequency bins and every
  /// node evaluates thresholds by scanning (bin x class) histograms, with
  /// sibling histograms reconstructed by subtraction (parent - scanned
  /// children = largest child) and the node frontier built breadth-wise in
  /// parallel at the Train width. Identical trees to kExact whenever every
  /// ordered attribute has at most histogram_bins distinct values;
  /// statistically equivalent audits otherwise.
  kHistogram,
  /// The exact SLIQ row-sweep evaluator (the original path, kept as the
  /// reference): every distinct value boundary is a candidate threshold.
  kExact,
};

const char* SplitModeToString(SplitMode mode);

struct C45Config {
  /// Minimum weight of at least two branches of any split (C4.5 MINOBJS).
  double min_split_weight = 2.0;

  /// Confidence for the classic pessimistic error bound (C4.5 CF).
  double pruning_cf = 0.25;

  /// Two-sided confidence level for leftBound/rightBound in error
  /// confidences (Def. 7/9); "the confidence level of this interval can be
  /// parameterized".
  double confidence_level = 0.95;

  PruningMode pruning = PruningMode::kExpectedErrorConfidence;

  /// The user's minimal confidence for detected errors; derives the
  /// minInst pre-pruning threshold and truncates Def. 9 contributions.
  /// "Low error confidence values are mostly not useful in reality"
  /// (sec. 5.4): without the truncation, the integrated pruning prefers
  /// mixed leaves (which flag weakly) over pure splits (which flag nothing
  /// on training data) and collapses genuine structure, so a positive
  /// threshold is the intended operating regime. Set 0 only together with
  /// PruningMode::kPessimistic or kNone.
  double min_error_confidence = 0.8;

  /// Hard recursion cap (safety; C4.5 trees on audit data stay shallow).
  int max_depth = 40;

  /// Gain ratio (C4.5) vs plain information gain (ID3).
  bool use_gain_ratio = true;

  /// Release-8 MDL correction for numeric splits
  /// (gain -= log2(distinct-1)/n).
  bool mdl_numeric_correction = true;

  /// SLIQ-style presort: derive one value-ordered instance list per
  /// ordered base attribute from the EncodedDataset sort orders up front;
  /// each node then partitions the sorted index lists stably instead of
  /// re-sorting, turning numeric split search from O(nodes * rows log rows)
  /// into one upfront sort plus linear scans. Off = the original per-node
  /// std::sort path (kept for memory-constrained use and as the
  /// equivalence-test reference). Only meaningful in kExact split mode;
  /// the histogram evaluator never materializes sorted lists.
  bool presort = true;

  /// Split evaluator: histogram scans (default) or the exact row sweep.
  SplitMode split_mode = SplitMode::kHistogram;

  /// Bin budget per ordered attribute in histogram mode (clamped to
  /// [1, 255]; 255 keeps one value per bin on attributes with few distinct
  /// values, making histogram splits exact there).
  int histogram_bins = 255;

  /// Reconstruct the largest child's histogram as parent minus scanned
  /// siblings instead of scanning it (histogram mode only). Exposed so the
  /// equivalence tests can pin the scan-everything path.
  bool histogram_subtraction = true;

  /// Smallest per-level instance total for which the histogram build
  /// dispatches node/attribute tasks through ParallelFor; smaller levels
  /// run inline (task overhead would dominate). Identical results either
  /// way.
  size_t parallel_min_insts = 4096;
};

/// \brief Smallest number of single-class instances a leaf needs before a
/// deviating record can reach `min_conf` error confidence: the minInst of
/// sec. 5.4 ("the system can easily calculate the minimal number minInst of
/// instances of one class that have to occur in a leaf").
double MinInstForConfidence(double min_conf, double confidence_level);

/// \brief C4.5 decision tree classifier.
///
/// Train induces the tree over linked nodes, prunes it, compiles it into one
/// FlatTree and frees the linked nodes: the FlatTree is the model. Its
/// split nodes keep their per-branch known training weights (so a null is
/// routed fractionally, as C4.5 classifies missing values) and its leaf
/// table holds each leaf's training statistics, normalized distribution,
/// support, predicted class and the suggested correction. Predict, the
/// auditor's column-wise scorer, rule export and the persisted structure
/// model all read that array. The leaf values are computed with the
/// expressions and in the order a walk uses, so a leaf-table lookup equals
/// the walk bit for bit.
class C45Tree : public Classifier {
 public:
  explicit C45Tree(C45Config config = {});
  ~C45Tree() override;
  C45Tree(C45Tree&&) noexcept;
  C45Tree& operator=(C45Tree&&) noexcept;

  Status Train(const TrainingData& data) override;
  Prediction Predict(const Row& row) const override;
  std::string name() const override { return "c4.5"; }

  const C45Config& config() const { return config_; }

  /// \brief The compiled tree (empty until Train succeeds). Its VisitPaths
  /// yields the tree's rules (sec. 5.4).
  const FlatTree& flat() const { return flat_; }

  size_t NodeCount() const;
  size_t LeafCount() const;
  size_t TreeDepth() const;

  /// \brief Wall-clock spent deriving the exact-mode presorted instance
  /// lists from the EncodedDataset sort orders in the last Train call (0
  /// when presort is off and in histogram mode).
  double presort_ms() const { return presort_ms_; }
  /// \brief Wall-clock of the recursive tree construction in the last
  /// Train call (split search + partitioning, excluding the presort).
  double build_ms() const { return build_ms_; }

  /// \brief Pretty-prints the tree.
  std::string ToString(const Schema& schema) const;

 private:
  /// A node of the linked tree Train induces and prunes.
  struct Node {
    std::vector<double> class_counts;
    double weight = 0.0;
    int majority = 0;

    int split_attr = -1;  // -1 => leaf
    bool ordered_split = false;
    double threshold = 0.0;
    std::vector<std::unique_ptr<Node>> children;
    std::vector<double> child_weights;  // known-value weight per child
    double known_weight = 0.0;

    /// Def. 9 value of this node (leaf value or weighted child aggregate).
    double expected_error_conf = 0.0;

    bool IsLeaf() const { return split_attr < 0; }
  };
  struct BuildContext;
  struct NodeData;
  friend struct C45HistogramBuilder;  // histogram-mode frontier build
  /// Tests induce the linked tree (InduceTree) to check the compiled one
  /// against it.
  friend struct C45TreeTestPeer;

  /// The first step of Train: induces and prunes the linked tree.
  Result<std::unique_ptr<Node>> InduceTree(const TrainingData& data);
  std::unique_ptr<Node> Build(BuildContext* ctx, NodeData data,
                              std::vector<bool> avail, int depth);
  std::unique_ptr<Node> TrainHistogram(
      const TrainingData& data, const EncodedDataset& cache,
      BuildContext* ctx, std::vector<std::pair<uint32_t, double>> insts);
  void PruneExpectedErrorConf(Node* node);
  double PessimisticErrors(const Node& node) const;
  void PrunePessimistic(Node* node);
  /// {node count, leaf count, depth} of the compiled tree.
  std::array<size_t, 3> Shape() const;
  /// Rebuilds flat_ from the linked tree (the last step of Train).
  void Compile(const Node& root);
  /// Appends `node`'s subtree to flat_ in preorder; returns its index.
  /// `empty_leaves` maps a majority class to its shared empty leaf entry.
  int32_t CompileNode(const Node& node, std::vector<int32_t>* empty_leaves);

  C45Config config_;
  const Table* table_ = nullptr;
  int class_attr_ = -1;
  const ClassEncoder* encoder_ = nullptr;
  int num_classes_ = 0;
  double presort_ms_ = 0.0;
  double build_ms_ = 0.0;
  FlatTree flat_;
};

}  // namespace dq

#endif  // DQ_MINING_C45_H_
