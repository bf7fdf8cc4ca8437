// StructureModel: the persistent form of an induced audit model.
//
// "The rule sets generated by all classifiers in the multiple
// classification / regression approach build the structure model of the
// data" (sec. 5.4), and "structure induction [and] data checking ... can
// run asynchronously. This is useful for an application in the data
// cleansing phase during warehouse loading: While the time-consuming
// structure induction can be prepared off-line, new data can be checked for
// deviations and loaded quickly" (sec. 2.2).
//
// A StructureModel holds the compiled C4.5 tree (mining/flat_tree.h) of
// every attribute model with its class encoder, and persists exactly that:
// the `dqmodel v2` text format stores each tree's nodes in preorder with
// their per-branch training weights, and its leaf table with the training
// statistics each leaf was derived from (docs/FORMATS.md). The reader
// rebuilds the leaf table through FlatTree::AppendLeaf, so a loaded tree
// equals the in-process one bit for bit. Check hands the trees to the
// auditor's scoring engine (ScoreRecords), the call Auditor::Audit makes:
// checking a table against a saved model reproduces the in-process audit
// of that table, nulls on split attributes (C4.5's fractional routing)
// included. The tree's root-to-leaf paths are the model's rules; the
// sec. 5.4 reduction to useful rules applies where they are rendered
// (rule_export.h), not to what is checked.

#ifndef DQ_AUDIT_STRUCTURE_MODEL_H_
#define DQ_AUDIT_STRUCTURE_MODEL_H_

#include <iosfwd>
#include <string_view>
#include <vector>

#include "audit/auditor.h"

namespace dq {

/// \brief One persisted attribute model: a compiled C4.5 tree predicting
/// `class_attr` through `encoder`.
struct AttributeTree {
  int class_attr = -1;
  ClassEncoder encoder;
  FlatTree tree;
};

/// \brief Persisted structure model: buildable from an AuditModel,
/// serializable, and directly usable for deviation detection.
class StructureModel {
 public:
  StructureModel() = default;

  /// \brief Keeps the compiled tree of every C4.5 attribute model. Models
  /// induced with non-tree classifiers are not persisted.
  static StructureModel FromAuditModel(const AuditModel& model,
                                       const Schema& schema);

  const std::vector<AttributeTree>& trees() const { return trees_; }

  /// \brief The number of rules: root-to-leaf paths ending at a leaf with
  /// training weight.
  size_t TotalRules() const;

  /// \brief Deviation detection against the persisted trees: the scoring
  /// and ranking of Auditor::Audit. `config` supplies the minimal error
  /// confidence, confidence level, null-flagging policy and thread count.
  /// The report is identical for every thread count. Fails when the
  /// table's attribute types differ from the model's schema.
  Result<AuditReport> Check(const Table& data,
                            const AuditorConfig& config) const;

  /// \brief Writes the model in the textual `dqmodel v2` format.
  Status SerializeTo(std::ostream* out) const;
  Status SaveToFile(const std::string& path) const;

  /// \brief Reads a `dqmodel v2` stream; the schema must match the one the
  /// model was induced on (attribute indices and category lists). Any
  /// input yields a model or an error Status: counts are bounded by the
  /// bytes that remain, indices by the schema, and each attribute's nodes
  /// must form one tree in preorder (docs/FORMATS.md). A `dqmodel v1` file
  /// is refused with a request to re-save it.
  static Result<StructureModel> Deserialize(const Schema& schema,
                                            std::istream* in);
  static Result<StructureModel> LoadFromFile(const Schema& schema,
                                             const std::string& path);

 private:
  static Result<StructureModel> Parse(const Schema& schema,
                                      std::string_view text);

  std::vector<AttributeTree> trees_;
  /// Attribute types of the schema the trees were induced on; the typed
  /// walk needs the checked table to have the same layout.
  std::vector<DataType> attr_types_;
};

}  // namespace dq

#endif  // DQ_AUDIT_STRUCTURE_MODEL_H_
