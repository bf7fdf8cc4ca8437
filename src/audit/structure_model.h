// StructureModel: the persistent rule-set form of an induced audit model.
//
// "The rule sets generated by all classifiers in the multiple
// classification / regression approach build the structure model of the
// data" (sec. 5.4), and "structure induction [and] data checking ... can
// run asynchronously. This is useful for an application in the data
// cleansing phase during warehouse loading: While the time-consuming
// structure induction can be prepared off-line, new data can be checked for
// deviations and loaded quickly" (sec. 2.2).
//
// A StructureModel is built from an induced AuditModel (keeping only the
// rules that can contribute to error detection), serializes to a plain-text
// format, and checks tables without re-induction.
//
// The rules of one attribute are the root-to-leaf paths of its decision
// tree, so construction (FromAuditModel and Deserialize alike) compiles
// them back into one FlatTree per attribute (mining/flat_tree.h, the node
// layout induced C4.5 trees compile to as well). Check hands those trees
// to the auditor's scoring engine (ScoreRecords), which walks them over
// the Table's typed columns: O(tree depth) per attribute model and record,
// with no Row materialization. The verdicts are exactly those
// of first-match scanning with StructureRule::Matches: a null on any
// visited split, a category with no child, or a leaf with zero support
// matches nothing. Checking semantics therefore match the tree-based audit
// for records that reach a useful leaf with fully known path attributes;
// records matching no exported rule (dropped-useless leaves or null path
// values) are simply not flagged — precisely the rule deletion of sec. 5.4.

#ifndef DQ_AUDIT_STRUCTURE_MODEL_H_
#define DQ_AUDIT_STRUCTURE_MODEL_H_

#include <iosfwd>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "audit/rule_export.h"

namespace dq {

/// \brief Persisted per-attribute rule set.
struct AttributeRuleSet {
  int class_attr = -1;
  ClassEncoder encoder;
  std::vector<StructureRule> rules;
};

/// \brief Rule-set structure model: buildable from an AuditModel,
/// serializable, and directly usable for deviation detection.
class StructureModel {
 public:
  StructureModel() = default;

  /// \brief Extracts the rule sets of every C4.5 attribute model. Models
  /// induced with non-tree classifiers contribute no rules.
  ///
  /// `drop_useless` applies the sec. 5.4 reduction ("it is often useful to
  /// reduce this set to the rules that do not have an expected error
  /// confidence of zero"). Note its trade-off: a pure leaf has zero
  /// *expected* error confidence on training data yet is the sharpest
  /// detector for future deviations (the sec. 6.2 headline rule is a
  /// 16117:1 leaf), so checking *new* data should keep every rule — hence
  /// the default false; enable the reduction to shrink models for the
  /// single-database regime.
  static StructureModel FromAuditModel(const AuditModel& model,
                                       const Schema& schema,
                                       bool drop_useless = false);

  const std::vector<AttributeRuleSet>& rule_sets() const { return rule_sets_; }
  size_t TotalRules() const;

  /// \brief Deviation detection against the compiled rule sets. Produces
  /// the same report shape as Auditor::Audit; `config` supplies the minimal
  /// error confidence, confidence level, null-flagging policy and thread
  /// count. The report is identical for every thread count. Fails when
  /// the table's attribute types differ from the model's schema.
  Result<AuditReport> Check(const Table& data,
                            const AuditorConfig& config) const;

  /// \brief Writes the model in the textual `dqmodel v1` format.
  Status SerializeTo(std::ostream* out) const;
  Status SaveToFile(const std::string& path) const;

  /// \brief Reads a `dqmodel v1` stream; the schema must match the one the
  /// model was induced on (attribute indices and category lists). Any
  /// input yields a model or an error Status: counts are bounded by the
  /// bytes that remain, indices by the schema, and each attribute's rules
  /// must form one decision tree (docs/FORMATS.md).
  static Result<StructureModel> Deserialize(const Schema& schema,
                                            std::istream* in);
  static Result<StructureModel> LoadFromFile(const Schema& schema,
                                             const std::string& path);

 private:
  static Result<StructureModel> Parse(const Schema& schema,
                                      std::string_view text);

  std::vector<AttributeRuleSet> rule_sets_;
  /// Parallel to rule_sets_: each set's rules compiled into one tree whose
  /// leaf i is rule i; nulls and unseen categories match nothing.
  std::vector<FlatTree> trees_;
  /// Attribute types of the schema the trees were compiled against; the
  /// typed walk needs the checked table to have the same layout.
  std::vector<DataType> attr_types_;
};

}  // namespace dq

#endif  // DQ_AUDIT_STRUCTURE_MODEL_H_
