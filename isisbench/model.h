/// \file model.h
/// \brief The benchmark's independent model of the data it drives.
///
/// The model holds entity names and attribute values as plain strings,
/// takes its starting state from the generated dataset once, and from then
/// on changes only through the writes the benchmark itself made and saw
/// acknowledged. Predicates are the benchmark's own little AST, rendered to
/// the textual syntax for the program and evaluated here by brute force,
/// candidate by candidate, without the program's parser, planner, indexes
/// or cache. Every answer the program gives is compared against this.

#ifndef ISISBENCH_MODEL_H_
#define ISISBENCH_MODEL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sdm/database.h"

namespace isisbench {

using Names = std::set<std::string>;

/// One atom `e.<path> [not]<op> {<constants>}`.
struct MAtom {
  std::vector<std::string> path;
  std::string op;  ///< One of = [= ]= [ ] ~ <= >
  bool negated = false;
  std::vector<std::string> constants;
};

/// A predicate in CNF (groups are disjunctions joined by `and`) or DNF
/// (groups are conjunctions joined by `or`), over candidates from `cls`.
struct MPredicate {
  std::string cls;
  bool dnf = false;
  std::vector<std::vector<MAtom>> groups;

  /// The textual form the program's parser reads.
  std::string Text() const;
};

/// A derived subclass: members of `parent` satisfying `pred`.
struct DerivedClass {
  std::string name;
  MPredicate pred;  ///< pred.cls is the parent.
};

/// A derived attribute whose value is the image of a map from the owner.
struct DerivedAttr {
  std::string owner;
  std::string name;
  std::string value_class;
  std::vector<std::string> path;
};

class Model {
 public:
  /// Attribute of a base class, with its values per owner entity name.
  struct Attr {
    std::string owner;
    bool integer = false;  ///< Values compare as integers (orderings).
    std::map<std::string, Names> values;
  };

  /// Snapshots the base classes and every attribute they own from `db`
  /// (names only). Derived classes and attributes are added separately.
  static Model FromDatabase(const isis::sdm::Database& db,
                            const std::vector<std::string>& classes);

  void AddDerivedClass(DerivedClass d) { derived_classes_.push_back(d); }
  /// A derived attribute is computed, never taken from the snapshot.
  void AddDerivedAttr(DerivedAttr d) {
    attrs_.erase(d.name);
    derived_attrs_.push_back(d);
  }

  /// Records an acknowledged write.
  void Set(const std::string& attr, const std::string& entity, Names values);
  const Names& Get(const std::string& attr, const std::string& entity) const;

  /// Members of a base or derived class, by brute force for derived ones.
  const Names& Members(const std::string& cls) const;
  /// Image of entity `e` under a map path (base or derived attributes).
  const Names& Image(const std::string& e,
                     const std::vector<std::string>& path) const;
  /// { e in members(pred.cls) | pred(e) }.
  Names Evaluate(const MPredicate& pred) const;

  /// Canonical text of everything the model knows: base memberships,
  /// attribute values, derived class members and derived attribute values.
  std::string Dump() const;
  /// The same canonical text read from a database through its public
  /// accessors, for the classes and attributes this model knows.
  std::string DumpDatabase(const isis::sdm::Database& db) const;

 private:
  /// `lhs` is the image of the candidate under a.path, `rhs` the constants.
  bool EvalAtom(const MAtom& a, const Names& lhs, const Names& rhs) const;
  bool IsInteger(const std::vector<std::string>& path) const;

  std::vector<std::string> classes_;
  std::map<std::string, Names> members_;
  std::map<std::string, Attr> attrs_;
  std::vector<DerivedClass> derived_classes_;
  std::vector<DerivedAttr> derived_attrs_;
  /// Images by path, then entity, and derived class members; both
  /// cleared by every Set().
  mutable std::map<std::string, std::map<std::string, Names>> images_;
  mutable std::map<std::string, Names> derived_members_;
};

/// Sorted names of a kQueryResult payload ("count|name|name|..."); false
/// when the payload is malformed or its count disagrees with the names.
bool ParseQueryResult(const std::string& payload, Names* out);

/// First line where two dumps differ, for failure messages.
std::string FirstDifference(const std::string& a, const std::string& b);

}  // namespace isisbench

#endif  // ISISBENCH_MODEL_H_
