#include "model.h"

#include <algorithm>
#include <sstream>

#include "server/proto.h"

namespace isisbench {

using isis::AttributeId;
using isis::ClassId;
using isis::EntityId;

namespace {

std::string Join(const std::vector<std::string>& v, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += sep;
    out += v[i];
  }
  return out;
}

std::string AtomText(const MAtom& a) {
  std::string s = "e";
  for (const std::string& p : a.path) s += "." + p;
  s += a.negated ? " not " : " ";
  s += a.op + " {" + Join(a.constants, ", ") + "}";
  return s;
}

long long AsInt(const std::string& s) { return std::stoll(s); }

std::string NamesText(const Names& n) {
  return Join(std::vector<std::string>(n.begin(), n.end()), ",");
}

}  // namespace

std::string MPredicate::Text() const {
  std::vector<std::string> parts;
  const char* dual = dnf ? " and " : " or ";
  for (const std::vector<MAtom>& g : groups) {
    std::vector<std::string> atoms;
    for (const MAtom& a : g) atoms.push_back(AtomText(a));
    parts.push_back(g.size() == 1 ? atoms[0] : "(" + Join(atoms, dual) + ")");
  }
  return Join(parts, dnf ? " or " : " and ");
}

Model Model::FromDatabase(const isis::sdm::Database& db,
                          const std::vector<std::string>& classes) {
  Model m;
  m.classes_ = classes;
  const isis::sdm::Schema& schema = db.schema();
  for (const std::string& name : classes) {
    ClassId cls = *schema.FindClass(name);
    Names& mem = m.members_[name];
    for (EntityId e : db.Members(cls)) mem.insert(db.NameOf(e));
    for (AttributeId a : schema.GetClass(cls).own_attributes) {
      const isis::sdm::AttributeDef& def = schema.GetAttribute(a);
      Attr& attr = m.attrs_[def.name];
      attr.owner = name;
      attr.integer = def.value_class == isis::sdm::Schema::kIntegers();
      for (EntityId e : db.Members(cls)) {
        Names vals;
        for (EntityId v : db.GetValueSet(e, a)) vals.insert(db.NameOf(v));
        attr.values[db.NameOf(e)] = std::move(vals);
      }
    }
  }
  return m;
}

void Model::Set(const std::string& attr, const std::string& entity,
                Names values) {
  attrs_.at(attr).values[entity] = std::move(values);
  images_.clear();
  derived_members_.clear();
}

const Names& Model::Get(const std::string& attr,
                        const std::string& entity) const {
  static const Names kEmpty;
  auto a = attrs_.find(attr);
  if (a == attrs_.end()) return kEmpty;
  auto v = a->second.values.find(entity);
  return v == a->second.values.end() ? kEmpty : v->second;
}

const Names& Model::Members(const std::string& cls) const {
  static const Names kEmpty;
  auto it = members_.find(cls);
  if (it != members_.end()) return it->second;
  auto memo = derived_members_.find(cls);
  if (memo != derived_members_.end()) return memo->second;
  for (const DerivedClass& d : derived_classes_) {
    if (d.name == cls) return derived_members_[cls] = Evaluate(d.pred);
  }
  return kEmpty;
}

const Names& Model::Image(const std::string& e,
                          const std::vector<std::string>& path) const {
  std::map<std::string, Names>& memo = images_[Join(path, ".")];
  auto hit = memo.find(e);
  if (hit != memo.end()) return hit->second;
  Names cur = {e};
  for (const std::string& step : path) {
    const DerivedAttr* derived = nullptr;
    for (const DerivedAttr& d : derived_attrs_) {
      if (d.name == step) derived = &d;
    }
    Names next;
    for (const std::string& x : cur) {
      if (derived != nullptr) {
        const Names& img = Image(x, derived->path);
        next.insert(img.begin(), img.end());
      } else {
        const Names& v = Get(step, x);
        next.insert(v.begin(), v.end());
      }
    }
    cur = std::move(next);
  }
  return memo[e] = std::move(cur);
}

bool Model::IsInteger(const std::vector<std::string>& path) const {
  if (path.empty()) return false;
  auto a = attrs_.find(path.back());
  return a != attrs_.end() && a->second.integer;
}

bool Model::EvalAtom(const MAtom& a, const Names& lhs,
                     const Names& rhs) const {
  bool r = false;
  const bool lhs_in_rhs =
      std::includes(rhs.begin(), rhs.end(), lhs.begin(), lhs.end());
  const bool rhs_in_lhs =
      std::includes(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
  if (a.op == "=") {
    r = lhs == rhs;
  } else if (a.op == "[=") {
    r = lhs_in_rhs;
  } else if (a.op == "]=") {
    r = rhs_in_lhs;
  } else if (a.op == "[") {
    r = lhs_in_rhs && lhs != rhs;
  } else if (a.op == "]") {
    r = rhs_in_lhs && lhs != rhs;
  } else if (a.op == "~") {
    for (const std::string& x : lhs) {
      if (rhs.count(x) > 0) r = true;
    }
  } else if (a.op == "<=" || a.op == ">") {
    // Orderings hold between singletons only; the benchmark orders
    // integer-valued maps, which compare by value.
    if (lhs.size() == 1 && rhs.size() == 1 && IsInteger(a.path)) {
      const long long l = AsInt(*lhs.begin());
      const long long c = AsInt(*rhs.begin());
      r = a.op == "<=" ? l <= c : l > c;
    }
  }
  return a.negated ? !r : r;
}

Names Model::Evaluate(const MPredicate& pred) const {
  std::vector<std::vector<Names>> rhs;
  for (const std::vector<MAtom>& g : pred.groups) {
    rhs.emplace_back();
    for (const MAtom& a : g) {
      rhs.back().emplace_back(a.constants.begin(), a.constants.end());
    }
  }
  Names out;
  for (const std::string& e : Members(pred.cls)) {
    bool all = true;   // CNF: every group holds.
    bool any = false;  // DNF: some group holds.
    for (std::size_t gi = 0; gi < pred.groups.size(); ++gi) {
      bool g_any = false;
      bool g_all = true;
      for (std::size_t ai = 0; ai < pred.groups[gi].size(); ++ai) {
        const MAtom& a = pred.groups[gi][ai];
        const bool v = EvalAtom(a, Image(e, a.path), rhs[gi][ai]);
        g_any = g_any || v;
        g_all = g_all && v;
      }
      all = all && g_any;
      any = any || g_all;
    }
    if (pred.dnf ? any : all) out.insert(e);
  }
  return out;
}

std::string Model::Dump() const {
  std::ostringstream out;
  for (const std::string& cls : classes_) {
    out << "class " << cls << ": " << NamesText(Members(cls)) << "\n";
  }
  for (const auto& [name, attr] : attrs_) {
    for (const std::string& e : Members(attr.owner)) {
      out << "attr " << name << " " << e << ": " << NamesText(Get(name, e))
          << "\n";
    }
  }
  for (const DerivedClass& d : derived_classes_) {
    out << "derived " << d.name << ": " << NamesText(Evaluate(d.pred)) << "\n";
  }
  for (const DerivedAttr& d : derived_attrs_) {
    for (const std::string& e : Members(d.owner)) {
      out << "derived-attr " << d.name << " " << e << ": "
          << NamesText(Image(e, d.path)) << "\n";
    }
  }
  return out.str();
}

std::string Model::DumpDatabase(const isis::sdm::Database& db) const {
  const isis::sdm::Schema& schema = db.schema();
  auto names_of = [&db](const isis::sdm::EntitySet& s) {
    Names n;
    for (EntityId e : s) n.insert(db.NameOf(e));
    return n;
  };
  auto members_of = [&](const std::string& cls) {
    isis::Result<ClassId> c = schema.FindClass(cls);
    return c.ok() ? names_of(db.Members(*c)) : Names{"<missing class>"};
  };
  auto values_of = [&](const std::string& owner, const std::string& attr,
                       const std::string& e) {
    ClassId cls = *schema.FindClass(owner);
    isis::Result<AttributeId> a = schema.FindAttribute(cls, attr);
    isis::Result<EntityId> ent = db.FindMember(cls, e);
    if (!a.ok() || !ent.ok()) return Names{"<missing>"};
    return names_of(db.GetValueSet(*ent, *a));
  };
  std::ostringstream out;
  for (const std::string& cls : classes_) {
    out << "class " << cls << ": " << NamesText(members_of(cls)) << "\n";
  }
  for (const auto& [name, attr] : attrs_) {
    for (const std::string& e : members_of(attr.owner)) {
      out << "attr " << name << " " << e << ": "
          << NamesText(values_of(attr.owner, name, e)) << "\n";
    }
  }
  for (const DerivedClass& d : derived_classes_) {
    out << "derived " << d.name << ": " << NamesText(members_of(d.name))
        << "\n";
  }
  for (const DerivedAttr& d : derived_attrs_) {
    for (const std::string& e : members_of(d.owner)) {
      out << "derived-attr " << d.name << " " << e << ": "
          << NamesText(values_of(d.owner, d.name, e)) << "\n";
    }
  }
  return out.str();
}

bool ParseQueryResult(const std::string& payload, Names* out) {
  std::vector<std::string> fields = isis::server::SplitFields(payload);
  if (fields.empty()) return false;
  std::size_t count = 0;
  try {
    count = static_cast<std::size_t>(std::stoull(fields[0]));
  } catch (...) {
    return false;
  }
  out->clear();
  out->insert(fields.begin() + 1, fields.end());
  return count == fields.size() - 1 && out->size() == count;
}

std::string FirstDifference(const std::string& a, const std::string& b) {
  std::istringstream ia(a), ib(b);
  std::string la, lb;
  int line = 0;
  while (true) {
    ++line;
    const bool ha = static_cast<bool>(std::getline(ia, la));
    const bool hb = static_cast<bool>(std::getline(ib, lb));
    if (!ha && !hb) return "no difference";
    if (!ha || !hb || la != lb) {
      return "line " + std::to_string(line) + ": expected '" +
             (ha ? la : "<end>") + "' got '" + (hb ? lb : "<end>") + "'";
    }
  }
}

}  // namespace isisbench
