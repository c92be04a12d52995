#include "saturation/type_oracle.h"

#include <algorithm>
#include <numeric>

namespace nuchase {
namespace saturation {

using core::Atom;
using core::Term;
using util::Status;
using util::StatusOr;

bool TypeOracle::World::Insert(const CAtom& atom) {
  auto [it, fresh] = members.insert(atom);
  if (!fresh) return false;
  const auto id = static_cast<std::uint32_t>(atoms.size());
  atoms.push_back(&*it);
  for (std::uint32_t t : atom.args) {
    if (by_term[t].empty() || by_term[t].back() != id) {
      by_term[t].push_back(id);
    }
  }
  by_term_set.Add(atom.args, id);
  return true;
}

TypeOracle::TypeOracle(const core::SymbolTable& symbols,
                       const tgd::TgdSet& tgds, const Options& options)
    : symbols_(symbols), options_(options) {
  for (const tgd::Tgd& rule : tgds.tgds()) {
    CompiledRule compiled;
    std::unordered_map<Term, std::uint32_t> var;
    for (Term t : rule.guard().args) {
      auto it = var.emplace(t, static_cast<std::uint32_t>(var.size())).first;
      compiled.guard.push_back(it->second);
    }
    compiled.num_body_vars = static_cast<std::uint32_t>(var.size());
    for (Term z : rule.existential()) {
      var.emplace(z, static_cast<std::uint32_t>(var.size()));
    }
    compiled.num_existentials =
        static_cast<std::uint32_t>(rule.existential().size());
    auto compile = [&](const Atom& atom) {
      CAtom out;
      out.predicate = atom.predicate;
      for (Term t : atom.args) out.args.push_back(var.at(t));
      return out;
    };
    for (std::size_t b = 0; b < rule.body().size(); ++b) {
      if (static_cast<int>(b) == rule.guard_index()) continue;
      compiled.sides.push_back(compile(rule.body()[b]));
    }
    for (const Atom& head_atom : rule.head()) {
      compiled.head.push_back(compile(head_atom));
    }
    for (Term x : rule.frontier()) compiled.frontier.push_back(var.at(x));

    const core::PredicateId guard_pred = rule.guard().predicate;
    if (rules_by_guard_.size() <= guard_pred) {
      rules_by_guard_.resize(guard_pred + 1);
    }
    rules_by_guard_[guard_pred].push_back(
        static_cast<std::uint32_t>(rules_.size()));
    rules_.push_back(std::move(compiled));
  }
}

StatusOr<TypeOracle> TypeOracle::Create(const core::SymbolTable& symbols,
                                        const tgd::TgdSet& tgds,
                                        const Options& options) {
  for (const tgd::Tgd& rule : tgds.tgds()) {
    if (!rule.IsGuarded()) {
      return Status::FailedPrecondition(
          "TypeOracle requires a guarded TGD set");
    }
  }
  return TypeOracle(symbols, tgds, options);
}

Status TypeOracle::CheckBudget() const {
  if (memo_.size() > options_.max_worlds) {
    return Status::ResourceExhausted(
        "type oracle world budget exceeded (" +
        std::to_string(options_.max_worlds) + ")");
  }
  if (total_atoms_ > options_.max_total_atoms) {
    return Status::ResourceExhausted("type oracle atom budget exceeded");
  }
  return Status::OK();
}

StatusOr<TypeOracle::World*> TypeOracle::Lookup(CKey key) {
  auto [it, inserted] = memo_.try_emplace(std::move(key));
  World& world = it->second;
  if (inserted) {
    world.num_terms = it->first.num_terms;
    world.by_term.resize(world.num_terms + 1);
    for (const CAtom& a : it->first.atoms) world.Insert(a);
    total_atoms_ += it->first.atoms.size();
    NUCHASE_RETURN_IF_ERROR(CheckBudget());
  }
  return &world;
}

Status TypeOracle::FireAt(World* world, std::uint32_t guard_id,
                          std::uint32_t depth, bool* exact) {
  // Elements of `members` never move, so this survives insertions.
  const CAtom& guard_atom = *world->atoms[guard_id];
  if (guard_atom.predicate >= rules_by_guard_.size()) return Status::OK();

  std::vector<std::uint32_t> h;
  CAtom probe;
  auto instantiate = [&](const CAtom& pattern) {
    probe.predicate = pattern.predicate;
    probe.args.clear();
    for (std::uint32_t v : pattern.args) probe.args.push_back(h[v]);
  };

  for (std::uint32_t rule_index : rules_by_guard_[guard_atom.predicate]) {
    const CompiledRule& rule = rules_[rule_index];
    // Terms are 1-based, so 0 marks an unbound variable.
    h.assign(rule.num_body_vars + rule.num_existentials, 0);
    bool matched = true;
    for (std::size_t p = 0; p < rule.guard.size() && matched; ++p) {
      std::uint32_t& bound = h[rule.guard[p]];
      if (bound == 0) {
        bound = guard_atom.args[p];
      } else {
        matched = bound == guard_atom.args[p];
      }
    }
    for (std::size_t s = 0; s < rule.sides.size() && matched; ++s) {
      instantiate(rule.sides[s]);
      matched = world->members.count(probe) > 0;
    }
    if (!matched) continue;

    if (rule.num_existentials == 0) {
      for (const CAtom& head_atom : rule.head) {
        instantiate(head_atom);
        if (world->Insert(probe)) ++total_atoms_;
      }
      continue;
    }

    // Child world: the instantiated head atoms (existentials get fresh
    // integers above the world's term range) plus the current atoms over
    // the frontier images.
    for (std::uint32_t i = 0; i < rule.num_existentials; ++i) {
      h[rule.num_body_vars + i] = world->num_terms + 1 + i;
    }
    std::vector<CAtom> child_atoms;
    child_atoms.reserve(rule.head.size());
    for (const CAtom& head_atom : rule.head) {
      instantiate(head_atom);
      child_atoms.push_back(probe);
    }
    std::vector<std::uint32_t> frontier;
    frontier.reserve(rule.frontier.size());
    for (std::uint32_t v : rule.frontier) frontier.push_back(h[v]);
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    world->by_term_set.ForEachInside(frontier, [&](std::uint32_t id) {
      child_atoms.push_back(*world->atoms[id]);
    });

    Canonicalized canon = Canonicalize(std::move(child_atoms));
    StatusOr<World*> looked_up = Lookup(std::move(canon.key));
    if (!looked_up.ok()) return looked_up.status();
    World* child = *looked_up;
    if (!child->final) {
      if (child->in_progress || child->evaluated_in == iteration_) {
        *exact = false;
      } else {
        StatusOr<bool> child_final = Eval(child, depth + 1);
        if (!child_final.ok()) return child_final.status();
        if (!*child_final) *exact = false;
      }
    }

    // The child's completion over non-fresh terms flows back. `child`
    // may be `world` itself: index, and stop at the current size.
    const std::size_t child_size = child->atoms.size();
    for (std::size_t i = 0; i < child_size; ++i) {
      const CAtom& atom = *child->atoms[i];
      probe.predicate = atom.predicate;
      probe.args.clear();
      bool has_fresh = false;
      for (std::uint32_t t : atom.args) {
        std::uint32_t original = canon.new_to_old[t - 1];
        if (original > world->num_terms) {
          has_fresh = true;
          break;
        }
        probe.args.push_back(original);
      }
      if (!has_fresh && world->Insert(probe)) ++total_atoms_;
    }
  }
  return CheckBudget();
}

StatusOr<bool> TypeOracle::Eval(World* world, std::uint32_t depth) {
  if (depth > options_.max_recursion) {
    return Status::ResourceExhausted("type oracle recursion too deep");
  }
  world->in_progress = true;
  world->evaluated_in = iteration_;
  bool exact = true;
  Status status = Status::OK();
  // The first pass matches every atom as a guard.
  std::vector<std::uint32_t> pending(world->atoms.size());
  std::iota(pending.begin(), pending.end(), 0u);
  while (status.ok() && !pending.empty()) {
    const std::size_t before = world->atoms.size();
    for (std::uint32_t id : pending) {
      status = FireAt(world, id, depth, &exact);
      if (!status.ok()) break;
    }
    if (!status.ok() || world->atoms.size() == before) break;
    changed_ = true;
    // The next pass: the atoms sharing a term with an addition, or all
    // of them after a 0-ary addition.
    pending.clear();
    for (std::size_t id = before; id < world->atoms.size(); ++id) {
      const std::vector<std::uint32_t>& args = world->atoms[id]->args;
      if (args.empty()) {
        pending.resize(world->atoms.size());
        std::iota(pending.begin(), pending.end(), 0u);
        break;
      }
      for (std::uint32_t t : args) {
        const std::vector<std::uint32_t>& ids = world->by_term[t];
        pending.insert(pending.end(), ids.begin(), ids.end());
      }
    }
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  }
  world->in_progress = false;
  if (!status.ok()) return status;
  if (exact) {
    world->final = true;
  } else {
    evaluated_.push_back(world);
  }
  return exact;
}

StatusOr<CAtomSet> TypeOracle::CompleteCanonical(const CAtomSet& world) {
  Canonicalized canon = Canonicalize(world);
  StatusOr<World*> root = Lookup(std::move(canon.key));
  if (!root.ok()) return root.status();
  while (!(*root)->final) {
    ++iteration_;
    changed_ = false;
    evaluated_.clear();
    StatusOr<bool> exact = Eval(*root, 0);
    if (!exact.ok()) return exact.status();
    // An iteration that changed nothing leaves every world it visited
    // closed under Σ given its children: all of them are complete.
    if (!changed_) {
      for (World* visited : evaluated_) visited->final = true;
    }
  }

  CAtomSet out;
  for (const CAtom* atom : (*root)->atoms) {
    CAtom translated = *atom;
    for (std::uint32_t& t : translated.args) t = canon.new_to_old[t - 1];
    out.insert(std::move(translated));
  }
  return out;
}

StatusOr<std::vector<Atom>> TypeOracle::Complete(
    const std::vector<Atom>& atoms) {
  // Map terms to local integers (by ascending bit pattern: deterministic).
  std::vector<Term> terms;
  for (const Atom& a : atoms) {
    for (Term t : a.args) {
      if (t.IsVariable()) {
        return Status::InvalidArgument(
            "Complete() expects ground atoms (constants/nulls)");
      }
      terms.push_back(t);
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::unordered_map<Term, std::uint32_t> to_int;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    to_int.emplace(terms[i], static_cast<std::uint32_t>(i + 1));
  }

  CAtomSet world;
  for (const Atom& a : atoms) {
    CAtom c;
    c.predicate = a.predicate;
    c.args.reserve(a.args.size());
    for (Term t : a.args) c.args.push_back(to_int.at(t));
    world.insert(std::move(c));
  }

  auto completed = CompleteCanonical(world);
  if (!completed.ok()) return completed.status();

  std::vector<Atom> out;
  out.reserve(completed->size());
  for (const CAtom& c : *completed) {
    Atom a;
    a.predicate = c.predicate;
    a.args.reserve(c.args.size());
    for (std::uint32_t t : c.args) a.args.push_back(terms[t - 1]);
    out.push_back(std::move(a));
  }
  return out;
}

StatusOr<bool> TypeOracle::EntailsPropositional(const core::Database& db,
                                                core::PredicateId pred) {
  auto completed = Complete(db.facts());
  if (!completed.ok()) return completed.status();
  for (const Atom& a : *completed) {
    if (a.predicate == pred && a.args.empty()) return true;
  }
  return false;
}

}  // namespace saturation
}  // namespace nuchase
