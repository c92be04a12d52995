#ifndef NUCHASE_SATURATION_CANONICAL_H_
#define NUCHASE_SATURATION_CANONICAL_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/atom.h"
#include "core/symbol_table.h"
#include "util/hash.h"

namespace nuchase {
namespace saturation {

/// An atom over small-integer local terms (1-based), the working currency
/// of the type oracle and of Σ-types (Appendix E). Integer terms play the
/// role of the canonical constants 1, 2, ... in the paper's Σ-type
/// definition.
struct CAtom {
  core::PredicateId predicate = core::kInvalidPredicate;
  std::vector<std::uint32_t> args;

  CAtom() = default;
  CAtom(core::PredicateId pred, std::vector<std::uint32_t> arguments)
      : predicate(pred), args(std::move(arguments)) {}

  bool operator==(const CAtom& o) const {
    return predicate == o.predicate && args == o.args;
  }
  bool operator<(const CAtom& o) const {
    if (predicate != o.predicate) return predicate < o.predicate;
    return args < o.args;
  }

  std::string ToString(const core::SymbolTable& symbols) const;
};

struct CAtomHash {
  std::size_t operator()(const CAtom& a) const {
    std::size_t seed = std::hash<std::uint32_t>{}(a.predicate);
    return util::HashRange(a.args.begin(), a.args.end(), seed);
  }
};

/// A set of CAtoms with deterministic iteration order.
using CAtomSet = std::set<CAtom>;

/// A canonical instance: the memoization key of the type oracle. Atoms
/// are sorted and local terms are renamed 1..k by the canonicalization
/// below, so any two instances with the same canonical form are equal as
/// keyed worlds.
struct CKey {
  std::vector<CAtom> atoms;  // sorted, deduplicated
  std::uint32_t num_terms = 0;

  bool operator==(const CKey& o) const {
    return num_terms == o.num_terms && atoms == o.atoms;
  }
};

struct CKeyHash {
  std::size_t operator()(const CKey& k) const {
    std::size_t seed = std::hash<std::uint32_t>{}(k.num_terms);
    for (const CAtom& a : k.atoms) {
      util::HashCombine(&seed, CAtomHash{}(a));
    }
    return seed;
  }
};

/// Result of canonicalizing a set of atoms over arbitrary local integers:
/// the canonical key plus the inverse renaming (new_to_old[i] is the
/// original integer of canonical term i+1).
struct Canonicalized {
  CKey key;
  std::vector<std::uint32_t> new_to_old;
};

/// Renames the integers used in `atoms` to 1..k in ascending order of the
/// original integers, sorts, and deduplicates. Deterministic; any
/// deterministic renaming onto 1..k suffices for the oracle's memoization
/// to terminate (the key space over ≤ k terms is finite).
Canonicalized Canonicalize(const CAtomSet& atoms);
Canonicalized Canonicalize(std::vector<CAtom> atoms);

/// Ids filed by the set of distinct terms of their atom, for finding the
/// atoms whose terms all lie in a small set T: one lookup per subset of
/// T, or a scan of the distinct term sets when there are fewer of them.
class TermSetIndex {
 public:
  /// Files `id` under the distinct terms of `args`.
  void Add(std::vector<std::uint32_t> args, std::uint32_t id);

  /// Calls fn(id) for every id filed under a subset of `terms`, which
  /// must be sorted and distinct.
  template <typename Fn>
  void ForEachInside(const std::vector<std::uint32_t>& terms,
                     const Fn& fn) const {
    if (terms.size() >= 32 ||
        (std::size_t{1} << terms.size()) > sets_.size()) {
      for (const auto& [set, ids] : sets_) {
        if (std::includes(terms.begin(), terms.end(), set.begin(),
                          set.end())) {
          for (std::uint32_t id : ids) fn(id);
        }
      }
      return;
    }
    std::vector<std::uint32_t> subset;
    for (std::uint32_t mask = 0; mask < (1u << terms.size()); ++mask) {
      subset.clear();
      for (std::size_t i = 0; i < terms.size(); ++i) {
        if (mask & (1u << i)) subset.push_back(terms[i]);
      }
      auto found = sets_.find(subset);
      if (found == sets_.end()) continue;
      for (std::uint32_t id : found->second) fn(id);
    }
  }

 private:
  std::unordered_map<std::vector<std::uint32_t>, std::vector<std::uint32_t>,
                     util::VectorHash<std::uint32_t>>
      sets_;
};

}  // namespace saturation
}  // namespace nuchase

#endif  // NUCHASE_SATURATION_CANONICAL_H_
