#ifndef NUCHASE_SATURATION_TYPE_ORACLE_H_
#define NUCHASE_SATURATION_TYPE_ORACLE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/atom.h"
#include "core/database.h"
#include "core/symbol_table.h"
#include "saturation/canonical.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace saturation {

/// Guarded saturation: computes complete(I, Σ) — the atoms over dom(I)
/// that belong to chase(I, Σ) — for a guarded set Σ (Appendix E,
/// "Auxiliary Notions"). This is the substrate of the linearization of
/// Section 8 (computing types and their completions) and also yields a
/// decider for propositional atom entailment PAE(G).
///
/// Algorithm: a memoized monotone fixpoint over canonical worlds (the
/// recursion behind Lemma 6 of [19]). For a world W with atoms S:
///   1. every trigger (σ, h) on S whose head atoms use only frontier
///      variables contributes those atoms directly, and
///   2. every trigger with existential variables spawns a child world —
///      the instantiated head atoms plus the atoms of S over the
///      frontier images — whose own completion, restricted to non-fresh
///      terms, flows back into W.
/// Memo entries grow monotonically inside finite lattices (all worlds
/// except the root have at most ar(Σ) + #existentials terms), so the
/// global fixpoint terminates; budgets bound the exponential type space.
///
/// The store. Each memoized world keeps its atoms with three indexes: a
/// membership set, the atoms by term, and the atoms by distinct-term
/// set. Triggers are found guard first: each atom is matched against
/// the rules whose guard has its predicate, the guard binds every body
/// variable, and each side atom is then one membership probe. The atoms
/// of S over the frontier images come from at most 2^|frontier| lookups
/// in the term-set index (a scan of its sets when it has fewer).
///
/// Finalization. CompleteCanonical runs global iterations until one
/// changes no memo entry. Within an iteration each world is evaluated
/// at most once; later visits read its current atoms. A world becomes
/// final — never evaluated again, in this call or a later one — when
/// its evaluation consulted only final children (its atoms are then
/// exactly its completion), or when an iteration that visited it
/// changed nothing.
///
/// Delta passes. A world is evaluated in passes to a local fixpoint.
/// The first pass matches every atom as a guard; each later pass only
/// the atoms that share a term with an atom the previous pass added
/// (every atom whose presence can matter to a trigger lies inside its
/// guard's terms). A 0-ary addition makes the next pass full. Triggers
/// that read the world through a cycle of child worlds are caught by the
/// next iteration's full pass.
///
/// Cost. For a fixed Σ every child world is one of finitely many small
/// canonical worlds, and each trigger on the root costs a bounded number
/// of probes, so complete(D, Σ) takes time linear in |D| (up to the
/// hashing and the final sort).
class TypeOracle {
 public:
  struct Options {
    /// Maximum number of memoized worlds before ResourceExhausted.
    std::uint64_t max_worlds = 200000;
    /// Maximum total atoms across all memo entries.
    std::uint64_t max_total_atoms = 5'000'000;
    /// Maximum recursion depth through child worlds.
    std::uint32_t max_recursion = 4096;
  };

  /// Fails (FailedPrecondition) if Σ is not guarded.
  static util::StatusOr<TypeOracle> Create(const core::SymbolTable& symbols,
                                           const tgd::TgdSet& tgds,
                                           const Options& options);

  /// complete(I, Σ) for an instance given as atoms over constants/nulls
  /// (no variables). The result contains the input atoms.
  util::StatusOr<std::vector<core::Atom>> Complete(
      const std::vector<core::Atom>& atoms);

  /// complete(·) over canonical worlds (used by the linearizer, whose
  /// Σ-types already live in integer-term form). The returned set is in
  /// the numbering of `world`.
  util::StatusOr<CAtomSet> CompleteCanonical(const CAtomSet& world);

  /// PAE (Theorem 8.5): is the 0-ary atom `pred`() in chase(D, Σ)?
  util::StatusOr<bool> EntailsPropositional(const core::Database& db,
                                            core::PredicateId pred);

  std::size_t memo_size() const { return memo_.size(); }

 private:
  /// A rule compiled for guard-first matching. Variables are numbered
  /// 0..num_body_vars-1 by first occurrence in the guard; existential
  /// variables follow.
  struct CompiledRule {
    std::vector<std::uint32_t> guard;
    std::vector<CAtom> sides;  // args are variable numbers
    std::vector<CAtom> head;   // args are variable numbers
    std::vector<std::uint32_t> frontier;
    std::uint32_t num_body_vars = 0;
    std::uint32_t num_existentials = 0;
  };

  /// A memoized world: its atoms so far (the input atoms first) and the
  /// indexes over them. Atom ids are positions in `atoms`. A copy would
  /// point into the original's `members`, so there is none.
  struct World {
    World() = default;
    World(const World&) = delete;
    World& operator=(const World&) = delete;
    World(World&&) = default;
    World& operator=(World&&) = default;

    std::uint32_t num_terms = 0;
    std::unordered_set<CAtom, CAtomHash> members;
    std::vector<const CAtom*> atoms;  // into `members` (node-stable)
    std::vector<std::vector<std::uint32_t>> by_term;  // term → atom ids
    TermSetIndex by_term_set;
    bool final = false;
    bool in_progress = false;
    std::uint64_t evaluated_in = 0;  // the iteration that last evaluated it

    /// Adds `atom` unless present; returns whether it was new.
    bool Insert(const CAtom& atom);
  };

  TypeOracle(const core::SymbolTable& symbols, const tgd::TgdSet& tgds,
             const Options& options);

  /// The memo entry for `key`, created (with its input atoms) if new.
  util::StatusOr<World*> Lookup(CKey key);

  /// Evaluates `world` to a local fixpoint, reading the current atoms of
  /// its children; returns whether it became final.
  util::StatusOr<bool> Eval(World* world, std::uint32_t depth);

  /// Fires every trigger whose guard is atom `guard_id` of `world`,
  /// inserting what it derives. Clears `*exact` when a consulted child
  /// world is not final.
  util::Status FireAt(World* world, std::uint32_t guard_id,
                      std::uint32_t depth, bool* exact);

  util::Status CheckBudget() const;

  const core::SymbolTable& symbols_;
  Options options_;
  std::vector<CompiledRule> rules_;
  /// Guard predicate → indices into rules_ of the rules it guards.
  std::vector<std::vector<std::uint32_t>> rules_by_guard_;

  std::unordered_map<CKey, World, CKeyHash> memo_;
  std::uint64_t iteration_ = 0;
  bool changed_ = false;
  /// Worlds evaluated in the current iteration and not final.
  std::vector<World*> evaluated_;
  std::uint64_t total_atoms_ = 0;
};

}  // namespace saturation
}  // namespace nuchase

#endif  // NUCHASE_SATURATION_TYPE_ORACLE_H_
