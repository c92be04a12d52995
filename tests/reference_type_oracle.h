// A test-only reference for saturation::TypeOracle: the straightforward
// memoized fixpoint the indexed oracle replaced, kept to be compared
// against. It scan-joins every rule body against every world, re-runs
// its pass down the whole DAG of shared child worlds on every visit, and
// scans the whole world for the atoms over the frontier images — simple
// enough to trust, exponential enough to need a work budget.
#ifndef NUCHASE_TESTS_REFERENCE_TYPE_ORACLE_H_
#define NUCHASE_TESTS_REFERENCE_TYPE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/atom.h"
#include "saturation/canonical.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace reference {

class ReferenceTypeOracle {
 public:
  /// `max_passes` bounds the total number of world passes; past it,
  /// Complete() returns ResourceExhausted.
  ReferenceTypeOracle(const tgd::TgdSet& tgds, std::uint64_t max_passes)
      : tgds_(tgds), max_passes_(max_passes) {}

  /// complete(I, Σ) for ground atoms (constants/nulls), or
  /// ResourceExhausted once the pass budget is spent.
  util::StatusOr<std::vector<core::Atom>> Complete(
      const std::vector<core::Atom>& atoms) {
    std::vector<core::Term> terms;
    for (const core::Atom& a : atoms) {
      terms.insert(terms.end(), a.args.begin(), a.args.end());
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    std::unordered_map<core::Term, std::uint32_t> to_int;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      to_int.emplace(terms[i], static_cast<std::uint32_t>(i + 1));
    }
    saturation::CAtomSet world;
    for (const core::Atom& a : atoms) {
      saturation::CAtom c;
      c.predicate = a.predicate;
      for (core::Term t : a.args) c.args.push_back(to_int.at(t));
      world.insert(std::move(c));
    }

    saturation::Canonicalized canon = saturation::Canonicalize(world);
    do {
      global_changed_ = false;
      util::Status st = Eval(canon.key);
      if (!st.ok()) return st;
    } while (global_changed_);

    std::vector<core::Atom> out;
    for (const saturation::CAtom& c : memo_.at(canon.key)) {
      core::Atom a;
      a.predicate = c.predicate;
      for (std::uint32_t t : c.args) {
        a.args.push_back(terms[canon.new_to_old[t - 1] - 1]);
      }
      out.push_back(std::move(a));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  using Hom = std::unordered_map<core::Term, std::uint32_t>;

  void EnumerateHoms(const std::vector<core::Atom>& body,
                     const saturation::CAtomSet& world,
                     const std::function<void(const Hom&)>& cb) const {
    Hom h;
    std::function<void(std::size_t)> recurse = [&](std::size_t i) {
      if (i == body.size()) {
        cb(h);
        return;
      }
      const core::Atom& pattern = body[i];
      for (const saturation::CAtom& fact : world) {
        if (fact.predicate != pattern.predicate) continue;
        std::vector<core::Term> bound;
        bool ok = true;
        for (std::size_t p = 0; p < pattern.args.size(); ++p) {
          auto it = h.find(pattern.args[p]);
          if (it == h.end()) {
            h.emplace(pattern.args[p], fact.args[p]);
            bound.push_back(pattern.args[p]);
          } else if (it->second != fact.args[p]) {
            ok = false;
            break;
          }
        }
        if (ok) recurse(i + 1);
        for (core::Term v : bound) h.erase(v);
      }
    };
    recurse(0);
  }

  util::StatusOr<bool> OnePass(const saturation::CKey& key) {
    if (++passes_ > max_passes_) {
      return util::Status::ResourceExhausted("reference pass budget");
    }
    saturation::CAtomSet additions;
    for (const tgd::Tgd& rule : tgds_.tgds()) {
      std::vector<Hom> homs;
      EnumerateHoms(rule.body(), memo_[key],
                    [&](const Hom& h) { homs.push_back(h); });
      for (const Hom& h : homs) {
        const saturation::CAtomSet& S = memo_[key];
        if (rule.existential().empty()) {
          for (const core::Atom& head_atom : rule.head()) {
            saturation::CAtom derived;
            derived.predicate = head_atom.predicate;
            for (core::Term v : head_atom.args) {
              derived.args.push_back(h.at(v));
            }
            if (!S.count(derived)) additions.insert(std::move(derived));
          }
          continue;
        }
        Hom extended = h;
        std::uint32_t next_fresh = key.num_terms + 1;
        for (core::Term z : rule.existential()) {
          extended.emplace(z, next_fresh++);
        }
        std::unordered_set<std::uint32_t> frontier_images;
        for (core::Term x : rule.frontier()) frontier_images.insert(h.at(x));
        saturation::CAtomSet child;
        for (const core::Atom& head_atom : rule.head()) {
          saturation::CAtom derived;
          derived.predicate = head_atom.predicate;
          for (core::Term v : head_atom.args) {
            derived.args.push_back(extended.at(v));
          }
          child.insert(std::move(derived));
        }
        for (const saturation::CAtom& beta : S) {
          if (std::all_of(beta.args.begin(), beta.args.end(),
                          [&](std::uint32_t t) {
                            return frontier_images.count(t) > 0;
                          })) {
            child.insert(beta);
          }
        }
        saturation::Canonicalized canon = saturation::Canonicalize(child);
        util::Status st = Eval(canon.key);
        if (!st.ok()) return st;
        const saturation::CAtomSet& S_now = memo_[key];
        for (const saturation::CAtom& atom : memo_.at(canon.key)) {
          saturation::CAtom translated = atom;
          bool has_fresh = false;
          for (std::uint32_t& t : translated.args) {
            t = canon.new_to_old[t - 1];
            if (t > key.num_terms) has_fresh = true;
          }
          if (!has_fresh && !S_now.count(translated)) {
            additions.insert(std::move(translated));
          }
        }
      }
    }
    if (additions.empty()) return false;
    memo_[key].insert(additions.begin(), additions.end());
    return true;
  }

  util::Status Eval(const saturation::CKey& key) {
    if (!memo_.count(key)) {
      memo_.emplace(key,
                    saturation::CAtomSet(key.atoms.begin(), key.atoms.end()));
    }
    if (in_progress_.count(key)) return util::Status::OK();
    in_progress_.insert(key);
    util::Status status = util::Status::OK();
    while (true) {
      util::StatusOr<bool> changed = OnePass(key);
      if (!changed.ok()) {
        status = changed.status();
        break;
      }
      if (!*changed) break;
      global_changed_ = true;
    }
    in_progress_.erase(key);
    return status;
  }

  const tgd::TgdSet& tgds_;
  std::uint64_t max_passes_;
  std::uint64_t passes_ = 0;
  std::unordered_map<saturation::CKey, saturation::CAtomSet,
                     saturation::CKeyHash>
      memo_;
  std::unordered_set<saturation::CKey, saturation::CKeyHash> in_progress_;
  bool global_changed_ = false;
};

}  // namespace reference
}  // namespace nuchase

#endif  // NUCHASE_TESTS_REFERENCE_TYPE_ORACLE_H_
