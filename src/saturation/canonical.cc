#include "saturation/canonical.h"

#include <algorithm>

namespace nuchase {
namespace saturation {

std::string CAtom::ToString(const core::SymbolTable& symbols) const {
  std::string out = symbols.predicate_name(predicate);
  out += '(';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(args[i]);
  }
  out += ')';
  return out;
}

Canonicalized Canonicalize(const CAtomSet& atoms) {
  return Canonicalize(std::vector<CAtom>(atoms.begin(), atoms.end()));
}

Canonicalized Canonicalize(std::vector<CAtom> atoms) {
  std::vector<std::uint32_t> used;
  for (const CAtom& a : atoms) {
    used.insert(used.end(), a.args.begin(), a.args.end());
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());

  // The new name of an integer is its 1-based rank in `used`.
  for (CAtom& a : atoms) {
    for (std::uint32_t& t : a.args) {
      t = static_cast<std::uint32_t>(
          std::lower_bound(used.begin(), used.end(), t) - used.begin() + 1);
    }
  }
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());

  Canonicalized out;
  out.key.num_terms = static_cast<std::uint32_t>(used.size());
  out.key.atoms = std::move(atoms);
  out.new_to_old = std::move(used);
  return out;
}

void TermSetIndex::Add(std::vector<std::uint32_t> args, std::uint32_t id) {
  std::sort(args.begin(), args.end());
  args.erase(std::unique(args.begin(), args.end()), args.end());
  sets_[std::move(args)].push_back(id);
}

}  // namespace saturation
}  // namespace nuchase
