// Differential suite for saturation::TypeOracle::Complete on seeded
// random guarded programs. Two independent references:
//   - the chase restricted to dom(D), on pairs where it terminates
//     within its atom budget;
//   - the straightforward memoized fixpoint the indexed oracle replaced
//     (tests/reference_type_oracle.h), within its pass budget.
// Each suite asserts a minimum number of compared cases, so a reference
// that stops answering cannot hollow it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chase/chase.h"
#include "reference_type_oracle.h"
#include "saturation/type_oracle.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace saturation {
namespace {

constexpr std::uint32_t kSeeds = 400;
constexpr std::uint64_t kReferencePasses = 200'000;
constexpr std::uint64_t kChaseAtoms = 5'000;

std::set<core::Atom> ChaseOverDomain(core::SymbolTable* symbols,
                                     const workload::Workload& w,
                                     bool* terminated) {
  chase::ChaseOptions options;
  options.max_atoms = kChaseAtoms;
  chase::ChaseResult result =
      chase::RunChase(symbols, w.tgds, w.database, options);
  *terminated = result.Terminated();
  std::set<core::Atom> out;
  if (!*terminated) return out;
  auto dom = w.database.ActiveDomain();
  for (core::AtomIndex i = 0; i < result.instance.size(); ++i) {
    core::AtomView atom = result.instance.atom(i);
    core::TermSpan terms = atom.terms();
    if (std::all_of(terms.begin(), terms.end(),
                    [&](core::Term t) { return dom.count(t) > 0; })) {
      out.insert(atom.ToAtom());
    }
  }
  return out;
}

class TypeOracleDifferentialTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TypeOracleDifferentialTest, AgreesWithChaseAndReference) {
  const std::uint32_t num_facts = GetParam();
  std::uint32_t vs_reference = 0;
  std::uint32_t vs_chase = 0;
  for (std::uint32_t seed = 1; seed <= kSeeds; ++seed) {
    core::SymbolTable symbols;
    workload::RandomTgdOptions options;
    options.seed = seed;
    options.target = tgd::TgdClass::kGuarded;
    options.num_predicates = 5;
    options.num_tgds = 6;
    options.num_facts = num_facts;
    // 0, 20 or 40 percent existential head arguments: datalog-heavy
    // programs keep every world final after one evaluation, so a missed
    // re-match inside an evaluation shows.
    options.existential_percent = (seed % 3) * 20;
    workload::Workload w = workload::MakeRandomWorkload(&symbols, options);

    auto oracle = TypeOracle::Create(symbols, w.tgds, TypeOracle::Options{});
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto completed = oracle->Complete(w.database.facts());
    ASSERT_TRUE(completed.ok())
        << w.name << ": " << completed.status().ToString();
    const std::set<core::Atom> got(completed->begin(), completed->end());
    ASSERT_EQ(got.size(), completed->size()) << w.name << ": duplicates";

    reference::ReferenceTypeOracle slow(w.tgds, kReferencePasses);
    auto expected = slow.Complete(w.database.facts());
    if (expected.ok()) {
      ++vs_reference;
      EXPECT_EQ(got, std::set<core::Atom>(expected->begin(), expected->end()))
          << w.name << " (reference)";
    }

    bool terminated = false;
    std::set<core::Atom> chased = ChaseOverDomain(&symbols, w, &terminated);
    if (terminated) {
      ++vs_chase;
      EXPECT_EQ(got, chased) << w.name << " (chase)";
    }
  }
  // Floors a little under the counts observed when the suite was written:
  // the reference answered on 1,195 of the 1,200 cases (it ran out of
  // passes on the other five), the chase terminated on 347-355 seeds per
  // size.
  EXPECT_GE(vs_reference, kSeeds - 8) << "compared with the reference";
  EXPECT_GE(vs_chase, kSeeds * 3 / 4) << "compared with the chase";
}

INSTANTIATE_TEST_SUITE_P(Facts, TypeOracleDifferentialTest,
                         ::testing::Values(4u, 8u, 16u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return "D" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace saturation
}  // namespace nuchase
