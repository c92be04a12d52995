#include <gtest/gtest.h>

#include "chase/chase.h"
#include "rewrite/linearize.h"
#include "tgd/classify.h"
#include "tgd/parser.h"
#include "workload/lower_bounds.h"
#include "workload/university.h"

namespace nuchase {
namespace rewrite {
namespace {

rewrite::Linearized Lin(core::SymbolTable* symbols,
                        const std::string& program_text) {
  auto program = tgd::ParseProgram(symbols, program_text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto lin = Linearize(program->database, program->tgds, symbols,
                       LinearizeOptions{});
  EXPECT_TRUE(lin.ok()) << lin.status().ToString();
  return std::move(*lin);
}

TEST(LinearizeTest, RequiresGuardedness) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(
      &symbols, "R(a, b). R(x, y), S(y, z) -> T(x, z).");
  ASSERT_TRUE(program.ok());
  auto lin = Linearize(program->database, program->tgds, &symbols,
                       LinearizeOptions{});
  EXPECT_FALSE(lin.ok());
  EXPECT_EQ(lin.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(LinearizeTest, OutputIsLinear) {
  core::SymbolTable symbols;
  Linearized lin = Lin(&symbols,
                       "R(a, b).\n"
                       "S(b).\n"
                       "R(x, y), S(y) -> T(y, z).\n"
                       "T(y, z) -> S(z).\n");
  // lin(Σ) is linear by construction; Classify reports the most specific
  // class, which may be SL when no [τ]-body repeats a variable.
  EXPECT_TRUE(tgd::ClassContainedIn(tgd::Classify(lin.tgds),
                                    tgd::TgdClass::kLinear));
  EXPECT_GE(lin.num_types, 2u);
  // Every lin(D) fact uses a [τ] predicate of the registry.
  for (const core::Atom& fact : lin.database.facts()) {
    EXPECT_TRUE(lin.types.count(fact.predicate));
  }
}

TEST(LinearizeTest, TypeEncodesGuardAndCompanions) {
  // D = {R(a,a,b,c)} with σ' = R(x,x,y,z) → Q(x,z) (Example E.9): the
  // type of R(a,a,b,c) contains Q(a,c), and the [τ] name records the
  // pattern R(1,1,2,3) with companion Q(1,3).
  core::SymbolTable symbols;
  Linearized lin = Lin(&symbols,
                       "R(a, a, b, c).\n"
                       "R(x, x, y, z) -> Q(x, z).\n");
  ASSERT_EQ(lin.database.size(), 1u);
  const core::Atom& fact = lin.database.facts()[0];
  std::string name = symbols.predicate_name(fact.predicate);
  EXPECT_NE(name.find("R(1,1,2,3)"), std::string::npos) << name;
  EXPECT_NE(name.find("Q(1,3)"), std::string::npos) << name;
  // Full-arity convention: [τ](a,a,b,c).
  EXPECT_EQ(fact.args.size(), 4u);
}

// --- Proposition 8.1: linearization preserves finiteness and maxdepth. --

struct LinearizeCase {
  const char* name;
  const char* program;
  bool finite;
};

class LinearizePreservationTest
    : public ::testing::TestWithParam<LinearizeCase> {};

TEST_P(LinearizePreservationTest, FinitenessAndDepthArePreserved) {
  const LinearizeCase& param = GetParam();
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols, param.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto lin = Linearize(program->database, program->tgds, &symbols,
                       LinearizeOptions{});
  ASSERT_TRUE(lin.ok()) << lin.status().ToString();

  chase::ChaseOptions options;
  options.max_atoms = 20000;
  chase::ChaseResult original =
      chase::RunChase(&symbols, program->tgds, program->database, options);
  chase::ChaseResult linearized =
      chase::RunChase(&symbols, lin->tgds, lin->database, options);

  EXPECT_EQ(original.Terminated(), param.finite) << param.name;
  EXPECT_EQ(original.Terminated(), linearized.Terminated()) << param.name;
  if (param.finite) {
    EXPECT_EQ(original.stats.max_depth, linearized.stats.max_depth)
        << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LinearizePreservationTest,
    ::testing::Values(
        LinearizeCase{"datalog", "E(a, b). E(x, y) -> P(x, y).", true},
        LinearizeCase{"one_null",
                      "R(a, b). S(b). R(x, y), S(y) -> T(y, z).", true},
        LinearizeCase{"chain",
                      "R(a). R(x) -> E(x, z). E(x, z) -> F(z, w).", true},
        LinearizeCase{"side_conditions_finite",
                      "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                      "K(x, y, z) -> H(z).",
                      true},
        LinearizeCase{"side_conditions_infinite",
                      "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                      "K(x, y, z) -> G(y, z), H(z).",
                      false},
        LinearizeCase{"guarded_loop_finite",
                      "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                      "K(x, y, z) -> L(x, y).",
                      true},
        LinearizeCase{"infinite_path",
                      "R(a, b). R(x, y) -> R(y, z).", false},
        LinearizeCase{"two_rules_interlock",
                      "R(a, b). R(x, y) -> S(y, z). S(x, y) -> R(x, x).",
                      true}),
    [](const ::testing::TestParamInfo<LinearizeCase>& info) {
      return info.param.name;
    });

TEST(GSimplifyTest, ComposesLinearizationAndSimplification) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "S(b).\n"
                                   "R(x, y), S(y) -> T(y, z).\n"
                                   "T(y, z) -> S(z).\n");
  ASSERT_TRUE(program.ok());
  auto gsimple = GSimplify(program->database, program->tgds, &symbols,
                           LinearizeOptions{});
  ASSERT_TRUE(gsimple.ok()) << gsimple.status().ToString();
  EXPECT_EQ(tgd::Classify(gsimple->tgds), tgd::TgdClass::kSimpleLinear);
  EXPECT_GE(gsimple->num_types, 2u);
  EXPECT_GE(gsimple->num_linear_tgds, 1u);
  EXPECT_EQ(gsimple->database.size(), program->database.size());
}

TEST(LinearizeTest, TypeBudgetIsEnforced) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "R(x, y) -> S(y, z).\n"
                                   "S(x, y) -> R(y, z).\n");
  ASSERT_TRUE(program.ok());
  LinearizeOptions options;
  options.max_types = 1;
  auto lin = Linearize(program->database, program->tgds, &symbols,
                       options);
  EXPECT_FALSE(lin.ok());
  EXPECT_EQ(lin.status().code(), util::StatusCode::kResourceExhausted);
}

// Pinned sizes of gsimple(D, Σ): the rewriting is deterministic, so
// any change to type saturation that alters them changes the output.
TEST(GSimplifyTest, Theorem84FamilySizesArePinned) {
  for (std::uint64_t ell = 1; ell <= 4; ++ell) {
    core::SymbolTable symbols;
    workload::Workload w =
        workload::MakeGuardedLowerBound(&symbols, ell, 1, 1);
    auto gsimple =
        GSimplify(w.database, w.tgds, &symbols, LinearizeOptions{});
    ASSERT_TRUE(gsimple.ok()) << gsimple.status().ToString();
    EXPECT_EQ(gsimple->num_types, 104u) << "ell=" << ell;
    EXPECT_EQ(gsimple->num_linear_tgds, 131u) << "ell=" << ell;
    EXPECT_EQ(gsimple->tgds.size(), 5341u) << "ell=" << ell;
  }
}

TEST(GSimplifyTest, UniversityTypeCountsArePinned) {
  for (bool fed : {false, true}) {
    core::SymbolTable symbols;
    workload::UniversityOptions options;
    options.departments = 3;
    options.include_review_rule = fed;
    options.under_review = fed ? 2 : 0;
    workload::Workload w = workload::MakeUniversityWorkload(&symbols, options);
    auto gsimple =
        GSimplify(w.database, w.tgds, &symbols, LinearizeOptions{});
    ASSERT_TRUE(gsimple.ok()) << gsimple.status().ToString();
    EXPECT_EQ(gsimple->num_types, fed ? 14u : 11u) << "fed=" << fed;
  }
}

}  // namespace
}  // namespace rewrite
}  // namespace nuchase
