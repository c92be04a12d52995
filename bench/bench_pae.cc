// A4 — propositional atom entailment PAE(G), the problem Theorem 8.5
// uses (via the looping operator) to prove ChTrm(G) PTIME-hard in data
// complexity. Three independent routes must agree:
//   (1) the guarded type oracle (saturation; no chase),
//   (2) membership in the materialized chase, and
//   (3) the looping-operator reduction: R() entailed iff the looped
//       program does NOT terminate (decided syntactically).
#include "bench/bench_util.h"
#include "chase/chase.h"
#include "saturation/type_oracle.h"
#include "termination/looping.h"
#include "termination/syntactic_decider.h"
#include "tgd/parser.h"

namespace nuchase {
namespace {

void Run() {
  bench::PrintHeader(
      "A4 bench_pae (Theorem 8.5's hardness machinery)",
      "PAE(G) via saturation == via chase == via the looping-operator "
      "reduction to (non-)termination");

  util::Table table("PAE(G), three routes",
                    {"|D|", "entailed", "oracle(s)", "chase(s)",
                     "looping(s)", "all agree"});

  // A guarded "incident escalation" program: Alarm() fires iff some
  // chain of On/Feeds facts reaches a critical device.
  const char* rules =
      "On(x), Feeds(x, y) -> On(y).\n"
      "On(x), Critical(x) -> Alarm().\n";

  for (std::uint64_t size : {10u, 50u, 200u, 1000u}) {
    for (bool reachable : {false, true}) {
      core::SymbolTable symbols;
      auto tgds = tgd::ParseTgdSet(&symbols, rules);
      if (!tgds.ok()) return;
      core::Database db;
      // A feed chain d0 -> d1 -> ... ; d0 is on; the critical device is
      // on the chain iff `reachable`.
      for (std::uint64_t i = 0; i + 1 < size; ++i) {
        (void)db.AddFact(&symbols, "Feeds",
                         {"d" + std::to_string(i),
                          "d" + std::to_string(i + 1)});
      }
      (void)db.AddFact(&symbols, "On", {"d0"});
      (void)db.AddFact(&symbols, "Critical",
                       {reachable ? "d" + std::to_string(size / 2)
                                  : "offgrid"});
      auto alarm = symbols.InternPredicate("Alarm", 0);
      if (!alarm.ok()) return;

      // The saturation oracle evaluates the whole database as its root
      // world, in time linear in |D|.
      bench::Stopwatch oracle_timer;
      bool via_oracle = false;
      auto oracle = saturation::TypeOracle::Create(
          symbols, *tgds, saturation::TypeOracle::Options{});
      if (oracle.ok()) {
        auto e = oracle->EntailsPropositional(db, *alarm);
        if (e.ok()) via_oracle = *e;
      }
      double oracle_s = oracle_timer.Seconds();

      bench::Stopwatch chase_timer;
      chase::ChaseResult r = chase::RunChase(&symbols, *tgds, db);
      bool via_chase = r.instance.Contains(core::Atom(*alarm, {}));
      double chase_s = chase_timer.Seconds();

      bench::Stopwatch loop_timer;
      bool via_looping = false;
      auto looped =
          termination::ApplyLoopingOperator(&symbols, *tgds, db, *alarm);
      if (looped.ok()) {
        auto d = termination::Decide(&symbols, looped->tgds,
                                     looped->database);
        if (d.ok()) {
          via_looping =
              d->decision == termination::Decision::kDoesNotTerminate;
        }
      }
      double loop_s = loop_timer.Seconds();

      bool agree = via_oracle == via_chase && via_chase == via_looping &&
                   via_chase == reachable;
      table.AddRow({std::to_string(db.size()),
                    via_chase ? "yes" : "no",
                    bench::FormatSeconds(oracle_s),
                    bench::FormatSeconds(chase_s),
                    bench::FormatSeconds(loop_s),
                    agree ? "yes" : "NO"});
    }
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::Run();
  return 0;
}
