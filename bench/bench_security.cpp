// E13 — §D security management class: "capsule authorization and resource
// access control", plus containment of the one genuinely dangerous WLI
// mechanism — self-replicating jets.
//
// Reproduction: (a) capsule-authorization acceptance matrix and its byte/
// time overhead, (b) jet population vs the security class's replication
// budget cap (runaway containment), (c) per-capsule fuel quota stopping a
// runaway loop.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "base/strings.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "services/security_mgmt.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "vm/assembler.h"

using namespace viator;

int main() {
  std::printf("E13 / security management\n\n");
  telemetry::BenchReport report("security");

  // (a) Authorization matrix.
  {
    TablePrinter table({"shuttle", "network key", "outcome"});
    auto try_install = [&](bool signed_ok, bool key_enabled, bool tampered) {
      sim::Simulator simulator;
      net::Topology topology = net::MakeLine(2);
      wli::WnConfig config;
      config.auth_key = key_enabled ? 0xabcdef : 0;
      wli::WanderingNetwork wn(simulator, topology, config, 1);
      wn.PopulateAllNodes();
      auto program = vm::Assemble("candidate", "push 1\nhalt\n");
      wli::Shuttle s;
      s.header.source = 0;
      s.header.destination = 1;
      s.header.kind = wli::ShuttleKind::kCode;
      s.code_image = program->Serialize();
      if (signed_ok) {
        services::CapsuleAuthority authority(0xabcdef);
        authority.Sign(s);
      }
      if (tampered) s.code_image[4] ^= std::byte{0x1};
      (void)wn.Inject(std::move(s));
      simulator.RunAll();
      return wn.stats().CounterValue("wn.code_installed") == 1;
    };
    table.AddRow({"signed", "enabled",
                  try_install(true, true, false) ? "installed" : "REJECTED"});
    table.AddRow({"unsigned", "enabled",
                  try_install(false, true, false) ? "INSTALLED" : "rejected"});
    table.AddRow({"signed, tampered", "enabled",
                  try_install(true, true, true) ? "INSTALLED" : "rejected"});
    table.AddRow({"unsigned", "disabled",
                  try_install(false, false, false) ? "installed" : "REJECTED"});
    std::printf("(a) capsule authorization acceptance matrix\n");
    table.Print(std::cout);
  }

  // (a') Tagging cost (wall clock, amortized).
  {
    auto program = vm::Assemble("payload", "push 1\nhalt\n");
    const auto image = program->Serialize();
    constexpr int kReps = 200000;
    const auto start = std::chrono::steady_clock::now();
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < kReps; ++i) {
      sink = sink ^ KeyedTag(0xabcdef + i, image);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    std::printf("\n    keyed-tag cost: %.1f ns per %zu-byte capsule"
                " (%d reps)\n",
                static_cast<double>(elapsed) / kReps, image.size(), kReps);
  }

  // (b) Jet containment: population vs budget cap.
  {
    TablePrinter table({"budget cap", "jet replications", "jets refused"});
    auto jet_program = vm::Assemble("spreader", R"(
  sys neighbor_count
  store 0
loop:
  load 0
  jz done
  load 0
  push -1
  add
  store 0
  load 0
  sys neighbor
  sys replicate
  pop
  jmp loop
done:
  halt
)");
    for (std::uint32_t cap : {0u, 1u, 2u, 4u, 6u}) {
      sim::Simulator simulator;
      Rng rng(7);
      net::Topology topology = net::MakeRandom(16, 0.25, rng);
      wli::WnConfig config;
      config.jet_budget_cap = cap;
      wli::WanderingNetwork wn(simulator, topology, config, 7);
      wn.PopulateAllNodes();
      (void)wn.PublishProgram(*jet_program, 0);
      wli::Shuttle jet;
      jet.header.source = 0;
      jet.header.destination = 1;
      jet.header.kind = wli::ShuttleKind::kJet;
      jet.code_digest = jet_program->digest();
      jet.code_image = jet_program->Serialize();
      jet.replication_budget = 100;  // attempted runaway
      (void)wn.Inject(std::move(jet));
      simulator.RunAll();
      table.AddRow({std::to_string(cap),
                    std::to_string(
                        wn.stats().CounterValue("wn.jet_replications")),
                    std::to_string(
                        wn.stats().CounterValue("wn.jet_refused"))});
      report.Set("jet_replications_cap" + std::to_string(cap),
                 static_cast<double>(
                     wn.stats().CounterValue("wn.jet_replications")));
    }
    std::printf("\n(b) jet containment on a 16-ship random net: a jet"
                " requesting budget 100 is clamped by the security class\n");
    table.Print(std::cout);
  }

  // (c) Fuel quota stops runaway capsules.
  {
    sim::Simulator simulator;
    net::Topology topology = net::MakeLine(2);
    wli::WnConfig config;
    config.quota.fuel_per_capsule = 5000;
    wli::WanderingNetwork wn(simulator, topology, config, 1);
    wn.PopulateAllNodes();
    auto runaway = vm::Assemble("runaway", "loop:\njmp loop\n");
    (void)wn.PublishProgram(*runaway, 0);
    wli::Shuttle s = wli::Shuttle::Data(0, 1, {1}, 1);
    s.code_digest = runaway->digest();
    (void)wn.Inject(std::move(s));
    simulator.RunAll();
    std::printf("\n(c) runaway capsule (infinite loop): out-of-fuel"
                " terminations = %llu (fuel cap %llu, host unharmed)\n",
                static_cast<unsigned long long>(
                    wn.stats().CounterValue("wn.exec_out_of_fuel")),
                static_cast<unsigned long long>(
                    config.quota.fuel_per_capsule));
    report.Set("exec_out_of_fuel",
               static_cast<double>(
                   wn.stats().CounterValue("wn.exec_out_of_fuel")));
  }
  (void)report.Write();

  std::printf("\nexpected shape: only correctly signed code installs when"
              " the key is on; jet population scales with the cap and is"
              " zero at cap 0; runaway code burns its quota and stops.\n");
  return 0;
}
