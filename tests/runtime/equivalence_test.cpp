// Cross-backend equivalence: the interpreter, the compiled IR executor and
// the eBPF VM must produce *identical observable behaviour* — the same
// deferred PUSH actions in the same order, the same register file, the same
// queue mutations — for every built-in scheduler over randomized
// environments. This is the property that makes the three execution
// environments interchangeable (§4.1).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "core/rng.hpp"
#include "sched/specs.hpp"

namespace progmp {
namespace {

using test::FakeEnv;
using test::must_load;
using mptcp::QueueId;
using rt::Backend;

/// Fills a randomized but deterministic environment from a seed. (In-place:
/// FakeEnv owns non-movable PacketQueues.)
void make_env(FakeEnv& env, std::uint64_t seed) {
  Rng rng(seed);
  const int num_subflows = static_cast<int>(rng.next_range(0, 4));
  for (int i = 0; i < num_subflows; ++i) {
    auto& sbf = env.add_subflow("s" + std::to_string(i),
                                rng.next_range(1'000, 80'000),
                                rng.next_range(1, 20), rng.chance(0.3));
    sbf.skbs_in_flight = rng.next_range(0, 15);
    sbf.queued = rng.next_range(0, 5);
    sbf.tsq_throttled = rng.chance(0.2);
    sbf.lossy = rng.chance(0.2);
    sbf.preferred = rng.chance(0.7);
    sbf.delivery_rate_bps = static_cast<double>(rng.next_range(0, 4'000'000));
    sbf.capacity_bps = static_cast<double>(rng.next_range(0, 8'000'000));
    sbf.established_at = milliseconds(rng.next_range(0, 100));
    sbf.last_tx_at = milliseconds(rng.next_range(0, 100));
  }
  const auto fill = [&](QueueId q, std::int64_t max_packets) {
    const std::int64_t n = rng.next_range(0, max_packets);
    for (std::int64_t i = 0; i < n; ++i) {
      mptcp::SkbProps props;
      props.prop1 = rng.next_range(0, 3);
      props.flow_end = rng.chance(0.1);
      auto skb = env.add_packet(
          q, static_cast<std::int32_t>(rng.next_range(100, 1400)), props);
      // Random sent-on history for QU packets.
      if (q == QueueId::kQu) {
        for (int s = 0; s < num_subflows; ++s) {
          if (rng.chance(0.5)) skb->mark_sent_on(s, env.now);
        }
      }
    }
  };
  fill(QueueId::kQ, 6);
  fill(QueueId::kQu, 8);
  fill(QueueId::kRq, 3);
  for (auto& reg : env.registers) reg = rng.next_range(0, 4'000'000);
  env.now = milliseconds(rng.next_range(100, 10'000));
}

/// Observable outcome of one scheduler execution.
struct Outcome {
  std::string actions;
  std::vector<std::int64_t> registers;
  std::vector<std::uint64_t> q, qu, rq;
  std::int64_t pops;
  std::int64_t drops;
  std::vector<std::int64_t> prints;

  bool operator==(const Outcome&) const = default;
};

Outcome run_backend(std::string_view spec, Backend backend,
                    std::uint64_t seed) {
  FakeEnv env;
  make_env(env, seed);
  auto program = must_load(spec, backend);
  Outcome outcome;
  program->set_print_fn(
      [&](std::int64_t v) { outcome.prints.push_back(v); });
  auto ctx = env.ctx();
  program->schedule(ctx);
  outcome.actions = test::action_string(ctx);
  outcome.registers = env.registers;
  for (const auto& skb : env.q) outcome.q.push_back(skb->meta_seq);
  for (const auto& skb : env.qu) outcome.qu.push_back(skb->meta_seq);
  for (const auto& skb : env.rq) outcome.rq.push_back(skb->meta_seq);
  outcome.pops = env.stats.pops;
  outcome.drops = env.stats.drops;
  return outcome;
}

class BackendEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(BackendEquivalence, AllBackendsAgree) {
  const auto& [spec_name, seed] = GetParam();
  const auto spec = sched::specs::find_spec(spec_name);
  ASSERT_TRUE(spec.has_value());

  const Outcome reference =
      run_backend(spec->source, Backend::kInterpreter, seed);
  const Outcome compiled = run_backend(spec->source, Backend::kCompiled, seed);
  const Outcome ebpf = run_backend(spec->source, Backend::kEbpf, seed);

  EXPECT_EQ(reference.actions, compiled.actions) << "compiled diverges";
  EXPECT_EQ(reference.actions, ebpf.actions) << "ebpf diverges";
  EXPECT_EQ(reference.registers, compiled.registers);
  EXPECT_EQ(reference.registers, ebpf.registers);
  EXPECT_EQ(reference.q, compiled.q);
  EXPECT_EQ(reference.q, ebpf.q);
  EXPECT_EQ(reference.qu, ebpf.qu);
  EXPECT_EQ(reference.rq, ebpf.rq);
  EXPECT_EQ(reference.pops, ebpf.pops);
  EXPECT_EQ(reference.drops, ebpf.drops);
  EXPECT_EQ(reference.prints, ebpf.prints);
}

std::vector<std::tuple<std::string, std::uint64_t>> all_cases() {
  std::vector<std::tuple<std::string, std::uint64_t>> cases;
  for (const auto& spec : sched::specs::all_specs()) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      cases.emplace_back(std::string(spec.name), seed);
    }
  }
  return cases;
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
        info) {
  return std::get<0>(info.param) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, BackendEquivalence,
                         ::testing::ValuesIn(all_cases()), case_name);

// Targeted language-construct equivalence with PRINT-observable results.
class ConstructEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ConstructEquivalence, AllBackendsAgree) {
  const char* spec = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Outcome reference = run_backend(spec, Backend::kInterpreter, seed);
    const Outcome compiled = run_backend(spec, Backend::kCompiled, seed);
    const Outcome ebpf = run_backend(spec, Backend::kEbpf, seed);
    EXPECT_EQ(reference, compiled) << "seed " << seed << " spec:\n" << spec;
    EXPECT_EQ(reference, ebpf) << "seed " << seed << " spec:\n" << spec;
  }
}

const char* kConstructSpecs[] = {
    // Arithmetic with registers, division corner cases.
    "PRINT(R1 * 2 + R2 / (R3 - R3) - R4 % 7);",
    // MIN/MAX ties and keys derived from arithmetic.
    "PRINT(SUBFLOWS.MIN(s => s.RTT % 3).ID);"
    "PRINT(SUBFLOWS.MAX(s => s.CWND * 2).ID);",
    // Nested filters and SUM.
    "PRINT(SUBFLOWS.FILTER(s => !s.IS_BACKUP)"
    ".FILTER(s => s.CWND > 3).SUM(s => s.CWND + s.QUEUED));",
    // Queue scans with packet properties.
    "PRINT(Q.FILTER(p => p.SIZE > 700).COUNT);"
    "PRINT(QU.SUM(p => p.SIZE));"
    "IF (RQ.EMPTY) { PRINT(1); } ELSE { PRINT(RQ.TOP.SEQ); }",
    // FOREACH with nested IF and register accumulation.
    "FOREACH (VAR s IN SUBFLOWS) {"
    "  IF (s.CWND > s.SKBS_IN_FLIGHT) { SET(R1, R1 + s.ID); } }"
    "PRINT(R1);",
    // GET with dynamic index and null handling.
    "VAR s = SUBFLOWS.GET(R1 % 5);"
    "IF (s == NULL) { PRINT(111); } ELSE { PRINT(s.ID); }",
    // Boolean logic matrix.
    "IF ((R1 > 10 AND NOT (R2 < 5)) OR R3 == 0) { PRINT(1); } "
    "ELSE { PRINT(0); }",
    // Packet flags and SENT_ON across subflows.
    "FOREACH (VAR s IN SUBFLOWS) {"
    "  VAR skb = QU.FILTER(p => !p.SENT_ON(s)).TOP;"
    "  IF (skb != NULL) { PRINT(skb.SEQ); } ELSE { PRINT(-1); } }",
    // Time access.
    "PRINT(CURRENT_TIME_MS);",
    // Deeply nested control flow.
    "IF (!Q.EMPTY) { IF (!SUBFLOWS.EMPTY) { IF (R1 > 0) {"
    "  SUBFLOWS.MIN(s => s.RTT + s.RTT_VAR).PUSH(Q.POP()); } } }",
};

INSTANTIATE_TEST_SUITE_P(Constructs, ConstructEquivalence,
                         ::testing::ValuesIn(kConstructSpecs));

// HAS_WINDOW_FOR is a subflow property, so on a NULL subflow it reads FALSE
// on every backend, even for a packet the window admits. A spec that gates
// a POP on it must not lose the packet into a no-op push.
TEST(NullSubflowEquivalence, HasWindowForOfNullSubflowIsFalse) {
  for (const Backend backend : test::kAllBackends) {
    FakeEnv env;
    env.add_subflow("a", 1000);
    env.add_packet(QueueId::kQ);
    auto program = must_load(
        "IF (SUBFLOWS.GET(0).HAS_WINDOW_FOR(Q.TOP)) { SET(R2, 1); }"
        "IF (SUBFLOWS.GET(5).HAS_WINDOW_FOR(Q.TOP)) { SET(R1, 1); }"
        "VAR bsbf = SUBFLOWS.GET(R3 - 1);"
        "IF (bsbf.HAS_WINDOW_FOR(Q.TOP)) { bsbf.PUSH(Q.POP()); }",
        backend);
    auto ctx = env.ctx();
    program->schedule(ctx);
    const char* name = rt::backend_name(backend);
    EXPECT_EQ(env.registers[1], 1) << name;  // the non-NULL control
    EXPECT_EQ(env.registers[0], 0) << name;
    EXPECT_EQ(env.q.size(), 1u) << name;
    EXPECT_TRUE(ctx.actions().empty()) << name;
  }
}

// Arithmetic at the int64 edges wraps identically on every backend
// (runtime/arith.hpp): INT64_MIN / -1 and % -1 must neither trap nor
// differ, and overflow wraps instead of being undefined. Operands come once
// from registers, so the optimizer cannot fold them, and once as literals,
// so it does.
TEST(ArithmeticEdgeEquivalence, AllBackendsWrapIdentically) {
  const std::vector<std::int64_t> want = {INT64_MIN, 0, INT64_MIN, -2,
                                          INT64_MIN};
  const char* from_registers =
      "PRINT(R1 / R2); PRINT(R1 % R2); PRINT(R3 + R4); PRINT(R3 * R5);"
      "PRINT(-R1);";
  const char* literals =
      "PRINT((-9223372036854775807 - 1) / -1);"
      "PRINT((-9223372036854775807 - 1) % -1);"
      "PRINT(9223372036854775807 + 1);"
      "PRINT(9223372036854775807 * 2);"
      "PRINT(-(-9223372036854775807 - 1));";
  for (const char* spec : {from_registers, literals}) {
    for (const Backend backend :
         {Backend::kInterpreter, Backend::kCompiled, Backend::kEbpf}) {
      FakeEnv env;
      env.registers = {INT64_MIN, -1, INT64_MAX, 1, 2, 0, 0, 0};
      auto program = must_load(spec, backend);
      std::vector<std::int64_t> prints;
      program->set_print_fn([&](std::int64_t v) { prints.push_back(v); });
      auto ctx = env.ctx();
      program->schedule(ctx);
      EXPECT_EQ(prints, want) << rt::backend_name(backend) << "\n" << spec;
    }
  }
}

}  // namespace
}  // namespace progmp
