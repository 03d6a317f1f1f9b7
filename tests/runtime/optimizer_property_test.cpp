// Property tests for the optimization pipeline: for randomly generated
// (valid-by-construction) specifications, the optimized IR, the
// subflow-count-specialized IR, and the eBPF compilation of either must be
// observationally equivalent to the unoptimized interpreter reference.
#include <gtest/gtest.h>

#include <string>

#include "../testutil.hpp"
#include "core/rng.hpp"
#include "lang/analyzer.hpp"
#include "lang/parser.hpp"
#include "runtime/ebpf_compiler.hpp"
#include "runtime/ebpf_verifier.hpp"
#include "runtime/ebpf_vm.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/ir_exec.hpp"
#include "runtime/irgen.hpp"
#include "runtime/iropt.hpp"

namespace progmp::rt {
namespace {

using test::FakeEnv;
using mptcp::QueueId;

/// Grammar-directed random specification generator. Produces programs that
/// pass the analyzer by construction: pure predicates, POP only in legal
/// positions, subflow-list-only FOREACH, int-typed keys.
class SpecGen {
 public:
  explicit SpecGen(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::string out;
    const int statements = static_cast<int>(rng_.next_range(2, 6));
    for (int i = 0; i < statements; ++i) out += stmt(2);
    return out;
  }

 private:
  std::string sbf_prop() {
    static const char* props[] = {"RTT",   "RTT_VAR",        "CWND",
                                  "QUEUED", "SKBS_IN_FLIGHT", "MSS",
                                  "ID",    "RATE"};
    return props[rng_.next_below(std::size(props))];
  }
  std::string sbf_flag() {
    static const char* props[] = {"IS_BACKUP", "IS_PREFERRED", "LOSSY",
                                  "TSQ_THROTTLED", "CWND_FREE"};
    return props[rng_.next_below(std::size(props))];
  }
  std::string pkt_prop() {
    static const char* props[] = {"SIZE", "SEQ", "PROP1", "PROP2",
                                  "SENT_COUNT"};
    return props[rng_.next_below(std::size(props))];
  }
  std::string queue() {
    static const char* queues[] = {"Q", "QU", "RQ"};
    return queues[rng_.next_below(3)];
  }
  std::string reg() { return "R" + std::to_string(rng_.next_range(1, 8)); }
  std::string literal() { return std::to_string(rng_.next_range(-20, 100)); }

  /// An int-valued expression (pure).
  std::string int_expr(int depth) {
    switch (depth <= 0 ? rng_.next_below(3) : rng_.next_below(7)) {
      case 0: return literal();
      case 1: return reg();
      case 2: return "CURRENT_TIME_MS";
      case 3:
        return "(" + int_expr(depth - 1) + " " + arith_op() + " " +
               int_expr(depth - 1) + ")";
      case 4: {
        // Bind the parameter name first: operands of '+' are unsequenced.
        const std::string param = "x" + fresh();
        return "SUBFLOWS" + maybe_filter("s") + ".SUM(" + param + " => " +
               param + "." + sbf_prop() + ")";
      }
      case 5:
        return queue() + ".COUNT";
      case 6:
        return "SUBFLOWS" + maybe_filter("s") + ".COUNT";
    }
    return literal();
  }

  std::string arith_op() {
    static const char* ops[] = {"+", "-", "*", "/", "%"};
    return ops[rng_.next_below(std::size(ops))];
  }
  std::string cmp_op() {
    static const char* ops[] = {"<", ">", "<=", ">=", "==", "!="};
    return ops[rng_.next_below(std::size(ops))];
  }

  /// A bool-valued expression (pure).
  std::string bool_expr(int depth) {
    switch (depth <= 0 ? rng_.next_below(2) : rng_.next_below(6)) {
      case 0:
        return "(" + int_expr(depth - 1) + " " + cmp_op() + " " +
               int_expr(depth - 1) + ")";
      case 1:
        return queue() + ".EMPTY";
      case 2:
        return "(" + bool_expr(depth - 1) + " AND " + bool_expr(depth - 1) +
               ")";
      case 3:
        return "(" + bool_expr(depth - 1) + " OR " + bool_expr(depth - 1) +
               ")";
      case 4:
        return "(NOT " + bool_expr(depth - 1) + ")";
      case 5:
        return "(" + queue() + ".TOP != NULL)";
    }
    return "TRUE";
  }

  std::string fresh() {
    last_ = std::to_string(counter_++);
    return last_;
  }

  /// Zero or more FILTERs over SUBFLOWS.
  std::string maybe_filter(const std::string& base_name) {
    std::string out;
    const int filters = static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < filters; ++i) {
      const std::string param = base_name + fresh();
      std::string pred;
      if (rng_.chance(0.5)) {
        pred = "!" + param + "." + sbf_flag();
      } else {
        const std::string prop = sbf_prop();
        const std::string op = cmp_op();
        const std::string rhs = int_expr(0);
        pred = param + "." + prop + " " + op + " " + rhs;
      }
      out += ".FILTER(" + param + " => " + pred + ")";
    }
    return out;
  }

  std::string stmt(int depth) {
    switch (rng_.next_below(depth > 0 ? 5 : 3)) {
      case 0:
        return "SET(" + reg() + ", " + int_expr(2) + ");\n";
      case 1:
        return "PRINT(" + int_expr(2) + ");\n";
      case 2: {
        // MIN/MAX + PRINT of a property (observable, null-safe).
        const std::string param = "m" + fresh();
        const std::string kind = rng_.chance(0.5) ? "MIN" : "MAX";
        const std::string filters = maybe_filter("f");
        return "PRINT(SUBFLOWS" + filters + "." + kind + "(" + param +
               " => " + param + "." + sbf_prop() + ")." + sbf_prop() +
               ");\n";
      }
      case 3: {
        std::string out = "IF (" + bool_expr(2) + ") {\n" + stmt(depth - 1);
        if (rng_.chance(0.5)) {
          out += "} ELSE {\n" + stmt(depth - 1);
        }
        return out + "}\n";
      }
      case 4: {
        const std::string var = "v" + fresh();
        return "FOREACH (VAR " + var + " IN SUBFLOWS" + maybe_filter("g") +
               ") {\nPRINT(" + var + "." + sbf_prop() + ");\n" +
               "SET(" + reg() + ", " + reg() + " + 1);\n}\n";
      }
    }
    return "SET(R1, R1 + 1);\n";
  }

  Rng rng_;
  int counter_ = 0;
  std::string last_;
};

struct Observed {
  std::vector<std::int64_t> prints;
  std::vector<std::int64_t> registers;
  bool operator==(const Observed&) const = default;
};

lang::Program parse_analyzed(const std::string& spec) {
  DiagSink diags;
  lang::Program p = lang::parse(spec, "gen", diags);
  EXPECT_TRUE(diags.ok()) << diags.str() << "\nspec:\n" << spec;
  EXPECT_TRUE(lang::analyze(p, diags)) << diags.str() << "\nspec:\n" << spec;
  return p;
}

void make_env(FakeEnv& env, std::uint64_t seed) {
  Rng rng(seed);
  const int subflows = static_cast<int>(rng.next_range(0, 4));
  for (int i = 0; i < subflows; ++i) {
    auto& sbf = env.add_subflow("s" + std::to_string(i),
                                rng.next_range(500, 90'000),
                                rng.next_range(1, 30), rng.chance(0.4));
    sbf.preferred = rng.chance(0.6);
    sbf.lossy = rng.chance(0.2);
    sbf.tsq_throttled = rng.chance(0.2);
    sbf.queued = rng.next_range(0, 6);
    sbf.skbs_in_flight = rng.next_range(0, 20);
    sbf.delivery_rate_bps = static_cast<double>(rng.next_range(0, 1'000'000));
  }
  for (int q = 0; q < 3; ++q) {
    const auto count = rng.next_range(0, 4);
    for (std::int64_t i = 0; i < count; ++i) {
      mptcp::SkbProps props;
      props.prop1 = rng.next_range(0, 5);
      props.prop2 = rng.next_range(0, 5);
      env.add_packet(static_cast<QueueId>(q),
                     static_cast<std::int32_t>(rng.next_range(1, 1400)),
                     props);
    }
  }
  for (auto& r : env.registers) r = rng.next_range(-5, 50);
  env.now = milliseconds(rng.next_range(0, 5000));
}

template <typename RunFn>
Observed observe(const std::string& /*spec*/, std::uint64_t env_seed,
                 RunFn run) {
  FakeEnv env;
  make_env(env, env_seed);
  auto ctx = env.ctx();
  SchedulerEnv senv(ctx);
  Observed observed;
  senv.set_print_fn(
      [&](std::int64_t v) { observed.prints.push_back(v); });
  run(senv);
  observed.registers = env.registers;
  return observed;
}

class OptimizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerProperty, OptimizationPreservesBehaviour) {
  const std::uint64_t seed = GetParam();
  SpecGen gen(seed);
  const std::string spec = gen.generate();
  lang::Program p = parse_analyzed(spec);

  const IrProgram plain = lower(p);
  const IrProgram opt = optimize(lower(p));

  for (std::uint64_t env_seed = 1; env_seed <= 5; ++env_seed) {
    const Observed reference = observe(
        spec, env_seed, [&](SchedulerEnv& env) { interpret(p, env); });
    const Observed via_plain_ir = observe(
        spec, env_seed, [&](SchedulerEnv& env) { exec_ir(plain, env); });
    const Observed via_opt_ir = observe(
        spec, env_seed, [&](SchedulerEnv& env) { exec_ir(opt, env); });
    EXPECT_EQ(reference, via_plain_ir) << spec;
    EXPECT_EQ(reference, via_opt_ir) << spec;

    // eBPF of the optimized IR.
    const ebpf::CompileResult compiled = ebpf::compile(opt);
    ASSERT_TRUE(compiled.ok) << compiled.error << "\n" << spec;
    ASSERT_TRUE(ebpf::verify(compiled.code).ok) << spec;
    const Observed via_ebpf =
        observe(spec, env_seed, [&](SchedulerEnv& env) {
          ebpf::Vm vm;
          const auto run = vm.run(compiled.code, env);
          ASSERT_TRUE(run.ok) << run.error;
        });
    EXPECT_EQ(reference, via_ebpf) << spec;

    // Subflow-count specialization must be behaviour-preserving when the
    // live count matches.
    FakeEnv env;
    make_env(env, env_seed);
    const IrProgram special =
        optimize(lower(p), static_cast<std::int64_t>(env.subflows.size()));
    const Observed via_special = observe(
        spec, env_seed, [&](SchedulerEnv& senv) { exec_ir(special, senv); });
    EXPECT_EQ(reference, via_special) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSpecs, OptimizerProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace progmp::rt
