// progmp-spec: the scheduler developer's command-line tool.
//
//   spec_tool list                 list the built-in schedulers
//   spec_tool show <name>          print a built-in specification
//   spec_tool check <file|name>    compile + verify, print diagnostics
//   spec_tool ir <file|name>       dump the optimized IR
//   spec_tool asm <file|name>      dump the eBPF disassembly
//
// The paper ships a Python toolchain around its kernel runtime; this is the
// equivalent for this repository — handy when iterating on a new scheduler
// before wiring it into an application.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime/program.hpp"
#include "sched/specs.hpp"

namespace {

using namespace progmp;

std::string load_source(const std::string& arg, std::string* name) {
  if (auto spec = sched::specs::find_spec(arg)) {
    *name = arg;
    return std::string(spec->source);
  }
  std::ifstream in(arg);
  if (!in) return {};
  *name = arg;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: spec_tool list | show <name> | check <file|name> | "
               "ir <file|name> | asm <file|name>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  if (command == "list") {
    for (const auto& spec : sched::specs::all_specs()) {
      std::printf("%-24s %s\n", std::string(spec.name).c_str(),
                  std::string(spec.summary).c_str());
    }
    return 0;
  }
  if (argc < 3) return usage();
  const std::string target = argv[2];

  if (command == "show") {
    const auto spec = sched::specs::find_spec(target);
    if (!spec) {
      std::fprintf(stderr, "unknown scheduler '%s'\n", target.c_str());
      return 1;
    }
    std::printf("%s\n", std::string(spec->source).c_str());
    return 0;
  }

  std::string name;
  const std::string source = load_source(target, &name);
  if (source.empty()) {
    std::fprintf(stderr, "cannot read '%s' (not a file or built-in)\n",
                 target.c_str());
    return 1;
  }

  DiagSink diags;
  rt::ProgmpProgram::LoadOptions options;
  options.backend = rt::Backend::kEbpf;
  auto program = rt::ProgmpProgram::load(source, name, options, diags);
  if (program == nullptr) {
    std::fprintf(stderr, "%s", diags.str().c_str());
    return 1;
  }

  if (command == "check") {
    std::printf("%s: OK — %d spec lines, %zu IR instructions, %zu eBPF "
                "instructions, %zu resident bytes, worst case %lld eBPF "
                "instructions (budget %lld)\n",
                name.c_str(), program->spec_lines(),
                program->ir().insts.size(), program->generic_code().size(),
                program->resident_bytes(),
                static_cast<long long>(program->derived_insn_bound()),
                static_cast<long long>(options.exec_budget));
    return 0;
  }
  if (command == "ir") {
    std::printf("%s", program->ir().str().c_str());
    return 0;
  }
  if (command == "asm") {
    std::printf("%s", program->disassembly().c_str());
    return 0;
  }
  return usage();
}
