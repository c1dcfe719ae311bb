// Program-level fuzzing: random (but guaranteed-terminating) mini-ISA
// programs are executed architecturally and then replayed through the
// timing pipeline under randomly chosen schemes with fault injection.  The
// pipeline must commit exactly the architectural dynamic instruction count
// -- the strongest end-to-end statement that fault handling never loses,
// duplicates or deadlocks work.
#include <gtest/gtest.h>

#include <sstream>

#include "src/check/semantics.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/core/runner.hpp"
#include "src/timing/fault_model.hpp"
#include "tests/fuzz_util.hpp"

namespace vasim::cpu {
namespace {

/// Emits a random program: a chain of counted loops whose bodies mix ALU,
/// memory and occasional mul/div work.  Always terminates.
std::string random_program(Pcg32& rng) {
  std::ostringstream os;
  os << "lui r10, 0x10\n";  // memory base
  const int loops = 1 + static_cast<int>(rng.next_below(4));
  for (int l = 0; l < loops; ++l) {
    const int trip = 3 + static_cast<int>(rng.next_below(30));
    os << "addi r1, r0, 0\n";
    os << "addi r2, r0, " << trip << "\n";
    os << "L" << l << ":\n";
    const int body = 1 + static_cast<int>(rng.next_below(8));
    for (int b = 0; b < body; ++b) {
      const int dst = 3 + static_cast<int>(rng.next_below(6));
      const int src = 1 + static_cast<int>(rng.next_below(8));
      switch (rng.next_below(6)) {
        case 0: os << "add r" << dst << ", r" << src << ", r1\n"; break;
        case 1: os << "addi r" << dst << ", r" << src << ", " << rng.next_below(100) << "\n"; break;
        case 2: os << "ld r" << dst << ", " << 8 * rng.next_below(16) << "(r10)\n"; break;
        case 3: os << "st r" << src << ", " << 8 * rng.next_below(16) << "(r10)\n"; break;
        case 4: os << "mul r" << dst << ", r" << src << ", r2\n"; break;
        default: os << "xor r" << dst << ", r" << src << ", r2\n"; break;
      }
    }
    os << "addi r1, r1, 1\n";
    os << "blt r1, r2, L" << l << "\n";
  }
  os << "halt\n";
  return os.str();
}

class ProgramFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ProgramFuzz, PipelineCommitsExactlyTheArchitecturalStream) {
  Pcg32 rng(GetParam(), 0x9f09ULL);
  const isa::Program prog = isa::assemble(random_program(rng));

  // Architectural reference.
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_count = 0;
  while (ref.next(d)) ++dynamic_count;
  ASSERT_GT(dynamic_count, 10u);

  // Random scheme under fault injection at 0.97 V.
  const auto schemes = core::comparative_schemes();
  SchemeConfig scheme = schemes[rng.next_below(static_cast<u32>(schemes.size()))];
  if (rng.next_bool(0.4)) scheme.recovery = RecoveryModel::kSquashRefetch;
  timing::PathModelConfig pcfg{GetParam(), 0.10, 0.03};
  const timing::FaultModel fm(pcfg, 0.97);
  core::TimingErrorPredictor tep({}, &fm.environment());

  isa::FunctionalCore src(&prog);
  CoreConfig cfg;
  cfg.model_wrong_path = rng.next_bool(0.4);
  Pipeline pipe(cfg, scheme, &src, &fm, scheme.use_predictor ? &tep : nullptr);
  check::SemanticsChecker checker(cfg, scheme);
  checker.attach(pipe);
  const PipelineResult r = pipe.run(10 * dynamic_count);

  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks(), 0u);
  EXPECT_EQ(r.committed, dynamic_count) << "scheme " << scheme.name;
  EXPECT_GE(r.cycles, dynamic_count / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::ValuesIn(vasim::fuzzutil::seeds("program", 101, 15)),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace vasim::cpu
