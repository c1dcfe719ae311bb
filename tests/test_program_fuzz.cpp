// Program-level fuzzing: random (but guaranteed-terminating) mini-ISA
// programs are executed architecturally and then replayed through the
// timing pipeline under randomly chosen schemes with fault injection.  The
// pipeline must commit exactly the architectural dynamic instruction count
// -- the strongest end-to-end statement that fault handling never loses,
// duplicates or deadlocks work.
#include <gtest/gtest.h>

#include "src/check/semantics.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/timing/fault_model.hpp"
#include "tests/fuzz_util.hpp"

namespace vasim::cpu {
namespace {

class ProgramFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ProgramFuzz, PipelineCommitsExactlyTheArchitecturalStream) {
  const auto [source, scheme, model_wrong_path] = fuzzutil::draw_program_case(GetParam());
  const isa::Program prog = isa::assemble(source);

  // Architectural reference.
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_count = 0;
  while (ref.next(d)) ++dynamic_count;
  ASSERT_GT(dynamic_count, 10u);

  // The drawn scheme under fault injection at 0.97 V.
  timing::PathModelConfig pcfg{GetParam(), 0.10, 0.03};
  const timing::FaultModel fm(pcfg, 0.97);
  core::TimingErrorPredictor tep({}, &fm.environment());

  isa::FunctionalCore src(&prog);
  CoreConfig cfg;
  cfg.model_wrong_path = model_wrong_path;
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
