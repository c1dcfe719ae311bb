// Example: run a real assembly program through the timing pipeline.
//
// Assembles a dot-product kernel in the mini ISA, executes it functionally,
// then drives the cycle-level pipeline with the same program under the
// fault-free machine and under ABS at 0.97 V, showing how the TEP learns the
// recurring faulty PCs (replays concentrate at the start).
//
// Pass a file name to also dump a Kanata pipeline trace of the ABS run
// (viewable in Konata): asm_pipeline trace.kanata
#include <fstream>
#include <iostream>
#include <memory>

#include "src/common/table.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/cpu/trace_sinks.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/timing/fault_model.hpp"

int main(int argc, char** argv) {
  using namespace vasim;
  const char* trace_path = argc > 1 ? argv[1] : nullptr;

  const isa::Program prog = isa::assemble(R"(
      # dot = sum(a[i] * b[i]) over 512 elements; arrays at 0x100000/0x200000
      lui  r10, 0x10        # &a
      lui  r11, 0x20        # &b
      addi r1, r0, 0        # i
      addi r2, r0, 512      # n
      addi r3, r0, 0        # dot
      addi r9, r0, 3        # shift for 8-byte stride
    init:                   # a[i] = i + 1, b[i] = 2
      shl  r4, r1, r9
      add  r5, r10, r4
      add  r6, r11, r4
      addi r7, r1, 1
      st   r7, 0(r5)
      addi r8, r0, 2
      st   r8, 0(r6)
      addi r1, r1, 1
      blt  r1, r2, init
      addi r1, r0, 0
    loop:
      shl  r4, r1, r9
      add  r5, r10, r4
      add  r6, r11, r4
      ld   r7, 0(r5)
      ld   r8, 0(r6)
      mul  r7, r7, r8
      add  r3, r3, r7
      addi r1, r1, 1
      blt  r1, r2, loop
      st   r3, 0(r10)
      halt
  )");

  // Functional reference run.
  isa::FunctionalCore ref(&prog);
  isa::DynInst d;
  u64 dynamic_instructions = 0;
  while (ref.next(d)) ++dynamic_instructions;
  std::cout << "dot-product kernel: " << prog.size() << " static / " << dynamic_instructions
            << " dynamic instructions; architectural dot = " << ref.load(0x100000) << "\n\n";

  // Fault-free timing run.
  {
    isa::FunctionalCore src(&prog);
    cpu::CoreConfig cfg;
    cpu::Pipeline pipe(cfg, cpu::scheme_fault_free(), &src, nullptr, nullptr);
    const cpu::PipelineResult r = pipe.run(dynamic_instructions);
    std::cout << "fault-free: " << r.committed << " committed in " << r.cycles
              << " cycles (IPC " << TextTable::fmt(r.ipc()) << ")\n";
  }

  // ABS at the high fault rate; watch the TEP learn.
  {
    isa::FunctionalCore src(&prog);
    timing::PathModelConfig pcfg;
    pcfg.seed = 42;
    pcfg.p_faulty_high = 0.10;
    pcfg.p_faulty_low = 0.03;
    const timing::FaultModel fm(pcfg, timing::SupplyPoints::kHighFault);
    core::TimingErrorPredictor tep({}, &fm.environment());
    cpu::CoreConfig cfg;
    cpu::Pipeline pipe(cfg, cpu::scheme_abs(), &src, &fm, &tep);

    std::unique_ptr<std::ofstream> trace;
    std::unique_ptr<cpu::KanataTraceWriter> writer;
    if (trace_path != nullptr) {
      trace = std::make_unique<std::ofstream>(trace_path);
      writer = std::make_unique<cpu::KanataTraceWriter>(trace.get(), 5000);
      pipe.set_check_hooks(writer.get());
    }

    u64 last_replays = 0;
    std::cout << "\nABS @ 0.97V, replays per 1000 committed instructions:\n";
    for (u64 chunk = 1; chunk * 1000 <= dynamic_instructions; ++chunk) {
      while (pipe.committed() < chunk * 1000 && pipe.step()) {
      }
      const u64 replays = pipe.registry().counter_value("fault.replays");
      std::cout << "  [" << (chunk - 1) * 1000 << ".." << chunk * 1000
                << "): " << (replays - last_replays) << "\n";
      last_replays = replays;
    }
    while (pipe.step()) {
    }
    const StatSet s = pipe.snapshot_stats();
    std::cout << "total: " << s.count("fault.actual") << " faults, " << s.count("fault.handled")
              << " handled by violation-aware scheduling, " << s.count("fault.replays")
              << " replays; " << pipe.committed() << " committed in " << pipe.now()
              << " cycles (IPC "
              << TextTable::fmt(static_cast<double>(pipe.committed()) /
                                static_cast<double>(pipe.now()))
              << ")\n"
              << "TEP learns the recurring faulty PCs, so replays die out after the\n"
              << "first loop iterations while throughput stays near fault-free.\n";
    if (writer) {
      std::cout << "\nKanata trace (" << writer->instructions_logged()
                << " instructions) written to " << trace_path << "\n";
    }
  }
  return 0;
}
