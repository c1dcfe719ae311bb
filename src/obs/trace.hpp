// Structured tracing: a Chrome-trace-event / Perfetto-compatible JSON
// writer.
//
// Emits the JSON Object Format ({"traceEvents": [...], ...}) understood by
// chrome://tracing and https://ui.perfetto.dev.  Two granularities ride on
// it:
//   * sweep-level spans  -- one complete ("X") event per SweepJob, with the
//     pool worker id as tid (core::write_chrome_trace);
//   * instruction-level  -- per-stage spans from cpu::TraceObserver, with
//     the simulated cycle as the microsecond timestamp.
//
// The writer is thread-safe (one mutex around event emission) so sweep
// workers may log concurrently; events are streamed, never buffered, so
// multi-million-event instruction traces stay O(1) in memory.
#ifndef VASIM_OBS_TRACE_HPP
#define VASIM_OBS_TRACE_HPP

#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/types.hpp"

namespace vasim::obs {

/// JSON string literal (quotes + escapes) for trace arg values.
std::string json_quote(std::string_view s);

/// JSON number with `%.17g`, so every finite double parses back exactly;
/// NaN and infinities (which JSON cannot spell) are written as `null`.
std::string json_number(double v);

/// Chrome-trace-event JSON stream.  All ts/dur are microseconds, per the
/// trace-event spec; callers map simulated cycles or wall milliseconds onto
/// them.
class ChromeTraceWriter {
 public:
  /// One (key, value) trace arg; `value` must already be valid JSON (use
  /// json_quote for strings, json_number or std::to_string for numbers).
  using Arg = std::pair<std::string_view, std::string>;

  /// `out` must outlive the writer.  The header is written immediately.
  explicit ChromeTraceWriter(std::ostream* out);

  /// Closes the JSON document (idempotent; also run by the destructor).
  ~ChromeTraceWriter();
  void finish();

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Complete event ("X"): a span [ts_us, ts_us + dur_us) on (pid, tid).
  void complete_event(std::string_view name, std::string_view category, u64 pid, u64 tid,
                      double ts_us, double dur_us, std::initializer_list<Arg> args = {});

  /// Counter event ("C"): one sample per series in `args` on the counter
  /// track `name`; multiple args render as a stacked chart in Perfetto.
  /// Arg values must be JSON numbers.
  void counter_event(std::string_view name, std::string_view category, u64 pid, u64 tid,
                     double ts_us, std::initializer_list<Arg> args);

  /// Instant event ("i", thread scope).
  void instant_event(std::string_view name, std::string_view category, u64 pid, u64 tid,
                     double ts_us, std::initializer_list<Arg> args = {});

  /// Metadata: names the process / thread rows in the viewer.
  void process_name(u64 pid, std::string_view name);
  void thread_name(u64 pid, u64 tid, std::string_view name);

  [[nodiscard]] u64 events_written() const { return events_; }

 private:
  void event_prefix(std::string& buf, std::string_view name, std::string_view category,
                    char phase, u64 pid, u64 tid, double ts_us);
  void append_args(std::string& buf, std::initializer_list<Arg> args);
  void emit(const std::string& buf);

  std::mutex mu_;
  std::ostream* out_;
  u64 events_ = 0;
  bool first_ = true;
  bool finished_ = false;
};

}  // namespace vasim::obs

#endif  // VASIM_OBS_TRACE_HPP
