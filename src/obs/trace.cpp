#include "src/obs/trace.hpp"

#include <cmath>
#include <cstdio>

namespace vasim::obs {
namespace {

std::string json_f64(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream* out) : out_(out) {
  *out_ << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::finish() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  *out_ << "\n]}\n";
  out_->flush();
}

void ChromeTraceWriter::event_prefix(std::string& buf, std::string_view name,
                                     std::string_view category, char phase, u64 pid, u64 tid,
                                     double ts_us) {
  buf += "{\"name\": ";
  buf += json_quote(name);
  buf += ", \"cat\": ";
  buf += json_quote(category);
  buf += ", \"ph\": \"";
  buf += phase;
  buf += "\", \"pid\": ";
  buf += std::to_string(pid);
  buf += ", \"tid\": ";
  buf += std::to_string(tid);
  buf += ", \"ts\": ";
  buf += json_f64(ts_us);
}

void ChromeTraceWriter::append_args(std::string& buf, std::initializer_list<Arg> args) {
  if (args.size() == 0) return;
  buf += ", \"args\": {";
  bool first = true;
  for (const Arg& a : args) {
    if (!first) buf += ", ";
    first = false;
    buf += json_quote(a.first);
    buf += ": ";
    buf += a.second;
  }
  buf += '}';
}

void ChromeTraceWriter::emit(const std::string& buf) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  *out_ << (first_ ? "\n" : ",\n") << buf;
  first_ = false;
  ++events_;
}

void ChromeTraceWriter::complete_event(std::string_view name, std::string_view category,
                                       u64 pid, u64 tid, double ts_us, double dur_us,
                                       std::initializer_list<Arg> args) {
  std::string buf;
  event_prefix(buf, name, category, 'X', pid, tid, ts_us);
  buf += ", \"dur\": ";
  buf += json_f64(dur_us);
  append_args(buf, args);
  buf += '}';
  emit(buf);
}

void ChromeTraceWriter::counter_event(std::string_view name, std::string_view category,
                                      u64 pid, u64 tid, double ts_us,
                                      std::initializer_list<Arg> args) {
  std::string buf;
  event_prefix(buf, name, category, 'C', pid, tid, ts_us);
  append_args(buf, args);
  buf += '}';
  emit(buf);
}

void ChromeTraceWriter::instant_event(std::string_view name, std::string_view category,
                                      u64 pid, u64 tid, double ts_us,
                                      std::initializer_list<Arg> args) {
  std::string buf;
  event_prefix(buf, name, category, 'i', pid, tid, ts_us);
  buf += ", \"s\": \"t\"";
  append_args(buf, args);
  buf += '}';
  emit(buf);
}

void ChromeTraceWriter::process_name(u64 pid, std::string_view name) {
  std::string buf;
  buf += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
  buf += std::to_string(pid);
  buf += ", \"args\": {\"name\": ";
  buf += json_quote(name);
  buf += "}}";
  emit(buf);
}

void ChromeTraceWriter::thread_name(u64 pid, u64 tid, std::string_view name) {
  std::string buf;
  buf += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
  buf += std::to_string(pid);
  buf += ", \"tid\": ";
  buf += std::to_string(tid);
  buf += ", \"args\": {\"name\": ";
  buf += json_quote(name);
  buf += "}}";
  emit(buf);
}

}  // namespace vasim::obs
