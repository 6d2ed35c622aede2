#include "spans.h"

#include <atomic>
#include <fstream>

#include "record.h"

namespace perfbench {

namespace {

std::uint32_t ThreadTag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

}  // namespace

std::int64_t SpanRecorder::Begin(const std::string& name,
                                 const std::string& session,
                                 std::int64_t parent) {
  if (parent < 0 && !open_spans.empty()) parent = open_spans.back();
  const std::int64_t id = Add(name, session, Now(), 0.0, parent);
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(std::int64_t id) {
  const double end = Now();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::int64_t SpanRecorder::Add(const std::string& name,
                               const std::string& session, double start,
                               double end, std::int64_t parent) {
  Span span;
  span.name = name;
  span.session = session;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.tid = ThreadTag();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double SpanRecorder::UnattributedFrac(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    total += spans_[i].seconds();
    uncovered += spans_[i].seconds() - covered[i];
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject args;
    args.Add("id", static_cast<std::uint64_t>(i));
    args.AddRaw("parent", std::to_string(s.parent));
    args.Add("session", s.session);
    JsonObject event;
    event.Add("name", s.name)
        .Add("cat", "perfbench")
        .Add("ph", "X")
        .Add("ts", s.start * 1e6)
        .Add("dur", s.seconds() * 1e6)
        .Add("pid", 1)
        .Add("tid", static_cast<std::uint64_t>(s.tid))
        .AddRaw("args", args.ToString());
    out << "  " << event.ToString() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
