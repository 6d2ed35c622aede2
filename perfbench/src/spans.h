// In-memory span recorder for the traced runs. Spans are recorded from the
// benchmark's own files around calls into each Veritas layer; nothing inside
// the library is instrumented. A span has a name, start, end, the span that
// caused it and the id of the session (or request) it belongs to, and the
// whole set is written out as Chrome trace JSON when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string session;
  double start = 0.0;  ///< Seconds, perfbench::Now().
  double end = 0.0;
  std::int64_t parent = -1;  ///< Index into the recorder, -1 for roots.
  std::uint32_t tid = 0;
  double seconds() const { return end - start; }
};

class SpanRecorder {
 public:
  /// Opens a span on the calling thread. Its parent is the innermost span
  /// still open on this thread unless `parent` is given (>= 0). Returns the
  /// span's index.
  std::int64_t Begin(const std::string& name, const std::string& session,
                     std::int64_t parent = -1);
  void End(std::int64_t id);
  /// Records a finished span with explicit times (e.g. a client-side
  /// session whose start is its scheduled send time).
  std::int64_t Add(const std::string& name, const std::string& session,
                   double start, double end, std::int64_t parent);

  std::vector<Span> Snapshot() const;
  /// Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Share of the summed duration of spans called `name` that no direct
  /// child span covers. Children are sequential on one thread, so their
  /// durations add.
  double UnattributedFrac(const std::string& name) const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it a no-op.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const std::string& name,
        const std::string& session)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, session) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
