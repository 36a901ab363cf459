#include "driver/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{1};
std::atomic<int> g_next_thread{1};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu

// The span open on this thread, inherited as parent by the next one.
thread_local int64_t t_current = 0;
thread_local uint64_t t_request = 0;
thread_local int t_thread = 0;

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(bool on) { g_enabled.store(on); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

int64_t Tracer::NextId() { return g_next_id.fetch_add(1); }

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(span);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":\"%016llx\"}}%s\n",
                 s.name, s.thread, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

std::map<std::string, LayerTime> Tracer::LayerTimes() const {
  const std::vector<Span> spans = Snapshot();
  std::map<int64_t, int64_t> child_ns;  // parent id -> covered ns
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& s : spans) {
    std::string name = s.name;
    LayerTime& layer = layers[name.substr(0, name.find('.'))];
    const int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const int64_t covered = it == child_ns.end() ? 0 : std::min(it->second, dur);
    layer.total_ms += dur / 1e6;
    layer.self_ms += (dur - covered) / 1e6;
    ++layer.spans;
  }
  return layers;
}

uint64_t RequestId(int tenant, int session, int64_t trial, bool tell) {
  uint64_t h = Mix(static_cast<uint64_t>(tenant));
  h = Mix(h ^ static_cast<uint64_t>(session));
  h = Mix(h ^ static_cast<uint64_t>(trial));
  return Mix(h ^ (tell ? 1u : 0u));
}

Timer::Timer(const char* name, std::vector<double>* sink, uint64_t request)
    : sink_(sink), tracing_(g_enabled.load(std::memory_order_relaxed)) {
  if (tracing_) {
    if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
    span_.name = name;
    span_.id = Tracer::Get().NextId();
    span_.parent = t_current;
    span_.request = request != 0 ? request : t_request;
    span_.thread = t_thread;
    saved_parent_ = t_current;
    saved_request_ = t_request;
    t_current = span_.id;
    t_request = span_.request;
  }
  start_ = Clock::now();
}

double Timer::Stop() {
  if (stopped_) return elapsed_ms_;
  stopped_ = true;
  const Clock::time_point end = Clock::now();
  elapsed_ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (sink_ != nullptr) sink_->push_back(elapsed_ms_);
  if (tracing_) {
    span_.start_ns = SinceEpochNs(start_);
    span_.end_ns = SinceEpochNs(end);
    Tracer::Get().Record(span_);
    t_current = saved_parent_;
    t_request = saved_request_;
  }
  return elapsed_ms_;
}

Timer::~Timer() { Stop(); }

}  // namespace perfbench
