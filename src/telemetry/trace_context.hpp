#ifndef HPDR_TELEMETRY_TRACE_CONTEXT_HPP
#define HPDR_TELEMETRY_TRACE_CONTEXT_HPP

/// \file trace_context.hpp
/// Request tracing for the serving path. A TraceContext is a 64-bit trace
/// id (one per svc job) plus the span id of the innermost open span, and it
/// propagates thread-locally: svc mints a trace when a job is admitted and
/// installs it with a TraceScope for the job's lifetime; ThreadPool carries
/// it into every parallel_for body it runs on another thread.
/// Every Span created while a trace is installed records (trace id, span
/// id, parent span id), so the whole journey — admission, arena lease,
/// encode/decode, codec calls, BPLite I/O — is attributable to one request
/// and queryable as a per-request timeline (span.hpp: trace_timeline).
///
/// Ids are minted from a process-wide counter run through a mixer so they
/// look random but stay deterministic per process run; id 0 is reserved to
/// mean "not traced" and is never minted.

#include <cstdint>
#include <string>

namespace hpdr::telemetry {

struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = no active trace
  std::uint64_t span_id = 0;   ///< innermost open span (0 = trace root)
  bool active() const { return trace_id != 0; }
};

/// The calling thread's current trace context ({0,0} when untraced).
TraceContext current_trace();

/// Mint a fresh process-unique trace id (never 0).
std::uint64_t mint_trace_id();
/// Mint a fresh process-unique span id (never 0).
std::uint64_t mint_span_id();

/// Canonical textual form for manifests and drained events: 16 lowercase
/// hex digits, or "" for id 0 (ids exceed 2^53, so JSON strings, not
/// numbers).
std::string trace_id_hex(std::uint64_t id);

/// RAII: install `ctx` as the calling thread's trace context, restoring
/// the previous context on destruction. Used at trace roots (svc job
/// start) and by ThreadPool, which installs a batch's captured context on
/// each thread that runs part of it; parallel_for bodies need no scope of
/// their own.
class TraceScope {
 public:
  explicit TraceScope(TraceContext ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext saved_;
};

namespace detail {
/// Raw thread-local write used by Span to push/pop itself as the current
/// span without nesting TraceScope objects. Not for general use — callers
/// must restore the previous context themselves.
void set_current_trace(TraceContext ctx);
}  // namespace detail

}  // namespace hpdr::telemetry

#endif  // HPDR_TELEMETRY_TRACE_CONTEXT_HPP
