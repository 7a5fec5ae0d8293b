#include "pipeline/adaptive.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "telemetry/metrics.hpp"

namespace hpdr::pipeline {

std::size_t next_chunk_bytes(const GpuPerfModel& model, KernelClass kernel,
                             std::size_t current_bytes,
                             std::size_t limit_bytes) {
  // t = C_curr / Φ(C_curr): how long the compute engine is busy.
  const double t = model.kernel_seconds(kernel, current_bytes);
  // Θ(t): what H2D can ship meanwhile.
  std::size_t next = model.h2d().max_bytes(t);
  // A host-only device (no DMA) degenerates to "no growth".
  if (model.spec().h2d_gbps <= 0) next = current_bytes;
  // The paper's Θ treats interconnect throughput as constant because the
  // scheduler never operates in the latency-bound regime (§V-C); enforce
  // that regime: chunks grow until per-copy latency is ≤ 2 % of transfer.
  const std::size_t amortized = static_cast<std::size_t>(
      model.spec().h2d_gbps * 1e9 * model.h2d().latency_us * 1e-6 * 50.0);
  next = std::max(next, amortized);
  next = std::max(next, current_bytes);  // never shrink (Alg. 4 grows)
  return std::min(next, limit_bytes);
}

std::vector<std::size_t> adaptive_schedule(const GpuPerfModel& model,
                                           KernelClass kernel,
                                           std::size_t total_bytes,
                                           std::size_t granule_bytes,
                                           std::size_t init_bytes,
                                           std::size_t limit_bytes) {
  HPDR_REQUIRE(granule_bytes > 0, "zero granule");
  HPDR_REQUIRE(init_bytes > 0 && limit_bytes >= init_bytes,
               "bad adaptive chunk bounds");
  // Ceil to the granule so growth never stalls between granule multiples.
  auto round_to_granule = [&](std::size_t b) {
    const std::size_t g =
        std::max<std::size_t>(1, (b + granule_bytes - 1) / granule_bytes);
    return g * granule_bytes;
  };
  // Alg. 4 accounting: how often the growth step ran and how often the
  // C_limit clamp (GPU-memory bound) was what decided the chunk size.
  static telemetry::Counter& steps =
      telemetry::counter("pipeline.adaptive.steps");
  static telemetry::Counter& clamped =
      telemetry::counter("pipeline.adaptive.limit_clamped");
  static telemetry::Counter& schedules =
      telemetry::counter("pipeline.adaptive.schedules");
  schedules.add();
  std::vector<std::size_t> chunks;
  std::size_t rest = total_bytes;
  std::size_t current = round_to_granule(std::min(init_bytes, limit_bytes));
  while (rest > 0) {
    const std::size_t take = std::min(current, rest);
    chunks.push_back(take);
    rest -= take;
    const std::size_t grown =
        next_chunk_bytes(model, kernel, current, limit_bytes);
    steps.add();
    if (grown == limit_bytes && current < limit_bytes) clamped.add();
    current = round_to_granule(grown);
  }
  return chunks;
}

std::vector<std::size_t> fixed_schedule(std::size_t total_bytes,
                                        std::size_t granule_bytes,
                                        std::size_t chunk_bytes) {
  HPDR_REQUIRE(granule_bytes > 0, "zero granule");
  const std::size_t g =
      std::max<std::size_t>(1, chunk_bytes / granule_bytes);
  const std::size_t chunk = g * granule_bytes;
  std::vector<std::size_t> chunks;
  std::size_t rest = total_bytes;
  while (rest > 0) {
    const std::size_t take = std::min(chunk, rest);
    chunks.push_back(take);
    rest -= take;
  }
  return chunks;
}

std::size_t slab_granule(std::size_t rows, std::size_t slab_bytes) {
  return rows >= 8 ? 4 * slab_bytes : slab_bytes;
}

RowPlan plan_rows(const std::vector<std::size_t>& schedule,
                  std::size_t slab_bytes, std::size_t total_rows) {
  RowPlan plan;
  plan.rows.reserve(schedule.size());
  plan.begin.reserve(schedule.size());
  std::size_t row = 0;
  for (std::size_t bytes : schedule) {
    HPDR_ASSERT(bytes >= slab_bytes && bytes % slab_bytes == 0);
    plan.rows.push_back(bytes / slab_bytes);
    plan.begin.push_back(row);
    row += plan.rows.back();
  }
  HPDR_ASSERT(row == total_rows);
  return plan;
}

}  // namespace hpdr::pipeline
