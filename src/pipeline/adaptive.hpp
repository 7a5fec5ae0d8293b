#ifndef HPDR_PIPELINE_ADAPTIVE_HPP
#define HPDR_PIPELINE_ADAPTIVE_HPP

/// \file adaptive.hpp
/// The adaptive chunk-size schedule of Alg. 4 (§V-C): the next chunk is
/// sized to what the H2D engine can transfer while the compute engine works
/// on the current chunk,
///
///   C_next = min(Θ(C_curr / Φ(C_curr)), C_limit),
///
/// with Φ the roofline throughput model and Θ the transfer model. Exposed
/// separately so tests can verify the monotone-growth and limit-clamping
/// properties without running a whole pipeline.

#include <cstddef>
#include <vector>

#include "runtime/perf_model.hpp"

namespace hpdr::pipeline {

/// One Alg. 4 step: the next chunk size in bytes.
std::size_t next_chunk_bytes(const GpuPerfModel& model, KernelClass kernel,
                             std::size_t current_bytes,
                             std::size_t limit_bytes);

/// The whole schedule for a tensor of `total_bytes` chunked in units of
/// `granule_bytes` (one slab along the slowest dimension — chunks are
/// always whole numbers of slabs). Returns per-chunk byte sizes summing to
/// total_bytes; every chunk is at least one granule.
std::vector<std::size_t> adaptive_schedule(const GpuPerfModel& model,
                                           KernelClass kernel,
                                           std::size_t total_bytes,
                                           std::size_t granule_bytes,
                                           std::size_t init_bytes,
                                           std::size_t limit_bytes);

/// Fixed-size schedule used by Mode::Fixed (same granule rounding).
std::vector<std::size_t> fixed_schedule(std::size_t total_bytes,
                                        std::size_t granule_bytes,
                                        std::size_t chunk_bytes);

/// Chunking granule for a tensor of `rows` slabs of `slab_bytes` each:
/// four-slab granules when the tensor is tall enough, so chunk boundaries
/// stay aligned with the codecs' 4^d block structure. The v2 and v3
/// writers both chunk on it, so their chunks line up.
std::size_t slab_granule(std::size_t rows, std::size_t slab_bytes);

/// Whole-slab geometry of a byte schedule over a tensor of `total_rows`
/// slabs: chunk c holds rows[c] slabs starting at tensor row begin[c].
struct RowPlan {
  std::vector<std::size_t> rows;
  std::vector<std::size_t> begin;
};
RowPlan plan_rows(const std::vector<std::size_t>& schedule,
                  std::size_t slab_bytes, std::size_t total_rows);

}  // namespace hpdr::pipeline

#endif  // HPDR_PIPELINE_ADAPTIVE_HPP
