// DMA double-buffering codegen helper: the one place that knows how a
// workload streams DRAM-resident arrays through TCDM tile buffers.
//
// A TiledBuffer is built from the run's WorkloadConfig plus a description of
// the arrays the kernel touches (name, direction, element size). When
// `config.tile > 0` it hands generators the standard tile-loop skeleton:
//
//   * double buffers in TCDM (`<name>_buf`, 2 x tile elements each) and the
//     full-size backing arrays in the `.dram` section (emit_data);
//   * a prologue that DMAs tile 0 in and synchronizes every hart;
//   * a per-tile hart-0 stage that enqueues the DMA-out of tile k-1 and the
//     DMA-in of tile k+1 *before* the compute code runs, so the serial-FIFO
//     DMA engine drains them while every hart computes tile k (the classic
//     double-buffer overlap); the out transfer is enqueued first, so the
//     FIFO order protects the shared back buffer;
//   * a tile epilogue — barrier, hart-0 `dmwait`, barrier, buffer flip,
//     countdown branch — and a final stage that stores the last tile.
//
// Register convention inside the tile loop (all unused by the kernels):
//   gp (x3) — tile countdown, T down to 1;
//   ra (x1) — byte offset of the *current* compute buffer (0 or tile bytes);
//   tp (x4) — DRAM byte offset of the current tile (k * tile_bytes).
// Every emitter is a no-op when `config.tile == 0`, so untiled programs stay
// byte-identical to the historical generators (the pinned paper cycle counts
// depend on this).
//
// Typical use inside a generator (see src/workloads/axpy.cpp):
//
//   workload::TiledBuffer tiled(cfg, {{"xarr", TiledBuffer::kIn, 8},
//                                     {"yarr", TiledBuffer::kInOut, 8}});
//   tiled.emit_data(b);                 // buffers + .dram arrays
//   ...
//   tiled.prologue(b, slice);           // gp/ra/tp init, DMA tile 0, barrier
//   b.label("tile_loop");
//   tiled.hart0_stage(b, slice);        // enqueue out(k-1) + in(k+1)
//   tiled.compute_base(b, "a3", 0, ...);// a3 = x tile buffer (+ hart slice)
//   ...compute the tile...
//   tiled.tile_epilogue(b, slice, "tile_loop");
//   tiled.final_store(b, slice);        // DMA out the last tile
//
// Validation goes through TiledBuffer::validate so every workload reports
// untileable configurations with the same value-carrying messages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/codegen.hpp"
#include "workload/hart_slice.hpp"
#include "workload/workload.hpp"

namespace copift::workload {

class TiledBuffer {
 public:
  enum Direction { kIn, kOut, kInOut };

  struct Array {
    std::string name;        // DRAM label; the TCDM buffer is "<name>_buf"
    Direction dir = kIn;
    std::uint32_t elem_bytes = 8;
  };

  TiledBuffer(const WorkloadConfig& config, std::vector<Array> arrays);

  /// Shared validation: throws ConfigError unless `tile` divides `n` into at
  /// least 2 tiles, `cores` divides `tile`, the per-hart per-tile chunk is a
  /// multiple of `granule`, and the double buffers leave
  /// `reserved_tcdm_bytes` (tables, arenas, stacks) free in TCDM. Arrays are
  /// described by their summed element bytes.
  static void validate(std::string_view workload, Variant variant,
                       const WorkloadConfig& config, std::uint32_t granule,
                       std::string_view granule_what, std::uint32_t bytes_per_element,
                       std::uint32_t reserved_tcdm_bytes);

  [[nodiscard]] bool enabled() const noexcept { return tile_ != 0; }
  /// Elements per tile (whole cluster) and tile count n / tile.
  [[nodiscard]] std::uint32_t tile() const noexcept { return tile_; }
  [[nodiscard]] std::uint32_t tiles() const noexcept { return tiles_; }
  /// Elements of one tile each hart computes: tile / cores.
  [[nodiscard]] std::uint32_t chunk() const noexcept { return chunk_; }

  /// Emit the TCDM double buffers (`.data`) and the DRAM backing arrays
  /// (`.section .dram`), leaving the builder in `.text`. No-op untiled —
  /// the caller emits its historical TCDM-resident arrays instead.
  void emit_data(kernels::AsmBuilder& b) const;

  /// Initialize gp/ra/tp, DMA tile 0 into buffer 0 (hart 0), `dmwait`, and
  /// rendezvous all harts.
  void prologue(kernels::AsmBuilder& b, const HartSlice& slice);

  /// Hart-0 overlap stage at the top of the tile loop: enqueue the DMA-out
  /// of the previous tile (skipped on the first tile) and the DMA-in of the
  /// next tile (skipped on the last) against the back buffer. The transfers
  /// drain while the compute code that follows runs.
  void hart0_stage(kernels::AsmBuilder& b, const HartSlice& slice);

  /// `dst = <arrays[index]>_buf + ra (+ hartid * chunk * elem_bytes)` — this
  /// hart's slice of the array's current compute buffer. Clobbers `tmp0`
  /// and, multi-core, `tmp1`; `hart_reg` must hold mhartid (ignored
  /// single-core).
  void compute_base(kernels::AsmBuilder& b, std::string_view dst, std::size_t index,
                    std::string_view hart_reg, std::string_view tmp0,
                    std::string_view tmp1) const;

  /// Close one tile: barrier, hart-0 `dmwait` (the back buffer's transfers
  /// must have landed before anyone computes from it), barrier, buffer flip
  /// (ra ^= tile bytes), tp advance, gp countdown and branch to `loop_label`.
  /// The caller must have drained its FP/SSR stores to TCDM first.
  void tile_epilogue(kernels::AsmBuilder& b, const HartSlice& slice,
                     std::string_view loop_label);

  /// After the loop: DMA the last computed tile out (hart 0), `dmwait`.
  void final_store(kernels::AsmBuilder& b, const HartSlice& slice);

 private:
  [[nodiscard]] std::uint32_t tile_bytes(const Array& a) const noexcept {
    return tile_ * a.elem_bytes;
  }
  /// Emit one dmsrc/dmdst/dmcpy triple. `dram_off`/`buf_off` are byte
  /// offsets added on top of the array base and the register-held cursors.
  void emit_transfer(kernels::AsmBuilder& b, const Array& a, bool to_tcdm,
                     std::int64_t dram_off, bool back_buffer) const;
  /// Fresh label suffix (emitters are called once per generator, but hart-0
  /// guards and branches need unique label names per call site).
  [[nodiscard]] std::string site_label(const char* stem);

  std::vector<Array> arrays_;
  std::uint32_t n_;
  std::uint32_t cores_;
  std::uint32_t tile_;
  std::uint32_t tiles_;
  std::uint32_t chunk_;
  unsigned next_site_ = 0;
};

}  // namespace copift::workload
