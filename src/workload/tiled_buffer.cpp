#include "workload/tiled_buffer.hpp"

#include <string>

#include "common/error.hpp"
#include "common/layout.hpp"

namespace copift::workload {

using kernels::AsmBuilder;
using kernels::cat;

TiledBuffer::TiledBuffer(const WorkloadConfig& config, std::vector<Array> arrays)
    : arrays_(std::move(arrays)),
      n_(config.n),
      cores_(config.cores == 0 ? 1 : config.cores),
      tile_(config.tile),
      tiles_(config.tile == 0 ? 0 : config.n / config.tile),
      chunk_(config.tile / cores_) {
  if (arrays_.empty()) throw Error("TiledBuffer: no arrays described");
  // One DRAM cursor (tp) serves every array, so they must share a stride.
  for (const Array& a : arrays_) {
    if (a.elem_bytes != arrays_.front().elem_bytes) {
      throw Error("TiledBuffer: arrays must share one element size (" + a.name + " differs)");
    }
  }
}

void TiledBuffer::validate(std::string_view workload, Variant variant,
                           const WorkloadConfig& config, std::uint32_t granule,
                           std::string_view granule_what, std::uint32_t bytes_per_element,
                           std::uint32_t reserved_tcdm_bytes) {
  if (config.tile == 0) return;
  const auto fail = [&](const std::string& what) {
    throw ConfigError(workload, variant, what);
  };
  const std::uint32_t tile = config.tile;
  if (config.n % tile != 0) {
    fail("tile=" + std::to_string(tile) + " does not divide n=" + std::to_string(config.n));
  }
  if (config.n / tile < 2) {
    fail("n=" + std::to_string(config.n) + " with tile=" + std::to_string(tile) +
         " yields fewer than 2 tiles (double buffering needs a second tile)");
  }
  const std::uint32_t cores = config.cores == 0 ? 1 : config.cores;
  if (tile % cores != 0) {
    fail("cores=" + std::to_string(cores) + " does not divide tile=" + std::to_string(tile));
  }
  const std::uint32_t chunk = tile / cores;
  if (granule > 1 && chunk % granule != 0) {
    fail("per-hart tile chunk " + std::to_string(chunk) + " (tile=" + std::to_string(tile) +
         " / cores=" + std::to_string(cores) + ") must be a multiple of " +
         std::string(granule_what) + " " + std::to_string(granule));
  }
  // Two buffers per array plus the workload's resident data and the per-hart
  // stacks must fit in TCDM.
  const std::uint64_t buffers = 2ull * tile * bytes_per_element;
  const std::uint64_t budget =
      kTcdmSize - static_cast<std::uint64_t>(cores) * kHartStackBytes - reserved_tcdm_bytes;
  if (buffers > budget) {
    fail("tile=" + std::to_string(tile) + " needs " + std::to_string(buffers) +
         " bytes of double buffers but only " + std::to_string(budget) +
         " bytes of TCDM remain after resident data and stacks");
  }
}

void TiledBuffer::emit_data(AsmBuilder& b) const {
  if (!enabled()) return;
  b.raw(".data\n");
  b.l(".align 3");
  b.c("double-buffered tile staging (2 tiles per array)");
  for (const Array& a : arrays_) {
    b.label(a.name + "_buf");
    b.l(cat(".space ", 2 * tile_bytes(a)));
  }
  b.raw(".section .dram\n");
  b.c("full-size arrays, reachable only through the cluster DMA");
  for (const Array& a : arrays_) {
    b.label(a.name);
    b.l(cat(".space ", static_cast<std::uint64_t>(n_) * a.elem_bytes));
  }
  b.raw(".text\n");
}

std::string TiledBuffer::site_label(const char* stem) {
  return cat("tiled_", stem, "_", next_site_++);
}

void TiledBuffer::emit_transfer(AsmBuilder& b, const Array& a, bool to_tcdm,
                                std::int64_t dram_off, bool back_buffer) const {
  const std::uint32_t tb = tile_bytes(a);
  // DRAM endpoint: array base + tp (current tile) + dram_off.
  b.l(cat("la a1, ", a.name));
  b.l("add a1, a1, tp");
  if (dram_off != 0) kernels::emit_add_imm(b, "a1", "a1", dram_off, "a5");
  // TCDM endpoint: front buffer at +ra, back buffer at +(ra ^ tile bytes).
  b.l(cat("la a2, ", a.name, "_buf"));
  if (back_buffer) {
    b.l(cat("li a5, ", tb));
    b.l("xor a5, ra, a5");
    b.l("add a2, a2, a5");
  } else {
    b.l("add a2, a2, ra");
  }
  b.l(to_tcdm ? "dmsrc a1" : "dmsrc a2");
  b.l(to_tcdm ? "dmdst a2" : "dmdst a1");
  b.l(cat("li a5, ", tb));
  b.l("dmcpy zero, a5");
}

void TiledBuffer::prologue(AsmBuilder& b, const HartSlice& slice) {
  if (!enabled()) return;
  b.c(cat("tile loop state: gp counts ", tiles_, " tiles down, ra is the compute-"));
  b.c("buffer byte offset, tp the DRAM byte offset of the current tile");
  b.l(cat("li gp, ", tiles_));
  b.l("li ra, 0");
  b.l("li tp, 0");
  const std::string skip = site_label("prologue");
  slice.read_hartid(b, "a0", "hart 0 owns the shared DMA engine");
  slice.begin_hart0_only(b, "a0", skip);
  b.c("stage tile 0 into the front buffers before anyone computes");
  for (const Array& a : arrays_) {
    if (a.dir != kOut) emit_transfer(b, a, /*to_tcdm=*/true, 0, /*back_buffer=*/false);
  }
  b.l("dmwait");
  slice.end_hart0_only(b, skip);
  slice.barrier(b);
}

void TiledBuffer::hart0_stage(AsmBuilder& b, const HartSlice& slice) {
  if (!enabled()) return;
  const std::string skip = site_label("stage");
  const std::string no_out = site_label("no_out");
  const std::string no_in = site_label("no_in");
  b.c("overlap stage: hart 0 streams the back buffer while everyone computes;");
  b.c("the out transfer is enqueued first, so the serial DMA FIFO finishes");
  b.c("reading the back buffer before the in transfer overwrites it");
  slice.read_hartid(b, "a0");
  slice.begin_hart0_only(b, "a0", skip);
  b.l(cat("li a0, ", tiles_));
  b.l(cat("beq gp, a0, ", no_out));  // first tile: nothing computed yet
  for (const Array& a : arrays_) {
    if (a.dir != kIn) {
      emit_transfer(b, a, /*to_tcdm=*/false, -static_cast<std::int64_t>(tile_bytes(a)),
                    /*back_buffer=*/true);
    }
  }
  b.label(no_out);
  b.l("li a0, 1");
  b.l(cat("beq gp, a0, ", no_in));  // last tile: nothing left to fetch
  for (const Array& a : arrays_) {
    if (a.dir != kOut) {
      emit_transfer(b, a, /*to_tcdm=*/true, static_cast<std::int64_t>(tile_bytes(a)),
                    /*back_buffer=*/true);
    }
  }
  b.label(no_in);
  slice.end_hart0_only(b, skip);
}

void TiledBuffer::compute_base(AsmBuilder& b, std::string_view dst, std::size_t index,
                               std::string_view hart_reg, std::string_view tmp0,
                               std::string_view tmp1) const {
  if (!enabled()) return;
  const Array& a = arrays_.at(index);
  b.l(cat("la ", dst, ", ", a.name, "_buf"));
  b.l(cat("add ", dst, ", ", dst, ", ra"));
  if (cores_ > 1) {
    b.l(cat("li ", tmp0, ", ", chunk_ * a.elem_bytes));
    b.l(cat("mul ", tmp1, ", ", hart_reg, ", ", tmp0));
    b.l(cat("add ", dst, ", ", dst, ", ", tmp1));
  }
}

void TiledBuffer::tile_epilogue(AsmBuilder& b, const HartSlice& slice,
                                std::string_view loop_label) {
  if (!enabled()) return;
  const std::string skip = site_label("wait");
  b.c("close the tile: everyone done computing, then the back buffer's DMA");
  b.c("must have landed before anyone swaps onto it");
  slice.barrier(b);
  slice.read_hartid(b, "a0");
  slice.begin_hart0_only(b, "a0", skip);
  b.l("dmwait");
  slice.end_hart0_only(b, skip);
  slice.barrier(b);
  const std::uint32_t tb = tile_bytes(arrays_.front());
  b.l(cat("li a0, ", tb));
  b.l("xor ra, ra, a0");  // swap compute/back buffers
  b.l("add tp, tp, a0");  // next tile's DRAM offset
  b.l("addi gp, gp, -1");
  b.l(cat("bnez gp, ", loop_label));
}

void TiledBuffer::final_store(AsmBuilder& b, const HartSlice& slice) {
  if (!enabled()) return;
  const std::string skip = site_label("final");
  b.c("drain the last computed tile back to DRAM");
  const std::uint32_t tb = tile_bytes(arrays_.front());
  b.l(cat("li a0, ", tb));
  b.l("xor ra, ra, a0");  // back to the buffer holding the last tile
  slice.read_hartid(b, "a0");
  slice.begin_hart0_only(b, "a0", skip);
  for (const Array& a : arrays_) {
    if (a.dir != kIn) {
      // tp overshot by one tile in the last tile_epilogue.
      emit_transfer(b, a, /*to_tcdm=*/false, -static_cast<std::int64_t>(tile_bytes(a)),
                    /*back_buffer=*/false);
    }
  }
  b.l("dmwait");
  slice.end_hart0_only(b, skip);
}

}  // namespace copift::workload
