// Simulated flat physical memory, demand-zero: a page costs host memory only
// once the flight touches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace air::hal {

using PhysAddr = std::uint32_t;
using VirtAddr = std::uint32_t;

/// Byte-addressable physical memory of fixed size. All accesses are bounds
/// checked; out-of-range access is a bug in the caller (the MMU must have
/// produced a valid frame), hence asserts rather than recoverable errors.
///
/// The bytes live in one anonymous private mapping: the host kernel supplies
/// a zero page on first touch, so untouched memory reads 0 and costs neither
/// construction time nor resident memory: like the integration-time memory
/// layout, the size is a reservation, not a fill.
class PhysicalMemory {
 public:
  explicit PhysicalMemory(std::size_t bytes);

  [[nodiscard]] std::size_t size() const { return bytes_.get_deleter().bytes; }

  void write(PhysAddr addr, std::span<const std::byte> data);
  void read(PhysAddr addr, std::span<std::byte> out) const;

  [[nodiscard]] std::uint8_t read_u8(PhysAddr addr) const;
  void write_u8(PhysAddr addr, std::uint8_t value);

  [[nodiscard]] std::uint32_t read_u32(PhysAddr addr) const;
  void write_u32(PhysAddr addr, std::uint32_t value);

 private:
  struct Unmap {
    std::size_t bytes{0};
    void operator()(std::byte* base) const;
  };
  std::unique_ptr<std::byte[], Unmap> bytes_;
};

/// Simple bump allocator over physical memory, used at integration time to
/// carve per-partition regions (code/data/stack per execution level). There
/// is deliberately no free(): ARINC 653 memory layout is static.
class FrameAllocator {
 public:
  FrameAllocator(PhysAddr base, std::size_t size) : next_(base), end_(base + size) {}

  /// Allocate `size` bytes aligned to `align`; returns the base address.
  [[nodiscard]] PhysAddr allocate(std::size_t size, std::size_t align = 16);

  [[nodiscard]] std::size_t remaining() const { return end_ - next_; }

 private:
  PhysAddr next_;
  PhysAddr end_;
};

}  // namespace air::hal
