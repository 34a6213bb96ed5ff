#include "hal/memory.hpp"

#include <sys/mman.h>

#include <cstring>

#include "util/assert.hpp"

namespace air::hal {

PhysicalMemory::PhysicalMemory(std::size_t bytes) : bytes_(nullptr, {bytes}) {
  if (bytes == 0) return;  // mmap rejects empty mappings
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  AIR_ASSERT_MSG(base != MAP_FAILED, "cannot map simulated physical memory");
  bytes_.reset(static_cast<std::byte*>(base));
}

void PhysicalMemory::Unmap::operator()(std::byte* base) const {
  ::munmap(base, bytes);
}

void PhysicalMemory::write(PhysAddr addr, std::span<const std::byte> data) {
  AIR_ASSERT_MSG(addr + data.size() <= size(), "physical write out of range");
  if (data.empty()) return;  // an empty memory has no base address
  std::memcpy(bytes_.get() + addr, data.data(), data.size());
}

void PhysicalMemory::read(PhysAddr addr, std::span<std::byte> out) const {
  AIR_ASSERT_MSG(addr + out.size() <= size(), "physical read out of range");
  if (out.empty()) return;
  std::memcpy(out.data(), bytes_.get() + addr, out.size());
}

std::uint8_t PhysicalMemory::read_u8(PhysAddr addr) const {
  AIR_ASSERT(addr < size());
  return static_cast<std::uint8_t>(bytes_[addr]);
}

void PhysicalMemory::write_u8(PhysAddr addr, std::uint8_t value) {
  AIR_ASSERT(addr < size());
  bytes_[addr] = static_cast<std::byte>(value);
}

std::uint32_t PhysicalMemory::read_u32(PhysAddr addr) const {
  std::uint32_t v = 0;
  read(addr, std::as_writable_bytes(std::span{&v, 1}));
  return v;
}

void PhysicalMemory::write_u32(PhysAddr addr, std::uint32_t value) {
  write(addr, std::as_bytes(std::span{&value, 1}));
}

PhysAddr FrameAllocator::allocate(std::size_t size, std::size_t align) {
  AIR_ASSERT(align > 0 && (align & (align - 1)) == 0);
  PhysAddr base = (next_ + static_cast<PhysAddr>(align) - 1) &
                  ~static_cast<PhysAddr>(align - 1);
  AIR_ASSERT_MSG(base + size <= end_, "physical memory exhausted");
  next_ = base + static_cast<PhysAddr>(size);
  return base;
}

}  // namespace air::hal
