// SHA-256 (FIPS 180-4), self-contained — the benchmark's golden result
// digests, the tests' byte pins and the canonical config's file-topology
// hash are all SHA-256 digests, so "same bytes" rests on a
// collision-resistant hash rather than a 64-bit mixer. No external crypto
// dependency: ~100 lines, byte-exact on any platform.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ownsim {

class Sha256 {
 public:
  Sha256();

  /// Streams `size` bytes into the digest state.
  void update(const void* data, std::size_t size);
  void update(std::string_view text) { update(text.data(), text.size()); }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards (one-shot; construct a fresh one per message).
  std::array<std::uint8_t, 32> digest();

  /// Digest as 64 lowercase hex characters.
  std::string hex_digest();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finalized_ = false;
};

/// One-shot convenience: lowercase-hex SHA-256 of `text`.
std::string sha256_hex(std::string_view text);

}  // namespace ownsim
